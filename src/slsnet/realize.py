"""Realizability of switching-signal constraints.

A signal constraint restricts which switching sequences the logical
layer may emit: fixed operating times per signal value, a minimum dwell
time, or an explicit finite reference sequence to track. Each check
reads successor indices of the input-state graph: a pair moves to
(gamma', L-target) for every next input gamma', so whether a pair
emitting sigma can stay on sigma or escape from it is decided by the M
signals emitted after its L-target. The checks run per pair, so the
diagnostics name exactly which input-state pair breaks the requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import DimensionError, check_int
from .lcn import LogicalNetwork, decode_pair

INFINITY = math.inf


def _check_duration(d, what: str, infinite: bool):
    """A positive integer duration, or INFINITY where infinite allows it."""
    try:
        return d if infinite and d == INFINITY else check_int(d, what)
    except DimensionError:
        raise ValueError(f"{what} {d!r} is not a positive integer{' or INFINITY' if infinite else ''}") from None


@dataclass(frozen=True)
class FotSpec:
    """Fixed operating times, one per signal value; INFINITY allowed.

    Duration 1 means the signal must be left immediately after each
    activation, a finite duration above 1 means it must be sustainable
    and leavable, INFINITY means it must be sustainable forever.
    """

    durations: tuple

    def __init__(self, durations: Sequence):
        durs = tuple(_check_duration(d, "duration", True) for d in durations)
        object.__setattr__(self, "durations", durs)

    @property
    def q(self) -> int:
        return len(self.durations)

    def needs_escape(self, sigma: int) -> bool:
        return self.durations[sigma - 1] != INFINITY

    def needs_stay(self, sigma: int) -> bool:
        return self.durations[sigma - 1] > 1


@dataclass(frozen=True)
class SignalPreimage:
    """Input-state pairs emitting one signal value."""

    sigma: int
    members: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return not self.members


@dataclass(frozen=True)
class TrackingProblem:
    theta0: int
    reference: tuple[int, ...]

    def __init__(self, theta0: int, reference: Sequence[int]):
        # stored as given: check_trackable checks them against the network
        ref = tuple(reference)
        if not ref:
            raise ValueError("reference sequence may not be empty")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "reference", ref)


@dataclass(frozen=True)
class SignalDiagnostic:
    """Outcome of the stay/escape conditions for one signal value.

    Failure tuples hold the input-state pair encodings that violate the
    corresponding condition; unreachable marks an empty preimage, whose
    conditions hold vacuously.
    """

    sigma: int
    requirement: object
    unreachable: bool = False
    escape_failures: tuple[int, ...] = ()
    stay_failures: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.escape_failures and not self.stay_failures


@dataclass(frozen=True)
class RealizabilityVerdict:
    realizable: bool
    diagnostics: tuple[SignalDiagnostic, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class TrackVerdict:
    trackable: bool
    witness: tuple[int, ...] | None
    failed_at: int | None
    frontier_sizes: tuple[int, ...]


def check_one_step_universal(net: LogicalNetwork) -> bool:
    """True when every state can be driven to every state in one step: for
    each pair of states, some input moves the first to the second. A
    diagnostic of the logical layer alone; no property check calls it."""
    counts = [[0] * net.N for _ in range(net.N)]
    for j, target in enumerate(net.L.col_index):
        theta = j % net.N
        counts[target - 1][theta] += 1
    return all(c > 0 for row in counts for c in row)


def signal_preimages(net: LogicalNetwork) -> list[SignalPreimage]:
    """Partition of the input-state pairs by emitted signal value."""
    members: dict[int, list[int]] = {i: [] for i in range(1, net.q + 1)}
    for j, sigma in enumerate(net.R.col_index):
        members[sigma].append(j + 1)
    return [SignalPreimage(i, tuple(members[i])) for i in range(1, net.q + 1)]


def _realizability(net: LogicalNetwork, requirements, needs) -> RealizabilityVerdict:
    """Stay/escape diagnostics for every signal value.

    needs[sigma-1] is the (escape, stay) pair of conditions that every
    pair emitting sigma must meet. A pair can escape unless all M of its
    successors emit sigma, and it can stay iff some successor emits sigma.
    """
    # signals emitted after reaching state theta, one per next input
    next_signals = [set(net.R.col_index[theta::net.N]) for theta in range(net.N)]
    diagnostics = []
    warnings = []
    for pre in signal_preimages(net):
        sigma = pre.sigma
        if pre.empty:
            diagnostics.append(SignalDiagnostic(sigma, requirements[sigma - 1], unreachable=True))
            warnings.append(f"signal {sigma} unreachable: no input-state pair produces it")
            continue
        need_escape, need_stay = needs[sigma - 1]
        ahead = [(x, next_signals[net.L.target(x) - 1]) for x in pre.members]
        escape = tuple(x for x, signals in ahead if need_escape and signals == {sigma})
        stay = tuple(x for x, signals in ahead if need_stay and sigma not in signals)
        diagnostics.append(SignalDiagnostic(sigma, requirements[sigma - 1], False, escape, stay))
    return RealizabilityVerdict(
        all(d.ok for d in diagnostics), tuple(diagnostics), tuple(warnings)
    )


def check_fot_realizable(net: LogicalNetwork, spec: FotSpec) -> RealizabilityVerdict:
    """Can the logical layer emit runs honoring the given operating times?

    Per signal value: duration 1 demands an escape move from every pair
    producing it, a finite duration above 1 demands both an escape and a
    stay move, and an infinite duration demands a stay move.
    """
    if spec.q != net.q:
        raise ValueError(f"spec lists {spec.q} durations, network emits {net.q} signals")
    needs = [(spec.needs_escape(sigma), spec.needs_stay(sigma)) for sigma in range(1, net.q + 1)]
    return _realizability(net, spec.durations, needs)


def check_dwell_time_realizable(
    net: LogicalNetwork, min_dwell: Sequence[int]
) -> RealizabilityVerdict:
    """Can every signal value be sustained and eventually left?

    A minimum dwell time admits arbitrarily long activations, so every
    producing pair needs both a stay and an escape move regardless of
    the particular bounds.
    """
    dwells = tuple(min_dwell)
    if len(dwells) != net.q:
        raise ValueError(f"{len(dwells)} dwell times given, network emits {net.q} signals")
    for d in dwells:
        _check_duration(d, "dwell time", False)
    return _realizability(net, dwells, [(True, True)] * net.q)


def check_trackable(net: LogicalNetwork, problem: TrackingProblem) -> TrackVerdict:
    """Can some input sequence make the emitted signals equal the reference?

    Propagates the set of input-state pairs consistent with the reference
    so far; tracking fails at the first step where it empties. Each step
    keeps the smallest frontier pair per L-target state (a successor
    fixes its target state), then emits the successors input by input in
    ascending order, in O(|frontier| + M*N). On success the witness is
    recovered by walking predecessor links backwards, smallest pair first.
    """
    check_int(problem.theta0, "initial state", 1, net.N)
    for sigma in problem.reference:
        check_int(sigma, "reference signal", 1, net.q)

    preimages = {p.sigma: set(p.members) for p in signal_preimages(net)}
    frontier = sorted(
        (gamma - 1) * net.N + problem.theta0
        for gamma in range(1, net.M + 1)
        if (gamma - 1) * net.N + problem.theta0 in preimages[problem.reference[0]]
    )
    sizes = [len(frontier)]
    if not frontier:
        return TrackVerdict(False, None, 0, tuple(sizes))

    l_target = net.L.col_index
    links: list[dict[int, int]] = []
    for t in range(1, len(problem.reference)):
        wanted = preimages[problem.reference[t]]
        # walked backwards, so the smallest pair per target state is kept
        first_pair = {l_target[pair - 1]: pair for pair in reversed(frontier)}
        targets = sorted(first_pair)
        step_links = {
            offset + theta: first_pair[theta]
            for offset in range(0, net.M * net.N, net.N)
            for theta in targets
            if offset + theta in wanted
        }
        frontier = list(step_links)
        links.append(step_links)
        sizes.append(len(frontier))
        if not frontier:
            return TrackVerdict(False, None, t, tuple(sizes))

    pair = frontier[0]
    chain = [pair]
    for step_links in reversed(links):
        pair = step_links[pair]
        chain.append(pair)
    chain.reverse()
    witness = tuple(decode_pair(p, net.N)[0] for p in chain)
    return TrackVerdict(True, witness, None, tuple(sizes))
