"""Realizability of switching-signal constraints.

A signal constraint restricts which switching sequences the logical
layer may emit: fixed operating times per signal value, a minimum dwell
time, or an explicit finite reference sequence to track. Each check
reads successor indices of the input-state graph: a pair moves to
(gamma', L-target) for every next input gamma', so whether a pair
emitting sigma can stay on sigma or escape from it is decided by the M
signals emitted after its L-target. These checks run per pair, so the
diagnostics name exactly which input-state pair breaks the requirement.
Tracking instead follows the set of states the reference allows, as a
bitmask, and names pairs only in its witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Sequence

from .algebra import DimensionError, check_int
from .lcn import LogicalNetwork

INFINITY = math.inf
# binary digits of a state set as 0/1 bytes, the selectors of compress
_DIGITS = bytes.maketrans(b"01", b"\0\1")
# below N/_SPARSE members, walking the set bits beats scanning all N digits
_SPARSE = 8


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

    Forward pass: S_t, the set of states consistent with the reference so
    far, is one N-bit int per step (bit theta-1 for state theta). Its
    frontier is the pairs (gamma, theta) with theta in S_t that emit the
    reference signal sigma_t, and tracking fails at the first step whose
    frontier is empty. An O((M+q)*N) precomputation gives, per signal value
    sigma, the successor mask of each state (the L-targets of its inputs
    that emit sigma) and, per input gamma, the mask of the states at which
    gamma emits sigma. S_{t+1} is the OR of the successor masks of the
    members of S_t, and the frontier size is the popcount of S_t under
    each emit mask. A sparse S_t is walked bit by bit; a dense one picks
    its masks by its binary digits in C. So a step costs |S_t| mask ORs,
    however large the pair frontier, and memory is one int per step.

    Backward pass, on success only: the witness ends at the smallest pair
    of the last frontier. Each earlier pair is the first entry of the
    ascending L-preimage list of the next pair's state that emits sigma_t
    from a state in S_t, i.e. the smallest frontier pair leading there.
    """
    check_int(problem.theta0, "initial state", 1, net.N)
    for sigma in problem.reference:
        check_int(sigma, "reference signal", 1, net.q)

    N, M = net.N, net.M
    l_target, signal = net.L.col_index, net.R.col_index
    # successor masks per signal value, listed from state N down to state 1
    # so that they line up with the binary digits of a state set
    succ = [[0] * N for _ in range(net.q)]
    emits = [[0] * M for _ in range(net.q)]
    for pair, (target, sigma) in enumerate(zip(l_target, signal)):
        gamma, theta = divmod(pair, N)
        succ[sigma - 1][N - 1 - theta] |= 1 << (target - 1)
        emits[sigma - 1][gamma] |= 1 << theta

    reference = problem.reference
    states = 1 << (problem.theta0 - 1)
    history, sizes = [], []
    for t, sigma in enumerate(reference):
        if t:
            step_succ = succ[reference[t - 1] - 1]
            if states.bit_count() * _SPARSE < N:  # few states: visit each
                rest, states = states, 0
                while rest:
                    low = rest & -rest
                    states |= step_succ[N - low.bit_length()]
                    rest ^= low
            else:  # many: select the masks by the binary digits of S_t
                digits = format(states, f"0{N}b").encode().translate(_DIGITS)
                states = reduce(or_, compress(step_succ, digits), 0)
        sizes.append(sum((states & mask).bit_count() for mask in emits[sigma - 1]))
        if not sizes[-1]:
            return TrackVerdict(False, None, t, tuple(sizes))
        history.append(states)

    # 0-based pair j = gamma*N + theta; the first gamma emitting the last
    # signal from S_T, at its lowest state, is the smallest pair
    j = next(
        gamma * N + (hit & -hit).bit_length() - 1
        for gamma, mask in enumerate(emits[reference[-1] - 1])
        if (hit := history[-1] & mask)
    )
    preimage: list[list[int]] = [[] for _ in range(N)]
    for pair, target in enumerate(l_target):
        preimage[target - 1].append(pair)
    chain = [j]
    for t in range(len(reference) - 2, -1, -1):
        sigma, states = reference[t], history[t]
        j = next(p for p in preimage[j % N] if signal[p] == sigma and states >> (p % N) & 1)
        chain.append(j)
    witness = tuple(j // N + 1 for j in reversed(chain))
    return TrackVerdict(True, witness, None, tuple(sizes))
