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
bitmask stepped through one capped set of per-byte successor tables
when it is dense; its frontier is one mask over all pairs, and its
witness is read off that mask one bit scan per step.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import getitem, or_
from typing import Sequence

from .algebra import DimensionError, Record, check_int
from .lcn import LogicalNetwork, _image

INFINITY = math.inf
# below N/_SPARSE members a tracking step walks the set bits (see check_trackable)
_SPARSE = 8
# the most bytes a tracking call's tables may take (see check_trackable)
_TABLE_BYTES = 1 << 26


def _check_duration(d, what: str, infinite: bool):
    """A positive integer duration, or INFINITY where infinite allows it."""
    try:
        return d if infinite and d == INFINITY else check_int(d, what)
    except DimensionError:
        raise ValueError(f"{what} {d!r} is not a positive integer{' or INFINITY' if infinite else ''}") from None


class FotSpec(Record):
    """Fixed operating times, one per signal value; INFINITY allowed.

    Duration 1 means the signal must be left immediately after each
    activation, a finite duration above 1 means it must be sustainable
    and leavable, INFINITY means it must be sustainable forever.
    """

    __slots__ = ("durations",)

    def __init__(self, durations: Sequence):
        super().__init__(tuple(_check_duration(d, "duration", True) for d in durations))

    @property
    def q(self) -> int:
        return len(self.durations)

    def needs_escape(self, sigma: int) -> bool:
        return self.durations[sigma - 1] != INFINITY

    def needs_stay(self, sigma: int) -> bool:
        return self.durations[sigma - 1] > 1


class SignalPreimage(Record):
    """Input-state pairs emitting one signal value."""

    __slots__ = ("sigma", "members")

    @property
    def empty(self) -> bool:
        return not self.members


class TrackingProblem(Record):
    __slots__ = ("theta0", "reference")

    def __init__(self, theta0: int, reference: Sequence[int]):
        # stored as given: check_trackable checks them against the network
        ref = tuple(reference)
        if not ref:
            raise ValueError("reference sequence may not be empty")
        super().__init__(theta0, ref)


class SignalDiagnostic(Record):
    """Outcome of the stay/escape conditions for one signal value.

    Failure tuples hold the input-state pair encodings that violate the
    corresponding condition; unreachable marks an empty preimage, whose
    conditions hold vacuously.
    """

    __slots__ = ("sigma", "requirement", "unreachable", "escape_failures", "stay_failures")

    @property
    def ok(self) -> bool:
        return not self.escape_failures and not self.stay_failures


class RealizabilityVerdict(Record):
    __slots__ = ("realizable", "diagnostics", "warnings")


class TrackVerdict(Record):
    __slots__ = ("trackable", "witness", "failed_at", "frontier_sizes")


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
            diagnostics.append(SignalDiagnostic(sigma, requirements[sigma - 1], True, (), ()))
            warnings.append(f"signal {sigma} unreachable: no input-state pair produces it")
            continue
        need_escape, need_stay = needs[sigma - 1]
        ahead = [(x, next_signals[net.L.col_index[x - 1] - 1]) for x in pre.members]
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


def _or_table(masks: Sequence[int]) -> list[int]:
    """Entry x is the OR of the masks at the set bits of x, by doubling."""
    table = [0]
    for mask in masks:
        table += [x | mask for x in table]
    return table


def check_trackable(net: LogicalNetwork, problem: TrackingProblem) -> TrackVerdict:
    """Can some input sequence make the emitted signals equal the reference?

    Forward pass: S_t, the set of states consistent with the reference so
    far, is one N-bit int per step (bit theta-1 for state theta). Its
    frontier F_t, the pairs (gamma, theta) with theta in S_t that emit the
    reference signal sigma_t, is one M*N-bit int with bit j = gamma*N +
    theta-1 for pair (gamma+1, theta): F_t = S_t * spread & emits[sigma_t],
    where spread sets bit gamma*N for every input, so the product copies
    S_t into each input's N-bit block without carries, and emits[sigma]
    marks the pairs emitting sigma. frontier_sizes[t] is the popcount of
    F_t, and tracking fails at the first empty frontier. One O(q*N + M*N)
    walk over L and R, an input's block of N pairs at a time, gives these
    masks and, per signal value sigma, the successor mask of each state
    (the L-targets of its inputs that emit sigma); S_{t+1} is the OR of the
    successor masks of the members of S_t. Below N/_SPARSE members, S_t is
    walked bit by bit, one OR per member, by the logical layer's image step
    (lcn._image). Otherwise it is read as ceil(N/8) bytes, and each byte
    indexes its 8-state block's table, which holds the OR of the rows
    selected by every byte value: ceil(N/8) lookups in C. Row theta packs
    theta's successor masks under the P values the reference steps from, N
    bits each, and a lookup shifts its value's bits down. This one table set
    is built by doubling on the first dense step (about 32*N ORs) and
    dropped on return. It takes about 4*P*N^2 bytes; past _TABLE_BYTES
    (64 MiB: P = 4 at N = 2048, 1 at N = 4096) it is not built and every
    step walks. On random masks at N = 64 and 256 and P = 3, a walk step
    beats a lookup step up to about N/12 members, but a set that turns
    dense only now and then does not earn the tables back, so _SPARSE is 8
    (12 and 16 made 800-step benchmark references up to 1.35x slower).

    Backward pass, on success only: the witness ends at the lowest set bit
    of F_T. Each earlier pair is the smallest pair of F_t whose L-target is
    the next pair's state: the pairs with a given L-target are listed once,
    in ascending order, and the first that emits sigma_t from a member of
    S_t is taken, about M tests per step. Only the S_t are kept, so the
    history takes N bits per step, not M*N, and the lists take O(M*N)
    space, not a mask of M*N bits per state.
    """
    check_int(problem.theta0, "initial state", 1, net.N)
    reference = problem.reference
    # one pass in C; on a miss, the per-value rule names the first bad value
    if set(map(type, reference)) != {int} or min(reference) < 1 or max(reference) > net.q:
        for sigma in reference:
            check_int(sigma, "reference signal", 1, net.q)

    N = net.N
    l_target, signal = net.L.col_index, net.R.col_index
    bits = [1 << theta for theta in range(N)]
    succ = [[0] * N for _ in range(net.q)]
    emits = [0] * net.q
    for lo in range(0, len(l_target), N):  # one input's block of pairs
        block = [0] * net.q  # per signal, the states emitting it there
        for theta, target, sigma in zip(range(N), l_target[lo : lo + N], signal[lo : lo + N]):
            succ[sigma - 1][theta] |= bits[target - 1]
            block[sigma - 1] |= bits[theta]
        for i, mask in enumerate(block):
            emits[i] |= mask << lo
    spread = sum(1 << gamma * N for gamma in range(net.M))

    tables = None  # per 8-state block, built on the first dense step
    width, full = (N + 7) // 8, (1 << N) - 1
    dense = -(-N // _SPARSE)  # the fewest members a lookup step takes
    states = 1 << (problem.theta0 - 1)
    history, sizes = [states], [(states * spread & emits[reference[0] - 1]).bit_count()]
    # S_{t+1} from S_t under the signal sigma_t, then F_{t+1}
    for prev, sigma in zip(reference, reference[1:] if sizes[0] else ()):
        if states.bit_count() < dense:  # few states: visit each
            states = _image(states, succ[prev - 1])
        else:  # many: one table lookup per byte of S_t, if the tables fit
            if tables is None:  # row bit offset per value stepped from; no rows past the cap
                slot = {value: i * N for i, value in enumerate(sorted(set(reference[:-1])))}
                rows = [0] * N if 4 * len(slot) * N * N <= _TABLE_BYTES else []
                for value, shift in slot.items():
                    rows = [row | mask << shift for row, mask in zip(rows, succ[value - 1])]
                tables = [_or_table(rows[c : c + 8]) for c in range(0, len(rows), 8)]
            if tables:
                states = reduce(or_, map(getitem, tables, states.to_bytes(width, "little"))) >> slot[prev] & full
            else:
                states = _image(states, succ[prev - 1])
        size = (states * spread & emits[sigma - 1]).bit_count()
        sizes.append(size)
        if not size:
            break
        history.append(states)
    if not sizes[-1]:
        return TrackVerdict(False, None, len(sizes) - 1, tuple(sizes))

    into = [[] for _ in range(N)]  # per state, the pairs leading to it
    for pair, target in enumerate(l_target):
        into[target - 1].append(pair)
    last = history[-1] * spread & emits[reference[-1] - 1]
    chain = [(last & -last).bit_length() - 1]  # the pair taken at each step, last first
    for t in range(len(reference) - 2, -1, -1):
        states, sigma = history[t], reference[t]
        for pair in into[chain[-1] % N]:
            if signal[pair] == sigma and states >> pair % N & 1:
                break
        chain.append(pair)
    witness = tuple(j // N + 1 for j in reversed(chain))
    return TrackVerdict(True, witness, None, tuple(sizes))
