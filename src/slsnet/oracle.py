"""Brute-force baseline verifiers.

Deliberately naive: switching sequences are enumerated by direct
simulation of the network's column indices (no merged-system or
graph-module code is involved), controllability/observability matrices
are stacked from the raw mode matrices, and path counting is a plain
DFS. These are the reference answers the optimized analysis code is
tested against, so they share nothing with it beyond the exact
matrix core and the enumeration budget below, which the property searches
read too: both refuse the same horizons with the same message.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .algebra import DimensionError, Matrix, check_int, hstack, rank, vstack

# An enumeration lists at most MAX_SEQUENCES input sequences, over a
# horizon of at most MAX_HORIZON steps.
MAX_SEQUENCES = 10**6
MAX_HORIZON = 32


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the budget."""


def _simulate(net, alpha: int, gammas: Sequence[int]) -> tuple[int, ...]:
    """Induced switching sequence, by direct column-index lookup."""
    n_states = net.N
    theta = alpha
    sigmas = []
    for gamma in gammas:
        col = (gamma - 1) * n_states + theta
        sigmas.append(net.R.col_index[col - 1])
        theta = net.L.col_index[col - 1]
    return tuple(sigmas)


def enforce_budget(net, horizon: int) -> None:
    """Refuse a horizon past MAX_HORIZON, or one with more than
    MAX_SEQUENCES input sequences (M^horizon)."""
    if horizon > MAX_HORIZON:
        raise BudgetExceededError(f"horizon {horizon} exceeds the budget of {MAX_HORIZON}")
    if net.M**horizon > MAX_SEQUENCES:
        raise BudgetExceededError(f"{net.M}^{horizon} sequences exceed the budget of {MAX_SEQUENCES}")


def enumerate_switching_sequences(net, alpha: int, horizon: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All M^T logical input sequences with their induced switching
    sequences from initial state alpha, in lexicographic input order."""
    check_int(alpha, "initial state", 1, net.N)
    check_int(horizon, "horizon")
    enforce_budget(net, horizon)
    out = []
    for gammas in itertools.product(range(1, net.M + 1), repeat=horizon):
        out.append((gammas, _simulate(net, alpha, gammas)))
    return out


def controllability_matrix(mode_sequence: Iterable[int], sls) -> Matrix:
    """[B_(s_{T-1}), A_(s_{T-1}) B_(s_{T-2}), ..., A_(s_{T-1})...A_(s_1) B_(s_0)]."""
    mode_sequence = tuple(mode_sequence)  # an iterator is read once, and an empty one refused
    if not mode_sequence:
        raise DimensionError("mode sequence may not be empty")
    prefix = Matrix.identity(sls.n, sls.mode_flag)
    blocks = []
    for sigma in reversed(mode_sequence):
        blocks.append(prefix @ sls.b(sigma))
        prefix = prefix @ sls.a(sigma)
    return hstack(blocks)


def observability_matrix(mode_sequence: Iterable[int], sls) -> Matrix:
    """Stacked [C_(s_0); C_(s_1) A_(s_0); ...; C_(s_{T-1}) A_(s_{T-2})...A_(s_0)]."""
    mode_sequence = tuple(mode_sequence)  # an iterator is read once, and an empty one refused
    if not mode_sequence:
        raise DimensionError("mode sequence may not be empty")
    prefix = Matrix.identity(sls.n, sls.mode_flag)
    blocks = []
    for sigma in mode_sequence:
        blocks.append(sls.c(sigma) @ prefix)
        prefix = sls.a(sigma) @ prefix
    return vstack(blocks)


def mode_chain(mode_sequence: Sequence[int], sls) -> Matrix:
    """A_(s_{T-1}) ... A_(s_1) A_(s_0)."""
    prod = Matrix.identity(sls.n, sls.mode_flag)
    for sigma in mode_sequence:
        prod = sls.a(sigma) @ prod
    return prod


def kalman_rank(mode_sequence: Sequence[int], sls) -> int:
    return rank(controllability_matrix(mode_sequence, sls))


def obsv_rank(mode_sequence: Sequence[int], sls) -> int:
    return rank(observability_matrix(mode_sequence, sls))


def count_paths(net, from_subset: Iterable[int], to_subset: Iterable[int], ell: int) -> int:
    """Number of ell-edge walks in the input-state graph between subsets,
    counted by a DFS on an explicit stack; ell is at most MAX_HORIZON, and
    at most MAX_SEQUENCES walks leave the sources.

    Pair (gamma, theta), encoded (gamma-1)*N + theta, steps to
    (gamma', L-target) for every free next input gamma'.
    """
    check_int(ell, "ell", 0)
    n_states = net.N
    mn = net.M * n_states
    sources = sorted({check_int(i, "input-state index", 1, mn) for i in from_subset})
    targets = {check_int(i, "input-state index", 1, mn) for i in to_subset}
    if ell > MAX_HORIZON:
        raise BudgetExceededError(f"path length {ell} exceeds the budget of {MAX_HORIZON}")
    if len(sources) * net.M**ell > MAX_SEQUENCES:
        raise BudgetExceededError("path enumeration exceeds the budget")
    count = 0
    stack = [(src, ell) for src in sources]
    while stack:
        pair, remaining = stack.pop()
        if remaining == 0:
            count += pair in targets
            continue
        theta_next = net.L.col_index[pair - 1]
        stack.extend(((g - 1) * n_states + theta_next, remaining - 1) for g in range(1, net.M + 1))
    return count
