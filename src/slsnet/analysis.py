"""Control-property checks for merged switched linear systems.

Implements the reachable-set construction over logical input sequences,
the four property checks (reachability, controllability, observability,
reconstructibility) with witness extraction, feasible-input-sequence
enumeration, and a brute-force rank oracle wrapper used for
cross-validation.

Quantifier convention: a property holds iff ONE logical input sequence
works for EVERY checked initial logical state. The checked set defaults
to representatives of a disjoint control-attractor cover (states whose
basins cover the whole state space); strict mode checks all N states
instead. Searches run breadth-first in the horizon T (default bound:
the linear state dimension n) and lexicographically within each T, so
the reported witness is the shortest, lexicographically first one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    Matrix,
    Subspace,
    column_space,
    hstack,
    rank as matrix_rank,
    subspace_contains,
    subspace_is_full,
    subspace_sum,
    vstack,
)
from .lcn import LogicalNetwork, control_attractors, step
from .oracle import (
    EnumerationBudget,
    controllability_matrix,
    enumerate_switching_sequences,
    mode_chain,
    observability_matrix,
)
from .sls import DualMergedSystem, MergedSystem


@dataclass(frozen=True)
class ReachableSet:
    """States reachable from x = 0 at time T along one input sequence.

    terms[t] is the image injected by the input at time t and carried
    forward by the remaining free motion; span is their sum. Full span
    (rank n) means every target is reachable at time T via this
    sequence.
    """

    alpha: int
    gammas: tuple[int, ...]
    terms: tuple[Subspace, ...]
    span: Subspace
    terminal_theta: int


@dataclass(frozen=True)
class AlphaDetail:
    span_rank: int
    holds: bool


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property search up to horizon T.

    per_alpha always describes one candidate input sequence at every
    checked state: the witness when the property holds, otherwise the
    first sequence in search order that holds at the most checked states.
    """

    property: str
    holds: bool
    witness: tuple[int, ...] | None
    T: int | None
    per_alpha: dict[int, AlphaDetail]
    checked_alphas: tuple[int, ...]


@dataclass(frozen=True)
class FeasibleSequence:
    gammas: tuple[int, ...]
    # alpha -> (sigmas, thetas) replay
    trajectories: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]


def switching_trajectory(
    net: LogicalNetwork, alpha: int, gammas: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Replay the network: returns (sigmas, thetas) with thetas[0] = alpha."""
    if not 1 <= alpha <= net.N:
        raise ValueError(f"initial state {alpha} outside 1..{net.N}")
    if not gammas:
        raise ValueError("need at least one logical input")
    thetas = [alpha]
    sigmas = []
    for gamma in gammas:
        theta_next, sigma = step(net, gamma, thetas[-1])
        thetas.append(theta_next)
        sigmas.append(sigma)
    return tuple(sigmas), tuple(thetas)


def _fold_trajectory(
    ms: MergedSystem | DualMergedSystem, alpha: int, gammas: Sequence[int], suffix: bool
) -> tuple[ReachableSet, Matrix]:
    """Replay alpha's switching trajectory once and fold the (G, H) block
    pair the merged system applies at each step, block (theta_(t+1),
    theta_t) of input slice gamma_t.

    suffix=True folds the last step first (primal side): term t is
    G_(T-1) ... G_(t+1) H_t and the chain is the drift G_(T-1) ... G_0.
    suffix=False folds the first step first (dual side, transposed
    modes): term t is G_0 ... G_(t-1) H_t and the chain G_0 ... G_(T-1).
    Returns the terms' reachable set and the chain.
    """
    _, thetas = switching_trajectory(ms.net, alpha, gammas)
    horizon = len(gammas)
    chain = Matrix.identity(ms.sls.n, ms.sls.mode_flag)
    terms: list[Subspace | None] = [None] * horizon
    for t in (range(horizon - 1, -1, -1) if suffix else range(horizon)):
        block = (gammas[t], thetas[t + 1], thetas[t])
        terms[t] = column_space(chain @ ms.h_blocks[block])
        chain = chain @ ms.g_blocks[block]
    span = subspace_sum(*terms)
    return ReachableSet(alpha, tuple(gammas), tuple(terms), span, thetas[-1]), chain


def reachable_set(ms: MergedSystem, alpha: int, gammas: Sequence[int]) -> ReachableSet:
    """Reachable set along one logical input sequence, by block products.

    Term t is the image of A_(s_{T-1}) ... A_(s_{t+1}) B_(s_t), the
    contribution of the input injected at time t, formed from the merged
    system's blocks along the switching trajectory.
    """
    return _fold_trajectory(ms, alpha, gammas, suffix=True)[0]


def dual_reachable_set(dms: DualMergedSystem, alpha: int, gammas: Sequence[int]) -> ReachableSet:
    """Reachable set of the dual mergence along the induced trajectory.

    Its span is the row space of the stacked observability matrix of the
    induced switching sequence, transposed into column form.
    """
    return _fold_trajectory(dms, alpha, gammas, suffix=False)[0]


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

def _resolve_alphas(
    net: LogicalNetwork, strict: bool, alphas: Sequence[int] | None
) -> tuple[int, ...]:
    if alphas is not None:
        out = tuple(int(a) for a in alphas)
        if not out:
            raise ValueError("no initial states to check")
        for a in out:
            if not 1 <= a <= net.N:
                raise ValueError(f"initial state {a} outside 1..{net.N}")
        return out
    if strict:
        return tuple(range(1, net.N + 1))
    return control_attractors(net).checked_states()


def _search(net, prop, alphas, t_max, test_fn) -> PropertyVerdict:
    """Breadth-first in T, lexicographic in the input tuple; one sequence
    must pass at every checked alpha."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    best, best_score = None, -1
    for horizon in range(1, t_max + 1):
        for gammas in itertools.product(range(1, net.M + 1), repeat=horizon):
            details = {a: test_fn(a, gammas) for a in alphas}
            score = sum(d.holds for d in details.values())
            if score == len(alphas):
                return PropertyVerdict(prop, True, gammas, horizon, details, alphas)
            if score > best_score:
                best, best_score = details, score
    return PropertyVerdict(prop, False, None, t_max, best, alphas)


def check_reachability(
    ms: MergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Is some input sequence able to reach every x from 0, for all
    checked initial logical states?"""
    n = ms.sls.n
    checked = _resolve_alphas(ms.net, strict, alphas)

    def test(alpha, gammas):
        rs = reachable_set(ms, alpha, gammas)
        return AlphaDetail(rs.span.rank, subspace_is_full(rs.span, n))

    return _search(ms.net, "reachability", checked, n if t_max is None else t_max, test)


def check_controllability(
    ms: MergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Is some input sequence able to steer every x to 0? Holds when the
    free-motion image is contained in the reachable span."""
    checked = _resolve_alphas(ms.net, strict, alphas)

    def test(alpha, gammas):
        rs, drift = _fold_trajectory(ms, alpha, gammas, suffix=True)
        return AlphaDetail(rs.span.rank, subspace_contains(rs.span, column_space(drift)))

    return _search(ms.net, "controllability", checked, ms.sls.n if t_max is None else t_max, test)


def check_observability(
    dms: DualMergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Can x(0) be recovered from outputs? Holds when the dual reachable
    span is full for all checked initial logical states."""
    n = dms.sls.n
    checked = _resolve_alphas(dms.net, strict, alphas)

    def test(alpha, gammas):
        rs = dual_reachable_set(dms, alpha, gammas)
        return AlphaDetail(rs.span.rank, subspace_is_full(rs.span, n))

    return _search(dms.net, "observability", checked, n if t_max is None else t_max, test)


def check_reconstructibility(
    dms: DualMergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Can x(T) be recovered from outputs? Holds when the transposed
    free-motion chain's image is contained in the dual reachable span."""
    checked = _resolve_alphas(dms.net, strict, alphas)

    def test(alpha, gammas):
        rs, chain = _fold_trajectory(dms, alpha, gammas, suffix=False)
        return AlphaDetail(rs.span.rank, subspace_contains(rs.span, column_space(chain)))

    return _search(dms.net, "reconstructibility", checked, dms.sls.n if t_max is None else t_max, test)


def feasible_input_sequences(
    ms: MergedSystem,
    k_max: int,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> list[FeasibleSequence]:
    """All input sequences achieving full reachable span at every checked
    state, at the first length where any sequence succeeds."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    net, n = ms.net, ms.sls.n
    checked = _resolve_alphas(net, strict, alphas)
    for horizon in range(1, k_max + 1):
        found = []
        for gammas in itertools.product(range(1, net.M + 1), repeat=horizon):
            if all(
                subspace_is_full(reachable_set(ms, a, gammas).span, n) for a in checked
            ):
                found.append(
                    FeasibleSequence(
                        gammas,
                        {a: switching_trajectory(net, a, gammas) for a in checked},
                    )
                )
        if found:
            return found
    return []


# ---------------------------------------------------------------------------
# Brute-force oracle wrapper
# ---------------------------------------------------------------------------

def kalman_oracle(
    sls,
    net: LogicalNetwork,
    t_max: int | None = None,
    prop: str = "reachability",
    alphas: Sequence[int] | None = None,
    budget: EnumerationBudget = EnumerationBudget(),
) -> PropertyVerdict:
    """Exhaustive-enumeration verdict from raw mode-matrix rank tests.

    Enumerates every logical input sequence (default: over all initial
    states), replays the induced switching sequence by direct simulation
    and applies the classical stacked-matrix criteria. No merged-system
    machinery is involved.
    """
    if prop not in ("reachability", "controllability", "observability", "reconstructibility"):
        raise ValueError(f"unknown property {prop!r}")
    n = sls.n
    horizon_cap = n if t_max is None else t_max
    if horizon_cap < 1:
        raise ValueError("t_max must be >= 1")
    checked = tuple(alphas) if alphas is not None else tuple(range(1, net.N + 1))
    if not checked:
        raise ValueError("no initial states to check")
    for a in checked:
        if not 1 <= a <= net.N:
            raise ValueError(f"initial state {a} outside 1..{net.N}")

    def test(sigmas) -> AlphaDetail:
        if prop == "reachability":
            k = controllability_matrix(sigmas, sls)
            r = matrix_rank(k)
            return AlphaDetail(r, r == n)
        if prop == "controllability":
            k = controllability_matrix(sigmas, sls)
            chain = mode_chain(sigmas, sls)
            r = matrix_rank(k)
            return AlphaDetail(r, matrix_rank(hstack([k, chain])) == r)
        if prop == "observability":
            o = observability_matrix(sigmas, sls)
            r = matrix_rank(o)
            return AlphaDetail(r, r == n)
        o = observability_matrix(sigmas, sls)
        chain = mode_chain(sigmas, sls)
        r = matrix_rank(o)
        return AlphaDetail(r, matrix_rank(vstack([o, chain])) == r)

    best, best_score = None, -1
    for horizon in range(1, horizon_cap + 1):
        per_alpha_runs = {
            a: enumerate_switching_sequences(net, a, horizon, budget) for a in checked
        }
        for idx in range(net.M**horizon):
            details = {}
            gammas = None
            for a in checked:
                gammas, sigmas = per_alpha_runs[a][idx]
                details[a] = test(sigmas)
            score = sum(d.holds for d in details.values())
            if score == len(checked):
                return PropertyVerdict(prop, True, gammas, horizon, details, checked)
            if score > best_score:
                best, best_score = details, score
    return PropertyVerdict(prop, False, None, horizon_cap, best, checked)
