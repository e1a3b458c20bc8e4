"""Control-property checks for merged switched linear systems.

Every check walks the input tree with one forward step through the
merged system's mode pair (G-block, H-block) of the signal sigma that
each input-state pair emits, read from the mode's plain table (A's rows
and the H block's columns; see sls). The primal side (merge) folds
R' = G R + im H and D' = G D, so R is the set reachable from x = 0 and
D the drift A_(s_{T-1}) ... A_(s_0); the dual side (merge_dual,
transposed modes) folds R' = R + im(D H) and D' = D G, so R is the
transposed observability row space. Every query refuses (TypeError) a
merged system of the other side before it folds. Reachability and
observability hold along a sequence when R is full; controllability and
reconstructibility when im D lies in R; kalman_oracle decides the same
by a rank test on the stacked matrices. A fold holds plain tuples, R's
Gauss-Jordan rows (algebra._echelon) and D's columns, and each step runs
one elimination at the system's tolerance. The dual side always carries
D, which its R' reads. The primal D is read by kind-1 judgments alone,
so a primal fold carries it in float mode and where some emitted A is
singular; on an exact merged system whose emitted A's are all
nonsingular (below) every non-empty sequence's D slot holds ().

Quantifier convention: a property holds iff ONE logical input sequence
works for EVERY checked initial logical state. The checked set defaults
to representatives of a disjoint control-attractor cover (states whose
basins cover the whole state space); strict mode checks all N states
instead. Searches run breadth-first in the horizon T (default bound:
the linear state dimension n) and depth-first, lexicographically within
each T; the reported witness is the shortest, lexicographically first
one. A search refuses (BudgetExceededError) a horizon past the
enumeration budget (oracle.MAX_HORIZON, oracle.MAX_SEQUENCES) before
walking or skipping it, as kalman_oracle does.

The fold reads the linear part only through the switching signal: the
nonzero merged block of column (gamma, theta) holds the matrices of the
mode sigma = R(gamma, theta), so (R, D) after a prefix depends on the
mode sequence it induces alone. A merged system therefore keeps one memo,
mode sequence -> (R, D), and a walk carries per checked state only its
logical state and mode sequence.

A search walks each horizon's input sequences depth-first, each prefix
advanced once from its parent, and judges each distinct mode sequence it
meets once. A search is fixed by its kind (after the reduction below) and
its checked states, and a merged system keeps its levels: level h holds
horizon h's first highest-scoring details, their score, and its first
sequence that holds at every checked state, or none; the first verdict
to read a level's details builds their records, and later verdicts
share them, each in a per_alpha of its own. A query reads levels
1..t_max in order and walks only those not yet recorded, so a recorded
witness answers at once, a larger t_max extends the levels and a smaller
one reads them. So the two checks of a side and any later query on the
same merged system fold each mode sequence at most once, whatever the
checked states and in any order, and every answer is a fresh walk's: no
verdict depends on what was asked before. The feasible list is the
reachability verdict, then its witness level's sequences with n span rows
at every checked state, where reachability holds: it judges nothing and
folds only what the verdict did not reach. No judgment runs an
elimination: the rank is the number of rows, and containment is read off
them with weights scaled by the lcm of the pivots (algebra._contains).

Controllability and reconstructibility (kind 1) hold when im D lies in
the span, and D is a product of emitted A's. When every emitted A is
nonsingular im D is full, so an exact kind-1 search is decided as
reachability or observability (kind 0): the same judgments, under its
own property name; a merged system decides this once, when it is built.
A tolerance could pass containment for a nearly singular D, so a float
kind-1 search stays kind 1, as does one where some emitted A is
singular, and both walk every horizon.

Two rules let a kind-0 search skip a horizon h >= 2 while its best score
is 0; every score there would be 0, so the verdict, witness, T,
per_alpha (a negative verdict's is the first horizon-1 sequence's) and
the feasible list are the walk's. The floor: after h steps the span has
at most h width rows, width the H block's columns (m, or p on the dual
side), since an elimination never adds rows, in float mode too; so no
span is full while h width < n. The bound, in exact mode: the
logic-constrained invariant subspaces of Sun, Ge & Lee (2002,
Automatica 38(5)), kept per logical state. V[theta] holds the span of
every sequence ending at theta (dual: starting there), and a state from
which no state reachable in one or more steps has a full V (dual: whose
own V is not full) has a full span at no horizon. Every V lies in the
same paper's arbitrary-switching subspace U, the least subspace holding
every emitted im H and invariant under every emitted G, so the bound
grows U first, in at most n eliminations, and a U that is not full
refutes every state; only a full U leaves the decision to the per-state
pass, at most N n eliminations more. A merged system builds the bound
once, lazily, and a search tries it only where min(M^h |checked|, q^h)
> N n, when the horizon could fold more mode sequences than the
per-state pass eliminates; the gate stays sized for that pass, which U
cannot always spare. Float searches never try it: the bound eliminates
in another order than the fold, so a tolerance could decide the two
apart. A search checks the budget of every horizon, walked or skipped,
so a refusal names the horizon the walk would.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Sequence

from .algebra import Record, _contains, _echelon, _span, check_int, hstack, rank as matrix_rank, vstack
from .lcn import LogicalNetwork, _image, _relation, control_attractors, unchecked_step
from .oracle import _simulate, controllability_matrix, enforce_budget, mode_chain, observability_matrix
from .sls import DualMergedSystem, MergedSystem, _start

PROPERTIES = ("reachability", "controllability", "observability", "reconstructibility")


class ReachableSet(Record):
    """States reachable from x = 0 at time T along one input sequence.

    span is the reachable subspace (on the dual side, the transposed
    observability row space); full span (rank n) means every target is
    reachable at time T via this sequence. terminal_theta is the logical
    state after the last input.
    """

    __slots__ = ("alpha", "gammas", "span", "terminal_theta")


class AlphaDetail(Record):
    """One checked state's rank of the span, and whether the property holds there."""

    __slots__ = ("span_rank", "holds")


class PropertyVerdict(Record):
    """Outcome of one property search up to horizon T.

    per_alpha always describes one candidate input sequence at every
    checked state: the witness when the property holds, otherwise the
    first sequence in search order that holds at the most checked states.
    """

    __slots__ = ("property", "holds", "witness", "T", "per_alpha", "checked_alphas")


class FeasibleSequence(Record):
    """An input sequence with full reachable span at every checked state.
    It keeps the inputs alone; switching_trajectory(ms.net, alpha, gammas)
    replays the network from a checked state alpha."""

    __slots__ = ("gammas",)


def switching_trajectory(
    net: LogicalNetwork, alpha: int, gammas: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Replay the network: returns (sigmas, thetas) with thetas[0] = alpha."""
    gammas = _check_walk(net, alpha, gammas)
    thetas, sigmas = [alpha], []
    for gamma in gammas:
        theta_next, sigma = unchecked_step(net, gamma, thetas[-1])
        thetas.append(theta_next)
        sigmas.append(sigma)
    return tuple(sigmas), tuple(thetas)


def _times(rows, vectors) -> tuple:
    """Each vector multiplied by the matrix whose rows are given."""
    return tuple(tuple(sum(map(mul, row, v)) for row in rows) for v in vectors)


def _step(ms, fold, sigma):
    """Advance a fold (span rows, chain columns) through mode sigma's table
    (A's rows, the H block's columns); the merged system's type picks the
    primal or the dual recurrence. A primal chain is read only by a kind-1
    judgment, which a nonsingular merged system never runs: it stays ()."""
    span, chain = fold
    a, h = ms._tables[sigma - 1]
    if isinstance(ms, DualMergedSystem):
        d = tuple(zip(*chain))
        span, chain = span + _times(d, h), _times(d, a)
    else:
        span, chain = _times(a, span) + h, () if ms._nonsingular else _times(a, chain)
    return _echelon(span, ms.sls.mode_flag.tol), chain


def _advance(ms, memo, state, gamma):
    """Advance a walk state (theta, sigmas) by input gamma. The step reads
    the matrices of the mode sigma that R selects at (gamma, theta), so the
    fold depends on the mode sequence alone: memo maps each mode sequence
    to its fold, and a new one is folded once, from its parent's."""
    theta, sigmas = state
    theta_next, sigma = unchecked_step(ms.net, gamma, theta)
    key = sigmas + (sigma,)
    if key not in memo:
        memo[key] = _step(ms, memo[sigmas], sigma)
    return theta_next, key


def _check_walk(net: LogicalNetwork, alpha, gammas) -> tuple[int, ...]:
    """An initial state in 1..N and a non-empty input sequence in 1..M,
    checked before the walk, which looks the pairs up unchecked; returns
    the inputs as a tuple, so the walk reads an iterator's inputs too."""
    check_int(alpha, "initial state", 1, net.N)
    gammas = tuple(gammas)
    if not gammas:
        raise ValueError("need at least one logical input")
    for gamma in gammas:
        check_int(gamma, "input index", 1, net.M)
    return gammas


def _side(ms, query: str, dual: bool) -> None:
    """Refuse a merged system of the other side, whose fold answers its own questions."""
    if not isinstance(ms, DualMergedSystem if dual else MergedSystem):
        raise TypeError(f"{query} needs {'merge_dual' if dual else 'merge'}(sls, net), not {type(ms).__name__}")


def _fold(ms, alpha, gammas) -> ReachableSet:
    gammas = _check_walk(ms.net, alpha, gammas)
    memo, state = {(): _start(ms)}, (alpha, ())
    for gamma in gammas:
        state = _advance(ms, memo, state, gamma)
    return ReachableSet(alpha, gammas, _span(memo[state[1]][0], ms.sls.n, ms.sls.mode_flag), state[0])


def reachable_set(ms: MergedSystem, alpha: int, gammas: Sequence[int]) -> ReachableSet:
    """Reachable set along one logical input sequence, folded forward
    through the merged mode pairs: R_(t+1) = A_(s_t) R_t + im B_(s_t)."""
    _side(ms, "reachable_set", False)
    return _fold(ms, alpha, gammas)


def dual_reachable_set(dms: DualMergedSystem, alpha: int, gammas: Sequence[int]) -> ReachableSet:
    """Dual reachable set along one sequence: its span is the transposed row
    space of the induced switching sequence's observability matrix."""
    _side(dms, "dual_reachable_set", True)
    return _fold(dms, alpha, gammas)


def _candidates(ms, alphas, horizon):
    """Yield one horizon's input sequences in lexicographic order, each with
    the walk state (theta, sigmas) of every checked alpha after it.

    A depth-first walk of the input tree: each prefix is advanced once,
    from its parent's walk states, through the merged system's fold memo,
    so a new mode sequence always finds its parent's fold there.
    """
    memo, inputs = ms._folds, range(1, ms.net.M + 1)

    def below(prefix, states):
        if len(prefix) == horizon:
            yield prefix, states
            return
        for gamma in inputs:
            yield from below(prefix + (gamma,), [_advance(ms, memo, s, gamma) for s in states])

    return below((), [(a, ()) for a in alphas])


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

def _resolve_alphas(
    net: LogicalNetwork, strict: bool, alphas: Sequence[int] | None
) -> tuple[int, ...]:
    """Checked initial states: the given ones, which must be distinct
    integers in 1..N; otherwise all N states (strict) or the
    control-attractor cover."""
    if strict and alphas is not None:
        raise ValueError("give either strict or explicit initial states, not both")
    if alphas is not None:
        out = tuple(check_int(a, "initial state", 1, net.N) for a in alphas)
        if not out:
            raise ValueError("no initial states to check")
        for i, a in enumerate(out):
            if a in out[:i]:
                raise ValueError(f"initial state {a} given twice")
        return out
    if strict:
        return tuple(range(1, net.N + 1))
    return control_attractors(net).checked_states()


def _checked(ms, strict: bool, alphas: Sequence[int] | None) -> tuple[int, ...]:
    """The resolved checked states; the cover is built once per merged system."""
    if strict or alphas is not None:
        return _resolve_alphas(ms.net, strict, alphas)
    if ms._cover is None:
        object.__setattr__(ms, "_cover", _resolve_alphas(ms.net, False, None))
    return ms._cover


def _horizon(bound: int | None, n: int, name: str = "t_max") -> int:
    """Search horizon: bound, or the state dimension n by default; >= 1."""
    return check_int(n if bound is None else bound, name)


def _detail(kind: int, n: int, tol, fold) -> tuple[int, bool]:
    """Span rank, and whether the property holds: full span (kind 0), or
    im chain in the span (kind 1), which a full span settles at once."""
    span, chain = fold
    full = len(span) == n
    return len(span), full if kind == 0 else full or _contains(span, tol, chain)


def _per_alpha(checked, levels, horizon) -> dict[int, AlphaDetail]:
    """A verdict's per_alpha from a recorded level's best details, plain
    pairs until the first verdict to read them stores their records back."""
    details, score, witness = levels[horizon]
    if not isinstance(details[0], AlphaDetail):
        details = tuple(AlphaDetail(*detail) for detail in details)
        levels[horizon] = details, score, witness
    return dict(zip(checked, details))


def _least(pairs, slots: int):
    """The least spans V[0], ..., V[slots - 1] with V[dst] >= G V[src] +
    im H for every pair (src, dst, G's rows, H's vectors): round-robin
    passes in the fold's row form, eliminating only when a push adds a
    vector, so at most n eliminations per slot. Exact mode only."""
    spans, changed = [()] * slots, True
    while changed:
        changed = False
        for src, dst, g, h in pairs:
            vectors = _times(g, spans[src]) + h
            if not _contains(spans[dst], None, vectors):
                spans[dst], changed = _echelon(spans[dst] + vectors, None), True
    return spans


def _invariant_bound(ms) -> int:
    """The mask of the logical states whose logic-constrained invariant
    subspace is full (bit theta - 1 for state theta).

    The least fixed point of V[dst] >= G_sigma V[src] + im H_sigma over
    each (src, dst, sigma) of an input-state pair, once: src theta, dst
    theta' = L(gamma, theta) on the primal side, the reverse on the dual
    side, sigma = R(gamma, theta). So V[theta'] holds the span of every
    sequence ending at theta', and on the dual side V[theta] the span of
    every sequence starting at theta.
    Every V lies in U, the least subspace holding im H_sigma and invariant
    under G_sigma for every emitted sigma: the same fixed point on one slot,
    one self-pair per emitted mode, at most n eliminations. A U that is not
    full gives mask 0 at once; otherwise the per-state pass decides, at
    most N n eliminations more. Exact mode only.
    """
    net, n = ms.net, ms.sls.n
    dual = isinstance(ms, DualMergedSystem)
    # each mode's G rows (A's, or A^T's on the dual side) and H vectors
    blocks = [(tuple(zip(*a)) if dual else a, h) for a, h in ms._tables]
    (union,) = _least([(0, 0, *blocks[sigma - 1]) for sigma in sorted(set(net.R.col_index))], 1)
    if len(union) < n:
        return 0
    pairs = {}  # (src, dst, sigma) -> its pair, in first-seen order
    for gamma in range(1, net.M + 1):
        for theta in range(1, net.N + 1):
            theta_next, sigma = unchecked_step(net, gamma, theta)
            src, dst = (theta_next, theta) if dual else (theta, theta_next)
            pairs[src, dst, sigma] = src - 1, dst - 1, *blocks[sigma - 1]
    return sum(1 << i for i, span in enumerate(_least(pairs.values(), net.N)) if len(span) == n)


def _bound_refutes(ms, checked) -> bool:
    """Whether the bound, built on the first call, shows that no sequence
    of one or more inputs holds a full span at any checked state (see the
    module docstring): the mask ends meets no full invariant subspace. On
    the dual side ends is the checked set, on the primal side the states
    reachable from it in one or more steps."""
    if ms._bound is None:
        object.__setattr__(ms, "_bound", _invariant_bound(ms))
    ends = sum(1 << (theta - 1) for theta in checked)
    if isinstance(ms, MergedSystem):
        relation = _relation(ms.net)
        ends = new = _image(ends, relation)
        while new:
            new = _image(new, relation) & ~ends
            ends |= new
    return not ends & ms._bound


def _refuted(ms, checked, horizon: int) -> bool:
    """Whether an exact search skips horizon, the bound refuting every
    checked state. The gate is sized for the bound's per-state pass: it is
    built only for a horizon that could fold more than N n eliminations,
    though U, grown first in at most n, spares that pass when not full."""
    net, sls = ms.net, ms.sls
    if sls.mode_flag.tol is not None or min(net.M**horizon * len(checked), sls.q**horizon) <= net.N * sls.n:
        return False
    return _bound_refutes(ms, checked)


def _level(ms, kind, checked, horizon):
    """Walk one horizon, lexicographic in the input tuple, judging each
    distinct mode sequence once, however many (sequence, checked state)
    pairs induce it, up to the first sequence that holds at every checked
    alpha. Returns the first highest-scoring details, their score and that
    sequence, or None."""
    n, tol, folds = ms.sls.n, ms.sls.mode_flag.tol, ms._folds
    judged, best, best_score = {}, None, -1
    for gammas, states in _candidates(ms, checked, horizon):
        details, score = [], 0
        for _, sigmas in states:
            detail = judged.get(sigmas)
            if detail is None:
                detail = judged[sigmas] = _detail(kind, n, tol, folds[sigmas])
            details.append(detail)
            score += detail[1]  # whether the property holds
        if score > best_score:  # the first sequence to hold everywhere stays best
            best, best_score = details, score
        if score == len(checked):
            return best, best_score, gammas
    return best, best_score, None


def _search(ms, prop, t_max, strict, alphas) -> PropertyVerdict:
    """Breadth-first in T; one sequence must pass at every checked alpha,
    and without one per_alpha is the first highest-scoring sequence's. The
    merged system keeps each (kind, checked states) search's levels, horizon
    -> _level's answer: a query reads levels 1..t_max and walks only those
    not yet recorded, and a level the floor or the bound skips is score 0."""
    _side(ms, f"check_{prop}", PROPERTIES.index(prop) > 1)
    checked = _checked(ms, strict, alphas)
    t_max = _horizon(t_max, ms.sls.n)
    # every emitted A nonsingular: im D is full, so it lies in the span iff the span is full
    kind = 0 if ms._nonsingular else PROPERTIES.index(prop) % 2
    levels, width = ms._outcomes.setdefault((kind, checked), {}), len(ms._tables[0][1])
    best, best_score = None, -1
    for horizon in range(1, t_max + 1):
        if horizon not in levels:
            enforce_budget(ms.net, horizon)
            # the floor and the bound (see the module docstring): every score stays 0
            if best_score == 0 and kind == 0 and (horizon * width < ms.sls.n or _refuted(ms, checked, horizon)):
                levels[horizon] = None, 0, None
            else:
                levels[horizon] = _level(ms, kind, checked, horizon)
        _, score, witness = levels[horizon]
        if score > best_score:
            best, best_score = horizon, score
        if witness is not None:
            return PropertyVerdict(prop, True, witness, horizon, _per_alpha(checked, levels, best), checked)
    return PropertyVerdict(prop, False, None, t_max, _per_alpha(checked, levels, best), checked)


def check_reachability(
    ms: MergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Is some input sequence able to reach every x from 0, for all
    checked initial logical states? Holds when the reachable span is full."""
    return _search(ms, "reachability", t_max, strict, alphas)


def check_controllability(
    ms: MergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Is some input sequence able to steer every x to 0? Holds when the
    drift's image is contained in the reachable span."""
    return _search(ms, "controllability", t_max, strict, alphas)


def check_observability(
    dms: DualMergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Can x(0) be recovered from outputs? Holds when the dual reachable
    span is full for all checked initial logical states."""
    return _search(dms, "observability", t_max, strict, alphas)


def check_reconstructibility(
    dms: DualMergedSystem,
    t_max: int | None = None,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Can x(T) be recovered from outputs? Holds when the transposed
    free-motion chain's image is contained in the dual reachable span."""
    return _search(dms, "reconstructibility", t_max, strict, alphas)


def feasible_input_sequences(
    ms: MergedSystem,
    k_max: int,
    strict: bool = False,
    alphas: Sequence[int] | None = None,
) -> list[FeasibleSequence]:
    """All input sequences achieving full reachable span at every checked
    state, at the first length up to k_max where any sequence succeeds, in
    search order: check_reachability's verdict, then its witness level's
    sequences with n span rows at every checked state, the witness first."""
    _side(ms, "feasible_input_sequences", False)
    verdict = _search(ms, "reachability", _horizon(k_max, ms.sls.n, "k_max"), strict, alphas)
    n, folds = ms.sls.n, ms._folds
    level = _candidates(ms, verdict.checked_alphas, verdict.T) if verdict.holds else ()
    found = (gammas for gammas, states in level if all(len(folds[sigmas][0]) == n for _, sigmas in states))
    return [FeasibleSequence(gammas) for gammas in found]


# ---------------------------------------------------------------------------
# Brute-force oracle wrapper
# ---------------------------------------------------------------------------

def kalman_oracle(
    sls,
    net: LogicalNetwork,
    t_max: int | None = None,
    prop: str = "reachability",
    alphas: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Exhaustive-enumeration verdict from raw mode-matrix rank tests.

    Walks every logical input sequence of each horizon in lexicographic
    order, replays its induced switching sequence from every checked
    initial state (default: all states) by direct simulation and applies
    the classical stacked-matrix criteria, stopping at the first sequence
    that holds everywhere. No merged-system machinery is involved: only
    the input checks (states as in strict mode, the horizon bound) and the
    enumeration budget are shared with the searches.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    n = sls.n
    horizon_cap = _horizon(t_max, n)
    checked = _resolve_alphas(net, alphas is None, alphas)

    # kind and side as _search reads them: the controllability matrix's
    # columns, or the observability matrix's rows (dual), have rank n
    # (kind 0) or keep their rank when the mode chain joins them (kind 1)
    kind, dual = PROPERTIES.index(prop) % 2, PROPERTIES.index(prop) > 1
    stacked, stack = (observability_matrix, vstack) if dual else (controllability_matrix, hstack)

    def test(sigmas) -> AlphaDetail:
        k = stacked(sigmas, sls)
        r = matrix_rank(k)
        if kind == 0:
            return AlphaDetail(r, r == n)
        return AlphaDetail(r, matrix_rank(stack([k, mode_chain(sigmas, sls)])) == r)

    best, best_score = None, -1
    for horizon in range(1, horizon_cap + 1):
        enforce_budget(net, horizon)
        for gammas in itertools.product(range(1, net.M + 1), repeat=horizon):
            details = {a: test(_simulate(net, a, gammas)) for a in checked}
            score = sum(d.holds for d in details.values())
            if score == len(checked):
                return PropertyVerdict(prop, True, gammas, horizon, details, checked)
            if score > best_score:
                best, best_score = details, score
    return PropertyVerdict(prop, False, None, horizon_cap, best, checked)
