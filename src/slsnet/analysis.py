"""Control-property checks for merged switched linear systems.

Every check walks the input tree with one forward step through the
merged blocks (G, H) at block (theta', theta) of input slice gamma. The
primal side (merge) folds R' = G R + im H and D' = G D, so R is the set
reachable from x = 0 and D the drift A_(s_{T-1}) ... A_(s_0); the dual
side (merge_dual, transposed modes) folds R' = R + im(D H) and D' = D G,
so R is the transposed observability row space. Reachability and
observability hold along a sequence when R is full; controllability and
reconstructibility when im D lies in R, read off the canonical basis of
R without elimination (Subspace.contains_vector); kalman_oracle decides
the same by a rank test on the stacked matrices.

Quantifier convention: a property holds iff ONE logical input sequence
works for EVERY checked initial logical state. The checked set defaults
to representatives of a disjoint control-attractor cover (states whose
basins cover the whole state space); strict mode checks all N states
instead. Searches run breadth-first in the horizon T (default bound:
the linear state dimension n) and depth-first, lexicographically within
each T; the reported witness is the shortest, lexicographically first
one. A search refuses (BudgetExceededError) a horizon that kalman_oracle's
default enumeration budget would refuse, just before walking it.

The fold reads the linear part only through the switching signal: the
merged block at (gamma, theta', theta) holds the matrices of the mode
sigma = R(gamma, theta), so (R, D) after a prefix depends on the mode
sequence it induces alone. A walk therefore folds each mode sequence once,
however many checked states, input prefixes and horizons induce it, and
carries per checked state only its logical state and mode sequence.

The walk is shared: a merged system keeps one lazily advanced walk per
tuple of checked states, and every leaf it reaches is judged for both
properties of its side. A query reads the walk's record and advances
the walk only as far as it still needs, so the two checks of a side and
the feasible list fold each mode sequence at most once. Neither judgment
runs an elimination (the span's rank and canonical basis settle both),
so a lone query adds little to its folds by also judging the property it
does not ask for.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Sequence

from .algebra import Matrix, Subspace, column_space, hstack, rank as matrix_rank, vstack
from .lcn import LogicalNetwork, control_attractors, step
from .oracle import (
    EnumerationBudget,
    controllability_matrix,
    enforce_budget,
    enumerate_switching_sequences,
    mode_chain,
    observability_matrix,
)
from .sls import DualMergedSystem, MergedSystem

PROPERTIES = ("reachability", "controllability", "observability", "reconstructibility")


@dataclass(frozen=True)
class ReachableSet:
    """States reachable from x = 0 at time T along one input sequence.

    span is the reachable subspace (on the dual side, the transposed
    observability row space); full span (rank n) means every target is
    reachable at time T via this sequence. terminal_theta is the logical
    state after the last input.
    """

    alpha: int
    gammas: tuple[int, ...]
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


def _start(ms):
    """Fold of the empty mode sequence: (empty span, identity chain)."""
    n, mode = ms.sls.n, ms.sls.mode_flag
    return Subspace(Matrix.zeros(n, 0, mode)), Matrix.identity(n, mode)


def _step(ms, fold, block):
    """Advance a fold (span, chain) through the merged block (gamma, theta',
    theta); the merged system's type picks the primal or the dual
    recurrence."""
    span, chain = fold
    g, h = ms.g_blocks[block], ms.h_blocks[block]
    if isinstance(ms, DualMergedSystem):
        return column_space(hstack([span.basis, chain @ h])), chain @ g
    return column_space(hstack([g @ span.basis, h])), g @ chain


def _advance(ms, memo, state, gamma):
    """Advance a walk state (theta, sigmas) by input gamma. Block (gamma,
    theta', theta) holds the matrices of the mode sigma that R selects
    there, so the fold depends on the mode sequence alone: memo maps each
    mode sequence to its fold, and a new one is folded once, from its
    parent's."""
    theta, sigmas = state
    theta_next, sigma = step(ms.net, gamma, theta)
    key = sigmas + (sigma,)
    if key not in memo:
        memo[key] = _step(ms, memo[sigmas], (gamma, theta_next, theta))
    return theta_next, key


def _fold(ms, alpha, gammas) -> ReachableSet:
    if not gammas:
        raise ValueError("need at least one logical input")
    memo, state = {(): _start(ms)}, (alpha, ())
    for gamma in gammas:
        state = _advance(ms, memo, state, gamma)
    return ReachableSet(alpha, tuple(gammas), memo[state[1]][0], state[0])


def reachable_set(ms: MergedSystem, alpha: int, gammas: Sequence[int]) -> ReachableSet:
    """Reachable set along one logical input sequence, folded forward
    through the merged blocks: R_(t+1) = A_(s_t) R_t + im B_(s_t)."""
    return _fold(ms, alpha, gammas)


def dual_reachable_set(dms: DualMergedSystem, alpha: int, gammas: Sequence[int]) -> ReachableSet:
    """Dual reachable set along one sequence: its span is the transposed row
    space of the induced switching sequence's observability matrix."""
    return _fold(dms, alpha, gammas)


def _candidates(ms, alphas):
    """Yield every input sequence in search order, horizon 1, 2, ... and
    lexicographic within each, with the fold (span, chain) of each checked
    alpha after it; the stream does not end.

    A depth-first walk of the input tree that holds only the current
    path: path[d] maps alpha to its walk state (theta, sigmas) after the
    first d inputs. The next sequence in lexicographic order raises one
    input and resets all later ones to 1, so it shares every input before
    its last non-1 input with the sequence before it, and only the rest is
    advanced. A new horizon starts again from the root. The folds live in
    one memo for the whole stream, keyed by mode sequence, so each mode
    sequence is folded once however many checked states, prefixes and
    horizons induce it; the depth-first order reaches a prefix before its
    extensions, so a new sequence always finds its parent's fold.
    """
    memo = {(): _start(ms)}
    path = [{a: (a, ()) for a in alphas}]
    for horizon in itertools.count(1):
        for gammas in itertools.product(range(1, ms.net.M + 1), repeat=horizon):
            shared = max((d for d, g in enumerate(gammas) if g != 1), default=0)
            del path[shared + 1:]
            for gamma in gammas[shared:]:
                path.append({a: _advance(ms, memo, s, gamma) for a, s in path[-1].items()})
            yield gammas, {a: memo[sigmas] for a, (_, sigmas) in path[-1].items()}


class _Walk:
    """The shared walk of one merged system over one tuple of checked states.

    A leaf is judged for both kinds of property: kind 0, the span is full
    (reachability, observability), and kind 1, im chain lies in the span
    (controllability, reconstructibility). Per kind, found holds (T,
    witness, details, every full-span sequence of level T; kind 0 only)
    once the kind holds, and best holds, per horizon walked before that,
    the first highest-scoring details. done counts the horizons walked
    to the end, left the leaves still to walk in horizon done + 1. A full
    span holds every chain, so kind 1 holds no later than kind 0, and no
    query walks past the end of kind 0's level T. Records only grow, and
    pull holds the lock, so threads may share a walk. The stream holds the
    memo of folds by mode sequence, so a restart drops it too.
    """

    __slots__ = ("ms", "checked", "lock", "stream", "done", "left", "found", "best")

    def __init__(self, ms, checked):
        self.ms, self.checked, self.lock = ms, checked, threading.Lock()
        self.restart()

    def restart(self):
        self.stream = _candidates(self.ms, self.checked)
        self.done, self.left, self.found, self.best = 0, 0, [None, None], ([], [])

    def pull(self, kind, t_max):
        """Advance until kind holds (never, for kind None) or horizon t_max
        is walked, refusing each horizon past the enumeration budget before
        its first leaf; returns the records (found, best), which a restart
        replaces but never clears."""
        net = self.ms.net
        with self.lock:
            while self.done < t_max and (kind is None or self.found[kind] is None):
                if not self.left:
                    enforce_budget(net, self.done + 1)
                    self.left = net.M ** (self.done + 1)
                try:
                    self._judge(*next(self.stream))
                except BaseException:
                    # a spent generator or a half-judged leaf: start again
                    self.restart()
                    raise
            return self.found, self.best

    def _judge(self, gammas, folds):
        n, horizon = self.ms.sls.n, len(gammas)
        for k, best in enumerate(self.best):
            hit = self.found[k]
            if hit is None:
                details = {a: _detail(k, n, fold) for a, fold in folds.items()}
                score = sum(d.holds for d in details.values())
                if len(best) < horizon:
                    best.append((-1, None))
                if score == len(folds):
                    self.found[k] = (horizon, gammas, details, [gammas])
                elif score > best[-1][0]:
                    best[-1] = (score, details)
            elif k == 0 and all(span.rank == n for span, _ in folds.values()):
                hit[3].append(gammas)
        self.left -= 1
        if not self.left:
            self.done = horizon


def _walk(ms, strict, alphas) -> _Walk:
    """The merged system's shared walk over the resolved checked states,
    memoized by the request too, so a request resolves (and the attractor
    cover is built) once per merged system. A request key (strict, alphas)
    never equals a tuple of state indices."""
    request = (strict, None if alphas is None else tuple(alphas))
    walk = ms._walks.get(request)
    if walk is None:
        checked = _resolve_alphas(ms.net, strict, alphas)
        walk = ms._walks.get(checked) or _Walk(ms, checked)
        ms._walks[request] = ms._walks[checked] = walk
    return walk


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

def _resolve_alphas(
    net: LogicalNetwork, strict: bool, alphas: Sequence[int] | None
) -> tuple[int, ...]:
    """Checked initial states: the given ones, which must be distinct and in
    1..N; otherwise all N states (strict) or the control-attractor cover."""
    if strict and alphas is not None:
        raise ValueError("give either strict or explicit initial states, not both")
    if alphas is not None:
        out = tuple(int(a) for a in alphas)
        if not out:
            raise ValueError("no initial states to check")
        for i, a in enumerate(out):
            if not 1 <= a <= net.N:
                raise ValueError(f"initial state {a} outside 1..{net.N}")
            if a in out[:i]:
                raise ValueError(f"initial state {a} given twice")
        return out
    if strict:
        return tuple(range(1, net.N + 1))
    return control_attractors(net).checked_states()


def _horizon(bound: int | None, n: int, name: str = "t_max") -> int:
    """Search horizon: bound, or the state dimension n by default; >= 1."""
    bound = n if bound is None else bound
    if bound < 1:
        raise ValueError(f"{name} must be >= 1")
    return bound


def _detail(kind: int, n: int, fold) -> AlphaDetail:
    """Span rank, and whether the property holds: full span (kind 0), or
    im chain in the span (kind 1), which a full span settles at once."""
    span, chain = fold
    full = span.rank == n
    return AlphaDetail(span.rank, full if kind == 0 else full or span.contains_vector(chain))


def _verdict(walk: _Walk, prop: str, t_max: int) -> PropertyVerdict:
    """Breadth-first in T, lexicographic in the input tuple; one sequence
    must pass at every checked alpha. Read from the walk's record,
    advancing the walk as far as needed."""
    kind = PROPERTIES.index(prop) % 2
    found, best = walk.pull(kind, t_max)
    hit = found[kind]
    if hit is not None and hit[0] <= t_max:
        return PropertyVerdict(prop, True, hit[1], hit[0], dict(hit[2]), walk.checked)
    _, details = max(best[kind][:t_max], key=lambda b: b[0])
    return PropertyVerdict(prop, False, None, t_max, dict(details), walk.checked)


def _search(ms, prop, t_max, strict, alphas) -> PropertyVerdict:
    """One property search on the merged system's shared walk."""
    walk = _walk(ms, strict, alphas)
    return _verdict(walk, prop, _horizon(t_max, ms.sls.n))


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
    state, at the first length where any sequence succeeds. The list is
    read from the shared walk: the reachability verdict for k_max, then
    the rest of its level T (the witness is the first full-span sequence
    there), in search order."""
    walk = _walk(ms, strict, alphas)
    verdict = _verdict(walk, "reachability", _horizon(k_max, ms.sls.n, "k_max"))
    if not verdict.holds:
        return []
    found, _ = walk.pull(None, verdict.T)
    return [
        FeasibleSequence(gammas, {a: switching_trajectory(ms.net, a, gammas) for a in walk.checked})
        for gammas in found[0][3]
    ]


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
    machinery is involved: only the input checks (states as in strict
    mode, the horizon bound) are shared with the searches.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    n = sls.n
    horizon_cap = _horizon(t_max, n)
    checked = _resolve_alphas(net, alphas is None, alphas)

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
