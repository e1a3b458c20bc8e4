"""Property checks: merged-block route vs raw mode-matrix route.

The central claim under test is that reachable sets computed from the
merged system's block products coincide with column spaces of classical
stacked matrices built from the induced switching sequence, and that
the four property verdicts therefore agree with the brute-force oracle
on identical checked-state sets.
"""

import collections
import contextlib
import itertools
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slsnet.algebra import (
    LogicalMatrix,
    Matrix,
    Numeric,
    Subspace,
    _contains,
    _span,
    column_space,
    hstack,
    rank,
    subspace_contains,
    subspace_is_full,
    subspace_sum,
)
from slsnet import analysis
from slsnet import oracle as oracle_module
from slsnet.analysis import (
    _resolve_alphas,
    _start,
    _step,
    check_controllability,
    check_observability,
    check_reachability,
    check_reconstructibility,
    dual_reachable_set,
    feasible_input_sequences,
    kalman_oracle,
    reachable_set,
    switching_trajectory,
)
from slsnet.fileio import loads
from slsnet.lcn import LogicalNetwork, control_attractors, step
from slsnet.oracle import (
    controllability_matrix,
    enumerate_switching_sequences,
    kalman_rank,
    BudgetExceededError,
    mode_chain,
    observability_matrix,
)
from slsnet.sls import DualMergedSystem, SwitchedLinearSystem, merge, merge_dual

from conftest import (
    FIXTURES,
    golden_net,
    golden_sls,
    random_net_for,
    random_system,
    unreachable_single_input_text,
)

NET = golden_net()
MS = merge(golden_sls(), NET)
DMS = merge_dual(golden_sls(), NET)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_golden_trajectory():
    sigmas, thetas = switching_trajectory(NET, 4, (2, 2, 2))
    assert sigmas == (1, 2, 2)
    assert thetas == (4, 3, 3, 3)


def test_trajectory_rejects_bad_input():
    with pytest.raises(ValueError):
        switching_trajectory(NET, 0, (1,))
    with pytest.raises(ValueError):
        switching_trajectory(NET, 5, (1,))
    with pytest.raises(ValueError):
        switching_trajectory(NET, 1, ())
    for alpha in (1.5, True):
        with pytest.raises(ValueError, match="not an integer"):
            switching_trajectory(NET, alpha, (1,))
        with pytest.raises(ValueError, match="not an integer"):
            reachable_set(MS, alpha, (1,))
    # the folds look each pair up unchecked, so every input is checked
    # before the walk: 0 would otherwise wrap to a negative column
    for gamma in (0, NET.M + 1, 1.5, True):
        for walk in (
            lambda gammas: switching_trajectory(NET, 1, gammas),
            lambda gammas: reachable_set(MS, 1, gammas),
            lambda gammas: dual_reachable_set(DMS, 1, gammas),
        ):
            with pytest.raises(ValueError, match="input index"):
                walk((1, gamma))


def test_walks_read_an_iterator_of_inputs():
    # the inputs are read once, for the check and the walk alike
    gammas = (1, 2, 1)
    assert switching_trajectory(NET, 1, iter(gammas)) == switching_trajectory(NET, 1, gammas)
    for walk, ms in ((reachable_set, MS), (dual_reachable_set, DMS)):
        rs = walk(ms, 1, iter(gammas))
        assert rs == walk(ms, 1, list(gammas)) and rs.gammas == gammas
    rs = reachable_set(MS, 1, iter(gammas))
    assert (rs.span.rank, rs.terminal_theta) == (3, 4)
    for walk in (
        lambda gammas: switching_trajectory(NET, 1, gammas),
        lambda gammas: reachable_set(MS, 1, gammas),
        lambda gammas: dual_reachable_set(DMS, 1, gammas),
    ):
        with pytest.raises(ValueError, match="at least one logical input"):
            walk(iter(()))


# ---------------------------------------------------------------------------
# Reachable sets, both routes
# ---------------------------------------------------------------------------

def test_golden_reachable_set_full():
    rs = reachable_set(MS, 4, (2, 2, 2))
    assert subspace_is_full(rs.span, 3)
    assert rs.terminal_theta == 3
    assert rs.span == column_space(controllability_matrix((1, 2, 2), golden_sls()))


def test_golden_infeasible_sequence_not_full():
    # (1,1,1) keeps the signal at 1 and the single-mode pair is deficient
    rs = reachable_set(MS, 4, (1, 1, 1))
    assert rs.span.rank == 2
    assert not subspace_is_full(rs.span, 3)


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_two_route_reachable_sets_agree(seed):
    rng = random.Random(seed)
    sls = random_system(rng)
    net = random_net_for(rng, sls.q)
    ms = merge(sls, net)
    for horizon in (1, 2, 3):
        for gammas in itertools.product(range(1, net.M + 1), repeat=horizon):
            for alpha in range(1, net.N + 1):
                sigmas, _ = switching_trajectory(net, alpha, gammas)
                rs = reachable_set(ms, alpha, gammas)
                assert rs.span == column_space(controllability_matrix(sigmas, sls))


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_dual_route_matches_observability_matrix(seed):
    rng = random.Random(seed)
    sls = random_system(rng)
    net = random_net_for(rng, sls.q)
    dms = merge_dual(sls, net)
    for horizon in (1, 2, 3):
        for gammas in itertools.product(range(1, net.M + 1), repeat=horizon):
            for alpha in range(1, net.N + 1):
                sigmas, _ = switching_trajectory(net, alpha, gammas)
                rs = dual_reachable_set(dms, alpha, gammas)
                assert rs.span == column_space(
                    observability_matrix(sigmas, sls).transpose()
                )


def test_zero_input_matrices_span_nothing():
    z = Matrix.zeros(2, 1)
    sls = SwitchedLinearSystem(
        ((Matrix.identity(2), z, Matrix([[1, 1]])),
         (Matrix([[2, 0], [0, 2]]), z, Matrix([[1, 1]])))
    )
    ms = merge(sls, NET)
    for gammas in itertools.product((1, 2), repeat=2):
        assert reachable_set(ms, 4, gammas).span.rank == 0
    verdict = check_reachability(ms)
    assert not verdict.holds
    assert verdict.witness is None


def test_single_mode_reduces_to_classical_kalman():
    # With one mode the signal is constant, so the verdict must match the
    # plain rank test on [B, AB, ..., A^(n-1) B].
    rng = random.Random(7)
    for _ in range(10):
        sls = random_system(rng, q_max=1)
        net = random_net_for(rng, 1)
        ms = merge(sls, net)
        classical = rank(controllability_matrix((1,) * sls.n, sls)) == sls.n
        assert check_reachability(ms, strict=True).holds == classical


# ---------------------------------------------------------------------------
# Golden verdicts
# ---------------------------------------------------------------------------

def test_golden_reachability_verdict():
    v = check_reachability(MS)
    assert v.holds
    assert v.T == 3
    assert v.witness == (1, 2, 2)
    assert v.checked_alphas == (4,)
    assert v.per_alpha[4].holds and v.per_alpha[4].span_rank == 3


def test_golden_controllability_verdict():
    v = check_controllability(MS)
    assert v.holds
    assert v.T == 3
    assert v.witness == (1, 2, 2)


def test_golden_observability_verdict():
    v = check_observability(DMS)
    assert v.holds
    assert v.T == 3
    assert v.witness == (1, 1, 1)


def test_golden_reconstructibility_verdict():
    v = check_reconstructibility(DMS)
    assert v.holds
    assert v.T == 3
    assert v.witness == (1, 1, 1)


def test_golden_observability_sweep():
    # Every length-3 input sequence recovers x(0) from state 4 except the
    # all-2 one.
    for gammas in itertools.product((1, 2), repeat=3):
        full = subspace_is_full(dual_reachable_set(DMS, 4, gammas).span, 3)
        assert full == (gammas != (2, 2, 2))


def test_golden_feasible_sequences():
    found = feasible_input_sequences(MS, 3)
    assert [f.gammas for f in found] == [
        (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)
    ]
    for f in found:
        # the record keeps the inputs; a replay from the checked state 4
        # induces a switching sequence of full Kalman rank
        sigmas, thetas = switching_trajectory(NET, 4, f.gammas)
        assert thetas[0] == 4 and kalman_rank(sigmas, golden_sls()) == 3
        assert subspace_is_full(reachable_set(MS, 4, f.gammas).span, 3)


def test_feasible_sequences_stop_at_first_length():
    assert feasible_input_sequences(MS, 2) == []
    found = feasible_input_sequences(MS, 5)
    assert all(len(f.gammas) == 3 for f in found)


def test_horizon_bound_cuts_search():
    for check, system in (
        (check_reachability, MS),
        (check_controllability, MS),
        (check_observability, DMS),
        (check_reconstructibility, DMS),
    ):
        v = check(system, t_max=2)
        assert not v.holds
        assert v.witness is None
        assert v.T == 2
        assert v.per_alpha[4].span_rank <= 2


def test_invertible_modes_collapse_pairs():
    # Both golden mode matrices are invertible, so steering to zero is as
    # hard as reaching everything, and final-state recovery is as hard as
    # initial-state recovery.
    r, c = check_reachability(MS, strict=True), check_controllability(MS, strict=True)
    assert (r.holds, r.witness, r.T) == (c.holds, c.witness, c.T)
    o, k = check_observability(DMS, strict=True), check_reconstructibility(DMS, strict=True)
    assert (o.holds, o.witness, o.T) == (k.holds, k.witness, k.T)


def test_alpha_validation():
    with pytest.raises(ValueError):
        check_reachability(MS, alphas=[0])
    # a float or a bool is refused, not truncated to a state index
    for bad in ([1.7, 2.2], [True]):
        with pytest.raises(ValueError, match="not an integer"):
            check_reachability(MS, alphas=bad)
        with pytest.raises(ValueError, match="not an integer"):
            kalman_oracle(golden_sls(), NET, alphas=bad)
    with pytest.raises(ValueError):
        check_reachability(MS, alphas=[9])
    with pytest.raises(ValueError):
        check_reachability(MS, alphas=[])
    with pytest.raises(ValueError):
        check_reachability(MS, t_max=0)


def test_oracle_refuses_an_unknown_property():
    with pytest.raises(ValueError, match="unknown property 'stability'"):
        kalman_oracle(golden_sls(), NET, prop="stability")


def test_strict_with_explicit_alphas_rejected():
    # strict names every state, so explicit states beside it are refused,
    # not silently preferred
    for call in (
        lambda: check_reachability(MS, strict=True, alphas=[4]),
        lambda: check_observability(DMS, strict=True, alphas=[4]),
        lambda: feasible_input_sequences(MS, 3, strict=True, alphas=[4]),
    ):
        with pytest.raises(ValueError, match="not both"):
            call()
    assert kalman_oracle(golden_sls(), NET, alphas=[4]).checked_alphas == (4,)


def test_repeated_alpha_rejected():
    # a repeat would count twice among the checked states but once in per_alpha
    for call in (
        lambda: check_reachability(MS, alphas=(4, 4)),
        lambda: feasible_input_sequences(MS, 3, alphas=(4, 4)),
        lambda: kalman_oracle(golden_sls(), NET, alphas=(4, 4)),
    ):
        with pytest.raises(ValueError, match="initial state 4 given twice"):
            call()


# each query, the constructor of the other side, and the one of its own
WRONG_SIDE = {
    "check_reachability": (lambda ms: check_reachability(ms), merge_dual, "merge"),
    "check_controllability": (lambda ms: check_controllability(ms), merge_dual, "merge"),
    "check_observability": (lambda ms: check_observability(ms), merge, "merge_dual"),
    "check_reconstructibility": (lambda ms: check_reconstructibility(ms), merge, "merge_dual"),
    "feasible_input_sequences": (lambda ms: feasible_input_sequences(ms, 3), merge_dual, "merge"),
    "reachable_set": (lambda ms: reachable_set(ms, 1, (1, 2)), merge_dual, "merge"),
    "dual_reachable_set": (lambda ms: dual_reachable_set(ms, 1, (1, 2)), merge, "merge_dual"),
}


@pytest.mark.parametrize("name", WRONG_SIDE)
def test_merged_system_of_the_other_side_is_refused(name):
    # the other side's fold would answer the other side's question: on the
    # worked system in strict mode, merge's fold names (1, 2, 2), the
    # reachability witness, where the observability one is (1, 2, 1)
    query, wrong, right = WRONG_SIDE[name]
    ms = wrong(golden_sls(), NET)
    with pytest.raises(TypeError, match=rf"^{name} needs {right}\(sls, net\), not {type(ms).__name__}$"):
        query(ms)
    # refused before any fold, cover or search record is built
    assert list(ms._folds) == [()] and ms._cover is None and ms._outcomes == {}


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

# not the default 1e-9, so a default context leaking in anywhere shows
LOOSE = Numeric(1e-6)


def _float_copy(sls):
    return SwitchedLinearSystem(
        [tuple(Matrix(x.entries, LOOSE) for x in mode) for mode in sls.modes]
    )


@pytest.mark.parametrize("mode", [Numeric(), LOOSE], ids=["exact", "float"])
@pytest.mark.parametrize("merger", [merge, merge_dual])
def test_start_is_the_identity(mode, merger):
    # the empty sequence's fold: no span rows and the identity's columns,
    # entry for entry and type for type as Matrix.identity builds them
    for n in (1, 3):
        a = Matrix.identity(n, mode)
        sls = SwitchedLinearSystem([(a, Matrix.zeros(n, 1, mode), Matrix.zeros(1, n, mode))] * 2)
        span, chain = _start(merger(sls, NET))
        want = Matrix.identity(n, mode).entries
        assert (span, chain) == ((), want)
        assert [list(map(type, row)) for row in chain] == [list(map(type, row)) for row in want]


def _assert_context(merged, mode):
    """Mode pairs carry mode; the span and chain rows of one step from every
    state hold entries of mode's kind, and the span built from them for a
    one-input sequence carries mode."""
    assert {block.mode for pair in merged.modes for block in pair} == {mode}
    kinds = {float} if mode.tol is not None else {int, Fraction}
    query = dual_reachable_set if isinstance(merged, DualMergedSystem) else reachable_set
    for alpha in range(1, merged.net.N + 1):
        for gamma in range(1, merged.net.M + 1):
            _, sigma = step(merged.net, gamma, alpha)
            span, chain = _step(merged, _start(merged), sigma)
            assert {type(v) for row in span + chain for v in row} <= kinds
            built = query(merged, alpha, (gamma,)).span
            assert (built.mode, built.basis.mode) == (mode, mode)


def _full_rank_sequences(sls, net, alphas, k_max=None):
    """Enumeration reference for feasible_input_sequences: the sequences of
    full Kalman rank at every alpha, at the first length up to k_max
    (default n) that has any."""
    for horizon in range(1, (k_max or sls.n) + 1):
        runs = [enumerate_switching_sequences(net, a, horizon) for a in alphas]
        found = [
            run[0][0]
            for run in zip(*runs)
            if all(kalman_rank(sigmas, sls) == sls.n for _, sigmas in run)
        ]
        if found:
            return found
    return []


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_verdicts_match_oracle(seed, rational):
    # M = 1, 2 and 4 inputs on N = 2 or 4 states, so the walk must order
    # single-child, binary and wider input trees like the enumeration.
    # Rational systems make the searches clear denominators in elimination.
    rng = random.Random(seed)
    sls = random_system(rng, denominators=(1, 4) if rational else None)
    shapes = [(nn, mm) for nn in (1, 2) for mm in (0, 1, 2) if 2 ** (nn + mm) >= sls.q]
    n_nodes, m_nodes = rng.choice(shapes)
    net = random_net_for(rng, sls.q, n_nodes=n_nodes, m_nodes=m_nodes)
    alphas = tuple(range(1, net.N + 1))
    for system in (sls, _float_copy(sls)):
        ms = merge(system, net)
        dms = merge_dual(system, net)
        _assert_context(ms, system.mode_flag)
        _assert_context(dms, system.mode_flag)
        pairs = (
            ("reachability", check_reachability, ms),
            ("controllability", check_controllability, ms),
            ("observability", check_observability, dms),
            ("reconstructibility", check_reconstructibility, dms),
        )
        verdicts = {}
        for prop, check, merged in pairs:
            mine = verdicts[prop] = check(merged, alphas=alphas)
            ref = kalman_oracle(sls, net, prop=prop, alphas=alphas)
            tag = (prop, system.mode_flag, seed, rational)
            assert mine.holds == ref.holds, tag
            assert mine.witness == ref.witness, tag
            assert mine.T == ref.T, tag
            assert mine.per_alpha == ref.per_alpha, tag
        feasible = feasible_input_sequences(ms, sls.n, alphas=alphas)
        assert [f.gammas for f in feasible] == _full_rank_sequences(sls, net, alphas), seed
        # the feasible list is the reachability search's: its witness first, at its T
        reach = verdicts["reachability"]
        if reach.holds:
            assert feasible[0].gammas == reach.witness, seed
            assert len(feasible[0].gammas) == reach.T, seed
        else:
            assert feasible == [], seed


CHECKS = {
    "reachability": check_reachability,
    "controllability": check_controllability,
    "observability": check_observability,
    "reconstructibility": check_reconstructibility,
}


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=20, deadline=None)
def test_queries_sharing_a_memo_are_order_free(seed, rational):
    # The checks of a side and the feasible list share one fold memo per
    # merged system. Run them in a random order, with mixed horizons and
    # checked sets, on one pair of merged systems: each result must equal
    # the same call on freshly merged systems, and the oracle.
    rng = random.Random(seed)
    sls = random_system(rng, denominators=(1, 4) if rational else None)
    shapes = [(nn, mm) for nn in (1, 2) for mm in (0, 1, 2) if 2 ** (nn + mm) >= sls.q]
    n_nodes, m_nodes = rng.choice(shapes)
    net = random_net_for(rng, sls.q, n_nodes=n_nodes, m_nodes=m_nodes)
    calls = [*CHECKS, "feasible"] * 2
    rng.shuffle(calls)
    for system in (sls, _float_copy(sls)):
        shared = {"primal": merge(system, net), "dual": merge_dual(system, net)}
        for name in calls:
            side = "dual" if name in ("observability", "reconstructibility") else "primal"
            t_max = rng.choice([None, 1, 2, 3])
            checked = rng.choice([
                {},
                {"strict": True},
                {"alphas": tuple(rng.sample(range(1, net.N + 1), rng.randint(1, net.N)))},
            ])
            fresh = merge(system, net) if side == "primal" else merge_dual(system, net)
            tag = (name, t_max, checked, system.mode_flag, seed, rational)
            if name == "feasible":
                mine = feasible_input_sequences(shared[side], t_max, **checked)
                assert mine == feasible_input_sequences(fresh, t_max, **checked), tag
                alphas = _resolve_alphas(net, checked.get("strict", False), checked.get("alphas"))
                assert [f.gammas for f in mine] == _full_rank_sequences(sls, net, alphas, t_max), tag
                continue
            mine = CHECKS[name](shared[side], t_max, **checked)
            assert mine == CHECKS[name](fresh, t_max, **checked), tag
            ref = kalman_oracle(sls, net, t_max, name, alphas=mine.checked_alphas)
            assert (mine.holds, mine.witness, mine.T) == (ref.holds, ref.witness, ref.T), tag
            assert mine.per_alpha == ref.per_alpha, tag


def _count_folds(monkeypatch):
    counter = [0]

    def counted(*args):
        counter[0] += 1
        return _step(*args)

    monkeypatch.setattr(analysis, "_step", counted)
    return counter


def test_searches_build_no_matrix(monkeypatch):
    # Worked system, strict: both mergences, the four checks and the
    # feasible list fold from the merged systems' plain mode tables, and
    # build no Matrix, transposed or dense; the mode pairs are built from
    # the system's own matrices when asked for.
    built = [0]
    original = Matrix.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    sls = golden_sls()
    monkeypatch.setattr(Matrix, "__init__", counted)
    ms, dms = merge(sls, NET), merge_dual(sls, NET)
    verdicts = [check(ms if prop in ("reachability", "controllability") else dms, strict=True)
                for prop, check in CHECKS.items()]
    found = feasible_input_sequences(ms, verdicts[0].T, strict=True)
    assert [v.T for v in verdicts] == [3] * 4 and len(found) == 2
    assert built[0] == 0
    monkeypatch.undo()
    assert ms.modes == tuple((a, b) for a, b, _ in sls.modes)
    assert dms.modes == tuple((a.transpose(), c.transpose()) for a, _, c in sls.modes)


def test_memo_folds_each_mode_sequence_once(monkeypatch):
    # Worked system, strict: every property holds at T = 3 with 4 checked
    # states, M = 2 inputs and q = 2 modes. The fold depends on the induced
    # mode sequence alone, and a merged system's memo folds each one once,
    # whatever checked states, prefixes and horizons induce it. Horizons
    # 1..3 induce all 2 + 4 + 8 = 14 mode sequences, however many queries
    # share the memo.
    # Each count is also bounded by one fold per (state, prefix) of every
    # horizon walked: 4 * (2 + 6 + 14) = 88 here.
    folds = _count_folds(monkeypatch)
    sls = golden_sls()
    ms = merge(sls, NET)
    r = check_reachability(ms, strict=True)
    c = check_controllability(ms, strict=True)
    found = feasible_input_sequences(ms, r.T, strict=True)
    assert (r.T, c.T, [f.gammas for f in found]) == (3, 3, [(1, 2, 2), (2, 2, 2)])
    assert folds[0] == 14 <= 88
    folds[0] = 0
    dms = merge_dual(sls, NET)
    o = check_observability(dms, strict=True)
    k = check_reconstructibility(dms, strict=True)
    assert (o.witness, k.witness) == ((1, 2, 1), (1, 2, 1))
    # both dual properties hold first at (1, 2, 1), the third leaf of
    # horizon 3, where each search stops: two length-3 mode sequences are
    # not induced yet (bound: 4 * (2 + 6 + 6) = 56)
    assert folds[0] == 12 <= 56
    # a lone query on a fresh merged system folds up to its witness, or,
    # for the feasible list, to the end of the first level that holds any
    # (each beside its bound of one fold per (state, prefix) of every
    # horizon walked)
    for call, merged, expected, bound in (
        (lambda m: check_reachability(m, strict=True), merge, 13, 60),
        (lambda m: check_controllability(m, strict=True), merge, 13, 60),
        (lambda m: feasible_input_sequences(m, 3, strict=True), merge, 14, 88),
        (lambda m: check_observability(m, strict=True), merge_dual, 12, 56),
        (lambda m: check_reconstructibility(m, strict=True), merge_dual, 12, 56),
    ):
        folds[0] = 0
        call(merged(sls, NET))
        assert folds[0] == expected <= bound


def _with_emitted_a(sls, singular):
    """The system with A_1's first row zeroed (singular), or with each A
    shifted by the least t >= 0 that makes A + t I nonsingular. Every mode
    of a random_net_for network is emitted, so an exact merged system's
    _nonsingular is then `not singular`."""
    eye = Matrix.identity(sls.n, sls.mode_flag)
    modes = []
    for i, (a, b, c) in enumerate(sls.modes):
        if singular and i == 0:
            a = Matrix([[0] * sls.n, *a.entries[1:]], sls.mode_flag)
        while not singular and rank(a) < sls.n:
            a = a + eye
        modes.append((a, b, c))
    return SwitchedLinearSystem(modes)


def _carries_drift(merged, sigmas):
    """Whether a fold carries its drift: on the dual side, in float mode,
    where some emitted A is singular, and for the empty sequence. An exact
    primal merged system with every emitted A nonsingular runs no kind-1
    judgment, so its drift slot holds () after every step."""
    return isinstance(merged, DualMergedSystem) or not merged._nonsingular or not sigmas


@given(st.integers(0, 10**6), st.booleans(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_memoised_folds_match_unshared_folds(seed, rational, singular):
    # The merged system folds each mode sequence once, into its one memo,
    # and every (checked state, prefix) that induces it reads that fold. At
    # every leaf of horizons 1..n, for every checked state, the memoised
    # fold's span must equal an unshared fold of the prefix from that state
    # alone (a fresh memo), and judge the drift's containment the same way
    # as a rank test on it, wherever a drift is carried (see _carries_drift).
    # Draws as in test_verdicts_match_oracle, with the emitted A's made
    # singular or nonsingular; both sides, strict, cover and explicit
    # checked states.
    rng = random.Random(seed)
    sls = _with_emitted_a(random_system(rng, denominators=(1, 4) if rational else None), singular)
    shapes = [(nn, mm) for nn in (1, 2) for mm in (0, 1, 2) if 2 ** (nn + mm) >= sls.q]
    n_nodes, m_nodes = rng.choice(shapes)
    net = random_net_for(rng, sls.q, n_nodes=n_nodes, m_nodes=m_nodes)
    explicit = tuple(rng.sample(range(1, net.N + 1), rng.randint(1, net.N)))
    for system in (sls, _float_copy(sls)):
        for merged, transpose in ((merge(system, net), False), (merge_dual(system, net), True)):
            assert merged._nonsingular is (system.mode_flag.tol is None and not singular)
            unshared = {}

            def alone(alpha, gammas):
                fold = analysis._fold(merged, alpha, gammas)
                sigmas = switching_trajectory(net, alpha, gammas)[0]
                drift = mode_chain(sigmas, system)
                drift = drift.transpose() if transpose else drift
                contained = rank(hstack([fold.span.basis, drift])) == fold.span.rank
                return fold, sigmas, contained

            for strict, alphas in ((True, None), (False, None), (False, explicit)):
                checked = _resolve_alphas(net, strict, alphas)
                for horizon in range(1, sls.n + 1):
                    for gammas, states in analysis._candidates(merged, checked, horizon):
                        assert len(gammas) == horizon and len(states) == len(checked)
                        for alpha, (theta, sigmas) in zip(checked, states):
                            if (alpha, gammas) not in unshared:
                                unshared[alpha, gammas] = alone(alpha, gammas)
                            ref, ref_sigmas, contained = unshared[alpha, gammas]
                            rows, chain = merged._folds[sigmas]
                            tag = (gammas, alpha, transpose, strict, alphas, system.mode_flag, seed)
                            assert (theta, sigmas) == (ref.terminal_theta, ref_sigmas), tag
                            assert _span(rows, system.n, system.mode_flag) == ref.span, tag
                            assert len(rows) == ref.span.rank, tag
                            if _carries_drift(merged, sigmas):
                                assert _contains(rows, system.mode_flag.tol, chain) == contained, tag
                            else:
                                assert chain == (), tag


def _matrix_fold(system, dual, sigmas):
    """Reference fold by dense products and one column space per step:
    R' = column_space([A R, B]) and D' = A D, or on the dual side
    R' = column_space([R, D C^T]) and D' = D A^T."""
    span = Subspace(Matrix.zeros(system.n, 0, system.mode_flag))
    chain = Matrix.identity(system.n, system.mode_flag)
    for sigma in sigmas:
        a, b, c = system.modes[sigma - 1]
        if dual:
            span, chain = column_space(hstack([span.basis, chain @ c.transpose()])), chain @ a.transpose()
        else:
            span, chain = column_space(hstack([a @ span.basis, b])), a @ chain
    return span, chain


@given(st.integers(0, 10**6), st.sampled_from(["exact", "rational", "float"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_folds_match_the_matrix_recurrence(seed, kind, singular):
    # Every fold the memo holds after horizons 1..n from every state gives
    # the reference's canonical span (entry for entry, in float mode too,
    # where both sum the same products in the same order) and rank, and,
    # wherever a drift is carried (see _carries_drift), the drift and the
    # containment of its image, on both sides, with the emitted A's made
    # singular or nonsingular.
    rng = random.Random(seed)
    sls = _with_emitted_a(random_system(rng, denominators=None if kind == "exact" else (1, 4)), singular)
    system = _float_copy(sls) if kind == "float" else sls
    net = random_net_for(rng, sls.q, n_nodes=rng.choice((1, 2)), m_nodes=1)
    mode = system.mode_flag
    for merged, dual in ((merge(system, net), False), (merge_dual(system, net), True)):
        assert merged._nonsingular is (kind != "float" and not singular)
        alphas = tuple(range(1, net.N + 1))
        for horizon in range(1, system.n + 1):
            for _ in analysis._candidates(merged, alphas, horizon):
                pass
        assert len(merged._folds) > 1
        for sigmas, (rows, chain) in merged._folds.items():
            span, drift = _matrix_fold(system, dual, sigmas)
            tag = (sigmas, dual, kind, seed)
            assert _span(rows, system.n, mode).basis.entries == span.basis.entries, tag
            assert len(rows) == span.rank, tag
            if _carries_drift(merged, sigmas):
                assert tuple(zip(*chain)) == drift.entries, tag
                assert _contains(rows, mode.tol, chain) == span.contains_vector(drift), tag
            else:
                assert chain == (), tag


def test_fold_reads_the_system_tolerance():
    # B's and C's one entry, 5e-7, is zero at tolerance 1e-6 and not at
    # 1e-9: a fold that fell back to a default tolerance, or to exact
    # arithmetic, would find the span full at both.
    net = LogicalNetwork(2, 1, 0, LogicalMatrix(2, [1, 2]), LogicalMatrix(1, [1, 1]))
    for tol, holds in ((1e-6, False), (1e-9, True)):
        mode = Numeric(tol)
        sls = SwitchedLinearSystem([(Matrix([[1.0]], mode), Matrix([[5e-7]], mode), Matrix([[5e-7]], mode))])
        assert check_reachability(merge(sls, net), strict=True).holds is holds, tol
        assert check_observability(merge_dual(sls, net), strict=True).holds is holds, tol


def test_elimination_runs_once_per_mode_sequence(monkeypatch):
    # Worked system, strict: the 4 states and the prefixes of lengths 1..3
    # make 56 (state, prefix) pairs, and many induce the same modes. The
    # feasible list walks all of them, in horizons 1..3, running one
    # elimination per distinct mode sequence, counted here from the network
    # alone.
    calls = [0]
    original = analysis._echelon

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(analysis, "_echelon", counted)
    pairs = [
        (alpha, gammas)
        for alpha in range(1, NET.N + 1)
        for t in (1, 2, 3)
        for gammas in itertools.product((1, 2), repeat=t)
    ]
    sequences = {switching_trajectory(NET, a, g)[0] for a, g in pairs}
    assert len(pairs) == 56
    feasible_input_sequences(merge(golden_sls(), NET), 3, strict=True)
    assert calls[0] == len(sequences) == 14


def test_cover_built_once_per_merged_system(monkeypatch):
    # the cover of the worked system is state 4: the four checks and the
    # feasible list resolve their checked states once per merged system,
    # and a request for (4,) afterwards reads the folds the cover queries
    # left in the merged system's memo
    calls = []
    cover = analysis.control_attractors
    monkeypatch.setattr(analysis, "control_attractors", lambda net: calls.append(net) or cover(net))
    ms, dms = merge(golden_sls(), NET), merge_dual(golden_sls(), NET)
    r = check_reachability(ms)
    check_controllability(ms)
    feasible_input_sequences(ms, r.T)
    check_observability(dms)
    check_reconstructibility(dms)
    assert len(calls) == 2
    folds = _count_folds(monkeypatch)
    assert check_reachability(ms, alphas=[4]) == check_reachability(ms)
    assert check_controllability(ms, alphas=[4]) == check_controllability(ms)
    assert feasible_input_sequences(ms, r.T, alphas=[4]) == feasible_input_sequences(ms, r.T)
    assert check_observability(dms, alphas=[4]) == check_observability(dms)
    assert check_reconstructibility(dms, alphas=[4]) == check_reconstructibility(dms)
    assert folds[0] == 0
    check_reachability(ms, strict=True)
    assert len(calls) == 2


def test_detail_runs_once_per_mode_sequence_per_query(monkeypatch):
    # Worked system, strict: every property holds at T = 3. The first query
    # of a (kind, checked states) on a merged system judges each distinct
    # mode sequence it meets once, however many (checked state, leaf) pairs
    # induce it. The count comes from the network alone: the mode sequences
    # of the leaves in search order up to the witness, from every state, on
    # the horizons the search walks: horizon 1 and every T with T width >= n
    # (every A is nonsingular, so the floor skips the others on both kinds).
    # The merged system keeps that search, so a repeat, and the other check
    # of the side (decided as the same kind-0 search), walk and judge
    # nothing and give the answer of a fresh merged system. On the primal
    # side the feasible list keeps the witness level's sequences with full
    # spans, read off the folds, and judges nothing either.
    calls = [0]
    original = analysis._detail

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(analysis, "_detail", counted)
    sls = golden_sls()
    for kind, (_, check, merger) in enumerate(SIDES):
        partner = SIDES[kind ^ 1][1]
        merged = merger(sls, NET)
        with _watched() as (_, walked):
            calls[0] = 0
            v = check(merged, strict=True)
            horizons = [t for t in range(1, v.T + 1) if t == 1 or t * merged.modes[0][1].cols >= sls.n]
            assert walked == horizons, check
            leaves = [g for t in horizons for g in itertools.product((1, 2), repeat=t)]
            leaves = leaves[: leaves.index(v.witness) + 1]
            sequences = {switching_trajectory(NET, a, g)[0] for a in v.checked_alphas for g in leaves}
            assert calls[0] == len(sequences) < len(v.checked_alphas) * len(leaves), check
            want = partner(merger(sls, NET), strict=True)
            walked.clear()
            calls[0] = 0
            assert check(merged, strict=True) == v, check
            assert partner(merged, strict=True) == want, check
            assert (walked, calls[0]) == ([], 0), check
            if merger is merge:
                found = feasible_input_sequences(merged, v.T, strict=True)
                assert ([f.gammas for f in found], calls[0]) == ([(1, 2, 2), (2, 2, 2)], 0), check


def _count_calls(monkeypatch, *names):
    """Count the calls of analysis's own functions (or imported names) given."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(analysis, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(analysis, name, counted)
    return calls


@pytest.mark.parametrize("check, merger", [(check_controllability, merge), (check_reconstructibility, merge_dual)])
def test_repeated_kind_1_query_runs_no_elimination(monkeypatch, check, merger):
    # Worked system, exact: every emitted A is nonsingular, which the merged
    # system decides when it is built, so the kind-1 search is the kind-0
    # search. A repeat reads its recorded levels: no fold, no judgment and
    # no elimination, not even of the emitted A's.
    merged = merger(golden_sls(), NET)
    assert merged._nonsingular
    first = check(merged, strict=True)
    calls = _count_calls(monkeypatch, "_echelon", "_step", "_detail")
    assert check(merged, strict=True) == first
    assert calls == {"_echelon": 0, "_step": 0, "_detail": 0}


@pytest.mark.parametrize("check, merger", [(check_reachability, merge), (check_observability, merge_dual)])
def test_smaller_horizon_reads_the_recorded_levels(monkeypatch, check, merger):
    # Worked system, strict: the property holds at T = 3, so t_max = 3
    # records levels 1..3. A later t_max = 2 reads levels 1 and 2, folding
    # and judging nothing, and its negative verdict, per_alpha included, is
    # a fresh merged system's.
    merged = merger(golden_sls(), NET)
    assert check(merged, 3, strict=True).T == 3
    calls = _count_calls(monkeypatch, "_step", "_detail")
    got = check(merged, 2, strict=True)
    assert calls == {"_step": 0, "_detail": 0}
    monkeypatch.undo()
    want = check(merger(golden_sls(), NET), 2, strict=True)
    assert (got.holds, got.T) == (False, 2)
    assert got == want and got.per_alpha == want.per_alpha


@pytest.mark.parametrize("first, second, merger", [
    (check_reachability, check_controllability, merge),
    (check_observability, check_reconstructibility, merge_dual),
])
def test_verdicts_share_a_levels_records(first, second, merger):
    # Worked system, exact, every emitted A nonsingular: the second check
    # is the first's search and reads its recorded levels. A level's
    # AlphaDetail records are built once, by the first verdict that reads
    # it, and shared by later ones, each verdict holding its own per_alpha
    # dict: clearing one changes no later read. Negative at t_max = 2 and
    # positive at the default horizon (T = 3), as on fresh merged systems.
    merged = merger(golden_sls(), NET)
    for t_max in (2, None):
        one, two = first(merged, t_max, strict=True), second(merged, t_max, strict=True)
        assert one.per_alpha is not two.per_alpha and one.per_alpha == two.per_alpha
        assert all(one.per_alpha[alpha] is detail for alpha, detail in two.per_alpha.items())
        one.per_alpha.clear()
        three = second(merged, t_max, strict=True)
        want = second(merger(golden_sls(), NET), t_max, strict=True)
        assert three == two == want and three.per_alpha == want.per_alpha
        assert (want.holds, want.T) == (t_max is None, 2 if t_max else 3)


@given(st.integers(0, 10**6))
@example(103)  # a negative recorded past t_max = 1 whose best improves after horizon 1
@settings(max_examples=25, deadline=None)
def test_recorded_searches_answer_as_fresh_walks(seed):
    # A merged system records the levels of each (kind, checked states)
    # search, and a query reads the recorded levels up to its horizon and
    # walks the others, so a smaller horizon after a larger one reads and a
    # larger one extends. Random runs of queries on one shared
    # pair of merged systems: the four checks and the feasible list, in
    # strict, cover and explicit-state mode, with repeats and a smaller
    # horizon before or after a larger one; each answer must equal the same
    # call on fresh merged systems. n 2-4, m and p 1-2, M 2 or 4; half the systems emit a
    # nilpotent A, exact and float. Only an exact kind-1 search with every
    # emitted A nonsingular is the kind-0 search: elsewhere kind 1 keeps its
    # own levels, and its first query of a checked set walks from horizon 1.
    rng = random.Random(seed)
    n, m, p = rng.randint(2, 4), rng.randint(1, 2), rng.randint(1, 2)
    n_nodes, m_nodes = rng.choice([(1, 1), (2, 1)] + ([(1, 2)] if n < 4 else []))
    q = rng.randint(1, 3)

    def rand(rows, cols):
        return Matrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])

    modes = [(rand(n, n), rand(n, m), rand(p, n)) for _ in range(q)]
    if rng.random() < 0.5:
        shift = Matrix([[int(j == i + 1) for j in range(n)] for i in range(n)])
        modes[rng.randrange(q)] = (shift, rand(n, m), rand(p, n))
    sls = SwitchedLinearSystem(modes)
    net = random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)
    nonsingular = all(rank(modes[s - 1][0]) == n for s in set(net.R.col_index))
    names = [*CHECKS, "feasible"]
    queries = []
    for _ in range(8):
        name = rng.choice(names)
        checked = rng.choice([
            {},
            {"strict": True},
            {"alphas": tuple(rng.sample(range(1, net.N + 1), rng.randint(1, net.N)))},
        ])
        t_max = rng.randint(1, n)
        pair = [(name, t_max, checked), (rng.choice(names), t_max + rng.randint(1, 2), checked)]
        queries += pair if rng.random() < 0.5 else pair[::-1]
    queries += rng.sample(queries, 4)  # repeats
    for system in (sls, _float_copy(sls)):
        exact = system.mode_flag.tol is None
        shared = {merge: merge(system, net), merge_dual: merge_dual(system, net)}
        keys = {merge: {}, merge_dual: {}}
        with _watched() as (_, walked):
            for name, t_max, checked in queries:
                prop = "reachability" if name == "feasible" else name
                kind = 0 if exact and nonsingular else analysis.PROPERTIES.index(prop) % 2
                merger = merge_dual if prop in ("observability", "reconstructibility") else merge
                query = (
                    (lambda ms: feasible_input_sequences(ms, t_max, **checked))
                    if name == "feasible" else (lambda ms: CHECKS[name](ms, t_max, **checked))
                )
                want = query(merger(system, net))
                walked.clear()
                tag = (name, t_max, checked, exact, seed)
                assert query(shared[merger]) == want, tag
                key = (kind, _resolve_alphas(net, checked.get("strict", False), checked.get("alphas")))
                if key not in keys[merger]:
                    assert walked[:1] == [1], tag
                # the recorded levels are never fewer than before
                levels = len(shared[merger]._outcomes[key])
                assert levels >= keys[merger].get(key, 0), tag
                keys[merger][key] = levels
        for merger, merged in shared.items():
            assert set(merged._outcomes) == set(keys[merger]), seed


def test_memo_survives_a_refusal():
    # M = 1 and B = 0: reachability fails at every horizon, so t_max = 40
    # walks horizons 1..32 and is refused at 33. The folds memoised up to
    # there stay valid for later queries.
    desc = loads(unreachable_single_input_text())
    ms = merge(desc.sls, desc.net)
    with pytest.raises(BudgetExceededError, match="horizon 33"):
        check_reachability(ms, t_max=40)
    for check in (check_reachability, check_controllability):
        assert check(ms, t_max=3) == check(merge(desc.sls, desc.net), t_max=3)
    with pytest.raises(BudgetExceededError, match="horizon 33"):
        check_reachability(ms, t_max=40)


@pytest.mark.parametrize("target", ["_step", "_detail"])
def test_error_mid_query_leaves_the_memo_valid(monkeypatch, target):
    # An error mid-query, inside a fold or while a mode sequence is judged,
    # leaves the memo valid: no entry is half written, and a later query
    # gives the verdict a fresh merged system gives. The error strikes at
    # the last such call of a lone controllability search, so inside its
    # witness leaf.
    original = getattr(analysis, target)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        if calls[0] == last:
            raise KeyboardInterrupt
        return original(*args)

    monkeypatch.setattr(analysis, target, counted)
    last = None
    check_controllability(merge(golden_sls(), NET), strict=True)
    last, calls[0] = calls[0], 0
    ms = merge(golden_sls(), NET)
    with pytest.raises(KeyboardInterrupt):
        check_controllability(ms, strict=True)
    monkeypatch.undo()
    fresh = merge(golden_sls(), NET)
    assert check_controllability(ms, strict=True) == check_controllability(fresh, strict=True)
    assert feasible_input_sequences(ms, 3, strict=True) == feasible_input_sequences(fresh, 3, strict=True)


def test_memo_shared_across_threads():
    # more threads than cores share one pair of merged systems, each asking
    # in its own order with frequent switches; a lost or half-written memo
    # entry would change some answer
    sls = golden_sls()
    calls = [
        lambda m, d: check_reachability(m, strict=True),
        lambda m, d: check_controllability(m, t_max=2, strict=True),
        lambda m, d: feasible_input_sequences(m, 3, strict=True),
        lambda m, d: check_observability(d, strict=True),
        lambda m, d: check_reconstructibility(d, t_max=2, strict=True),
    ]
    want = [call(merge(sls, NET), merge_dual(sls, NET)) for call in calls]
    ms, dms = merge(sls, NET), merge_dual(sls, NET)
    got = {}

    def ask(offset):
        order = [(i + offset) % len(calls) for i in range(len(calls))]
        got[offset] = {i: calls[i](ms, dms) for i in order}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: dict(enumerate(want)) for k in range(8)}


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_strict_pass_implies_reduced_pass(seed):
    # A sequence working for every initial state works in particular for
    # the attractor representatives. The converse direction is not a
    # theorem at bounded horizons and is deliberately not asserted.
    rng = random.Random(seed)
    sls = random_system(rng)
    net = random_net_for(rng, sls.q)
    ms = merge(sls, net)
    if check_reachability(ms, strict=True).holds:
        assert check_reachability(ms).holds


def test_golden_matches_oracle_at_attractor_state():
    for prop, check, system in (
        ("reachability", check_reachability, MS),
        ("controllability", check_controllability, MS),
        ("observability", check_observability, DMS),
        ("reconstructibility", check_reconstructibility, DMS),
    ):
        mine = check(system)
        ref = kalman_oracle(golden_sls(), NET, prop=prop, alphas=(4,))
        assert (mine.holds, mine.witness, mine.T) == (ref.holds, ref.witness, ref.T)


# ---------------------------------------------------------------------------
# Invariant-subspace refutation
# ---------------------------------------------------------------------------

SIDES = (
    ("reachability", check_reachability, merge),
    ("controllability", check_controllability, merge),
    ("observability", check_observability, merge_dual),
    ("reconstructibility", check_reconstructibility, merge_dual),
)


def _sparse_system(rng, n, q):
    """Exact modes, mostly zero entries, so that many logic-constrained
    invariant subspaces are not full."""
    m, p = rng.randint(1, 2), rng.randint(1, 2)

    def rand(rows, cols):
        return Matrix([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)])

    return SwitchedLinearSystem([(rand(n, n), rand(n, m), rand(p, n)) for _ in range(q)])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_bound_refutes_only_failing_states(seed):
    # The bound is sound: every state it refutes, one at a time, has no
    # holding sequence at any horizon up to n + 3 by enumeration, on both
    # sides, for kind 0 and, where every emitted A is nonsingular (the only
    # kind-1 searches that reach it), for kind 1. Exact sparse systems with
    # n <= 4, N <= 8, M 1-4 and q <= 4; M^(n+3) stays at most 1024, so the
    # oracle is cheap.
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m_nodes = rng.choice([mm for mm in (0, 1, 2) if 2 ** (mm * (n + 3)) <= 1024])
    n_nodes = rng.randint(1, 3)
    q = rng.randint(1, min(4, 2 ** (n_nodes + m_nodes)))
    sls = _sparse_system(rng, n, q)
    net = random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)
    for kind, (prop, _, merger) in enumerate(SIDES):
        merged = merger(sls, net)
        if kind % 2 and not merged._nonsingular:
            continue
        refuted = tuple(a for a in range(1, net.N + 1) if analysis._bound_refutes(merged, (a,)))
        if refuted:
            # the best sequence holds nowhere, so no sequence holds anywhere
            ref = kalman_oracle(sls, net, n + 3, prop, alphas=refuted)
            assert not any(d.holds for d in ref.per_alpha.values()), (prop, refuted, seed)


def _structural_negative(rng, n, q, reach_ok, obs_ok):
    """Modes shaped like the benchmark's structural negatives (m = p = 1):
    without reach_ok, no mode drives the last coordinate; without obs_ok,
    no mode observes the first or feeds it elsewhere. Every A is
    nonsingular."""
    zeros = set()
    if not reach_ok:
        zeros |= {("A", n - 1, j) for j in range(n - 1)} | {("B", n - 1, 0)}
    if not obs_ok:
        zeros |= {("A", i, 0) for i in range(1, n)} | {("C", 0, 0)}

    def rand(name, rows, cols):
        return Matrix([
            [0 if (name, i, j) in zeros else rng.randint(-2, 2) for j in range(cols)]
            for i in range(rows)
        ])

    while True:
        modes = [(rand("A", n, n), rand("B", n, 1), rand("C", 1, n)) for _ in range(q)]
        if all(rank(a) == n for a, _, _ in modes):
            return SwitchedLinearSystem(modes)


@contextlib.contextmanager
def _watched():
    """Spy on the searches: what each call of _refuted answered (tried),
    and each horizon walked (walked); the caller clears both per search."""
    tried, walked = [], []
    refuted, candidates = analysis._refuted, analysis._candidates

    def refuted_spy(*args):
        tried.append(refuted(*args))
        return tried[-1]

    def candidates_spy(ms, alphas, horizon):
        walked.append(horizon)
        return candidates(ms, alphas, horizon)

    with mock.patch.object(analysis, "_refuted", refuted_spy), mock.patch.object(analysis, "_candidates", candidates_spy):
        yield tried, walked


def _first_trigger(n_states, n_inputs, n, q, checked):
    """The first horizon at which a search tries the bound, M, q >= 2:
    min(M^h |checked|, q^h) > N n, from h = 2 on."""
    return next(h for h in itertools.count(2) if min(n_inputs**h * checked, q**h) > n_states * n)


# (n, state nodes, input nodes, q) with M, q >= 2 whose strict search tries
# the bound at a horizon the oracle enumerates cheaply: at most 600
# (state, input sequence) pairs there
STRUCTURAL_SHAPES = [
    (n, nn, mm, q)
    for n in (2, 3)
    for nn in (1, 2)
    for mm in (1, 2)
    for q in range(2, min(4, 2 ** (nn + mm)) + 1)
    if 2**nn * 2 ** (mm * _first_trigger(2**nn, 2**mm, n, q, 2**nn)) <= 600
]


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_refuted_verdicts_match_oracle(seed):
    # Structural negatives on one side or both, exact, searched up to the
    # first horizon at which strict mode tries the bound: whole verdicts
    # and the feasible list equal the enumeration's in strict, cover and
    # explicit-state mode. In strict mode the bound or the floor must
    # settle every property that fails structurally (every A is
    # nonsingular, so on both kinds): either the bound refutes, or the
    # floor skips every horizon from 2 on, so no draw walks its last
    # horizon; and m = p = 1, so no horizon 2 <= h < n is ever walked.
    # Each of these searches runs on a fresh merged system; on one shared
    # per side, the kind-1 query after the kind-0 one (the same search)
    # walks nothing and gives the same whole verdict, and the feasible list
    # walks the witness level alone, or nothing for a negative.
    rng = random.Random(seed)
    n, n_nodes, m_nodes, q = rng.choice(STRUCTURAL_SHAPES)
    reach_ok, obs_ok = rng.choice([(False, True), (True, False), (False, False)])
    sls = _structural_negative(rng, n, q, reach_ok, obs_ok)
    net = random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)
    t_max = _first_trigger(net.N, net.M, n, q, net.N)
    explicit = tuple(rng.sample(range(1, net.N + 1), rng.randint(1, net.N)))
    with _watched() as (tried, walked):
        for checked in ({"strict": True}, {}, {"alphas": explicit}):
            merged = {merger: merger(sls, net) for merger in (merge, merge_dual)}
            for kind, (prop, check, merger) in enumerate(SIDES):
                tried.clear()
                walked.clear()
                mine = check(merger(sls, net), t_max, **checked)
                ref = kalman_oracle(sls, net, t_max, prop, alphas=mine.checked_alphas)
                tag = (prop, checked, seed)
                assert (mine.holds, mine.witness, mine.T) == (ref.holds, ref.witness, ref.T), tag
                assert mine.per_alpha == ref.per_alpha, tag
                fails = not (reach_ok if merger is merge else obs_ok)
                if checked.get("strict") and fails:
                    assert tried[-1:] == [True] or walked == [1], tag
                    assert t_max not in walked, tag
                    assert not [h for h in walked if 1 < h < n], tag  # m = p = 1: the floor's horizons
                tried.clear()
                walked.clear()
                assert check(merged[merger], t_max, **checked) == mine, tag
                if kind % 2:
                    assert (tried, walked) == ([], []), tag
            reach = check_reachability(merged[merge], t_max, **checked)
            walked.clear()
            feasible = feasible_input_sequences(merged[merge], t_max, **checked)
            assert walked == ([reach.T] if reach.holds else []), seed
            alphas = _resolve_alphas(net, checked.get("strict", False), checked.get("alphas"))
            assert [f.gammas for f in feasible] == _full_rank_sequences(sls, net, alphas, t_max), seed


def test_bound_leaves_singular_kinds_alone():
    # Every A is the same nilpotent matrix and B = C = 0: reachability and
    # observability fail at every horizon, while the drift and its
    # transpose vanish from T = 2 on, so controllability and
    # reconstructibility hold there, though at no state at T = 1. With
    # q = 4 > N n = 4 reachability and observability try the bound before
    # horizon 2, and it refutes both; the singular A keeps the other two
    # off it, so they never build it.
    zero = [[0], [0]]
    mode = (Matrix([[0, 1], [0, 0]]), Matrix(zero), Matrix([[0, 0]]))
    sls = SwitchedLinearSystem([mode] * 4)
    net = LogicalNetwork(2, 1, 1, LogicalMatrix(2, [2, 1, 1, 2]), LogicalMatrix(4, [1, 2, 3, 4]))
    for kind, (prop, check, merger) in enumerate(SIDES):
        merged = merger(sls, net)
        verdict = check(merged, 4, strict=True)
        ref = kalman_oracle(sls, net, 4, prop)
        assert verdict == ref, prop
        assert (verdict.holds, verdict.T) == ((False, 4) if kind % 2 == 0 else (True, 2)), prop
        if kind % 2 == 0:
            assert merged._bound == 0, prop  # no state's subspace is full
            assert analysis._bound_refutes(merged, (1, 2)) is True, prop
        else:
            assert not merged._nonsingular, prop
            assert merged._bound is None, prop


@pytest.mark.parametrize("fixture, prop", [("sls_unobservable.txt", "observability"), ("sls_unreachable.txt", "reachability")])
def test_fold_count_on_a_structural_negative(monkeypatch, fixture, prop):
    # Each fixture leaves one coordinate unobserved or unreached, so the
    # property fails from every state. Strict, N n = 12: horizons 2 and 3
    # stay walked (min(4 * 2^h, 2^h) <= 12), and before horizon 4 the
    # bound refutes every state, so t_max = 6 folds exactly the mode
    # sequences that horizons 1..3 induce from the four states, and no more.
    desc = loads((FIXTURES / fixture).read_text())
    folds = _count_folds(monkeypatch)
    check, merger = {name: (check, merger) for name, check, merger in SIDES}[prop]
    verdict = check(merger(desc.sls, desc.net), 6, strict=True)
    assert (verdict.holds, verdict.T) == (False, 6)
    assert verdict == kalman_oracle(desc.sls, desc.net, 6, prop)
    sequences = {
        sigmas
        for alpha in range(1, desc.net.N + 1)
        for horizon in (1, 2, 3)
        for _, sigmas in enumerate_switching_sequences(desc.net, alpha, horizon)
    }
    assert folds[0] == len(sequences) == 14


def test_bound_not_tried_on_the_worked_system_or_a_single_input():
    # On the worked system no horizon up to the default adds more folds
    # than N n = 12 eliminations; with M = 1 no horizon adds more than N.
    # So no query builds the bound, in strict or cover mode.
    desc = loads(unreachable_single_input_text())
    for sls, net, t_max in ((golden_sls(), NET, None), (desc.sls, desc.net, 12)):
        for checked in ({"strict": True}, {}):
            ms, dms = merge(sls, net), merge_dual(sls, net)
            check_reachability(ms, t_max, **checked)
            check_controllability(ms, t_max, **checked)
            feasible_input_sequences(ms, t_max, **checked)
            check_observability(dms, t_max, **checked)
            check_reconstructibility(dms, t_max, **checked)
            assert (ms._bound, dms._bound) == (None, None), checked


def _bound_draw(rng):
    """A system and a network for the bound: n 1-4, N <= 8, M <= 4, q <= 4,
    sparse or structural zero patterns, and in a third of the draws one
    mode replaced by a nilpotent shift with B = 0 and C = 0."""
    n, n_nodes, m_nodes = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 2)
    q = rng.randint(1, min(4, 2 ** (n_nodes + m_nodes)))
    if rng.random() < 0.5:
        sls = _sparse_system(rng, n, q)
    else:
        sls = _structural_negative(rng, n, q, rng.random() < 0.5, rng.random() < 0.5)
    if rng.random() < 1 / 3:
        modes = list(sls.modes)
        shift = Matrix([[int(j == i + 1) for j in range(n)] for i in range(n)])
        modes[rng.randrange(q)] = (shift, Matrix.zeros(n, sls.m), Matrix.zeros(sls.p, n))
        sls = SwitchedLinearSystem(modes)
    return sls, random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)


def _mode_pair(sls, sigma, dual):
    """Mode sigma's (G block, H block): (A, B), or (A^T, C^T) on the dual side."""
    a, b, c = sls.modes[sigma - 1]
    return (a.transpose(), c.transpose()) if dual else (a, b)


def _reference_bound(sls, net, dual):
    """The bound's mask as a plain least fixed point: round-robin passes of
    V[dst] += G V[src] + im H over all N M input-state pairs, every pair
    pushed on every pass, in Subspace operations; no union step."""
    pairs = []
    for gamma in range(1, net.M + 1):
        for theta in range(1, net.N + 1):
            theta_next, sigma = step(net, gamma, theta)
            g, h = _mode_pair(sls, sigma, dual)
            pairs.append((theta_next, theta, g, h) if dual else (theta, theta_next, g, h))
    spaces, changed = [column_space(Matrix.zeros(sls.n, 1))] * net.N, True
    while changed:
        changed = False
        for src, dst, g, h in pairs:
            pushed = subspace_sum(column_space(g @ spaces[src - 1].basis), column_space(h))
            if not subspace_contains(spaces[dst - 1], pushed):
                spaces[dst - 1], changed = subspace_sum(spaces[dst - 1], pushed), True
    return sum(1 << i for i, space in enumerate(spaces) if space.rank == sls.n)


def _reference_union(sls, net, dual):
    """U: the least subspace holding every emitted im H and invariant under
    every emitted G, grown by Subspace operations until its rank stops."""
    pairs = [_mode_pair(sls, sigma, dual) for sigma in sorted(set(net.R.col_index))]
    union = subspace_sum(*(column_space(h) for _, h in pairs))
    while True:
        grown = subspace_sum(union, *(column_space(g @ union.basis) for g, _ in pairs))
        if grown.rank == union.rank:
            return union
        union = grown


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_bound_matches_a_plain_fixed_point(seed):
    # The bound (U first, then the per-state pass) gives the mask of the
    # plain least fixed point, on both sides.
    rng = random.Random(seed)
    sls, net = _bound_draw(rng)
    for merger in (merge, merge_dual):
        dual = merger is merge_dual
        assert analysis._invariant_bound(merger(sls, net)) == _reference_bound(sls, net, dual), (dual, seed)


def test_bound_draws_reach_both_branches():
    # At a fixed seed, 60 draws on both sides: U is not full (mask 0 at
    # once), or U is full and the per-state pass decides, finding every
    # state full or refuting some state that U cannot.
    rng = random.Random(2002)
    branches = collections.Counter()
    for _ in range(60):
        sls, net = _bound_draw(rng)
        for merger in (merge, merge_dual):
            dual = merger is merge_dual
            mask = analysis._invariant_bound(merger(sls, net))
            assert mask == _reference_bound(sls, net, dual)
            if _reference_union(sls, net, dual).rank < sls.n:
                branches["U not full"] += 1
                assert mask == 0
            else:
                branches["U full, all states full" if mask == 2**net.N - 1 else "U full, some state refuted"] += 1
    assert branches == {"U not full": 44, "U full, all states full": 48, "U full, some state refuted": 28}


def _union_full_negative():
    """n = 3, N = M = q = 2, every state a self-loop: state 1 emits mode 1
    (A a cyclic shift, B = e1, C = e1^T), state 2 mode 2 (A = I, B = 0,
    C = 0). U is full on both sides, but no sequence from state 2 gets a
    rank."""
    shift = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    sls = SwitchedLinearSystem([
        (shift, Matrix([[1], [0], [0]]), Matrix([[1, 0, 0]])),
        (Matrix.identity(3), Matrix.zeros(3, 1), Matrix.zeros(1, 3)),
    ])
    net = LogicalNetwork(2, 1, 1, LogicalMatrix(2, [1, 2, 1, 2]), LogicalMatrix(2, [1, 2, 1, 2]))
    return sls, net


def test_bound_refutes_a_state_where_the_union_is_full(monkeypatch):
    # Per side: U is full, and the per-state pass finds V[1] full and V[2]
    # zero (mask 0b01). The bound makes 16 containment tests: 8 growing U
    # (four passes over the two emitted modes, the first three adding e1,
    # e2 and e3), then 8 pair pushes: both inputs give the same two
    # (src, dst, mode) pairs, each pushed once on each of four passes, the
    # first three each adding a vector to V[1] (pushing all four
    # input-state pairs, repeats included, took 12). Searches from every
    # state and from state 2 alone equal the enumeration, whole verdict
    # and per_alpha. The floor skips horizon 2 (2 m < n), and the bound is
    # tried from horizon 3 on (min(M^3 |checked|, q^3) = 8 > N n = 6):
    # strict, it refutes nowhere and state 1 holds at horizon 3; from
    # state 2 alone it refutes horizons 3 and 4.
    sls, net = _union_full_negative()
    calls = _count_calls(monkeypatch, "_contains")
    for merger in (merge, merge_dual):
        dual = merger is merge_dual
        assert _reference_union(sls, net, dual).rank == 3
        calls["_contains"] = 0
        assert analysis._invariant_bound(merger(sls, net)) == 0b01 == _reference_bound(sls, net, dual)
        assert calls["_contains"] == 8 + 8, dual
    monkeypatch.undo()
    with _watched() as (tried, walked):
        for prop, check, merger in SIDES:
            for checked, alphas in (({"strict": True}, None), ({"alphas": [2]}, (2,))):
                tried.clear()
                walked.clear()
                verdict = check(merger(sls, net), 4, **checked)
                ref = kalman_oracle(sls, net, 4, prop, alphas=alphas)
                assert verdict == ref and verdict.per_alpha == ref.per_alpha, (prop, checked)
                assert verdict.holds is False, (prop, checked)
                want = ([False], [1, 3, 4]) if alphas is None else ([True, True], [1])
                assert (tried, walked) == want, (prop, checked)


@pytest.mark.parametrize("fixture, merger", [("sls_unobservable.txt", merge_dual), ("sls_unreachable.txt", merge)])
def test_union_refutes_a_structural_fixture(monkeypatch, fixture, merger):
    # U is grown in two eliminations, within n = 3, one per emitted mode's
    # H block (dual: C's rows e3 and e2, which A^T keeps off e1; primal:
    # B's columns e1 and e2, which A keeps off e3), and is not full, so
    # building the bound refutes every state.
    desc = loads((FIXTURES / fixture).read_text())
    merged = merger(desc.sls, desc.net)
    calls = _count_calls(monkeypatch, "_echelon")
    assert analysis._bound_refutes(merged, tuple(range(1, desc.net.N + 1)))
    assert calls["_echelon"] == 2 <= desc.sls.n
    assert merged._bound == 0


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_floor_verdicts_match_oracle(seed):
    # The floor: a search skips every horizon h >= 2 with h width < n
    # (width m, or p on the dual side) on reachability and observability,
    # and on controllability and reconstructibility in exact mode when
    # every emitted A is nonsingular. Random systems with n 2-4 and m, p
    # 1-2, half of them with a nilpotent mode and B = 0, so kind 1 must
    # still walk there; exact and float (only kind 0 skips); strict, cover
    # and explicit states. Whole verdicts and the feasible list equal the
    # enumeration's, and the search walks exactly the horizons the rule
    # leaves, cut short only where the exact bound refutes. In exact mode
    # with every emitted A nonsingular, the kind-1 verdict is the same
    # side's kind-0 verdict under its own name. Each of these searches runs
    # on a fresh merged system; on one shared per side, the kind-1 query
    # after the kind-0 one walks nothing exactly when it is that search, and
    # the feasible list walks the witness level alone, or nothing for a
    # negative.
    rng = random.Random(seed)
    n, m, p = rng.randint(2, 4), rng.randint(1, 2), rng.randint(1, 2)
    n_nodes, m_nodes = rng.choice([(1, 0), (1, 1), (2, 1)])
    q = rng.randint(1, min(3, 2 ** (n_nodes + m_nodes)))

    def rand(rows, cols):
        return Matrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])

    modes = [(rand(n, n), rand(n, m), rand(p, n)) for _ in range(q)]
    if rng.random() < 0.5:
        shift = Matrix([[int(j == i + 1) for j in range(n)] for i in range(n)])
        modes[rng.randrange(q)] = (shift, Matrix.zeros(n, m), rand(p, n))
    sls = SwitchedLinearSystem(modes)
    net = random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)
    nonsingular = all(rank(modes[s - 1][0]) == n for s in set(net.R.col_index))
    t_max = n + 1
    explicit = tuple(rng.sample(range(1, net.N + 1), rng.randint(1, net.N)))
    with _watched() as (tried, walked):
        for system in (sls, _float_copy(sls)):
            exact = system.mode_flag.tol is None
            for checked in ({"strict": True}, {}, {"alphas": explicit}):
                merged = {merger: merger(system, net) for merger in (merge, merge_dual)}
                verdicts = []
                for kind, (prop, check, merger) in enumerate(SIDES):
                    tried.clear()
                    walked.clear()
                    mine = check(merger(system, net), t_max, **checked)
                    verdicts.append(mine)
                    tag = (prop, exact, checked, seed)
                    assert mine == kalman_oracle(sls, net, t_max, prop, alphas=mine.checked_alphas), tag
                    if kind % 2 and exact and nonsingular:
                        fields = ("holds", "witness", "T", "per_alpha", "checked_alphas")
                        assert [getattr(mine, f) for f in fields] == [getattr(verdicts[-2], f) for f in fields], tag
                    width = m if merger is merge else p
                    floored = kind % 2 == 0 or (exact and nonsingular)
                    left = [h for h in range(1, mine.T + 1) if h == 1 or not (floored and h * width < n)]
                    assert walked == (left[: len(walked)] if tried[-1:] == [True] else left), tag
                    if kind % 2 and not nonsingular:
                        assert walked == list(range(1, mine.T + 1)), tag
                    walked.clear()
                    assert check(merged[merger], t_max, **checked) == mine, tag
                    if kind % 2:
                        assert (walked == []) is (exact and nonsingular), tag
                reach = check_reachability(merged[merge], t_max, **checked)
                walked.clear()
                feasible = feasible_input_sequences(merged[merge], t_max, **checked)
                assert walked == ([reach.T] if reach.holds else []), tag
                alphas = _resolve_alphas(net, checked.get("strict", False), checked.get("alphas"))
                assert [f.gammas for f in feasible] == _full_rank_sequences(sls, net, alphas, t_max), tag


@pytest.mark.parametrize("prop, check, merger", SIDES)
def test_floor_refuses_a_skipped_horizon_as_the_walk_would(prop, check, merger):
    # n = 8, m = p = 1, one state, M = 8 and a nonsingular A: the floor
    # skips horizons 2..7 and still checks each one's budget, so t_max = 7
    # is refused at horizon 7 with the message a walk gives there, having
    # folded only horizon 1's single mode sequence.
    n = 8
    cycle = Matrix([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
    e1 = [[int(i == 0)] for i in range(n)]
    sls = SwitchedLinearSystem([(cycle, Matrix(e1), Matrix(e1).transpose())])
    net = LogicalNetwork(2, 0, 3, LogicalMatrix(1, [1] * 8), LogicalMatrix(1, [1] * 8))
    merged = merger(sls, net)
    with pytest.raises(BudgetExceededError) as refusal:
        check(merged, 7, strict=True)
    assert str(refusal.value) == "8^7 sequences exceed the budget of 1000000"
    assert len(merged._folds) == 2


# ---------------------------------------------------------------------------
# Searches against the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strict", [True, False], ids=["strict", "cover"])
@pytest.mark.parametrize("prop, check, merger", SIDES, ids=[side[0] for side in SIDES])
@pytest.mark.parametrize("m_nodes, t_max, message", [
    (0, 40, "horizon 33 exceeds the budget of 32"),
    (10, 3, "1024^2 sequences exceed the budget of 1000000"),
])
def test_searches_and_oracle_refuse_alike(m_nodes, t_max, message, prop, check, merger, strict):
    # A = [1], B = [0], C = [0]: every property fails at every horizon, so
    # each side walks on until the shared budget refuses a horizon. Every
    # pair steps to state 1, so the cover checks fewer states than strict.
    sls = SwitchedLinearSystem([(Matrix([[1]]), Matrix([[0]]), Matrix([[0]]))])
    width = 2 * 2**m_nodes
    net = LogicalNetwork(2, 1, m_nodes, LogicalMatrix(2, [1] * width), LogicalMatrix(1, [1] * width))
    cover = control_attractors(net).checked_states()
    assert cover == (1,)
    with pytest.raises(BudgetExceededError) as search:
        check(merger(sls, net), t_max, strict)
    with pytest.raises(BudgetExceededError) as oracle:
        kalman_oracle(sls, net, t_max, prop, None if strict else cover)
    assert str(search.value) == str(oracle.value) == message


@pytest.mark.parametrize("constant, value, message", [
    ("MAX_HORIZON", 2, "horizon 3 exceeds the budget of 2"),
    ("MAX_SEQUENCES", 7, "2^3 sequences exceed the budget of 7"),
])
def test_searches_and_oracle_read_one_budget(monkeypatch, constant, value, message):
    # Worked system: reachability first holds at T = 3, so a budget that
    # refuses horizon 3 refuses it on both sides, with the same message.
    monkeypatch.setattr(oracle_module, constant, value)
    with pytest.raises(BudgetExceededError) as search:
        check_reachability(merge(golden_sls(), NET), 5, strict=True)
    with pytest.raises(BudgetExceededError) as oracle:
        kalman_oracle(golden_sls(), NET, 5, "reachability")
    assert str(search.value) == str(oracle.value) == message


@pytest.mark.parametrize("alphas, replays", [((4,), 10), (None, 40)], ids=["cover", "strict"])
def test_oracle_replays_only_what_it_judges(monkeypatch, alphas, replays):
    # Worked system: reachability holds at T = 3 with witness (1, 2, 2),
    # after 2 + 4 + 4 input sequences. The oracle replays each of them
    # once from every checked state, and no sequence past the witness.
    calls = [0]
    original = analysis._simulate

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(analysis, "_simulate", counted)
    verdict = kalman_oracle(golden_sls(), NET, prop="reachability", alphas=alphas)
    assert (verdict.holds, verdict.witness, verdict.T) == (True, (1, 2, 2), 3)
    assert calls[0] == replays


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6))
@example(6292)
@settings(max_examples=10, deadline=None)
def test_reachability_witness_replays(seed):
    rng = random.Random(seed)
    sls = random_system(rng)
    net = random_net_for(rng, sls.q)
    ms = merge(sls, net)
    v = check_reachability(ms, strict=True)
    if v.holds:
        for alpha in v.checked_alphas:
            assert subspace_is_full(reachable_set(ms, alpha, v.witness).span, sls.n)
    else:
        assert any(not d.holds for d in v.per_alpha.values())
