"""Property checks: merged-block route vs raw mode-matrix route.

The central claim under test is that reachable sets computed from the
merged system's block products coincide with column spaces of classical
stacked matrices built from the induced switching sequence, and that
the four property verdicts therefore agree with the brute-force oracle
on identical checked-state sets.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slsnet.algebra import Matrix, Numeric, column_space, rank, subspace_is_full
from slsnet.analysis import (
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
from slsnet.lcn import LogicalNetwork, build_from_functions
from slsnet.oracle import (
    controllability_matrix,
    enumerate_switching_sequences,
    kalman_rank,
    mode_chain,
    observability_matrix,
)
from slsnet.sls import SwitchedLinearSystem, merge, merge_dual

from conftest import golden_net, golden_sls, random_net_for, random_system

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
         (Matrix.identity(2).scale(2), z, Matrix([[1, 1]])))
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
        sigmas, thetas = f.trajectories[4]
        assert (sigmas, thetas) == switching_trajectory(NET, 4, f.gammas)
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
    with pytest.raises(ValueError):
        check_reachability(MS, alphas=[9])
    with pytest.raises(ValueError):
        check_reachability(MS, alphas=[])
    with pytest.raises(ValueError):
        check_reachability(MS, t_max=0)


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

# not the default 1e-9, so a default context leaking in anywhere shows
LOOSE = Numeric(1e-6)


def _float_copy(sls):
    return SwitchedLinearSystem(
        [tuple(Matrix(x.entries, LOOSE) for x in mode) for mode in sls.modes]
    )


def _assert_context(merged, mode):
    """Blocks, and the spans and chains of one step from every state, carry mode."""
    blocks = list(merged.g_blocks.values()) + list(merged.h_blocks.values())
    assert {b.mode for b in blocks} == {mode}
    for alpha in range(1, merged.net.N + 1):
        for gamma in range(1, merged.net.M + 1):
            _, span, chain = _step(merged, _start(merged, alpha), gamma)
            assert (span.mode, span.basis.mode, chain.mode) == (mode, mode, mode)


def _full_rank_sequences(sls, net, alphas):
    """Enumeration reference for feasible_input_sequences: the sequences of
    full Kalman rank at every alpha, at the first length that has any."""
    for horizon in range(1, sls.n + 1):
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
        for prop, check, merged in pairs:
            mine = check(merged, alphas=alphas)
            ref = kalman_oracle(sls, net, prop=prop, alphas=alphas)
            tag = (prop, system.mode_flag, seed, rational)
            assert mine.holds == ref.holds, tag
            assert mine.witness == ref.witness, tag
            assert mine.T == ref.T, tag
            assert mine.per_alpha == ref.per_alpha, tag
        feasible = feasible_input_sequences(ms, sls.n, alphas=alphas)
        assert [f.gammas for f in feasible] == _full_rank_sequences(sls, net, alphas), seed


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
