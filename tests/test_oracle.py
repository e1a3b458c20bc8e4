"""Checks for the brute-force enumeration baseline.

These must be trustworthy on their own, so the assertions here lean on
hand-computed values and closed-form counts rather than on any other
module under test.
"""

import random

import pytest

from slsnet.algebra import DimensionError, Matrix, rank
from slsnet.fileio import loads
from slsnet.oracle import (
    BudgetExceededError,
    controllability_matrix,
    count_paths,
    enumerate_switching_sequences,
    kalman_rank,
    mode_chain,
    observability_matrix,
    obsv_rank,
)

from conftest import FIXTURES, golden_net, golden_sls


def test_enumeration_counts_and_order():
    net = golden_net()
    for horizon in (1, 2, 3):
        runs = enumerate_switching_sequences(net, 4, horizon)
        assert len(runs) == net.M**horizon
        gammas = [g for g, _ in runs]
        assert gammas == sorted(gammas)
        assert all(len(g) == horizon and len(s) == horizon for g, s in runs)


def test_enumeration_golden_signals():
    # From state 1 the two inputs emit different signals; from state 4
    # both emit 1 (pairs 4 and 8 of the signal row).
    net = golden_net()
    runs = dict(enumerate_switching_sequences(net, 1, 1))
    assert runs[(1,)] == (2,)
    assert runs[(2,)] == (1,)
    runs4 = dict(enumerate_switching_sequences(net, 4, 1))
    assert runs4[(1,)] == (1,)
    assert runs4[(2,)] == (1,)


def test_enumeration_matches_stepwise_replay():
    from slsnet.lcn import step

    net = golden_net()
    rng = random.Random(11)
    for _ in range(20):
        alpha = rng.randint(1, net.N)
        horizon = rng.randint(1, 4)
        for gammas, sigmas in enumerate_switching_sequences(net, alpha, horizon):
            theta = alpha
            expected = []
            for g in gammas:
                theta, sigma = step(net, g, theta)
                expected.append(sigma)
            assert sigmas == tuple(expected)


def test_enumeration_budget():
    # the sequence budget binds first on two inputs, the horizon budget on one
    with pytest.raises(BudgetExceededError, match=r"^2\^20 sequences exceed the budget of 1000000$"):
        enumerate_switching_sequences(golden_net(), 1, 20)
    net = loads((FIXTURES / "lcn_single_input.txt").read_text()).net
    with pytest.raises(BudgetExceededError, match="^horizon 33 exceeds the budget of 32$"):
        enumerate_switching_sequences(net, 1, 33)


def test_controllability_matrix_layout():
    sls = golden_sls()
    m = controllability_matrix((1, 2), sls)
    # [B2 | A2 B1] for the sequence (sigma_0, sigma_1) = (1, 2)
    b2 = sls.b(2)
    a2b1 = sls.a(2) @ sls.b(1)
    assert m.cols == 2
    assert Matrix.column(m.col(0)) == b2
    assert Matrix.column(m.col(1)) == a2b1


def test_observability_matrix_layout():
    sls = golden_sls()
    m = observability_matrix((1, 2), sls)
    # [C1 ; C2 A1] stacked for (sigma_0, sigma_1) = (1, 2)
    assert m.rows == 2
    assert Matrix([m.entries[0]]) == sls.c(1)
    assert Matrix([m.entries[1]]) == sls.c(2) @ sls.a(1)


def test_stacked_matrices_read_an_iterator_of_modes():
    # an empty iterator is refused as an empty sequence is, not by the
    # stacking of no blocks; a non-empty one gives the list's matrix
    sls = golden_sls()
    for stacked in (controllability_matrix, observability_matrix):
        with pytest.raises(DimensionError, match="^mode sequence may not be empty$"):
            stacked(iter(()), sls)
        assert stacked(iter([1, 2, 1]), sls) == stacked([1, 2, 1], sls)


def test_mode_chain_order():
    sls = golden_sls()
    assert mode_chain((1, 2), sls) == sls.a(2) @ sls.a(1)
    assert mode_chain((2,), sls) == sls.a(2)


def test_golden_ranks():
    # Mode sequences realizable from state 4 are exactly these four.
    # (1,1,1) alone fails the rank test for inputs; (1,2,2) alone fails
    # it for outputs.
    sls = golden_sls()
    assert kalman_rank((1, 1, 1), sls) == 2
    for sig in ((1, 1, 2), (1, 2, 1), (1, 2, 2)):
        assert kalman_rank(sig, sls) == 3
    assert obsv_rank((1, 2, 2), sls) == 2
    for sig in ((1, 1, 1), (1, 1, 2), (1, 2, 1)):
        assert obsv_rank(sig, sls) == 3


def test_rank_helpers_match_direct_rank():
    sls = golden_sls()
    for sig in ((1,), (2,), (1, 2), (2, 1), (1, 1, 2)):
        assert kalman_rank(sig, sls) == rank(controllability_matrix(sig, sls))
        assert obsv_rank(sig, sls) == rank(observability_matrix(sig, sls))


def test_count_paths_golden():
    # One step from {4, 6}: exactly the columns of the stacked transition
    # matrix land in {5, 7, 8} twice and in {1, 2, 3} never.
    net = golden_net()
    assert count_paths(net, [4, 6], [5, 7, 8], 1) == 2
    assert count_paths(net, [4, 6], [1, 2, 3], 1) == 0
    assert count_paths(net, [4, 6], [5, 7, 8], 2) == 4
    assert count_paths(net, [4, 6], [1, 2, 3], 2) == 2


def test_count_paths_total_is_m_power_ell():
    net = golden_net()
    everything = list(range(1, net.M * net.N + 1))
    for ell in (1, 2, 3):
        assert count_paths(net, [3], everything, ell) == net.M**ell


def test_count_paths_budget():
    net = golden_net()
    with pytest.raises(BudgetExceededError, match="^path enumeration exceeds the budget$"):
        count_paths(net, [1, 2], [3], 19)


def test_count_paths_single_input_honours_the_horizon_budget():
    # with M = 1 one walk leaves each pair, so the sequence budget never
    # binds: the horizon budget refuses a long walk before it starts
    net = loads((FIXTURES / "lcn_single_input.txt").read_text()).net
    assert net.M == 1
    assert [count_paths(net, [1], [1], ell) for ell in (31, 32)] == [0, 1]
    with pytest.raises(BudgetExceededError, match="path length 33 exceeds the budget of 32"):
        count_paths(net, [1], [1], 33)
