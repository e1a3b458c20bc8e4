"""Signal-constraint realizability against direct successor enumeration.

The oracle here walks the input-state graph one step at a time: a pair
(gamma, theta) moves to (gamma', L-target) for any next input gamma'.
Stay/escape conditions and reference tracking are both re-derived from
that walk and compared with the successor-index implementations; the
stay/escape diagnostics are also checked against the paper's Boolean
products over the input-state matrix.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsnet.algebra import BooleanMatrix, LogicalMatrix, boolean_product
from slsnet.lcn import LogicalNetwork, decode_pair, input_state_matrix, step
from slsnet.realize import (
    INFINITY,
    FotSpec,
    TrackingProblem,
    check_dwell_time_realizable,
    check_fot_realizable,
    check_one_step_universal,
    check_trackable,
    signal_preimages,
)

from conftest import golden_net, random_net_for

NET = golden_net()


def tiny_net(l_cols, r_cols, q=2):
    return LogicalNetwork(
        k=2, n_nodes=1, m_nodes=1,
        L=LogicalMatrix(2, l_cols), R=LogicalMatrix(q, r_cols),
    )


def successors(net, pair):
    theta_next = net.L.target(pair)
    return {(g - 1) * net.N + theta_next for g in range(1, net.M + 1)}


def fot_oracle(net, durations):
    """Per-singleton stay/escape check by direct enumeration."""
    pre = {p.sigma: set(p.members) for p in signal_preimages(net)}
    failures = {}
    for sigma, members in pre.items():
        d = durations[sigma - 1]
        escape, stay = [], []
        for x in sorted(members):
            succ = successors(net, x)
            if d != INFINITY and not (succ - members):
                escape.append(x)
            if d > 1 and not (succ & members):
                stay.append(x)
        failures[sigma] = (tuple(escape), tuple(stay))
    ok = all(not e and not s for e, s in failures.values())
    return ok, failures


def singleton_failures(net, members, row_members):
    """Members x at the zero entries of row^T x_B L x_B P (singleton form).

    L is the input-state matrix, row marks row_members and column c of P
    is the indicator of members[c].
    """
    mn = net.M * net.N
    row = BooleanMatrix([[1 if i in row_members else 0 for i in range(1, mn + 1)]])
    singles = BooleanMatrix([[1 if i == x else 0 for x in members] for i in range(1, mn + 1)])
    hit = boolean_product(boolean_product(row, input_state_matrix(net)), singles)
    return tuple(x for x, bit in zip(members, hit.bits[0]) if not bit)


def track_oracle(net, theta0, reference):
    """Exhaustive search over all input sequences of the reference length."""
    for gammas in itertools.product(range(1, net.M + 1), repeat=len(reference)):
        theta = theta0
        emitted = []
        for g in gammas:
            theta_next, sigma = step(net, g, theta)
            emitted.append(sigma)
            theta = theta_next
        if tuple(emitted) == tuple(reference):
            return True
    return False


# ---------------------------------------------------------------------------
# One-step universality
# ---------------------------------------------------------------------------

def test_universal_two_state_swap():
    assert check_one_step_universal(tiny_net([1, 2, 2, 1], [1, 2, 1, 2]))


def test_golden_net_not_universal():
    # state 1 only ever moves to 1 or 4
    assert not check_one_step_universal(NET)


def test_single_input_identity_not_universal():
    net = LogicalNetwork(
        k=2, n_nodes=1, m_nodes=0,
        L=LogicalMatrix(2, [1, 2]), R=LogicalMatrix(1, [1, 1]),
    )
    assert not check_one_step_universal(net)


def test_universality_and_fot_are_independent():
    # Universality frees the next state, but the emitted signal still
    # depends on the pair, so neither condition implies the other.
    universal = tiny_net([1, 1, 2, 2], [1, 2, 1, 2])
    assert check_one_step_universal(universal)
    v = check_fot_realizable(universal, FotSpec([1, 1]))
    assert not v.realizable

    constant_state = tiny_net([1, 1, 1, 1], [1, 1, 2, 2])
    assert not check_one_step_universal(constant_state)
    for durations in itertools.product((1, 2, INFINITY), repeat=2):
        assert check_fot_realizable(constant_state, FotSpec(durations)).realizable


# ---------------------------------------------------------------------------
# Preimages
# ---------------------------------------------------------------------------

def test_golden_preimages():
    pre = signal_preimages(NET)
    assert pre[0].members == (3, 4, 5, 8)
    assert pre[1].members == (1, 2, 6, 7)
    assert not pre[0].empty


def test_single_signal_preimage_is_everything():
    net = LogicalNetwork(
        k=2, n_nodes=1, m_nodes=1,
        L=LogicalMatrix(2, [1, 2, 2, 1]), R=LogicalMatrix(1, [1, 1, 1, 1]),
    )
    (pre,) = signal_preimages(net)
    assert pre.members == (1, 2, 3, 4)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_preimages_partition(seed):
    rng = random.Random(seed)
    net = random_net_for(rng, rng.randint(1, 3))
    pres = signal_preimages(net)
    seen = [x for p in pres for x in p.members]
    assert sorted(seen) == list(range(1, net.M * net.N + 1))
    for p in pres:
        assert list(p.members) == sorted(p.members)


# ---------------------------------------------------------------------------
# Fixed operating times
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        FotSpec([0])
    with pytest.raises(ValueError):
        FotSpec([1.5])
    with pytest.raises(ValueError):
        FotSpec([True])
    with pytest.raises(ValueError):
        check_fot_realizable(NET, FotSpec([1]))


def test_golden_fot_both_two():
    v = check_fot_realizable(NET, FotSpec([2, 2]))
    assert not v.realizable
    d1, d2 = v.diagnostics
    assert (d1.sigma, d1.escape_failures, d1.stay_failures) == (1, (4, 5), (3,))
    assert (d2.sigma, d2.escape_failures, d2.stay_failures) == (2, (), (6,))
    assert not v.warnings


def test_golden_fot_duration_one_ignores_stay():
    v = check_fot_realizable(NET, FotSpec([1, 1]))
    assert not v.realizable
    d1, d2 = v.diagnostics
    assert d1.escape_failures == (4, 5) and d1.stay_failures == ()
    assert d2.ok


def test_all_infinite_on_self_sustaining_net():
    hold = tiny_net([1, 2, 1, 2], [1, 2, 1, 2])
    v = check_fot_realizable(hold, FotSpec([INFINITY, INFINITY]))
    assert v.realizable
    # the same net can never leave a signal, so finite durations fail
    w = check_fot_realizable(hold, FotSpec([1, INFINITY]))
    assert not w.realizable
    assert w.diagnostics[0].escape_failures == (1, 3)


def test_unreachable_signal_warns_and_passes_vacuously():
    net = tiny_net([1, 2, 2, 1], [1, 1, 1, 1], q=2)
    v = check_fot_realizable(net, FotSpec([INFINITY, 5]))
    assert v.realizable
    assert v.diagnostics[1].unreachable
    assert any("signal 2" in w for w in v.warnings)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fot_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 3)
    net = random_net_for(rng, q)
    durations = tuple(rng.choice([1, 2, 3, INFINITY]) for _ in range(q))
    spec = FotSpec(durations)
    v = check_fot_realizable(net, spec)
    ok, failures = fot_oracle(net, durations)
    assert v.realizable == ok
    for diag, pre in zip(v.diagnostics, signal_preimages(net)):
        esc, stay = failures[diag.sigma]
        assert diag.escape_failures == esc
        assert diag.stay_failures == stay
        # the paper's conditions: escape reads the complement row, stay the preimage row
        outside = set(range(1, net.M * net.N + 1)) - set(pre.members)
        if spec.needs_escape(diag.sigma):
            assert diag.escape_failures == singleton_failures(net, pre.members, outside)
        if spec.needs_stay(diag.sigma):
            assert diag.stay_failures == singleton_failures(net, pre.members, set(pre.members))


# ---------------------------------------------------------------------------
# Dwell time
# ---------------------------------------------------------------------------

def test_dwell_validation():
    with pytest.raises(ValueError):
        check_dwell_time_realizable(NET, [1])
    with pytest.raises(ValueError):
        check_dwell_time_realizable(NET, [1, 0])
    with pytest.raises(ValueError):
        check_dwell_time_realizable(NET, [1, INFINITY])


def test_golden_dwell_report():
    v = check_dwell_time_realizable(NET, [1, 1])
    assert not v.realizable
    d1, d2 = v.diagnostics
    assert d1.escape_failures == (4, 5) and d1.stay_failures == (3,)
    assert d2.stay_failures == (6,)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_dwell_equals_fot_with_interior_durations(seed):
    # Minimum dwell admits arbitrarily long activations, so the verdict
    # must coincide with finite durations above one, whatever the bounds.
    rng = random.Random(seed)
    q = rng.randint(1, 3)
    net = random_net_for(rng, q)
    dwell = [rng.randint(1, 9) for _ in range(q)]
    assert (
        check_dwell_time_realizable(net, dwell).realizable
        == check_fot_realizable(net, FotSpec([2] * q)).realizable
    )


def test_dwell_fails_when_signal_cannot_persist():
    # signal 2 is emitted only from pairs that jump straight back to
    # signal-1 territory
    net = tiny_net([1, 1, 1, 1], [1, 2, 1, 1])
    v = check_dwell_time_realizable(net, [1, 3])
    assert not v.realizable
    assert v.diagnostics[1].stay_failures == (2,)


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------

def test_tracking_problem_validation():
    with pytest.raises(ValueError):
        TrackingProblem(1, [])
    with pytest.raises(ValueError):
        check_trackable(NET, TrackingProblem(0, [1]))
    with pytest.raises(ValueError):
        check_trackable(NET, TrackingProblem(1, [3]))


def test_golden_tracking():
    v = check_trackable(NET, TrackingProblem(4, [1, 2, 2]))
    assert v.trackable
    assert v.witness == (2, 2, 2)
    assert v.failed_at is None
    assert v.frontier_sizes == (2, 1, 1)


def test_tracking_single_step():
    v = check_trackable(NET, TrackingProblem(4, [1]))
    assert v.trackable and v.witness == (1,)
    w = check_trackable(NET, TrackingProblem(4, [2]))
    assert not w.trackable and w.failed_at == 0 and w.witness is None


def test_tracking_unproducible_signal():
    net = tiny_net([1, 2, 2, 1], [1, 1, 1, 1], q=2)
    v = check_trackable(net, TrackingProblem(1, [1, 2]))
    assert not v.trackable
    assert v.failed_at == 1


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tracking_matches_exhaustive_search(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 3)
    net = random_net_for(rng, q)
    theta0 = rng.randint(1, net.N)
    reference = [rng.randint(1, q) for _ in range(rng.randint(1, 4))]
    v = check_trackable(net, TrackingProblem(theta0, reference))
    assert v.trackable == track_oracle(net, theta0, reference)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tracking_witness_replays(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 3)
    net = random_net_for(rng, q)
    theta0 = rng.randint(1, net.N)
    reference = [rng.randint(1, q) for _ in range(rng.randint(1, 4))]
    v = check_trackable(net, TrackingProblem(theta0, reference))
    if not v.trackable:
        return
    assert len(v.witness) == len(reference)
    theta = theta0
    for gamma, sigma_ref in zip(v.witness, reference):
        theta, sigma = step(net, gamma, theta)
        assert sigma == sigma_ref


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_tracking_monotone_under_preimage_growth(seed):
    # Reassigning pairs from an unused signal value into the referenced
    # ones can only help.
    rng = random.Random(seed)
    net = random_net_for(rng, 3)
    theta0 = rng.randint(1, net.N)
    reference = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    grown = [c if c != 3 else rng.randint(1, 2) for c in net.R.col_index]
    net2 = LogicalNetwork(net.k, net.n_nodes, net.m_nodes, net.L,
                          LogicalMatrix(3, grown))
    before = check_trackable(net, TrackingProblem(theta0, reference)).trackable
    after = check_trackable(net2, TrackingProblem(theta0, reference)).trackable
    assert after or not before
