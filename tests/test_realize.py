"""Signal-constraint realizability against direct successor enumeration.

The oracle here walks the input-state graph one step at a time: a pair
(gamma, theta) moves to (gamma', L-target) for any next input gamma'.
Stay/escape conditions and reference tracking are both re-derived from
that walk and compared with the successor-index implementations; the
stay/escape diagnostics are also checked against the paper's Boolean
products over the input-state matrix, and the whole tracking verdict
against a frontier of input-state pairs expanded pair by pair.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsnet import realize
from slsnet.algebra import BooleanMatrix, LogicalMatrix, boolean_product
from slsnet.lcn import LogicalNetwork, decode_pair, input_state_matrix, step
from slsnet.realize import (
    INFINITY,
    FotSpec,
    TrackingProblem,
    TrackVerdict,
    check_dwell_time_realizable,
    check_fot_realizable,
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


def pair_frontier_track(net, problem):
    """Tracking verdict from a frontier of pairs, each expanded under all M
    next inputs; the first pair (in ascending order) reaching a successor
    is its link, and the witness walks the links back from the smallest
    pair of the last frontier."""
    preimages = {p.sigma: set(p.members) for p in signal_preimages(net)}
    frontier = sorted(
        (gamma - 1) * net.N + problem.theta0
        for gamma in range(1, net.M + 1)
        if (gamma - 1) * net.N + problem.theta0 in preimages[problem.reference[0]]
    )
    sizes = [len(frontier)]
    if not frontier:
        return TrackVerdict(False, None, 0, tuple(sizes))
    links = []
    for t in range(1, len(problem.reference)):
        wanted = preimages[problem.reference[t]]
        step_links = {}
        for pair in frontier:
            theta_next = net.L.target(pair)
            for gamma in range(1, net.M + 1):
                succ = (gamma - 1) * net.N + theta_next
                if succ in wanted and succ not in step_links:
                    step_links[succ] = pair
        frontier = sorted(step_links)
        links.append(step_links)
        sizes.append(len(frontier))
        if not frontier:
            return TrackVerdict(False, None, t, tuple(sizes))
    chain = [frontier[0]]
    for step_links in reversed(links):
        chain.append(step_links[chain[-1]])
    witness = tuple(decode_pair(p, net.N)[0] for p in reversed(chain))
    return TrackVerdict(True, witness, None, tuple(sizes))


def test_fot_reads_the_emitted_signals_not_the_free_states():
    # input gamma moves every state to state gamma, so every state reaches
    # every state in one step; but the signal is the state's own, and pair
    # (1, 1) lands on state 1 again, so signal 1 cannot last just one step
    free_states = tiny_net([1, 1, 2, 2], [1, 2, 1, 2])
    assert not check_fot_realizable(free_states, FotSpec([1, 1])).realizable

    # every pair moves to state 1, where input sigma emits signal sigma, so
    # each signal can be held or left at will
    constant_state = tiny_net([1, 1, 1, 1], [1, 1, 2, 2])
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


def test_tracking_witness_takes_the_smallest_tied_pair():
    # N = 4, M = 2. From state 1, inputs 1 and 2 emit 1 and reach states 2
    # and 3. Two frontier pairs then emit 2 and both reach state 4: (1, 3),
    # pair 3, and (2, 2), pair 6. The smaller pair has the smaller input but
    # the larger state, so the witness runs through state 3, not state 2.
    l_cols = [2, 1, 4, 4, 3, 4, 1, 1]
    r_cols = [1, 1, 2, 1, 1, 2, 1, 2]
    net = LogicalNetwork(2, 2, 1, LogicalMatrix(4, l_cols), LogicalMatrix(2, r_cols))
    problem = TrackingProblem(1, [1, 2, 1])
    assert track_oracle(net, 1, [1, 2, 1])
    verdict = check_trackable(net, problem)
    assert verdict == TrackVerdict(True, (2, 1, 1), None, (2, 2, 1))
    assert verdict == pair_frontier_track(net, problem)
    # the other tied pair also gives a witness, (1, 2, 1)
    theta, emitted = 1, []
    for gamma in (1, 2, 1):
        theta, sigma = step(net, gamma, theta)
        emitted.append(sigma)
    assert emitted == [1, 2, 1]


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


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_tracking_verdict_matches_pair_frontier(seed, live):
    # live references are emitted by a random run, so they are trackable;
    # the others are drawn at random and mostly die part way
    rng = random.Random(seed)
    n_nodes, m_nodes = rng.randint(1, 4), rng.choice([0, 1, 2])
    q = rng.randint(1, min(3, 2 ** (n_nodes + m_nodes)))
    net = random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)
    theta0 = rng.randint(1, net.N)
    length = rng.randint(1, 10)
    if live:
        reference, theta = [], theta0
        for _ in range(length):
            theta, sigma = step(net, rng.randint(1, net.M), theta)
            reference.append(sigma)
    else:
        reference = [rng.randint(1, q) for _ in range(length)]
    problem = TrackingProblem(theta0, reference)
    verdict = check_trackable(net, problem)
    assert verdict == pair_frontier_track(net, problem)
    assert verdict.trackable or not live


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("m_nodes", [0, 1, 2])
@pytest.mark.parametrize("n_nodes", [6, 7, 8])
def test_tracking_matches_pair_frontier_at_scale(n_nodes, m_nodes, q):
    # N = 64..256 and M = 1..4, the sizes the benchmark tracks at, where
    # state sets are both sparse and dense; theta0 emits only signal 1
    rng = random.Random(f"track:{n_nodes}:{m_nodes}:{q}")
    net = random_net_for(rng, q, n_nodes=n_nodes, m_nodes=m_nodes)
    theta0 = rng.randint(1, net.N)
    signals = list(net.R.col_index)
    for gamma in range(net.M):
        signals[gamma * net.N + theta0 - 1] = 1
    net = LogicalNetwork(2, n_nodes, m_nodes, net.L, LogicalMatrix(q, signals))
    live, theta = [], theta0
    for _ in range(300):
        theta, sigma = step(net, rng.randint(1, net.M), theta)
        live.append(sigma)
    # a live prefix, then random signals that mostly die part way
    mixed = live[:150] + [rng.randint(1, q) for _ in range(150)]
    references = [live, mixed] + ([[q] + live[1:]] if q > 1 else [])
    for reference in references:
        problem = TrackingProblem(theta0, reference)
        assert check_trackable(net, problem) == pair_frontier_track(net, problem)
    assert check_trackable(net, TrackingProblem(theta0, live)).trackable
    if q > 1:
        assert check_trackable(net, TrackingProblem(theta0, [q] + live[1:])).failed_at == 0


def _count_tables(monkeypatch):
    """Spy on the per-byte successor tables: the length of each block built."""
    built, or_table = [], realize._or_table

    def counting(masks):
        built.append(len(masks))
        return or_table(masks)

    monkeypatch.setattr(realize, "_or_table", counting)
    return built


def _live_reference(rng, net, theta0, length):
    reference, theta = [], theta0
    for _ in range(length):
        theta, sigma = step(net, rng.randint(1, net.M), theta)
        reference.append(sigma)
    return reference


@pytest.mark.parametrize("n_nodes", [3, 4, 5])
def test_tracking_tables_with_short_last_block(monkeypatch, n_nodes):
    # k = 3 gives N = 27, 81, 243: the last 8-state block holds 3, 1, 3
    built = _count_tables(monkeypatch)
    rng = random.Random(f"track-k3:{n_nodes}")
    net = random_net_for(rng, 2, n_nodes=n_nodes, m_nodes=1, k=3)
    for theta0 in rng.sample(range(1, net.N + 1), 3):
        live = _live_reference(rng, net, theta0, 60)
        for reference in (live, live[:30] + [rng.randint(1, 2) for _ in range(30)]):
            problem = TrackingProblem(theta0, reference)
            assert check_trackable(net, problem) == pair_frontier_track(net, problem)
    assert net.N % 8 in built


@pytest.mark.parametrize("k, n_nodes", [(2, 0), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_tracking_tables_on_tiny_networks(monkeypatch, k, n_nodes):
    # N = 1, 2, 3, 4, 9: below 9 states every step is a table step
    built = _count_tables(monkeypatch)
    rng = random.Random(f"track-tiny:{k}:{n_nodes}")
    for m_nodes in (0, 1):
        width = k ** (n_nodes + m_nodes)
        for _ in range(20):
            net = random_net_for(rng, rng.randint(1, min(3, width)), n_nodes=n_nodes, m_nodes=m_nodes, k=k)
            theta0 = rng.randint(1, net.N)
            live = _live_reference(rng, net, theta0, rng.randint(1, 12))
            drawn = [rng.randint(1, net.q) for _ in range(rng.randint(1, 12))]
            for reference in (live, drawn):
                problem = TrackingProblem(theta0, reference)
                assert check_trackable(net, problem) == pair_frontier_track(net, problem)
    assert built


def _spread_and_collapse_net():
    """N = 64, M = 4: input 1 sends every state to state 1 and emits 2
    (3 at state 1); inputs 2..4 spread to random states other than 1 and
    emit 1."""
    rng = random.Random("track-spread")
    n = 64
    l_cols = [1] * n + [rng.randint(2, n) for _ in range(3 * n)]
    r_cols = [3] + [2] * (n - 1) + [1] * (3 * n)
    return LogicalNetwork(2, 6, 2, LogicalMatrix(n, l_cols), LogicalMatrix(3, r_cols))


def test_tracking_goes_sparse_dense_sparse(monkeypatch):
    built = _count_tables(monkeypatch)
    net = _spread_and_collapse_net()
    # ten spreading steps make S_t dense, signal 2 collapses it to state 1,
    # and signal 3 can only be emitted there
    reference = [1] * 10 + [2, 3] + [1] * 10 + [2, 1, 1]
    problem = TrackingProblem(5, reference)
    verdict = check_trackable(net, problem)
    assert verdict == pair_frontier_track(net, problem)
    assert verdict.trackable
    assert verdict.frontier_sizes[11] == 1 and max(verdict.frontier_sizes[:10]) > 8 * 3
    # signals 1 and 2 both step a dense set twice, but build their eight
    # block tables once each
    assert built == [8] * 16


def test_tracking_dies_after_tables_were_built(monkeypatch):
    built = _count_tables(monkeypatch)
    net = _spread_and_collapse_net()
    # only state 1 emits 3, and spreading never reaches it: 3 dies on a
    # dense set; after a collapse to state 1, which emits 3, 2 dies
    for reference, failed_at in (([1] * 10 + [3], 10), ([1] * 10 + [2, 2], 11)):
        problem = TrackingProblem(7, reference)
        verdict = check_trackable(net, problem)
        assert verdict == pair_frontier_track(net, problem)
        assert verdict.failed_at == failed_at
    assert built and set(built) == {8}


def test_tracking_keeps_nothing_between_calls(monkeypatch):
    # each call builds its own tables and leaves the network as it was
    built = _count_tables(monkeypatch)
    net = _spread_and_collapse_net()
    fields = [getattr(net, name) for name in LogicalNetwork.__slots__]
    problem = TrackingProblem(5, [1] * 10 + [2, 3] + [1] * 10 + [2, 1, 1])
    assert check_trackable(net, problem) == check_trackable(net, problem)
    assert built == [8] * 32
    assert [getattr(net, name) for name in LogicalNetwork.__slots__] == fields
    assert net == _spread_and_collapse_net()


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
