"""Logical control network tests.

Brute-force oracles: direct truth-table evaluation for built networks,
STP evaluation for step(), exhaustive DFS for path counts, and
networkx cycle/reachability search for attractors.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsnet.algebra import (
    BooleanMatrix,
    DimensionError,
    LogicalMatrix,
    Matrix,
    basis_vector,
    boolean_product,
    stp,
)
from slsnet.lcn import (
    InputStateSubset,
    LogicalNetwork,
    SubsetClass,
    build_from_functions,
    control_attractors,
    decode_pair,
    dot_graph,
    encode_pair,
    input_state_matrix,
    set_reachability_matrix,
    set_reachability_verdicts,
    step,
)

# The running example pair: a 2-node Boolean net with one input whose
# transition/signal matrices exercise every branch below.
NET = LogicalNetwork(
    k=2,
    n_nodes=2,
    m_nodes=1,
    L=LogicalMatrix(4, [1, 1, 2, 4, 4, 4, 3, 3]),
    R=LogicalMatrix(2, [2, 2, 1, 1, 1, 2, 2, 1]),
)


def random_network(rng, k=2, n_nodes=2, m_nodes=1, q=2):
    width = k ** (m_nodes + n_nodes)
    n_states = k**n_nodes
    return LogicalNetwork(
        k,
        n_nodes,
        m_nodes,
        LogicalMatrix(n_states, [rng.randint(1, n_states) for _ in range(width)]),
        LogicalMatrix(q, [rng.randint(1, q) for _ in range(width)]),
    )


# ---------------------------------------------------------------------------
# Construction from truth tables
# ---------------------------------------------------------------------------

def test_build_single_node_copies_input():
    net = build_from_functions(2, 1, 1, [[1, 1, 2, 2]])
    assert net.L == LogicalMatrix(2, [1, 1, 2, 2])
    assert net.M == 2 and net.N == 2 and net.q == 1


def test_build_input_free_negation():
    net = build_from_functions(2, 1, 0, [[2, 1]])
    assert net.L == LogicalMatrix(2, [2, 1])
    assert net.M == 1


def test_build_two_node_net_matches_truth_tables():
    # node 1: x1' = gamma AND x2 ; node 2: x2' = x1 OR x2 (value 1 = true)
    def f1(g, x1, x2):
        return 1 if g == 1 and x2 == 1 else 2

    def f2(g, x1, x2):
        return 1 if x1 == 1 or x2 == 1 else 2

    combos = list(itertools.product([1, 2], repeat=3))
    t1 = [f1(*c) for c in combos]
    t2 = [f2(*c) for c in combos]
    net = build_from_functions(2, 2, 1, [t1, t2])
    for g, x1, x2 in combos:
        theta = (x1 - 1) * 2 + x2
        theta_next, _ = step(net, g, theta)
        want = (f1(g, x1, x2) - 1) * 2 + f2(g, x1, x2)
        assert theta_next == want


def test_build_rejects_malformed_tables():
    with pytest.raises(DimensionError):
        build_from_functions(2, 1, 1, [[1, 1, 2]])
    with pytest.raises(DimensionError):
        build_from_functions(2, 1, 1, [[1, 1, 2, 3]])
    with pytest.raises(DimensionError):
        build_from_functions(2, 2, 0, [[1, 2, 1, 2]])


def test_build_with_signal_table():
    net = build_from_functions(2, 1, 1, [[1, 1, 2, 2]], signal_table=[1, 2, 2, 1])
    assert net.q == 2
    assert step(net, 2, 1) == (2, 2)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def test_step_golden_columns():
    assert step(NET, 1, 3) == (2, 1)
    assert step(NET, 2, 4) == (3, 1)


def test_step_range_errors():
    with pytest.raises(ValueError):
        step(NET, 3, 1)
    with pytest.raises(ValueError):
        step(NET, 1, 5)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_step_agrees_with_stp_evaluation(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=rng.choice([2, 3]), n_nodes=rng.choice([1, 2]), m_nodes=rng.choice([0, 1]))
    l_dense = net.L.dense()
    r_dense = net.R.dense()
    for gamma in range(1, net.M + 1):
        for theta in range(1, net.N + 1):
            theta_next, sigma = step(net, gamma, theta)
            pair = stp(basis_vector(net.M, gamma), basis_vector(net.N, theta))
            assert stp(l_dense, pair) == basis_vector(net.N, theta_next)
            assert stp(r_dense, pair) == basis_vector(net.q, sigma)


def test_encode_decode_roundtrip():
    for gamma in range(1, 4):
        for theta in range(1, 5):
            idx = encode_pair(gamma, theta, 4)
            assert decode_pair(idx, 4) == (gamma, theta)


# ---------------------------------------------------------------------------
# Input-state transition matrix
# ---------------------------------------------------------------------------

def test_input_state_matrix_single_input_is_l():
    net = build_from_functions(2, 1, 0, [[2, 1]])
    assert input_state_matrix(net) == net.L.boolean()


def test_input_state_matrix_golden_column():
    big = input_state_matrix(NET)
    assert big.rows == 8 and big.cols == 8
    assert [i for i in range(1, 9) if big[i - 1, 2]] == [2, 6]


def test_input_state_matrix_row_sums_count_sources():
    big = input_state_matrix(NET)
    for i in range(1, 9):
        _, theta = decode_pair(i, NET.N)
        expected = sum(1 for t in NET.L.col_index if t == theta)
        assert sum(big.bits[i - 1]) == expected


# ---------------------------------------------------------------------------
# Set reachability
# ---------------------------------------------------------------------------

def example_partition():
    omega1 = InputStateSubset([4, 6], 8)
    omega2 = InputStateSubset([5, 7, 8], 8)
    omega3 = InputStateSubset([1, 2, 3], 8)
    return SubsetClass([omega1]), SubsetClass([omega2, omega3])


def test_quantitative_counts_golden():
    omega0, omega_d = example_partition()
    c1 = set_reachability_matrix(NET, omega0, omega_d, 1, quantitative=True)
    assert c1 == Matrix([[2], [0]])
    c2 = set_reachability_matrix(NET, omega0, omega_d, 2, quantitative=True)
    assert c2 == Matrix([[4], [2]])


def test_boolean_is_sign_of_quantitative_golden():
    omega0, omega_d = example_partition()
    assert set_reachability_matrix(NET, omega0, omega_d, 1) == BooleanMatrix([[1], [0]])
    assert set_reachability_matrix(NET, omega0, omega_d, 2) == BooleanMatrix([[1], [1]])


def walk_ends(net, source, ell):
    """Endpoints of every l-step walk from a pair, by exhaustive DFS.

    Pair j = (gamma, theta) moves to (gamma', L-target of j) for every
    free next input gamma'.
    """
    if ell == 0:
        return [source]
    theta_next = net.L.target(source)
    return [
        end
        for g in range(1, net.M + 1)
        for end in walk_ends(net, encode_pair(g, theta_next, net.N), ell - 1)
    ]


def index_matrix(subset_class):
    """Boolean index matrix of a subset class: column j marks subset j."""
    return BooleanMatrix(
        [[1 if i in s.members else 0 for s in subset_class.subsets]
         for i in range(1, subset_class.mn + 1)]
    )


@given(st.integers(0, 10**6), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_counts_match_dfs_oracle(seed, ell):
    rng = random.Random(seed)
    net = random_network(rng, k=rng.choice([2, 3]), n_nodes=rng.randint(1, 3),
                         m_nodes=rng.randint(0, 2))
    mn = net.M * net.N
    idx = list(range(1, mn + 1))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, mn), min(2, mn - 1)))
    groups = [idx[a:b] for a, b in zip([0] + cuts, cuts + [mn])]
    subsets = [InputStateSubset(g, mn) for g in groups]
    omega0 = SubsetClass(subsets)
    omega_d = SubsetClass(subsets[::-1])
    quant = set_reachability_matrix(net, omega0, omega_d, ell, quantitative=True)
    boolean = set_reachability_matrix(net, omega0, omega_d, ell)
    # the paper's form: Omega_d^T x_B (input-state matrix)^l x_B Omega_0
    big = input_state_matrix(net)
    formula = index_matrix(omega_d).transpose()
    for _ in range(ell):
        formula = boolean_product(formula, big)
    assert boolean == boolean_product(formula, index_matrix(omega0))
    for j, src in enumerate(omega0.subsets):
        ends = [end for a in src.members for end in walk_ends(net, a, ell)]
        for i, dst in enumerate(omega_d.subsets):
            want = sum(1 for end in ends if end in dst.members)
            assert quant[i, j] == want
            assert boolean[i, j] == (1 if want > 0 else 0)


def test_superset_targets_keep_reachability():
    omega0, _ = example_partition()
    tight = SubsetClass([InputStateSubset([5], 8), InputStateSubset([1], 8)])
    loose = SubsetClass([InputStateSubset([5, 7, 8], 8), InputStateSubset([1, 2, 3], 8)])
    for ell in (1, 2, 3):
        c_tight = set_reachability_matrix(NET, omega0, tight, ell)
        c_loose = set_reachability_matrix(NET, omega0, loose, ell)
        for i in range(c_tight.rows):
            for j in range(c_tight.cols):
                assert c_loose[i, j] >= c_tight[i, j]


def test_verdict_forms():
    full = set_reachability_verdicts(BooleanMatrix([[1, 1, 1], [1, 1, 1]]))
    assert full.fully_reachable
    assert full.source_reaches_all == (True, True, True)
    partial = set_reachability_verdicts(BooleanMatrix([[1], [1]]))
    assert partial.source_reaches_all == (True,)
    one_step = set_reachability_verdicts(BooleanMatrix([[1], [0]]))
    assert not one_step.fully_reachable
    assert one_step.target_reached_by_all == (True, False)


def test_subset_validation():
    with pytest.raises(DimensionError):
        InputStateSubset([], 8)
    with pytest.raises(DimensionError):
        InputStateSubset([9], 8)
    with pytest.raises(DimensionError):
        SubsetClass([InputStateSubset([1], 8), InputStateSubset([1], 4)])
    with pytest.raises(DimensionError):
        set_reachability_matrix(NET, SubsetClass([InputStateSubset([1], 4)]),
                                SubsetClass([InputStateSubset([1], 4)]), 1)


# ---------------------------------------------------------------------------
# Control attractors
# ---------------------------------------------------------------------------

def graph_of(net):
    g = nx.DiGraph()
    g.add_nodes_from(range(1, net.N + 1))
    for theta in range(1, net.N + 1):
        for _, nxt in net.successors(theta):
            g.add_edge(theta, nxt)
    return g


def test_identity_net_every_state_fixed():
    net = build_from_functions(2, 1, 1, [[1, 2, 1, 2]])
    report = control_attractors(net)
    assert [a.states for a in report.fixed_points] == [(1,), (2,)]
    assert report.cycles == ()
    assert report.basins[(1,)] == {1: ()}
    assert report.basins[(2,)] == {2: ()}
    assert len(report.cover) == 2


def test_golden_net_attractors():
    report = control_attractors(NET)
    assert [a.states for a in report.fixed_points] == [(1,), (3,), (4,)]
    assert [a.states for a in report.cycles] == [(2, 4, 3), (1, 4, 3, 2)]
    # every logical state is part of some attractor
    assert {s for a in report.all_attractors() for s in a.states} == {1, 2, 3, 4}
    # the basin of state 4 is the whole state space
    assert set(report.basins[(4,)]) == {1, 2, 3, 4}
    assert report.checked_states() == (4,)


def test_attractor_witnesses_replay():
    rng = random.Random(7)
    for _ in range(20):
        net = random_network(rng, k=2, n_nodes=rng.choice([2, 3]), m_nodes=rng.choice([1, 2]))
        report = control_attractors(net)
        for attractor in report.all_attractors():
            states, inputs = attractor.states, attractor.inputs
            for i, state in enumerate(states):
                nxt, _ = step(net, inputs[i], state)
                assert nxt == states[(i + 1) % len(states)]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_attractors_match_networkx_oracle(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=2, n_nodes=rng.choice([2, 3]), m_nodes=rng.choice([1, 2]))
    report = control_attractors(net)
    g = graph_of(net)
    cycles = set()
    loops = set()
    for cyc in nx.simple_cycles(g):
        if len(cyc) == 1:
            loops.add((cyc[0],))
        else:
            smallest = cyc.index(min(cyc))
            cycles.add(tuple(cyc[smallest:] + cyc[:smallest]))
    assert {a.states for a in report.fixed_points} == loops
    assert {a.states for a in report.cycles} == cycles
    reversed_graph = g.reverse()
    for attractor in report.all_attractors():
        want = set(attractor.states)
        for s in attractor.states:
            want |= nx.descendants(reversed_graph, s)
        assert set(report.basins[attractor.states]) == want


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_basin_steering_replays_into_attractor(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=2, n_nodes=2, m_nodes=rng.choice([1, 2]))
    report = control_attractors(net)
    for states, steering in report.basins.items():
        for start, gammas in steering.items():
            assert len(gammas) <= net.N
            here = start
            for g in gammas:
                here, _ = step(net, g, here)
            assert here in states


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_cover_is_disjoint_and_covers(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=2, n_nodes=rng.choice([2, 3]), m_nodes=1)
    report = control_attractors(net)
    seen = set()
    covered = set()
    for attractor in report.cover:
        assert not (seen & set(attractor.states))
        seen |= set(attractor.states)
        covered |= set(report.basins[attractor.states])
    assert covered == set(range(1, net.N + 1))


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

def test_dot_graph_structure():
    text = dot_graph(NET)
    assert text.startswith("digraph input_state {")
    assert text.rstrip().endswith("}")
    assert 'n1 [label="1×(1,1)"];' in text
    assert 'n8 [label="2×(2,2)"];' in text
    # every pair has M outgoing edges
    assert text.count("->") == NET.M * NET.N * NET.M


def test_dot_graph_edges_follow_transitions():
    text = dot_graph(NET)
    # pair (gamma=1, theta=3) -> theta'=2 under either next input
    assert "n3 -> n2;" in text
    assert "n3 -> n6;" in text
