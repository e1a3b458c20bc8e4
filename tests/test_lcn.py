"""Logical control network tests.

Brute-force oracles: direct truth-table evaluation for built networks,
STP evaluation for step(), exhaustive DFS for path counts, and for
attractors both networkx cycle, sink-component and reachability search
and the greedy cover over every simple cycle, enumerated depth-first.
"""

import itertools
import random
import time

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
    Attractor,
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
from slsnet.fileio import loads

from conftest import FIXTURES

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
    with pytest.raises(DimensionError, match="signal table has 2 entries, expected 4"):
        build_from_functions(2, 1, 1, [[1, 1, 2, 2]], signal_table=[1, 2])
    # the network itself checks the shapes of L and R
    l_good, r_good = LogicalMatrix(2, [1, 2, 2, 1]), LogicalMatrix(1, [1] * 4)
    for l_mat, r_mat, message in (
        (LogicalMatrix(3, [1, 2, 2, 1]), r_good, "L has 3 rows, expected N=2"),
        (LogicalMatrix(2, [1, 2]), r_good, r"L has 2 columns, expected M\*N=4"),
        (l_good, LogicalMatrix(1, [1, 1]), r"R has 2 columns, expected M\*N=4"),
    ):
        with pytest.raises(DimensionError, match=message):
            LogicalNetwork(2, 1, 1, l_mat, r_mat)


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


def test_boolean_reachability_is_linear_in_steps():
    # Boolean mode keeps each state 0/1, so a step costs the same at any l;
    # exact path counts would grow to about l bits each
    omega0 = SubsetClass([InputStateSubset([1, 2], 8)])
    omega_d = SubsetClass([InputStateSubset([3, 4], 8)])
    start = time.perf_counter()
    far = set_reachability_matrix(NET, omega0, omega_d, 200_000)
    assert time.perf_counter() - start < 1.0
    assert far.bits == set_reachability_matrix(NET, omega0, omega_d, 2).bits == ((1,),)


def reached_pairs(net, pairs, ell):
    """The input-state pairs that l-step walks from the given pairs end
    at, by a plain loop over the set of pairs."""
    for _ in range(ell):
        pairs = frozenset(encode_pair(g, net.L.target(p), net.N) for p in pairs for g in range(1, net.M + 1))
    return pairs


def plain_reachability(net, omega0, omega_d, ell):
    ends = [reached_pairs(net, source.members, ell) for source in omega0.subsets]
    return BooleanMatrix([[1 if dest.members & e else 0 for e in ends] for dest in omega_d.subsets])


def congruent_ell(net, omega0, ell):
    """The least l' whose reached pairs equal ell's for every source: the
    sources' sets are stepped until they repeat, which gives the
    pre-period mu and the period, and l' = mu + (ell - mu) % period."""
    seen, t = {}, 0
    state = tuple(source.members for source in omega0.subsets)
    while state not in seen:
        if t == ell:
            return ell
        seen[state] = t
        state, t = tuple(reached_pairs(net, pairs, 1) for pairs in state), t + 1
    mu = seen[state]
    return mu + (ell - mu) % (t - mu)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_boolean_reachability_equals_a_plain_loop(seed):
    # every l up to 4N: squaring of the state relation starts past N
    # steps, and the runs cover the pre-period and several periods
    rng = random.Random(seed)
    net = random_network(rng, k=rng.choice([2, 3]), n_nodes=rng.randint(1, 3),
                         m_nodes=rng.randint(0, 1))
    mn = net.M * net.N
    omega0, omega_d = (
        SubsetClass([InputStateSubset(rng.sample(range(1, mn + 1), rng.randint(1, mn)), mn)
                     for _ in range(rng.randint(1, 3))])
        for _ in range(2)
    )
    for ell in range(1, 4 * net.N + 1):
        assert set_reachability_matrix(net, omega0, omega_d, ell) == plain_reachability(net, omega0, omega_d, ell)
    huge = 10**20 + rng.randint(0, 12)
    small = congruent_ell(net, omega0, huge)
    assert set_reachability_matrix(net, omega0, omega_d, huge) == plain_reachability(net, omega0, omega_d, small)


def test_boolean_reachability_at_a_huge_l():
    # a plain loop of 10^20 steps never finishes; the steps past the first
    # N are taken by squaring the state relation
    ell = 10**20
    for omega0, omega_d in (example_partition(), example_partition()[::-1],
                            (SubsetClass([InputStateSubset([1, 2], 8)]), SubsetClass([InputStateSubset([3, 4], 8)]))):
        small = congruent_ell(NET, omega0, ell)
        assert small < 20
        assert set_reachability_matrix(NET, omega0, omega_d, ell) == plain_reachability(NET, omega0, omega_d, small)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_boolean_reachability_by_squaring_equals_a_plain_loop(seed):
    # N up to 16: a random network with M up to 4, or a permutation of the
    # states with no input (M = 1), whose cycles give long periods. Every
    # l in 1..4N+2 crosses the switch to squaring past N steps, and one l
    # past 10^20 equals the plain loop at the congruent small l.
    rng = random.Random(seed)
    n_nodes = rng.randint(1, 4)
    n_states = 2**n_nodes
    if rng.random() < 0.5:
        net = random_network(rng, n_nodes=n_nodes, m_nodes=rng.randint(0, 2))
    else:
        perm = rng.sample(range(1, n_states + 1), n_states)
        net = LogicalNetwork(2, n_nodes, 0, LogicalMatrix(n_states, perm), LogicalMatrix(1, [1] * n_states))
    mn = net.M * net.N
    omega0, omega_d = (
        SubsetClass([InputStateSubset(rng.sample(range(1, mn + 1), rng.randint(1, min(mn, 3))), mn)
                     for _ in range(rng.randint(1, 3))])
        for _ in range(2)
    )
    for ell in range(1, 4 * net.N + 3):
        assert set_reachability_matrix(net, omega0, omega_d, ell) == plain_reachability(net, omega0, omega_d, ell)
    huge = 10**20 + rng.randint(0, 12)
    small = congruent_ell(net, omega0, huge)
    assert set_reachability_matrix(net, omega0, omega_d, huge) == plain_reachability(net, omega0, omega_d, small)


def test_boolean_reachability_through_an_lcm_period():
    # The fixture's cycles of the first nine primes: the set of their first
    # states returns only after 223092870 steps, so neither a plain loop
    # nor a repeat search reaches l = 10^20. Each state lies on one cycle,
    # so its ends are the plain loop's at l modulo its cycle's length; the
    # targets are every state, so each column is a source's whole image.
    net = loads((FIXTURES / "lcn_lcm_period.txt").read_text()).net
    firsts = (1, 3, 6, 11, 18, 29, 42, 59, 78)
    omega0 = SubsetClass([InputStateSubset(firsts, net.N)] + [InputStateSubset([a, a + 1], net.N) for a in firsts])
    omega_d = SubsetClass([InputStateSubset([theta], net.N) for theta in range(1, net.N + 1)])

    def cycle_length(theta):
        return next(t for t in itertools.count(1) if reached_pairs(net, {theta}, t) == {theta})

    for ell in (10**20, 10**20 + 1, 99999999999999999999, 10**20 + 6):
        ends = [
            frozenset().union(*(reached_pairs(net, {theta}, ell % cycle_length(theta)) for theta in source.members))
            for source in omega0.subsets
        ]
        expected = BooleanMatrix([[1 if dest.members & e else 0 for e in ends] for dest in omega_d.subsets])
        assert set_reachability_matrix(net, omega0, omega_d, ell) == expected, ell


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
    with pytest.raises(DimensionError, match="subset class may not be empty"):
        SubsetClass([])
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


def enumerated_attractors(net):
    """Fixed points, every simple cycle, basins and the greedy cover.

    The exponential reference for control_attractors: a depth-first
    enumeration of all simple cycles (each from its smallest state,
    recording the first input sequence met), a breadth-first basin per
    attractor, and the greedy cover over all of them, sorted by basin
    size, fixed points first, then the larger representative state.
    """
    n_states = net.N
    succ = {theta: net.successors(theta) for theta in range(1, n_states + 1)}
    fixed_points = []
    for theta in range(1, n_states + 1):
        holds = [g for g, nxt in succ[theta] if nxt == theta]
        if holds:
            fixed_points.append(Attractor((theta,), (holds[0],)))
    cycles = []
    seen_cycles = set()
    for start in range(1, n_states + 1):
        stack = [((start,), ())]
        while stack:
            path, gammas = stack.pop()
            for g, nxt in succ[path[-1]]:
                if nxt == start and len(path) > 1:
                    if path not in seen_cycles:
                        seen_cycles.add(path)
                        cycles.append(Attractor(path, gammas + (g,)))
                elif nxt > start and nxt not in path:
                    stack.append((path + (nxt,), gammas + (g,)))
    cycles.sort(key=lambda a: (len(a.states), a.states))
    attractors = fixed_points + cycles
    predecessors = {t: [] for t in range(1, n_states + 1)}
    for theta, moves in succ.items():
        for g, nxt in moves:
            predecessors[nxt].append((theta, g))
    basins = {}
    for attractor in attractors:
        steering = {s: () for s in attractor.states}
        frontier = sorted(attractor.states)
        while frontier:
            nxt_frontier = []
            for state in frontier:
                for prev, g in sorted(predecessors[state]):
                    if prev not in steering:
                        steering[prev] = (g,) + steering[state]
                        nxt_frontier.append(prev)
            frontier = sorted(nxt_frontier)
        basins[attractor.states] = steering
    ordered = sorted(attractors, key=lambda a: (-len(basins[a.states]), a.is_cycle, -a.representative))
    cover, covered, used = [], set(), set()
    for attractor in ordered:
        if covered >= basins[attractor.states].keys() or used & set(attractor.states):
            continue
        cover.append(attractor)
        covered |= basins[attractor.states].keys()
        used |= set(attractor.states)
    return fixed_points, cycles, basins, cover


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
    # all four states form one strongly connected component; its canonical
    # cycle has the largest smallest state (2), of the cycles 2-4-3 and
    # 1-4-3-2 the enumeration finds
    assert report.cycles == (Attractor((2, 4, 3), (2, 2, 1)),)
    assert [a.states for a in enumerated_attractors(NET)[1]] == [(2, 4, 3), (1, 4, 3, 2)]
    # every logical state is part of some attractor
    assert {s for a in report.fixed_points + report.cycles for s in a.states} == {1, 2, 3, 4}
    # the basin of state 4 is the whole state space
    assert set(report.basins[(4,)]) == {1, 2, 3, 4}
    assert report.checked_states() == (4,)


def complete_network(fixed_points=True):
    """n_nodes = m_nodes = 4: input g drives every state to state g; with
    fixed_points False, the input equal to the state moves it one up
    (16 to 1) instead, so no state can hold."""
    cols = [
        g if fixed_points or g != theta else g % 16 + 1
        for g in range(1, 17) for theta in range(1, 17)
    ]
    return LogicalNetwork(2, 4, 4, LogicalMatrix(16, cols), LogicalMatrix(1, [1] * 256))


def test_complete_network_cover_is_polynomial():
    # every state reaches every state in one step: 16 states carry far too
    # many simple cycles to enumerate, but only one component
    start = time.perf_counter()
    report = control_attractors(complete_network())
    assert time.perf_counter() - start < 1.0
    assert report.fixed_points == tuple(Attractor((t,), (t,)) for t in range(1, 17))
    assert [a.states for a in report.cycles] == [(15, 16)]
    assert report.checked_states() == (16,)

    start = time.perf_counter()
    report = control_attractors(complete_network(fixed_points=False))
    assert time.perf_counter() - start < 1.0
    assert report.fixed_points == ()
    # 15 -> 16 under inputs 15 and 16 (the largest is recorded), 16 -> 15
    # under input 15 only
    assert report.cycles == (Attractor((15, 16), (16, 15)),)
    assert report.cover == report.cycles
    assert report.checked_states() == (15,)
    assert set(report.basins[(15, 16)]) == set(range(1, 17))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_cover_matches_cycle_enumeration(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=2, n_nodes=rng.randint(1, 4), m_nodes=rng.choice([0, 1, 2]))
    report = control_attractors(net)
    fixed_points, cycles, basins, cover = enumerated_attractors(net)
    assert report.fixed_points == tuple(fixed_points)
    assert report.cover == tuple(cover)
    assert report.checked_states() == tuple(a.representative for a in cover)
    for attractor in cover:
        assert report.basins[attractor.states] == basins[attractor.states]
    # each canonical cycle is one of the enumerated cycles, same inputs
    assert set(report.cycles) <= set(cycles)


def test_attractor_witnesses_replay():
    rng = random.Random(7)
    for _ in range(20):
        net = random_network(rng, k=2, n_nodes=rng.choice([2, 3]), m_nodes=rng.choice([1, 2]))
        report = control_attractors(net)
        for attractor in report.fixed_points + report.cycles:
            states, inputs = attractor.states, attractor.inputs
            for i, state in enumerate(states):
                nxt, _ = step(net, inputs[i], state)
                assert nxt == states[(i + 1) % len(states)]


def canonical_cycle(g, component):
    """Of the simple cycles in a component (each rotated to start at its
    smallest state), the one with the largest smallest state, then the
    shortest, then the lexicographically first."""
    rotated = []
    for cyc in nx.simple_cycles(g.subgraph(component)):
        if len(cyc) > 1:
            smallest = cyc.index(min(cyc))
            rotated.append(tuple(cyc[smallest:] + cyc[:smallest]))
    return min(rotated, key=lambda c: (-c[0], len(c), c))


def basin_of(g, states):
    return set(states).union(*(nx.ancestors(g, s) for s in states))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_attractors_match_networkx_oracle(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=2, n_nodes=rng.choice([2, 3]), m_nodes=rng.choice([1, 2]))
    report = control_attractors(net)
    g = graph_of(net)
    loops = {(theta,) for theta in g if g.has_edge(theta, theta)}
    canonical = [canonical_cycle(g, c) for c in nx.strongly_connected_components(g) if len(c) > 1]
    assert {a.states for a in report.fixed_points} == loops
    assert [a.states for a in report.cycles] == sorted(canonical, key=lambda c: (len(c), c))
    for attractor in report.cover:
        assert set(report.basins[attractor.states]) == basin_of(g, attractor.states)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cover_is_one_attractor_per_sink_component(seed):
    rng = random.Random(seed)
    net = random_network(rng, k=rng.choice([2, 3]), n_nodes=rng.choice([1, 2]), m_nodes=rng.choice([0, 1, 2]))
    report = control_attractors(net)
    g = graph_of(net)
    dag = nx.condensation(g)
    want = []
    for node in dag:
        if dag.out_degree(node) == 0:
            members = dag.nodes[node]["members"]
            held = [s for s in members if g.has_edge(s, s)]
            want.append((max(held),) if held else canonical_cycle(g, members))
    want.sort(key=lambda c: (-len(basin_of(g, c)), len(c) > 1, -c[0]))
    assert [a.states for a in report.cover] == want
    assert report.basins.keys() == {a.states for a in report.cover}


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
