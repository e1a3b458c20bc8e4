"""k-valued logical control networks in algebraic state-space form.

A network over k-valued nodes (n_nodes state nodes, m_nodes input
nodes) is carried by two logical matrices: the transition matrix L
(N x M*N, N = k^n_nodes, M = k^m_nodes) and the signal matrix R
(q x M*N) emitting a switching signal in 1..q. Input-state pairs
(gamma, theta) are encoded as the single index (gamma-1)*N + theta,
matching the stacking of basis vectors under the semi-tensor product.

Every pair j has exactly M successors (gamma', L-target of j), one per
free next input, so the analyses here read successor indices off L
instead of multiplying matrices: simulation, l-step set reachability
between input-state subset classes (path counts propagated along the
successors, Boolean verdicts by the image step below), control attractors
(fixed points, one cycle per strongly connected component, and a
disjoint cover of one attractor per sink component with its basin, used
to cut analysis work), and DOT export of the input-state dynamic graph.
The input-state transition matrix is the same graph in the matrix form
of the semi-tensor calculus; it is library API and the reference the
tests check set reachability against.

A state set is one N-bit int (bit theta - 1 for state theta), and the
logical layer has one image step for it: _relation gives the state
relation theta -> L(gamma, theta), every gamma, as N bit-mask rows, and
_image ORs the rows at a set's bits. Boolean set reachability squares
the relation, sparse tracking steps (realize.check_trackable) apply its
per-signal restriction, and the invariant-subspace bound closes a checked
set under it (analysis._bound_refutes).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .algebra import (
    BooleanMatrix,
    DimensionError,
    LogicalMatrix,
    Matrix,
    Record,
    _check_size,
    check_int,
)


def encode_pair(gamma: int, theta: int, n_states: int) -> int:
    """Input-state pair -> single 1-based index (gamma-1)*N + theta."""
    return (gamma - 1) * n_states + theta


def decode_pair(index: int, n_states: int) -> tuple[int, int]:
    return ((index - 1) // n_states + 1, (index - 1) % n_states + 1)


# ---------------------------------------------------------------------------
# Network model
# ---------------------------------------------------------------------------

class LogicalNetwork(Record, hidden=("N", "M"), uncompared=("N", "M")):
    """Logical control network theta(t+1) = L.gamma(t).theta(t), sigma = R.gamma.theta.

    N = k**n_nodes and M = k**m_nodes are computed once, at construction.
    """

    __slots__ = ("k", "n_nodes", "m_nodes", "L", "R", "N", "M")

    def __init__(self, k: int, n_nodes: int, m_nodes: int, L: LogicalMatrix, R: LogicalMatrix):
        check_int(k, "k", 2)
        # n_nodes == 0 gives the degenerate single-state net (N = 1),
        # useful as the trivial switching layer of a one-mode system
        check_int(n_nodes, "n_nodes", 0)
        check_int(m_nodes, "m_nodes", 0)
        N, M = k**n_nodes, k**m_nodes
        if L.rows != N:
            raise DimensionError(f"L has {L.rows} rows, expected N={N}")
        if L.cols != M * N:
            raise DimensionError(f"L has {L.cols} columns, expected M*N={M * N}")
        if R.cols != M * N:
            raise DimensionError(f"R has {R.cols} columns, expected M*N={M * N}")
        super().__init__(k, n_nodes, m_nodes, L, R, N, M)

    @property
    def q(self) -> int:
        return self.R.rows

    def l_block(self, gamma: int) -> LogicalMatrix:
        """The N x N block of L selected by input gamma."""
        lo = (check_int(gamma, "input index", 1, self.M) - 1) * self.N
        return LogicalMatrix(self.N, self.L.col_index[lo:lo + self.N])

    def successors(self, theta: int) -> list[tuple[int, int]]:
        """All (gamma, theta_next) moves out of a state."""
        check_int(theta, "state index", 1, self.N)
        return list(enumerate(self.L.col_index[theta - 1::self.N], start=1))

    def state_values(self, theta: int) -> tuple[int, ...]:
        """Decode a state index into per-node values, most significant first."""
        check_int(theta, "state index", 1, self.N)
        digits = []
        rem = theta - 1
        for _ in range(self.n_nodes):
            digits.append(rem % self.k + 1)
            rem //= self.k
        return tuple(reversed(digits))


def build_from_functions(
    k: int,
    n_nodes: int,
    m_nodes: int,
    node_tables: Sequence[Sequence[int]],
    signal_table: Sequence[int] | None = None,
    q: int | None = None,
) -> LogicalNetwork:
    """Assemble a network from per-node truth tables.

    Each node table lists the node's next value (in 1..k) for every
    input-state combination, ordered with input nodes as the most
    significant digits; the combination order therefore coincides with
    the encoded index (gamma-1)*N + theta. L is the Khatri-Rao product
    of the per-node structure matrices. The optional signal table maps
    every combination to a value in 1..q (default: constant signal 1).
    """
    check_int(k, "k", 2)
    check_int(n_nodes, "n_nodes")
    check_int(m_nodes, "m_nodes", 0)
    if len(node_tables) != n_nodes:
        raise DimensionError(f"expected {n_nodes} node tables, got {len(node_tables)}")
    width = k ** (m_nodes + n_nodes)
    structures = []
    for node, table in enumerate(node_tables, start=1):
        if len(table) != width:
            raise DimensionError(f"node {node}: table has {len(table)} entries, expected {width}")
        for v in table:
            check_int(v, f"node {node}: value", 1, k)
        structures.append(LogicalMatrix(k, table))
    transition = structures[0]
    for extra in structures[1:]:
        transition = transition.khatri_rao(extra)
    if signal_table is None:
        signal = LogicalMatrix(1, [1] * width)
    else:
        if len(signal_table) != width:
            raise DimensionError(f"signal table has {len(signal_table)} entries, expected {width}")
        q = max(signal_table) if q is None else q
        signal = LogicalMatrix(q, signal_table)
    return LogicalNetwork(k, n_nodes, m_nodes, transition, signal)


def step(net: LogicalNetwork, gamma: int, theta: int) -> tuple[int, int]:
    """One network step: returns (theta_next, sigma)."""
    check_int(gamma, "input index", 1, net.M)
    check_int(theta, "state index", 1, net.N)
    return unchecked_step(net, gamma, theta)


def unchecked_step(net: LogicalNetwork, gamma: int, theta: int) -> tuple[int, int]:
    """step for indices already checked: the column (gamma-1)*N + theta of
    L and R, read without a range check (gamma 0 would wrap silently)."""
    col = (gamma - 1) * net.N + theta - 1
    return net.L.col_index[col], net.R.col_index[col]


# ---------------------------------------------------------------------------
# Input-state subsets and l-step set reachability
# ---------------------------------------------------------------------------

class InputStateSubset(Record):
    """Non-empty subset of input-state pair indices in 1..M*N."""

    __slots__ = ("members", "mn")

    def __init__(self, members: Iterable[int], mn: int):
        check_int(mn, "input-state subset size")
        mem = frozenset(check_int(i, "input-state index", 1, mn) for i in members)
        if not mem:
            raise DimensionError("input-state subset may not be empty")
        super().__init__(mem, mn)


class SubsetClass(Record):
    """Ordered list of input-state subsets sharing the ambient size M*N."""

    __slots__ = ("subsets",)

    def __init__(self, subsets: Sequence[InputStateSubset]):
        subs = tuple(subsets)
        if not subs:
            raise DimensionError("subset class may not be empty")
        if len({s.mn for s in subs}) != 1:
            raise DimensionError("subsets disagree about M*N")
        super().__init__(subs)

    @property
    def mn(self) -> int:
        return self.subsets[0].mn


def input_state_matrix(net: LogicalNetwork) -> BooleanMatrix:
    """Transition structure on input-state pairs: M stacked copies of L.

    Entry (i, j) is 1 iff pair j moves in one step to pair i, where the
    next input (encoded in i) is free. SizingError past SIZE_CAP entries.
    """
    _check_size(net.M * net.N, net.L.cols)
    dense = net.L.boolean()
    return BooleanMatrix(list(dense.bits) * net.M)


def set_reachability_matrix(
    net: LogicalNetwork,
    omega0: SubsetClass,
    omega_d: SubsetClass,
    ell: int,
    quantitative: bool = False,
):
    """l-step reachability between subset classes.

    Entry (i, j) counts the l-length input-state paths from a pair in
    omega0[j] to a pair in omega_d[i]. Quantitative mode returns these
    counts as a Matrix; Boolean mode returns the verdict matrix of their
    signs (1 iff omega0[j] reaches omega_d[i] in exactly l steps).

    Quantitative mode propagates counts per source subset: each step adds
    every pair's count onto its L-target state, and the state totals are
    repeated for each of the M free next inputs, so a step costs O(M*N).
    Boolean mode needs only which pairs have a path, and after the first
    step that depends on the pair's state alone: each source subset becomes
    the set of its pairs' L-targets, held as an N-bit mask, and is pushed
    the remaining l - 1 steps through the state relation (_relation) by
    repeated squaring (see _push), in O(N^2 log l) ORs. A destination
    subset is met iff the set meets its pairs' states.
    """
    check_int(ell, "ell")
    mn = net.M * net.N
    if omega0.mn != mn or omega_d.mn != mn:
        raise DimensionError(f"subset classes must live on {mn} input-state pairs")
    targets = net.L.col_index
    if quantitative:
        ends = []
        for source in omega0.subsets:
            counts = [1 if i + 1 in source.members else 0 for i in range(mn)]
            for _ in range(ell):
                per_state = [0] * net.N
                for target, count in zip(targets, counts):
                    per_state[target - 1] += count
                counts = per_state * net.M
            ends.append(counts)
        rows = [[sum(counts[i - 1] for i in dest.members) for counts in ends] for dest in omega_d.subsets]
        return Matrix(rows)
    masks = [sum({1 << (targets[i - 1] - 1) for i in source.members}) for source in omega0.subsets]
    masks = _push(masks, _relation(net), ell - 1)
    dests = [sum({1 << ((i - 1) % net.N) for i in dest.members}) for dest in omega_d.subsets]
    return BooleanMatrix([[int(mask & dest != 0) for mask in masks] for dest in dests])


def _relation(net: LogicalNetwork) -> list[int]:
    """The state relation theta -> L(gamma, theta), every gamma, as N
    bit-mask rows: bit theta' - 1 of row theta - 1 for each such theta'."""
    rows = [0] * net.N
    for col, target in enumerate(net.L.col_index):
        rows[col % net.N] |= 1 << (target - 1)
    return rows


def _image(mask: int, rows: Sequence[int]) -> int:
    """The image of a state set (a mask) under a relation of bit-mask rows:
    the OR of the rows at its set bits, one OR per member."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _push(masks, relation, steps):
    """Each state set (a mask) pushed steps steps through the relation, by
    repeated squaring: per bit of steps, an image of each set and row."""
    while steps:
        if steps & 1:
            masks = [_image(mask, relation) for mask in masks]
        steps >>= 1
        if steps:
            relation = [_image(row, relation) for row in relation]
    return masks


class SetReachabilityVerdicts(Record):
    """The four verdict forms read off a Boolean reachability matrix:
    source_reaches_all[j] when column j is all ones, target_reached_by_all[i]
    when row i is, and fully_reachable when every column is."""

    __slots__ = ("pairwise", "source_reaches_all", "target_reached_by_all", "fully_reachable")


def set_reachability_verdicts(c_ell: BooleanMatrix) -> SetReachabilityVerdicts:
    cols = tuple(
        all(c_ell[i, j] for i in range(c_ell.rows)) for j in range(c_ell.cols)
    )
    rows = tuple(
        all(c_ell[i, j] for j in range(c_ell.cols)) for i in range(c_ell.rows)
    )
    return SetReachabilityVerdicts(c_ell, cols, rows, all(cols))


# ---------------------------------------------------------------------------
# Control attractors
# ---------------------------------------------------------------------------

class Attractor(Record):
    """A sustainable state loop: states visited in order, inputs closing it.

    Fixed points have a single state and the input that holds it; cycles
    list distinct states starting from the smallest, inputs[i] driving
    states[i] to states[(i+1) % len].
    """

    __slots__ = ("states", "inputs")

    @property
    def is_cycle(self) -> bool:
        return len(self.states) > 1

    @property
    def representative(self) -> int:
        return self.states[0]


class ControlAttractorReport(Record, uncompared=("basins",), defaults={"cover": ()}):
    """`cycles` holds the canonical cycle of each SCC of two or more states;
    `basins` holds the basin of each attractor in `cover`, and no other, as
    attractor states -> {basin state -> steering input sequence}."""

    __slots__ = ("fixed_points", "cycles", "basins", "cover")

    def checked_states(self) -> tuple[int, ...]:
        """Representative initial states of the disjoint cover."""
        return tuple(a.representative for a in self.cover)


def _strong_components(nexts: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components of the state graph (Tarjan 1972),
    with an explicit stack of successor iterators instead of recursion."""
    done = len(nexts)  # low value of states already in a component
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    components = []
    for root in nexts:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(nexts[root]))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(nexts[w])))
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        low[component[-1]] = done
                    components.append(component)
    return components


def _canonical_cycle(component: set[int], nexts: dict[int, list[int]]) -> tuple[int, ...]:
    """The first simple cycle of an SCC in the cover order (largest
    smallest state v, then shortest, then lexicographically first): for
    each v, largest first, a breadth-first search over the states above v,
    successors ascending, until one steps back to v."""
    for v in sorted(component, reverse=True):
        parent = {v: v}
        queue = [v]
        for u in queue:
            if u != v and v in nexts[u]:
                path = [u]
                while path[-1] != v:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            for w in nexts[u]:
                if w > v and w in component and w not in parent:
                    parent[w] = u
                    queue.append(w)
    raise AssertionError("an SCC of two or more states has a cycle")


def control_attractors(net: LogicalNetwork) -> ControlAttractorReport:
    """Fixed points, the canonical cycle of each strongly connected
    component (SCC) of two or more states, and a disjoint cover with the
    basins of its attractors.

    The cover holds one attractor per sink SCC (one that no move leaves):
    its largest fixed point, else its canonical cycle. It lists them by
    larger basin first, then fixed points before cycles, then the larger
    representative state. This is the cover a greedy pass over every
    attractor would keep: a sink SCC always holds an attractor, the basin
    of a non-sink SCC lies strictly inside the basin of a sink it reaches,
    and the attractors of one SCC share one basin (the states that can
    reach it). Attractors of distinct SCCs are disjoint, and every state
    reaches a sink. A cycle's inputs are the largest on each inner edge
    and the smallest on the closing one.
    """
    n_states = net.N
    succ = {theta: net.successors(theta) for theta in range(1, n_states + 1)}

    holding: dict[int, Attractor] = {}
    for theta in range(1, n_states + 1):
        holds = [g for g, nxt in succ[theta] if nxt == theta]
        if holds:
            holding[theta] = Attractor((theta,), (holds[0],))

    nexts = {theta: sorted({nxt for _, nxt in moves}) for theta, moves in succ.items()}
    cycles = []
    sinks = []
    for component in _strong_components(nexts):
        members = set(component)
        if len(component) > 1:
            states = _canonical_cycle(members, nexts)
            inputs = [max(g for g, nxt in succ[a] if nxt == b) for a, b in zip(states, states[1:])]
            inputs.append(min(g for g, nxt in succ[states[-1]] if nxt == states[0]))
            cycles.append(Attractor(states, tuple(inputs)))
        if all(w in members for v in component for w in nexts[v]):
            # a one-state sink holds itself, so a sink with no fixed point
            # is the component whose cycle was just appended
            held = max((s for s in component if s in holding), default=None)
            sinks.append(cycles[-1] if held is None else holding[held])
    cycles.sort(key=lambda a: (len(a.states), a.states))

    # in (state, input) order, the order the basin search steers in
    predecessors: dict[int, list[tuple[int, int]]] = {t: [] for t in range(1, n_states + 1)}
    for theta, moves in succ.items():
        for g, nxt in moves:
            predecessors[nxt].append((theta, g))

    basins: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for attractor in sinks:
        steering: dict[int, tuple[int, ...]] = {s: () for s in attractor.states}
        frontier = sorted(attractor.states)
        while frontier:
            nxt_frontier = []
            for state in frontier:
                for prev, g in predecessors[state]:
                    if prev not in steering:
                        steering[prev] = (g,) + steering[state]
                        nxt_frontier.append(prev)
            frontier = sorted(nxt_frontier)
        basins[attractor.states] = steering

    cover = sorted(sinks, key=lambda a: (-len(basins[a.states]), a.is_cycle, -a.representative))
    return ControlAttractorReport(
        tuple(holding.values()), tuple(cycles), basins, tuple(cover)
    )


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

def dot_graph(net: LogicalNetwork) -> str:
    """Input-state dynamic graph in DOT format, nodes labeled "γ×(θ₁,…)"."""
    mn = net.M * net.N
    lines = ["digraph input_state {", "  rankdir=LR;"]
    for idx in range(1, mn + 1):
        gamma, theta = decode_pair(idx, net.N)
        values = ",".join(str(v) for v in net.state_values(theta))
        lines.append(f'  n{idx} [label="{gamma}×({values})"];')
    for idx in range(1, mn + 1):
        theta_next = net.L.col_index[idx - 1]
        for gamma_next in range(1, net.M + 1):
            lines.append(f"  n{idx} -> n{encode_pair(gamma_next, theta_next, net.N)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
