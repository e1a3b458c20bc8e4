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
successors, with Boolean verdicts as their signs), control attractors
(fixed points, cycles, attract basins, and a disjoint cover used to cut
analysis work), and DOT export of the input-state dynamic graph. The
input-state transition matrix is the same graph in the matrix form of
the semi-tensor calculus; it is library API and the reference the tests
check set reachability against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .algebra import (
    BooleanMatrix,
    DimensionError,
    LogicalMatrix,
    Matrix,
)


def encode_pair(gamma: int, theta: int, n_states: int) -> int:
    """Input-state pair -> single 1-based index (gamma-1)*N + theta."""
    return (gamma - 1) * n_states + theta


def decode_pair(index: int, n_states: int) -> tuple[int, int]:
    return ((index - 1) // n_states + 1, (index - 1) % n_states + 1)


# ---------------------------------------------------------------------------
# Network model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogicalNetwork:
    """Logical control network theta(t+1) = L.gamma(t).theta(t), sigma = R.gamma.theta."""

    k: int
    n_nodes: int
    m_nodes: int
    L: LogicalMatrix
    R: LogicalMatrix

    def __post_init__(self):
        if self.k < 2:
            raise DimensionError("k must be at least 2")
        # n_nodes == 0 gives the degenerate single-state net (N = 1),
        # useful as the trivial switching layer of a one-mode system
        if self.n_nodes < 0 or self.m_nodes < 0:
            raise DimensionError("need n_nodes >= 0 and m_nodes >= 0")
        if self.L.rows != self.N:
            raise DimensionError(f"L has {self.L.rows} rows, expected N={self.N}")
        if self.L.cols != self.M * self.N:
            raise DimensionError(f"L has {self.L.cols} columns, expected M*N={self.M * self.N}")
        if self.R.cols != self.M * self.N:
            raise DimensionError(f"R has {self.R.cols} columns, expected M*N={self.M * self.N}")

    @property
    def N(self) -> int:
        return self.k**self.n_nodes

    @property
    def M(self) -> int:
        return self.k**self.m_nodes

    @property
    def q(self) -> int:
        return self.R.rows

    def l_block(self, gamma: int) -> LogicalMatrix:
        """The N x N block of L selected by input gamma."""
        lo = (gamma - 1) * self.N
        return LogicalMatrix(self.N, self.L.col_index[lo:lo + self.N])

    def successors(self, theta: int) -> list[tuple[int, int]]:
        """All (gamma, theta_next) moves out of a state."""
        return [(g, self.L.target(encode_pair(g, theta, self.N))) for g in range(1, self.M + 1)]

    def state_values(self, theta: int) -> tuple[int, ...]:
        """Decode a state index into per-node values, most significant first."""
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
    if n_nodes < 1:
        raise DimensionError("build_from_functions needs at least one state node")
    if len(node_tables) != n_nodes:
        raise DimensionError(f"expected {n_nodes} node tables, got {len(node_tables)}")
    width = k ** (m_nodes + n_nodes)
    structures = []
    for node, table in enumerate(node_tables, start=1):
        if len(table) != width:
            raise DimensionError(f"node {node}: table has {len(table)} entries, expected {width}")
        for v in table:
            if not 1 <= int(v) <= k:
                raise DimensionError(f"node {node}: value {v} outside 1..{k}")
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
    if not 1 <= gamma <= net.M:
        raise ValueError(f"input index {gamma} outside 1..{net.M}")
    if not 1 <= theta <= net.N:
        raise ValueError(f"state index {theta} outside 1..{net.N}")
    col = encode_pair(gamma, theta, net.N)
    return net.L.target(col), net.R.target(col)


# ---------------------------------------------------------------------------
# Input-state subsets and l-step set reachability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputStateSubset:
    """Non-empty subset of input-state pair indices in 1..M*N."""

    members: frozenset[int]
    mn: int

    def __init__(self, members: Iterable[int], mn: int):
        mem = frozenset(int(i) for i in members)
        if not mem:
            raise DimensionError("input-state subset may not be empty")
        for i in mem:
            if not 1 <= i <= mn:
                raise DimensionError(f"input-state index {i} outside 1..{mn}")
        object.__setattr__(self, "members", mem)
        object.__setattr__(self, "mn", mn)


@dataclass(frozen=True)
class SubsetClass:
    """Ordered list of input-state subsets sharing the ambient size M*N."""

    subsets: tuple[InputStateSubset, ...]

    def __init__(self, subsets: Sequence[InputStateSubset]):
        subs = tuple(subsets)
        if not subs:
            raise DimensionError("subset class may not be empty")
        if len({s.mn for s in subs}) != 1:
            raise DimensionError("subsets disagree about M*N")
        object.__setattr__(self, "subsets", subs)

    @property
    def mn(self) -> int:
        return self.subsets[0].mn


def input_state_matrix(net: LogicalNetwork) -> BooleanMatrix:
    """Transition structure on input-state pairs: M stacked copies of L.

    Entry (i, j) is 1 iff pair j moves in one step to pair i, where the
    next input (encoded in i) is free.
    """
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

    Counts are propagated per source subset: each step adds every pair's
    count onto its L-target state, and the state totals are repeated for
    each of the M free next inputs, so a step costs O(M*N).
    """
    if ell < 1:
        raise DimensionError("ell must be >= 1")
    mn = net.M * net.N
    if omega0.mn != mn or omega_d.mn != mn:
        raise DimensionError(f"subset classes must live on {mn} input-state pairs")
    columns = []
    for source in omega0.subsets:
        counts = [1 if i + 1 in source.members else 0 for i in range(mn)]
        for _ in range(ell):
            per_state = [0] * net.N
            for target, count in zip(net.L.col_index, counts):
                per_state[target - 1] += count
            counts = per_state * net.M
        columns.append([sum(counts[i - 1] for i in dest.members) for dest in omega_d.subsets])
    rows = [list(row) for row in zip(*columns)]
    if quantitative:
        return Matrix(rows)
    return BooleanMatrix([[1 if c else 0 for c in row] for row in rows])


@dataclass(frozen=True)
class SetReachabilityVerdicts:
    """The four verdict forms read off a Boolean reachability matrix."""

    pairwise: BooleanMatrix
    source_reaches_all: tuple[bool, ...]    # column j all ones
    target_reached_by_all: tuple[bool, ...]  # row i all ones
    fully_reachable: bool


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

@dataclass(frozen=True)
class Attractor:
    """A sustainable state loop: states visited in order, inputs closing it.

    Fixed points have a single state and the input that holds it; cycles
    list distinct states starting from the smallest, inputs[i] driving
    states[i] to states[(i+1) % len].
    """

    states: tuple[int, ...]
    inputs: tuple[int, ...]

    @property
    def is_cycle(self) -> bool:
        return len(self.states) > 1

    @property
    def representative(self) -> int:
        return self.states[0]


@dataclass(frozen=True)
class ControlAttractorReport:
    fixed_points: tuple[Attractor, ...]
    cycles: tuple[Attractor, ...]
    # attractor states -> {basin state -> steering input sequence}
    basins: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = field(compare=False)
    cover: tuple[Attractor, ...] = ()

    def all_attractors(self) -> tuple[Attractor, ...]:
        return self.fixed_points + self.cycles

    def checked_states(self) -> tuple[int, ...]:
        """Representative initial states of the disjoint cover."""
        return tuple(a.representative for a in self.cover)


def control_attractors(net: LogicalNetwork) -> ControlAttractorReport:
    """Fixed points, cycles (length <= N), basins, and a disjoint basin cover.

    The cover greedily keeps attractors whose basins add uncovered
    states, preferring larger basins, then fixed points over cycles,
    then the larger representative state; chosen attractors are pairwise
    disjoint state sets.
    """
    n_states = net.N
    succ = {theta: net.successors(theta) for theta in range(1, n_states + 1)}

    fixed_points = []
    for theta in range(1, n_states + 1):
        holds = [g for g, nxt in succ[theta] if nxt == theta]
        if holds:
            fixed_points.append(Attractor((theta,), (holds[0],)))

    cycles = []
    seen_cycles: set[tuple[int, ...]] = set()
    for start in range(1, n_states + 1):
        # enumerate simple cycles whose smallest state is `start`
        stack = [((start,), ())]
        while stack:
            path, gammas = stack.pop()
            for g, nxt in succ[path[-1]]:
                if nxt == start and len(path) > 1:
                    if path not in seen_cycles:
                        seen_cycles.add(path)
                        cycles.append(Attractor(path, gammas + (g,)))
                elif nxt > start and nxt not in path and len(path) < n_states:
                    stack.append((path + (nxt,), gammas + (g,)))
    cycles.sort(key=lambda a: (len(a.states), a.states))

    attractors = fixed_points + cycles
    predecessors: dict[int, list[tuple[int, int]]] = {t: [] for t in range(1, n_states + 1)}
    for theta, moves in succ.items():
        for g, nxt in moves:
            predecessors[nxt].append((theta, g))

    basins: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for attractor in attractors:
        inside = set(attractor.states)
        steering: dict[int, tuple[int, ...]] = {s: () for s in attractor.states}
        frontier = sorted(inside)
        while frontier:
            nxt_frontier = []
            for state in frontier:
                for prev, g in sorted(predecessors[state]):
                    if prev not in steering:
                        steering[prev] = (g,) + steering[state]
                        nxt_frontier.append(prev)
            frontier = sorted(nxt_frontier)
        basins[attractor.states] = steering

    ordered = sorted(
        attractors,
        key=lambda a: (-len(basins[a.states]), a.is_cycle, -a.representative),
    )
    cover: list[Attractor] = []
    covered: set[int] = set()
    used: set[int] = set()
    for attractor in ordered:
        if covered >= basins[attractor.states].keys():
            continue
        if used & set(attractor.states):
            continue
        cover.append(attractor)
        covered |= basins[attractor.states].keys()
        used |= set(attractor.states)
        if len(covered) == n_states:
            break

    return ControlAttractorReport(
        tuple(fixed_points), tuple(cycles), basins, tuple(cover)
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
        theta_next = net.L.target(idx)
        for gamma_next in range(1, net.M + 1):
            lines.append(f"  n{idx} -> n{encode_pair(gamma_next, theta_next, net.N)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
