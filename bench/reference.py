"""Reference computations the benchmark checks slsnet's outputs against.

Nothing here imports slsnet. Matrices are lists of integer rows, ranks
come from a plain Fraction elimination, the logical layer is replayed
by column-index lookup, path counts by integer propagation, and the
realizability and tracking checks work on successor sets. Property
verdicts themselves are checked against slsnet's brute-force
``kalman_oracle``; ``self_check`` pins these routines and that oracle
to the values published for the worked 3-state, 2-mode example.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

INF = float("inf")

# The worked example: two modes on R^3, a 2-node Boolean network with one
# input node (N = 4, M = 2) emitting signals 1..2.
WORKED_MODES = (
    ([[1, 2, -1], [0, 1, 0], [1, -4, 3]], [[1], [0], [0]], [[0, 0, 1]]),
    ([[-2, 2, 1], [0, -2, 0], [1, -4, 0]], [[0], [1], [0]], [[0, 1, 0]]),
)
WORKED_L = (1, 1, 2, 4, 4, 4, 3, 3)
WORKED_R = (2, 2, 1, 1, 1, 2, 2, 1)
# Published values: set-reachability counts from {4, 6} into
# ({5, 7, 8}, {1, 2, 3}) after one and two steps, the shortest witnesses
# from the checked state 4, and the five feasible input sequences.
WORKED_COUNTS = {1: [[2], [0]], 2: [[4], [2]]}
WORKED_REACH_WITNESS = (1, 2, 2)
WORKED_OBS_WITNESS = (1, 1, 1)
WORKED_T = 3
WORKED_FEASIBLE = [(1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)]


def rank(rows) -> int:
    """Rank of a list of rows by exact Gaussian elimination."""
    grid = [[Fraction(v) for v in row] for row in rows]
    if not grid or not grid[0]:
        return 0
    r = 0
    for c in range(len(grid[0])):
        pivot = next((i for i in range(r, len(grid)) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        for i in range(r + 1, len(grid)):
            f = grid[i][c] / grid[r][c]
            if f:
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        r += 1
        if r == len(grid):
            break
    return r


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def replay(L, R, n_states, alpha, gammas):
    """Induced (sigmas, thetas) of an input sequence; thetas[0] = alpha."""
    thetas, sigmas = [alpha], []
    for g in gammas:
        col = (g - 1) * n_states + thetas[-1]
        sigmas.append(R[col - 1])
        thetas.append(L[col - 1])
    return tuple(sigmas), tuple(thetas)


def kalman_rank(modes, sigmas) -> int:
    """Rank of [B_s(T-1), A_s(T-1) B_s(T-2), ..., A_s(T-1)...A_s(1) B_s(0)]."""
    prefix = identity(len(modes[0][0]))
    blocks = []
    for s in reversed(sigmas):
        a, b, _ = modes[s - 1]
        blocks.append(matmul(prefix, b))
        prefix = matmul(prefix, a)
    return rank([sum((blk[i] for blk in blocks), []) for i in range(len(prefix))])


def obsv_rank(modes, sigmas) -> int:
    """Rank of [C_s(0); C_s(1) A_s(0); ...; C_s(T-1) A_s(T-2)...A_s(0)]."""
    prefix = identity(len(modes[0][0]))
    rows = []
    for s in sigmas:
        a, _, c = modes[s - 1]
        rows += matmul(c, prefix)
        prefix = matmul(a, prefix)
    return rank(rows)


def feasible_sequences(modes, L, R, n_states, n_inputs, alphas, horizon):
    """Every input sequence of the given length, in lexicographic order,
    whose Kalman matrix has full rank from every checked state."""
    n = len(modes[0][0])
    return [
        gammas
        for gammas in itertools.product(range(1, n_inputs + 1), repeat=horizon)
        if all(
            kalman_rank(modes, replay(L, R, n_states, a, gammas)[0]) == n for a in alphas
        )
    ]


def path_counts(L, n_states, n_inputs, omega0, omega_d, ell):
    """Entry [i][j]: number of ell-step input-state paths from a pair in
    omega0[j] to a pair in omega_d[i]; pair (g, theta) -> (g', L-target)."""
    mn = n_states * n_inputs
    out = [[0] * len(omega0) for _ in omega_d]
    for j, sources in enumerate(omega0):
        counts = [0] * (mn + 1)
        for pair in sources:
            counts[pair] += 1
        for _ in range(ell):
            nxt = [0] * (mn + 1)
            for pair in range(1, mn + 1):
                if counts[pair]:
                    theta = L[pair - 1]
                    for g in range(n_inputs):
                        nxt[g * n_states + theta] += counts[pair]
            counts = nxt
        for i, targets in enumerate(omega_d):
            out[i][j] = sum(counts[p] for p in targets)
    return out


def successor_pairs(L, n_states, n_inputs, pair):
    theta = L[pair - 1]
    return {g * n_states + theta for g in range(n_inputs)}


def signal_failures(L, R, n_states, n_inputs, q, needs):
    """Per signal value: (unreachable, escape failures, stay failures).

    ``needs[sigma - 1]`` is (need_escape, need_stay). A pair producing
    sigma fails escape when all its successor pairs produce sigma, and
    fails stay when none does.
    """
    out = []
    for sigma in range(1, q + 1):
        members = [p for p in range(1, len(R) + 1) if R[p - 1] == sigma]
        need_escape, need_stay = needs[sigma - 1]
        escape, stay = [], []
        for pair in members:
            succ_signals = {R[s - 1] for s in successor_pairs(L, n_states, n_inputs, pair)}
            if need_escape and succ_signals == {sigma}:
                escape.append(pair)
            if need_stay and sigma not in succ_signals:
                stay.append(pair)
        out.append((not members, tuple(escape), tuple(stay)))
    return out


def fot_needs(durations):
    return [(d != INF, d > 1) for d in durations]


def track_frontier(L, R, n_states, n_inputs, theta0, reference):
    """(trackable, failed_at, frontier sizes) by forward propagation of the
    set of input-state pairs consistent with the reference so far."""
    frontier = {g * n_states + theta0 for g in range(n_inputs)}
    sizes = []
    for t, sigma in enumerate(reference):
        if t:
            frontier = set().union(
                *(successor_pairs(L, n_states, n_inputs, p) for p in frontier)
            )
        frontier = {p for p in frontier if R[p - 1] == sigma}
        sizes.append(len(frontier))
        if not frontier:
            return False, t, sizes
    return True, None, sizes


def cover_problems(L, n_states, n_inputs, cover, basins):
    """Reasons an attractor cover is invalid; empty when it is valid.

    ``cover`` holds (states, inputs) per attractor and ``basins`` maps the
    attractor's states to {state: steering inputs}.
    """
    problems = []

    def nxt(g, theta):
        return L[(g - 1) * n_states + theta - 1]

    used, covered = set(), set()
    for states, inputs in cover:
        if used & set(states):
            problems.append(f"attractor {states} overlaps another")
        used |= set(states)
        for i, (theta, g) in enumerate(zip(states, inputs)):
            if not 1 <= g <= n_inputs or nxt(g, theta) != states[(i + 1) % len(states)]:
                problems.append(f"attractor {states} is not closed under its inputs")
        basin = basins[tuple(states)]
        covered |= basin.keys()
        for theta, steering in basin.items():
            for g in steering:
                theta = nxt(g, theta)
            if theta not in states:
                problems.append(f"steering {steering} misses attractor {states}")
    if covered != set(range(1, n_states + 1)):
        problems.append(f"basins cover {len(covered)} of {n_states} states")
    return problems


def self_check(kalman_oracle, sls, net) -> None:
    """Check the reference routines and ``kalman_oracle`` against the
    published values of the worked example; raise on any difference.

    ``sls`` and ``net`` are the worked example as slsnet objects.
    """
    n_states, n_inputs = 4, 2
    for ell, published in WORKED_COUNTS.items():
        got = path_counts(WORKED_L, n_states, n_inputs, [{4, 6}], [{5, 7, 8}, {1, 2, 3}], ell)
        if got != published:
            raise AssertionError(f"path counts after {ell} steps: {got} != {published}")
    feasible = feasible_sequences(
        WORKED_MODES, WORKED_L, WORKED_R, n_states, n_inputs, (4,), WORKED_T
    )
    if feasible != WORKED_FEASIBLE:
        raise AssertionError(f"feasible sequences {feasible} != {WORKED_FEASIBLE}")
    for prop, witness in (
        ("reachability", WORKED_REACH_WITNESS),
        ("controllability", WORKED_REACH_WITNESS),
        ("observability", WORKED_OBS_WITNESS),
        ("reconstructibility", WORKED_OBS_WITNESS),
    ):
        v = kalman_oracle(sls, net, prop=prop, alphas=(4,))
        if (v.holds, v.witness, v.T) != (True, witness, WORKED_T):
            raise AssertionError(f"kalman_oracle {prop}: {(v.holds, v.witness, v.T)}")
