"""Seeded input generators: systems, networks, subsets, durations, references.

Every generator draws from the ``random.Random`` it is given, so one seed
gives one set of inputs. Nothing here imports slsnet: the program only
ever sees the description texts built at the end of this module.

Switched systems are drawn to a verdict type so that the amount of search
work does not depend on the seed:

- free entries are drawn from {-2, -1, 1, 2}, so every mode matrix has a
  fixed number of nonzeros, and every A is nonsingular;
- ``reach_ok``: the all-ones input sequence of length ceil(n / m) gives
  full Kalman rank from every initial logical state, so reachability and
  controllability hold at that horizon with that witness;
- not ``reach_ok``: the last coordinate gets no input and is not driven by
  the others, so no sequence reaches or controls and the search runs out
  to ``t_max``;
- ``obs_ok`` / not ``obs_ok``: the same for observability and
  reconstructibility, with ceil(n / p) and an unobservable first
  coordinate that the modes never annihilate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference

NONZERO = (-2, -1, 1, 2)


@dataclass(frozen=True)
class Rung:
    """Shape and verdict type of one generated switched system."""

    n: int       # linear state dimension
    N: int       # logical states (a power of 2)
    M: int       # logical inputs (a power of 2)
    q: int       # modes
    m: int       # columns of B
    p: int       # rows of C
    t_max: int   # search horizon written into the description
    reach_ok: bool
    obs_ok: bool

    @property
    def label(self) -> str:
        kind = ("R" if self.reach_ok else "r") + ("O" if self.obs_ok else "o")
        return f"n{self.n}-N{self.N}-M{self.M}-q{self.q}-t{self.t_max}-{kind}"


def network(rng: random.Random, n_states: int, n_inputs: int, q: int):
    """Random transition and signal maps (column-index form); every signal
    value 1..q is emitted by some input-state pair."""
    width = n_states * n_inputs
    L = [rng.randint(1, n_states) for _ in range(width)]
    while True:
        R = [rng.randint(1, q) for _ in range(width)]
        if set(R) == set(range(1, q + 1)):
            return L, R


def rooted_network(rng: random.Random, n_states: int, n_inputs: int, q: int):
    """A network with a fixed point that every state can reach, so the
    attractor cover has exactly one checked state."""
    while True:
        L, R = network(rng, n_states, n_inputs, q)
        root = rng.randint(1, n_states)
        L[root - 1] = root  # input 1 holds the root
        reach = {root}
        changed = True
        while changed:
            changed = False
            for col, target in enumerate(L):
                theta = col % n_states + 1
                if target in reach and theta not in reach:
                    reach.add(theta)
                    changed = True
        if len(reach) == n_states:
            return L, R


def renumbered(rng: random.Random, L, R, n_states: int, n_inputs: int, q: int):
    """The same network with states, inputs and signal values renumbered by
    random permutations: every count of work stays, every index changes."""
    state = rng.sample(range(1, n_states + 1), n_states)
    inp = rng.sample(range(1, n_inputs + 1), n_inputs)
    sig = rng.sample(range(1, q + 1), q)
    L2, R2 = [0] * len(L), [0] * len(R)
    for col in range(len(L)):
        g, theta = divmod(col, n_states)
        new = (inp[g] - 1) * n_states + state[theta] - 1
        L2[new] = state[L[col] - 1]
        R2[new] = sig[R[col] - 1]
    return L2, R2


def _mat(rng, rows, cols, zeros=frozenset()):
    return [
        [0 if (i, j) in zeros else rng.choice(NONZERO) for j in range(cols)]
        for i in range(rows)
    ]


def modes(rng: random.Random, rung: Rung, L, R):
    """Mode triples (A, B, C) of the rung's verdict type for network (L, R)."""
    n = rung.n
    a_zeros, b_zeros, c_zeros = set(), set(), set()
    if not rung.reach_ok:
        a_zeros |= {(n - 1, j) for j in range(n - 1)}
        b_zeros |= {(n - 1, j) for j in range(rung.m)}
    if not rung.obs_ok:
        a_zeros |= {(i, 0) for i in range(1, n)}
        c_zeros |= {(i, 0) for i in range(rung.p)}
    t_reach, t_obs = math.ceil(n / rung.m), math.ceil(n / rung.p)
    if rung.reach_ok and t_reach > rung.t_max or rung.obs_ok and t_obs > rung.t_max:
        raise ValueError(f"{rung.label}: t_max too small for the verdict type")
    while True:
        triples = [
            (_mat(rng, n, n, a_zeros), _mat(rng, n, rung.m, b_zeros), _mat(rng, rung.p, n, c_zeros))
            for _ in range(rung.q)
        ]
        if any(reference.rank(a) < n for a, _, _ in triples):
            continue
        ok = True
        for alpha in range(1, rung.N + 1):
            if rung.reach_ok:
                sigmas, _ = reference.replay(L, R, rung.N, alpha, (1,) * t_reach)
                ok = ok and reference.kalman_rank(triples, sigmas) == n
            if rung.obs_ok:
                sigmas, _ = reference.replay(L, R, rung.N, alpha, (1,) * t_obs)
                ok = ok and reference.obsv_rank(triples, sigmas) == n
        if ok:
            return triples


def subset_class(rng: random.Random, mn: int, count: int, size: int):
    """``count`` random input-state subsets of ``size`` pairs each."""
    return [set(rng.sample(range(1, mn + 1), size)) for _ in range(count)]


def durations(rng: random.Random):
    """Fixed operating times for three signal values: one of each kind
    (leave at once, stay forever, stay and leave) in random order, so every
    draw asks for the same number of stay and escape conditions."""
    return tuple(rng.sample([1, reference.INF, rng.choice((2, 3, 5))], 3))


def simulated_reference(rng: random.Random, L, R, n_states, n_inputs, theta0, length):
    """Signals emitted along a random input sequence: always trackable."""
    ref, theta = [], theta0
    for _ in range(length):
        col = (rng.randint(1, n_inputs) - 1) * n_states + theta
        ref.append(R[col - 1])
        theta = L[col - 1]
    return ref


def dead_reference(rng: random.Random, L, R, n_states, n_inputs, q, theta0, length):
    """A simulated prefix of ``length`` signals, continued with signals the
    tracking frontier can still produce until some value cannot be; that
    value ends the reference, so it is not trackable. Returns None when no
    such value turns up within ``length`` more steps."""
    ref = simulated_reference(rng, L, R, n_states, n_inputs, theta0, length)
    frontier = {g * n_states + theta0 for g in range(n_inputs)}
    for t, sigma in enumerate(ref):
        if t:
            frontier = {s for p in frontier for s in reference.successor_pairs(L, n_states, n_inputs, p)}
        frontier = {p for p in frontier if R[p - 1] == sigma}
    for _ in range(length):
        succ = {s for p in frontier for s in reference.successor_pairs(L, n_states, n_inputs, p)}
        possible = sorted({R[s - 1] for s in succ})
        missing = [s for s in range(1, q + 1) if s not in possible]
        if missing:
            return ref + [rng.choice(missing)]
        sigma = rng.choice(possible)
        ref.append(sigma)
        frontier = {s for s in succ if R[s - 1] == sigma}
    return None


def _fmt(value, numeric: str) -> str:
    return f"{float(value)!r}" if numeric == "float" else str(value)


def _matrix_text(rows, numeric: str) -> str:
    return " ; ".join(" ".join(_fmt(v, numeric) for v in row) for row in rows)


def logic_text(L, R, n_states, n_inputs, q) -> str:
    return "\n".join([
        "[logic]",
        "k = 2",
        f"state_nodes = {int(math.log2(n_states))}",
        f"input_nodes = {int(math.log2(n_inputs))}",
        f"L = {' '.join(map(str, L))}",
        f"q = {q}",
        f"R = {' '.join(map(str, R))}",
        "",
    ])


def system_text(triples, L, R, n_states, n_inputs, numeric="exact", tolerance=None, t_max=None):
    """Description text of a switched system with its logical layer."""
    a0, b0, c0 = triples[0]
    lines = [
        "[modes]",
        f"n = {len(a0)}",
        f"inputs = {len(b0[0])}",
        f"outputs = {len(c0)}",
        f"count = {len(triples)}",
    ]
    for i, (a, b, c) in enumerate(triples, start=1):
        lines += [
            f"A{i} = {_matrix_text(a, numeric)}",
            f"B{i} = {_matrix_text(b, numeric)}",
            f"C{i} = {_matrix_text(c, numeric)}",
        ]
    lines += ["", logic_text(L, R, n_states, n_inputs, len(triples)), "[options]", f"numeric = {numeric}"]
    if tolerance is not None:
        lines.append(f"tolerance = {tolerance!r}")
    if t_max is not None:
        lines.append(f"t_max = {t_max}")
    return "\n".join(lines) + "\n"
