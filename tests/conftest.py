"""Shared builders for the worked 3-state/2-mode system used across suites."""

import random
from fractions import Fraction
from pathlib import Path

from slsnet.algebra import LogicalMatrix, Matrix
from slsnet.lcn import LogicalNetwork
from slsnet.sls import SwitchedLinearSystem

A1 = [[1, 2, -1], [0, 1, 0], [1, -4, 3]]
B1 = [[1], [0], [0]]
C1 = [[0, 0, 1]]
A2 = [[-2, 2, 1], [0, -2, 0], [1, -4, 0]]
B2 = [[0], [1], [0]]
C2 = [[0, 1, 0]]
L_COLS = [1, 1, 2, 4, 4, 4, 3, 3]
R_COLS = [2, 2, 1, 1, 1, 2, 2, 1]
FIXTURES = Path(__file__).parent / "fixtures"


def golden_sls(mode="exact"):
    return SwitchedLinearSystem(
        [
            (Matrix(A1, mode), Matrix(B1, mode), Matrix(C1, mode)),
            (Matrix(A2, mode), Matrix(B2, mode), Matrix(C2, mode)),
        ]
    )


def golden_net():
    return LogicalNetwork(
        k=2,
        n_nodes=2,
        m_nodes=1,
        L=LogicalMatrix(4, L_COLS),
        R=LogicalMatrix(2, R_COLS),
    )


def random_system(rng: random.Random, n_max=3, q_max=3, lo=-2, hi=2, denominators=None):
    """Random SLS with small integer entries (exact mode); with a
    denominators range (lo_q, hi_q), each entry is p/q for q drawn in it."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, 2)
    p = rng.randint(1, 2)
    q = rng.randint(1, q_max)

    def entry():
        if denominators is None:
            return rng.randint(lo, hi)
        return Fraction(rng.randint(lo, hi), rng.randint(*denominators))

    def rand(rows, cols):
        return Matrix([[entry() for _ in range(cols)] for _ in range(rows)])

    return SwitchedLinearSystem([(rand(n, n), rand(n, m), rand(p, n)) for _ in range(q)])


def random_net_for(rng: random.Random, q: int, n_nodes=2, m_nodes=1, k=2):
    """Random logical layer whose signal actually covers 1..q."""
    n_states = k**n_nodes
    width = k**(n_nodes + m_nodes)
    if width < q:
        raise ValueError(f"{width} input-state pairs cannot emit all {q} signals")
    l_cols = [rng.randint(1, n_states) for _ in range(width)]
    while True:
        r_cols = [rng.randint(1, q) for _ in range(width)]
        if set(r_cols) == set(range(1, q + 1)):
            break
    return LogicalNetwork(k, n_nodes, m_nodes, LogicalMatrix(n_states, l_cols),
                          LogicalMatrix(q, r_cols))


def unreachable_single_input_text():
    """The fixture with no input node (M = 1) and B1 = B2 = 0: one input
    sequence per horizon, and reachability fails at every horizon."""
    text = (FIXTURES / "sls_3x2.txt").read_text()
    for old, new in (
        ("B1 = 1 ; 0 ; 0", "B1 = 0 ; 0 ; 0"),
        ("B2 = 0 ; 1 ; 0", "B2 = 0 ; 0 ; 0"),
        ("input_nodes = 1", "input_nodes = 0"),
        ("L = 1 1 2 4 4 4 3 3", "L = 1 1 2 4"),
        ("R = 2 2 1 1 1 2 2 1", "R = 2 2 1 1"),
    ):
        text = text.replace(old, new)
    return text
