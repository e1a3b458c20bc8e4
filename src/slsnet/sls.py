"""Switched linear systems and their mergence with a logical switching layer.

A switched linear system (SLS) is a family of modes (A_i, B_i, C_i);
at each step one mode, selected by the switching signal sigma, drives
x(t+1) = A_sigma x(t) + B_sigma u(t). When sigma is emitted by a
logical control network, the pair can be merged into a single hybrid
system on z = theta_vec (x) x whose dynamics are carried by two large
matrices G (nN x nMN) and H (nN x mMN).

Each block column (gamma, beta) of G and H holds exactly one nonzero
block: it sits at the L-target block row of (gamma, beta) and equals
the A (resp. B) matrix of the mode R selects there. A merged system
stores only these blocks; the dense G and H are views built from them
when accessed. The closed-form semi-tensor-product construction of G
and H is kept in the tests as the reference the blocks must match. A
dual mergence with transposed mode matrices (A_i^T, C_i^T) supports the
observability-side checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BooleanMatrix, DimensionError, Matrix, Numeric, Subspace
from .lcn import LogicalNetwork, encode_pair, step


@dataclass(frozen=True)
class SwitchedLinearSystem:
    """Mode family (A_i, B_i, C_i), i in 1..q, on fixed dimensions n, m, p."""

    modes: tuple[tuple[Matrix, Matrix, Matrix], ...]

    def __init__(self, modes):
        mds = tuple((a, b, c) for a, b, c in modes)
        if not mds:
            raise DimensionError("need at least one mode")
        a0, b0, c0 = mds[0]
        n = a0.rows
        for i, (a, b, c) in enumerate(mds, start=1):
            if a.shape != (n, n):
                raise DimensionError(f"mode {i}: A is {a.shape}, expected {n}x{n}")
            if b.rows != n:
                raise DimensionError(f"mode {i}: B has {b.rows} rows, expected {n}")
            if b.cols != b0.cols:
                raise DimensionError(f"mode {i}: B has {b.cols} columns, expected {b0.cols}")
            if c.cols != n:
                raise DimensionError(f"mode {i}: C has {c.cols} columns, expected {n}")
            if c.rows != c0.rows:
                raise DimensionError(f"mode {i}: C has {c.rows} rows, expected {c0.rows}")
        object.__setattr__(self, "modes", mds)

    @property
    def n(self) -> int:
        return self.modes[0][0].rows

    @property
    def m(self) -> int:
        return self.modes[0][1].cols

    @property
    def p(self) -> int:
        return self.modes[0][2].rows

    @property
    def q(self) -> int:
        return len(self.modes)

    @property
    def mode_flag(self) -> Numeric:
        return self.modes[0][0].mode

    def a(self, sigma: int) -> Matrix:
        return self.modes[sigma - 1][0]

    def b(self, sigma: int) -> Matrix:
        return self.modes[sigma - 1][1]

    def c(self, sigma: int) -> Matrix:
        return self.modes[sigma - 1][2]

    def apply(self, sigma: int, x: Matrix, u: Matrix) -> Matrix:
        return self.a(sigma) @ x + self.b(sigma) @ u


# ---------------------------------------------------------------------------
# Mergence
# ---------------------------------------------------------------------------

def _merge_blocks(amats, bmats, net: LogicalNetwork):
    """Direct placement: block (L-target, beta) of slice gamma holds the
    R-selected mode matrix; everything else is zero."""
    g_blocks: dict[tuple[int, int, int], Matrix] = {}
    h_blocks: dict[tuple[int, int, int], Matrix] = {}
    for gamma in range(1, net.M + 1):
        for beta in range(1, net.N + 1):
            col = encode_pair(gamma, beta, net.N)
            upsilon = net.L.target(col)
            sigma = net.R.target(col)
            g_blocks[(gamma, upsilon, beta)] = amats[sigma - 1]
            h_blocks[(gamma, upsilon, beta)] = bmats[sigma - 1]
    return g_blocks, h_blocks


def _dense(blocks, net, gammas, rows_per_block, cols_per_block, numeric_mode):
    """Dense view of the input slices `gammas`, side by side, placed from the blocks."""
    width = cols_per_block * net.N
    offset = {gamma: k * width for k, gamma in enumerate(gammas)}
    grid = [[0] * (width * len(gammas)) for _ in range(rows_per_block * net.N)]
    for (gamma, alpha, beta), block in blocks.items():
        if gamma in offset:
            row0 = (alpha - 1) * rows_per_block
            col0 = offset[gamma] + (beta - 1) * cols_per_block
            for i, row in enumerate(block.entries):
                grid[row0 + i][col0:col0 + cols_per_block] = row
    return Matrix(grid, numeric_mode)


def _start(ms):
    """Fold of the empty mode sequence: (empty span, identity chain)."""
    n, mode = ms.sls.n, ms.sls.mode_flag
    return Subspace(Matrix.zeros(n, 0, mode)), Matrix.identity(n, mode)


class _MergedBase:
    """Shared storage/access for direct and dual merged systems."""

    __slots__ = ("sls", "net", "g_blocks", "h_blocks", "_h_width", "_folds", "_cover")

    def __init__(self, sls, net, amats, bmats, h_width):
        if net.q != sls.q:
            raise DimensionError(
                f"signal range mismatch: network emits 1..{net.q}, system has {sls.q} modes"
            )
        g_blocks, h_blocks = _merge_blocks(amats, bmats, net)
        object.__setattr__(self, "sls", sls)
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "g_blocks", g_blocks)
        object.__setattr__(self, "h_blocks", h_blocks)
        object.__setattr__(self, "_h_width", h_width)
        # the property searches' one fold memo, mode sequence -> (span, chain),
        # seeded with the empty sequence; every query on this merged system
        # folds into it and reads from it. A fold depends on its mode sequence
        # alone, so threads that fold one sequence at once store equal values.
        object.__setattr__(self, "_folds", {(): _start(self)})
        # the attractor cover's checked states, built on the first cover request
        object.__setattr__(self, "_cover", None)

    def __setattr__(self, name, value):
        raise AttributeError("merged systems are immutable")

    def g_block(self, gamma: int, alpha: int, beta: int) -> Matrix:
        n = self.sls.n
        return self.g_blocks.get((gamma, alpha, beta), Matrix.zeros(n, n, self.sls.mode_flag))

    def h_block(self, gamma: int, alpha: int, beta: int) -> Matrix:
        n = self.sls.n
        return self.h_blocks.get(
            (gamma, alpha, beta), Matrix.zeros(n, self._h_width, self.sls.mode_flag)
        )

    def _g_view(self, gammas) -> Matrix:
        return _dense(self.g_blocks, self.net, gammas, self.sls.n, self.sls.n, self.sls.mode_flag)

    def _h_view(self, gammas) -> Matrix:
        return _dense(self.h_blocks, self.net, gammas, self.sls.n, self._h_width, self.sls.mode_flag)

    @property
    def flat_g(self) -> Matrix:
        """Dense nN x nMN G, built from the blocks on each access."""
        return self._g_view(range(1, self.net.M + 1))

    @property
    def flat_h(self) -> Matrix:
        """Dense nN x mMN H (nN x pMN on the dual side), built on each access."""
        return self._h_view(range(1, self.net.M + 1))

    def g_slice(self, gamma: int) -> Matrix:
        """The nN x nN slice of G selected by input gamma, built from the blocks."""
        return self._g_view((gamma,))

    def h_slice(self, gamma: int) -> Matrix:
        """The slice of H selected by input gamma, built from the blocks."""
        return self._h_view((gamma,))

    def compressed_pattern(self, gamma: int) -> BooleanMatrix:
        """N x N sign pattern of slice gamma's blocks (1 = nonzero block)."""
        bits = []
        for alpha in range(1, self.net.N + 1):
            row = []
            for beta in range(1, self.net.N + 1):
                block = self.g_blocks.get((gamma, alpha, beta))
                row.append(0 if block is None or block.is_zero() else 1)
            bits.append(row)
        return BooleanMatrix(bits)


class MergedSystem(_MergedBase):
    """Hybrid dynamics on z = theta_vec (x) x: z' = G_gamma z + H_gamma (theta_vec (x) u)."""

    def __init__(self, sls: SwitchedLinearSystem, net: LogicalNetwork):
        amats = [sls.a(i) for i in range(1, sls.q + 1)]
        bmats = [sls.b(i) for i in range(1, sls.q + 1)]
        super().__init__(sls, net, amats, bmats, sls.m)


class DualMergedSystem(_MergedBase):
    """Mergence of the transposed modes (A_i^T, C_i^T) with the same network."""

    def __init__(self, sls: SwitchedLinearSystem, net: LogicalNetwork):
        amats = [sls.a(i).transpose() for i in range(1, sls.q + 1)]
        cmats = [sls.c(i).transpose() for i in range(1, sls.q + 1)]
        super().__init__(sls, net, amats, cmats, sls.p)


def merge(sls: SwitchedLinearSystem, net: LogicalNetwork) -> MergedSystem:
    return MergedSystem(sls, net)


def merge_dual(sls: SwitchedLinearSystem, net: LogicalNetwork) -> DualMergedSystem:
    return DualMergedSystem(sls, net)


def step_merged(
    ms: MergedSystem, gamma: int, theta: int, x: Matrix, u: Matrix
) -> tuple[int, Matrix]:
    """One merged step; returns (theta_next, x_next).

    The column of z = theta_vec (x) x selected by (gamma, theta) meets a
    single nonzero block of G_gamma and H_gamma, in the block row of the
    L-target theta_next, so x_next = G-block x + H-block u. The logical
    state comes from L, so x_next = 0 cannot erase it.
    """
    sls, net = ms.sls, ms.net
    if x.shape != (sls.n, 1):
        raise DimensionError(f"x is {x.shape}, expected {sls.n}x1")
    if u.shape != (sls.m, 1):
        raise DimensionError(f"u is {u.shape}, expected {sls.m}x1")
    theta_next, _ = step(net, gamma, theta)
    block = (gamma, theta_next, theta)
    return theta_next, ms.g_blocks[block] @ x + ms.h_blocks[block] @ u
