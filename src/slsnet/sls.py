"""Switched linear systems and their mergence with a logical switching layer.

A switched linear system (SLS) is a family of modes (A_i, B_i, C_i);
at each step one mode, selected by the switching signal sigma, drives
x(t+1) = A_sigma x(t) + B_sigma u(t). Every matrix of a system carries
one numeric context (algebra.Numeric); modes that mix contexts, and a
float matrix with a non-finite entry, are refused when the system is
built. When sigma is emitted by a logical control network, the pair can
be merged into a single hybrid system on z = theta_vec (x) x whose
dynamics are carried by two large matrices G (nN x nMN) and H (nN x mMN).

Each block column (gamma, beta) of G and H holds exactly one nonzero
block: it sits at block row L(gamma, beta) and equals the A (resp. B)
matrix of the mode R(gamma, beta). A merged system therefore stores
only one plain table per mode, read from the system's own matrices:
A's rows and the H block's columns. Its mode pairs (A_sigma, B_sigma)
are built from the system on access, and every block, slice and dense
view is placed from them through L and R when asked; a block index
outside 1..M or 1..N is refused, not read as a zero block. The
closed-form semi-tensor-product construction of G and H is kept in the
tests as the reference the placed blocks must match. A dual mergence
with transposed mode matrices (A_i^T, C_i^T) supports the
observability-side checks; its tables hold A's rows and C's rows (the
columns of C^T), so it builds no transposed matrix until one is asked
for. The property searches fold from the tables (see analysis).
"""

from __future__ import annotations

import math

from .algebra import BooleanMatrix, DimensionError, Matrix, Numeric, Record, _check_size, _echelon, check_int
from .lcn import LogicalNetwork, step


class SwitchedLinearSystem(Record):
    """Mode family (A_i, B_i, C_i), i in 1..q, on fixed dimensions n, m, p
    and one numeric context, mode_flag, carried by every matrix."""

    __slots__ = ("modes",)

    def __init__(self, modes):
        mds = tuple((a, b, c) for a, b, c in modes)
        if not mds:
            raise DimensionError("need at least one mode")
        a0, b0, c0 = mds[0]
        n, context = a0.rows, a0.mode
        for i, (a, b, c) in enumerate(mds, start=1):
            if not a.mode == b.mode == c.mode == context:
                raise ValueError(f"mode {i}: every matrix must carry the context {context} of A_1")
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
            entries = (x for mat in (a, b, c) for row in mat.entries for x in row)
            if context.tol is not None and not all(map(math.isfinite, entries)):
                raise ValueError(f"mode {i}: every float matrix entry must be finite")
        super().__init__(mds)

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

    def _mode(self, sigma: int) -> tuple[Matrix, Matrix, Matrix]:
        return self.modes[check_int(sigma, "mode", 1, self.q) - 1]

    def a(self, sigma: int) -> Matrix:
        return self._mode(sigma)[0]

    def b(self, sigma: int) -> Matrix:
        return self._mode(sigma)[1]

    def c(self, sigma: int) -> Matrix:
        return self._mode(sigma)[2]

    def apply(self, sigma: int, x: Matrix, u: Matrix) -> Matrix:
        a, b, _ = self._mode(sigma)
        return a @ x + b @ u


# ---------------------------------------------------------------------------
# Mergence
# ---------------------------------------------------------------------------

def _start(ms):
    """Fold of the empty mode sequence: (no span rows, the identity's columns),
    with entries of the system's kind, as Matrix.identity builds them."""
    one, zero = (1, 0) if ms.sls.mode_flag.tol is None else (1.0, 0.0)
    n = ms.sls.n
    return (), tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


class _MergedBase:
    """Shared storage/access for direct and dual merged systems.

    _tables[sigma - 1] is mode sigma's plain table: A's rows, and the H
    block's columns (B's on the primal side, C's rows on the dual side).
    modes[sigma - 1], built on access, is the (G-block, H-block) pair of
    mode sigma (see _pair); every block of G and H is placed from the
    pairs through L and R (see _placed). Assigning or deleting an
    attribute raises AttributeError. A merged system holds its memos, so
    it is not a record: it compares by identity.
    """

    __slots__ = ("sls", "net", "_tables", "_nonsingular", "_folds", "_outcomes", "_cover", "_bound")

    def __init__(self, sls, net, tables):
        if net.q != sls.q:
            raise DimensionError(
                f"signal range mismatch: network emits 1..{net.q}, system has {sls.q} modes"
            )
        object.__setattr__(self, "sls", sls)
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "_tables", tuple(tables))
        # exact, with every A that R emits nonsingular: an exact kind-1 search
        # is then decided as kind 0 (see analysis); at most q eliminations
        emitted = (self._tables[s - 1][0] for s in set(net.R.col_index))
        nonsingular = sls.mode_flag.tol is None and all(len(_echelon(a, None)) == sls.n for a in emitted)
        object.__setattr__(self, "_nonsingular", nonsingular)
        # the property searches' one fold memo, mode sequence -> (span rows,
        # drift columns) (see analysis._step), seeded with the empty sequence;
        # every query on this merged system folds into it and reads from it.
        # A fold depends on its mode sequence alone, so threads that fold one
        # sequence at once store equal values.
        object.__setattr__(self, "_folds", {(): _start(self)})
        # the levels of the searches run so far, (kind, checked states) ->
        # {horizon: (first highest-scoring details, their score, [witness] or
        # [])} (see analysis._search): a query reads the recorded levels and
        # walks the others, so its answer is a fresh walk's in any order
        object.__setattr__(self, "_outcomes", {})
        # the attractor cover's checked states, built on the first cover request
        object.__setattr__(self, "_cover", None)
        # the searches' refutation bound (see analysis._invariant_bound): the
        # mask of the logical states whose invariant subspace is full (bit
        # theta - 1 for state theta); built on the first request
        object.__setattr__(self, "_bound", None)

    def __setattr__(self, name, value):
        raise AttributeError("merged systems are immutable")

    def __delattr__(self, name):
        raise AttributeError("merged systems are immutable")

    @property
    def modes(self) -> tuple[tuple[Matrix, Matrix], ...]:
        """Every mode's (G-block, H-block) pair, built from the system on each access."""
        return tuple(self._pair(sigma) for sigma in range(1, self.sls.q + 1))

    def _placed(self, gamma: int, beta: int) -> tuple[int, tuple[Matrix, Matrix]]:
        """Block column (gamma, beta): its one nonzero block row, the
        L-target, and the mode pair R selects there; indices are checked."""
        alpha, sigma = step(self.net, gamma, beta)
        return alpha, self._pair(sigma)

    def _block(self, part: int, gamma: int, alpha: int, beta: int) -> Matrix:
        check_int(alpha, "state index", 1, self.net.N)
        target, pair = self._placed(gamma, beta)
        block = pair[part]
        if alpha == target:
            return block
        return Matrix.zeros(block.rows, block.cols, self.sls.mode_flag)

    def _view(self, part: int, gammas) -> Matrix:
        """Dense view of the input slices `gammas`, side by side; SizingError past SIZE_CAP."""
        n, n_states = self.sls.n, self.net.N
        blocks = [pair[part].entries for pair in self.modes]
        width = len(blocks[0][0])
        _check_size(n * n_states, width * n_states * len(gammas))
        grid = [[0] * (width * n_states * len(gammas)) for _ in range(n * n_states)]
        for k, gamma in enumerate(gammas):
            for beta in range(1, n_states + 1):
                alpha, sigma = step(self.net, gamma, beta)
                col0 = (k * n_states + beta - 1) * width
                for i, row in enumerate(blocks[sigma - 1], start=(alpha - 1) * n):
                    grid[i][col0:col0 + width] = row
        return Matrix(grid, self.sls.mode_flag)

    def g_block(self, gamma: int, alpha: int, beta: int) -> Matrix:
        return self._block(0, gamma, alpha, beta)

    def h_block(self, gamma: int, alpha: int, beta: int) -> Matrix:
        return self._block(1, gamma, alpha, beta)

    @property
    def flat_g(self) -> Matrix:
        """Dense nN x nMN G, built from the mode pairs on each access."""
        return self._view(0, range(1, self.net.M + 1))

    @property
    def flat_h(self) -> Matrix:
        """Dense nN x mMN H (nN x pMN on the dual side), built on each access."""
        return self._view(1, range(1, self.net.M + 1))

    def g_slice(self, gamma: int) -> Matrix:
        """The nN x nN slice of G selected by input gamma."""
        return self._view(0, (gamma,))

    def h_slice(self, gamma: int) -> Matrix:
        """The slice of H selected by input gamma."""
        return self._view(1, (gamma,))

    def compressed_pattern(self, gamma: int) -> BooleanMatrix:
        """N x N sign pattern of slice gamma's blocks (1 = nonzero block)."""
        n_states = self.net.N
        bits = [[0] * n_states for _ in range(n_states)]
        for beta in range(1, n_states + 1):
            alpha, sigma = step(self.net, gamma, beta)
            # A^T is zero where A is
            bits[alpha - 1][beta - 1] = 0 if self.sls.a(sigma).is_zero() else 1
        return BooleanMatrix(bits)


class MergedSystem(_MergedBase):
    """Hybrid dynamics on z = theta_vec (x) x: z' = G_gamma z + H_gamma (theta_vec (x) u)."""

    __slots__ = ()

    def __init__(self, sls: SwitchedLinearSystem, net: LogicalNetwork):
        super().__init__(sls, net, ((a.entries, tuple(zip(*b.entries))) for a, b, _ in sls.modes))

    def _pair(self, sigma: int) -> tuple[Matrix, Matrix]:
        a, b, _ = self.sls.modes[sigma - 1]
        return a, b


class DualMergedSystem(_MergedBase):
    """Mergence of the transposed modes (A_i^T, C_i^T) with the same network."""

    __slots__ = ()

    def __init__(self, sls: SwitchedLinearSystem, net: LogicalNetwork):
        super().__init__(sls, net, ((a.entries, c.entries) for a, _, c in sls.modes))

    def _pair(self, sigma: int) -> tuple[Matrix, Matrix]:
        a, _, c = self.sls.modes[sigma - 1]
        return a.transpose(), c.transpose()


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
    state comes from L, so x_next = 0 cannot erase it. u has as many rows
    as the H-block has columns: m, or p on the dual side.
    """
    theta_next, (g, h) = ms._placed(gamma, theta)
    if x.shape != (g.cols, 1):
        raise DimensionError(f"x is {x.shape}, expected {g.cols}x1")
    if u.shape != (h.cols, 1):
        raise DimensionError(f"u is {u.shape}, expected {h.cols}x1")
    return theta_next, g @ x + h @ u
