"""Exact matrix algebra for logical and hybrid system analysis.

Provides the semi-tensor product (STP) calculus used throughout the
package: dense matrices over exact rationals (or floats), logical
matrices stored by column indices, Boolean {0,1} matrices with the
saturating sum/product, structural matrices (swap, power-reducing),
and rational Gaussian elimination for ranks, column spaces and the
subspace lattice operations (sum, containment, fullness).

Conventions:
- all basis/column indices are 1-based, matching the usual delta_n^i
  notation for canonical basis vectors;
- "exact" mode stores fractions.Fraction entries and all comparisons
  are exact; "float" mode stores doubles and every zero/equality test
  goes through the single tolerance FLOAT_TOL (applied to elimination
  pivots after partial pivoting).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

# Results larger than this many entries are refused outright: merged-system
# matrices grow as n*N x n*M*N and a runaway STP should fail loudly.
SIZE_CAP = 10_000_000

DEFAULT_FLOAT_TOL = 1e-9
FLOAT_TOL = DEFAULT_FLOAT_TOL


class SizingError(ValueError):
    """A requested product would exceed SIZE_CAP entries."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def set_float_tolerance(tol: float) -> None:
    """Set the global pivot/zero tolerance used in float mode."""
    global FLOAT_TOL
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    FLOAT_TOL = float(tol)


def _coerce(value, mode: str):
    if mode == "exact":
        # Fraction(float) is the exact binary value; no silent rounding.
        return Fraction(value)
    return float(value)


def _is_zero(value, mode: str) -> bool:
    if mode == "exact":
        return value == 0
    return abs(value) <= FLOAT_TOL


def _eq(a, b, mode: str) -> bool:
    if mode == "exact":
        return a == b
    return abs(a - b) <= FLOAT_TOL


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix; entries all share one numeric mode.

    ``cols == 0`` is permitted so that empty subspace bases have a
    carrier; all arithmetic degenerates correctly in that case.
    """

    __slots__ = ("rows", "cols", "entries", "mode")

    def __init__(self, entries: Sequence[Sequence], mode: str = "exact"):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode {mode!r}")
        grid = tuple(tuple(_coerce(v, mode) for v in row) for row in entries)
        if not grid:
            raise DimensionError("matrix needs at least one row")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("ragged rows in matrix literal")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, mode: str = "exact") -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)], mode)

    @staticmethod
    def identity(n: int, mode: str = "exact") -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], mode)

    @staticmethod
    def ones(rows: int, cols: int, mode: str = "exact") -> "Matrix":
        return Matrix([[1] * cols for _ in range(rows)], mode)

    @staticmethod
    def column(values: Sequence, mode: str = "exact") -> "Matrix":
        return Matrix([[v] for v in values], mode)

    # -- basic queries -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(_is_zero(v, self.mode) for row in self.entries for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        mode = "float" if "float" in (self.mode, other.mode) else "exact"
        return all(
            _eq(_coerce(self.entries[i][j], mode), _coerce(other.entries[i][j], mode), mode)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.mode, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def _joint_mode(self, other: "Matrix") -> str:
        return "float" if "float" in (self.mode, other.mode) else "exact"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise DimensionError(f"add: {self.shape} vs {other.shape}")
        mode = self._joint_mode(other)
        return Matrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            mode,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise DimensionError(f"sub: {self.shape} vs {other.shape}")
        mode = self._joint_mode(other)
        return Matrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            mode,
        )

    def scale(self, factor) -> "Matrix":
        return Matrix([[v * factor for v in row] for row in self.entries], self.mode)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"matmul: {self.shape} vs {other.shape}")
        mode = self._joint_mode(other)
        _check_size(self.rows, other.cols)
        if other.cols == 0:
            return _empty(self.rows, mode)
        # row-by-row accumulation over nonzero left entries only; the
        # structural matrices here (logical, Kronecker-padded) are sparse
        out = []
        width = other.cols
        for lrow in self.entries:
            acc = [0] * width
            for k, x in enumerate(lrow):
                if x:
                    brow = other.entries[k]
                    acc = [a + x * y for a, y in zip(acc, brow)]
            out.append(acc)
        return Matrix(out, mode)

    def transpose(self) -> "Matrix":
        if self.cols == 0:
            raise DimensionError("cannot transpose a zero-column matrix")
        return Matrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.mode,
        )

    @property
    def T(self) -> "Matrix":
        return self.transpose()


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > SIZE_CAP:
        raise SizingError(f"result would have {rows}x{cols} entries (cap {SIZE_CAP})")


def hstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack: row counts differ")
    mode = "float" if any(m.mode == "float" for m in mats) else "exact"
    grid = [[v for m in mats for v in m.entries[i]] for i in range(rows)]
    return Matrix(grid, mode) if grid and grid[0] else _empty(rows, mode)


def vstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack: column counts differ")
    mode = "float" if any(m.mode == "float" for m in mats) else "exact"
    return Matrix([row for m in mats for row in m.entries], mode)


def _empty(rows: int, mode: str) -> Matrix:
    m = Matrix.zeros(rows, 1, mode)
    object.__setattr__(m, "cols", 0)
    object.__setattr__(m, "entries", tuple(() for _ in range(rows)))
    return m


def basis_vector(n: int, i: int, mode: str = "exact") -> Matrix:
    """Canonical basis column vector of length n with a 1 in slot i (1-based)."""
    if not 1 <= i <= n:
        raise DimensionError(f"basis index {i} out of range 1..{n}")
    return Matrix([[1 if r == i - 1 else 0] for r in range(n)], mode)


# ---------------------------------------------------------------------------
# Kronecker-family products and the semi-tensor product
# ---------------------------------------------------------------------------

def kronecker(a: Matrix, b: Matrix) -> Matrix:
    _check_size(a.rows * b.rows, a.cols * b.cols)
    mode = a._joint_mode(b)
    grid = []
    for arow in a.entries:
        for brow in b.entries:
            grid.append([x * y for x in arow for y in brow])
    if a.cols * b.cols == 0:
        return _empty(a.rows * b.rows, mode)
    return Matrix(grid, mode)


def khatri_rao(a: Matrix, b: Matrix) -> Matrix:
    """Columnwise Kronecker product; operands must share a column count."""
    if a.cols != b.cols:
        raise DimensionError(f"khatri_rao: {a.cols} vs {b.cols} columns")
    _check_size(a.rows * b.rows, a.cols)
    mode = a._joint_mode(b)
    grid = [
        [a.entries[i][j] * b.entries[k][j] for j in range(a.cols)]
        for i in range(a.rows)
        for k in range(b.rows)
    ]
    return Matrix(grid, mode)


def stp(a: Matrix, b: Matrix) -> Matrix:
    """Semi-tensor product: (A (x) I_{t/n}) (B (x) I_{t/p}), t = lcm(n, p).

    Total on all shapes; degenerates to the ordinary matrix product when
    cols(a) == rows(b).
    """
    t = math.lcm(a.cols, b.rows) if a.cols and b.rows else max(a.cols, b.rows)
    if t == 0:
        raise DimensionError("stp with an empty inner dimension")
    left = a if t == a.cols else kronecker(a, Matrix.identity(t // a.cols, a.mode))
    right = b if t == b.rows else kronecker(b, Matrix.identity(t // b.rows, b.mode))
    return left @ right


def stp_all(mats: Sequence[Matrix]) -> Matrix:
    """Left-associated STP of a nonempty sequence."""
    if not mats:
        raise DimensionError("stp_all of nothing")
    out = mats[0]
    for m in mats[1:]:
        out = stp(out, m)
    return out


# ---------------------------------------------------------------------------
# Logical matrices (every column a canonical basis vector)
# ---------------------------------------------------------------------------

class LogicalMatrix:
    """Matrix in L_{m x n} stored as its column indices (1-based).

    Column j densifies to the basis vector with a single 1 in row
    col_index[j]; this keeps structure-matrix composition and graph
    extraction O(columns).
    """

    __slots__ = ("rows", "col_index")

    def __init__(self, rows: int, col_index: Sequence[int]):
        idx = tuple(int(i) for i in col_index)
        if rows < 1:
            raise DimensionError("logical matrix needs at least one row")
        for j, i in enumerate(idx):
            if not 1 <= i <= rows:
                raise DimensionError(f"column {j + 1}: index {i} outside 1..{rows}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "col_index", idx)

    def __setattr__(self, name, value):
        raise AttributeError("LogicalMatrix is immutable")

    @property
    def cols(self) -> int:
        return len(self.col_index)

    def target(self, j: int) -> int:
        """Row index (1-based) of the single 1 in column j (1-based)."""
        return self.col_index[j - 1]

    def dense(self, mode: str = "exact") -> Matrix:
        return Matrix(
            [[1 if self.col_index[j] == i + 1 else 0 for j in range(self.cols)]
             for i in range(self.rows)],
            mode,
        )

    def boolean(self) -> "BooleanMatrix":
        return BooleanMatrix(
            [[1 if self.col_index[j] == i + 1 else 0 for j in range(self.cols)]
             for i in range(self.rows)]
        )

    @staticmethod
    def from_matrix(m: Matrix) -> "LogicalMatrix":
        idx = []
        for j in range(m.cols):
            col = m.col(j)
            hits = [i for i, v in enumerate(col) if not _is_zero(v, m.mode)]
            if len(hits) != 1 or not _eq(col[hits[0]], _coerce(1, m.mode), m.mode):
                raise DimensionError(f"column {j + 1} is not a canonical basis vector")
            idx.append(hits[0] + 1)
        return LogicalMatrix(m.rows, idx)

    @staticmethod
    def identity(n: int) -> "LogicalMatrix":
        return LogicalMatrix(n, range(1, n + 1))

    def compose(self, other: "LogicalMatrix") -> "LogicalMatrix":
        """self @ other for logical matrices, in index form."""
        if self.cols != other.rows:
            raise DimensionError(f"compose: {self.cols} vs {other.rows}")
        return LogicalMatrix(self.rows, [self.col_index[i - 1] for i in other.col_index])

    def khatri_rao(self, other: "LogicalMatrix") -> "LogicalMatrix":
        """Columnwise basis-vector stacking: indices (i-1)*rows(other) + j."""
        if self.cols != other.cols:
            raise DimensionError("khatri_rao: column counts differ")
        return LogicalMatrix(
            self.rows * other.rows,
            [
                (self.col_index[c] - 1) * other.rows + other.col_index[c]
                for c in range(self.cols)
            ],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.col_index == other.col_index

    def __hash__(self):
        return hash((self.rows, self.col_index))

    def __repr__(self) -> str:
        return f"LogicalMatrix(delta_{self.rows}{list(self.col_index)})"


def swap_matrix(m: int, n: int) -> LogicalMatrix:
    """W with W (x stp y) == (y stp x) for x in Delta_m, y in Delta_n.

    Built as the block row [I_n (x) d_m^1, ..., I_n (x) d_m^m]; column
    (i-1)n + j carries the basis vector with index (j-1)m + i.
    """
    if m < 1 or n < 1:
        raise DimensionError("swap_matrix needs positive dimensions")
    idx = [(j - 1) * m + i for i in range(1, m + 1) for j in range(1, n + 1)]
    return LogicalMatrix(m * n, idx)


def power_reducing_matrix(n: int) -> LogicalMatrix:
    """P with P x == x stp x for every basis vector x in Delta_n."""
    if n < 1:
        raise DimensionError("power_reducing_matrix needs n >= 1")
    return LogicalMatrix(n * n, [(i - 1) * n + i for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Boolean matrices
# ---------------------------------------------------------------------------

class BooleanMatrix:
    """Dense {0,1} matrix with saturating Boolean sum and product."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, bits: Sequence[Sequence[int]]):
        grid = tuple(tuple(int(b) for b in row) for row in bits)
        if not grid or not grid[0]:
            raise DimensionError("boolean matrix needs at least one entry")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("ragged rows in boolean matrix")
        for row in grid:
            for b in row:
                if b not in (0, 1):
                    raise DimensionError("boolean entries must be 0 or 1")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "bits", grid)

    def __setattr__(self, name, value):
        raise AttributeError("BooleanMatrix is immutable")

    @staticmethod
    def zeros(rows: int, cols: int) -> "BooleanMatrix":
        return BooleanMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "BooleanMatrix":
        return BooleanMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_matrix(m: Matrix) -> "BooleanMatrix":
        return BooleanMatrix(
            [[0 if _is_zero(v, m.mode) else 1 for v in row] for row in m.entries]
        )

    def dense(self, mode: str = "exact") -> Matrix:
        return Matrix(self.bits, mode)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.bits[i][j]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.bits[i][j] for i in range(self.rows))

    def support(self) -> list[tuple[int, int]]:
        """1-based (row, col) positions of the 1 entries."""
        return [
            (i + 1, j + 1)
            for i in range(self.rows)
            for j in range(self.cols)
            if self.bits[i][j]
        ]

    def transpose(self) -> "BooleanMatrix":
        return BooleanMatrix(
            [[self.bits[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(b == 0 for row in self.bits for b in row)

    def all_ones(self) -> bool:
        return all(b == 1 for row in self.bits for b in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanMatrix):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self) -> str:
        body = "; ".join("".join(str(b) for b in row) for row in self.bits)
        return f"BooleanMatrix({self.rows}x{self.cols} [{body}])"


def boolean_product(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    """Matrix product with + as OR and * as AND (1 iff ordinary entry > 0)."""
    if a.cols != b.rows:
        raise DimensionError(f"boolean_product: {a.cols} vs {b.rows}")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            row.append(1 if any(a.bits[i][k] and b.bits[k][j] for k in range(a.cols)) else 0)
        out.append(row)
    return BooleanMatrix(out)


def boolean_sum(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError("boolean_sum: shapes differ")
    return BooleanMatrix(
        [[x | y for x, y in zip(ra, rb)] for ra, rb in zip(a.bits, b.bits)]
    )


def boolean_and(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError("boolean_and: shapes differ")
    return BooleanMatrix(
        [[x & y for x, y in zip(ra, rb)] for ra, rb in zip(a.bits, b.bits)]
    )


def boolean_power(a: BooleanMatrix, k: int) -> BooleanMatrix:
    if a.rows != a.cols:
        raise DimensionError("boolean_power needs a square matrix")
    if k < 0:
        raise DimensionError("boolean_power needs k >= 0")
    out = BooleanMatrix.identity(a.rows)
    for _ in range(k):
        out = boolean_product(out, a)
    return out


# ---------------------------------------------------------------------------
# Gaussian elimination: rank, column spaces, subspace lattice
# ---------------------------------------------------------------------------

def _rref(m: Matrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column list).

    Exact mode picks the first nonzero pivot (deterministic); float mode
    partial-pivots on magnitude and treats |v| <= FLOAT_TOL as zero.
    """
    grid = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        if m.mode == "exact":
            pivot_row = next((i for i in range(r, nrows) if grid[i][c] != 0), None)
        else:
            pivot_row = max(range(r, nrows), key=lambda i: abs(grid[i][c]))
            if abs(grid[pivot_row][c]) <= FLOAT_TOL:
                pivot_row = None
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pv = grid[r][c]
        grid[r] = [v / pv for v in grid[r]]
        for i in range(nrows):
            if i != r and not _is_zero(grid[i][c], m.mode):
                f = grid[i][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        if m.mode == "float":
            grid = [[0.0 if abs(v) <= FLOAT_TOL else v for v in row] for row in grid]
        pivots.append(c)
        r += 1
    return grid, pivots


def rank(m: Matrix) -> int:
    if m.cols == 0:
        return 0
    _, pivots = _rref(m)
    return len(pivots)


class Subspace:
    """Linear subspace of R^ambient; basis kept in reduced column echelon form.

    The canonical basis makes equality and containment checks deterministic:
    two subspaces are equal iff their basis matrices are identical.
    """

    __slots__ = ("ambient", "basis", "mode")

    def __init__(self, ambient: int, basis: Matrix, mode: str):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def rank(self) -> int:
        return self.basis.cols

    def contains_vector(self, v: Matrix) -> bool:
        if v.rows != self.ambient:
            raise DimensionError("vector lives in a different ambient space")
        return rank(hstack([self.basis, v])) == self.rank

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.rank} in R^{self.ambient})"


def column_space(m: Matrix) -> Subspace:
    """Column space as a Subspace with canonical echelon basis."""
    if m.cols == 0:
        return Subspace(m.rows, _empty(m.rows, m.mode), m.mode)
    grid, pivots = _rref(m.transpose())
    nonzero = [grid[i] for i in range(len(pivots))]
    if not nonzero:
        return Subspace(m.rows, _empty(m.rows, m.mode), m.mode)
    basis = Matrix(nonzero, m.mode).transpose()
    return Subspace(m.rows, basis, m.mode)


def subspace_sum(*spaces: Subspace) -> Subspace:
    if not spaces:
        raise DimensionError("subspace_sum of nothing")
    ambient = spaces[0].ambient
    if any(s.ambient != ambient for s in spaces):
        raise DimensionError("subspace_sum: ambient dimensions differ")
    return column_space(hstack([s.basis for s in spaces]))


def subspace_contains(big: Subspace, small: Subspace) -> bool:
    if big.ambient != small.ambient:
        raise DimensionError("subspace_contains: ambient dimensions differ")
    if small.rank == 0:
        return True
    return rank(hstack([big.basis, small.basis])) == big.rank


def subspace_is_full(s: Subspace, n: int) -> bool:
    return s.rank == n
