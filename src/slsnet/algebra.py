"""Exact matrix algebra for logical and hybrid system analysis.

Provides the semi-tensor product (STP) calculus used throughout the
package: dense matrices over exact rationals (integers first) or floats,
logical matrices stored by column indices, Boolean {0,1} matrices with
the saturating sum/product, structural matrices (swap, power-reducing),
and Gaussian elimination (fraction-free on exact matrices) for ranks,
column spaces and the subspace lattice operations (sum, containment,
fullness).

Conventions:
- all basis/column indices are 1-based, matching the usual delta_n^i
  notation for canonical basis vectors;
- every Matrix and Subspace carries a frozen numeric context (Numeric):
  exact contexts store int entries, and fractions.Fraction ones only where
  a value is not integral, and compare exactly;
  float contexts store doubles, and every zero/equality test and every
  elimination pivot (after partial pivoting) uses the context's own
  tolerance. Mixing exact and float operands gives float; mixing two
  different float tolerances is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# Results larger than this many entries are refused outright: merged-system
# matrices grow as n*N x n*M*N and a runaway STP should fail loudly.
SIZE_CAP = 10_000_000


class SizingError(ValueError):
    """A requested product would exceed SIZE_CAP entries."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


@dataclass(frozen=True)
class Numeric:
    """Numeric context of a matrix: exact (tol None), or float with the
    tolerance below which a magnitude counts as zero."""

    tol: float | None = None

    def __post_init__(self):
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError("tolerance must be finite and positive")


EXACT = Numeric()
FLOAT = Numeric(1e-9)


def _context(mode) -> Numeric:
    """A Numeric, or one of the names "exact" and "float" (tolerance 1e-9)."""
    if isinstance(mode, Numeric):
        return mode
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown numeric mode {mode!r}")
    return EXACT if mode == "exact" else FLOAT


def _join(modes: Iterable[Numeric]) -> Numeric:
    """Context of a result: float beats exact; two float tolerances do not mix."""
    out = EXACT
    for mode in modes:
        if mode.tol is not None and mode != out:
            if out.tol is not None:
                raise ValueError(f"cannot mix float tolerances {out.tol} and {mode.tol}")
            out = mode
    return out


def _is_zero(value, mode: Numeric) -> bool:
    return value == 0 if mode.tol is None else abs(value) <= mode.tol


def _eq(a, b, mode: Numeric) -> bool:
    return a == b if mode.tol is None else abs(a - b) <= mode.tol


def _exact(value):
    """Entry of an exact matrix: the int when value is integral, else its
    Fraction. Fraction(float) is the exact binary value; no silent rounding."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix; entries all share one numeric context.

    Integers first: an exact matrix stores every integral entry as an int
    and only a non-integral one as a Fraction; a float matrix stores
    floats. A transpose and a column-space basis already hold entries in
    this form and are built without converting each entry again.

    ``cols == 0`` is permitted so that empty subspace bases have a
    carrier; all arithmetic degenerates correctly in that case.
    """

    __slots__ = ("rows", "cols", "entries", "mode")

    def __init__(self, entries: Sequence[Sequence], mode: Numeric | str = EXACT):
        mode = _context(mode)
        convert = _exact if mode.tol is None else float
        grid = tuple(tuple(map(convert, row)) for row in entries)
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
    def zeros(rows: int, cols: int, mode: Numeric | str = EXACT) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)], mode)

    @staticmethod
    def identity(n: int, mode: Numeric | str = EXACT) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], mode)

    @staticmethod
    def column(values: Sequence, mode: Numeric | str = EXACT) -> "Matrix":
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
        # a Fraction meets a float as float(Fraction), exactly as if coerced
        mode = self._joint_mode(other)
        return all(
            _eq(x, y, mode) for rx, ry in zip(self.entries, other.entries) for x, y in zip(rx, ry)
        )

    def __hash__(self):
        return hash((self.rows, self.cols))  # __eq__ is tolerant and cross-mode

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def _joint_mode(self, other: "Matrix") -> Numeric:
        return _join((self.mode, other.mode))

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
        return _of(tuple(zip(*self.entries)), self.mode)

    @property
    def T(self) -> "Matrix":
        return self.transpose()


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > SIZE_CAP:
        raise SizingError(f"result would have {rows}x{cols} entries (cap {SIZE_CAP})")


def _of(grid: tuple, mode: Numeric) -> Matrix:
    """Matrix over a nonempty tuple of equal-length tuples whose entries are
    already in mode's form (see Matrix); nothing is converted."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", len(grid))
    object.__setattr__(m, "cols", len(grid[0]))
    object.__setattr__(m, "entries", grid)
    object.__setattr__(m, "mode", mode)
    return m


def hstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack: row counts differ")
    mode = _join(m.mode for m in mats)
    grid = [[v for m in mats for v in m.entries[i]] for i in range(rows)]
    return Matrix(grid, mode) if grid and grid[0] else _empty(rows, mode)


def vstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack: column counts differ")
    mode = _join(m.mode for m in mats)
    return Matrix([row for m in mats for row in m.entries], mode)


def _empty(rows: int, mode: Numeric) -> Matrix:
    return _of(((),) * rows, mode)


def basis_vector(n: int, i: int, mode: Numeric | str = EXACT) -> Matrix:
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

    def dense(self, mode: Numeric | str = EXACT) -> Matrix:
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
            if len(hits) != 1 or not _eq(col[hits[0]], 1, m.mode):
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

    def dense(self, mode: Numeric | str = EXACT) -> Matrix:
        return Matrix(self.bits, mode)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.bits[i][j]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.bits[i][j] for i in range(self.rows))

    def transpose(self) -> "BooleanMatrix":
        return BooleanMatrix(
            [[self.bits[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(b == 0 for row in self.bits for b in row)

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

def _primitive(row) -> list:
    """Exact row scaled to coprime ints: times the lcm of its denominators,
    then divided by the gcd of its entries (its content)."""
    d = math.lcm(*(v.denominator for v in row if type(v) is not int))
    row = [int(v * d) for v in row] if d > 1 else row
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else list(row)


def _rref(m: Matrix) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column list).

    An exact matrix is eliminated fraction-free: each row is cleared of
    its denominators, rows are combined by integer cross-multiplication
    and kept primitive, and each pivot row is divided by its pivot only
    at the end. The reduced form is unique, so this gives the rational
    RREF exactly. A float matrix partial-pivots on magnitude and treats
    |v| <= its context's tolerance as zero.
    """
    tol = m.mode.tol
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    if tol is None:
        grid = [_primitive(row) for row in m.entries]
        for c in range(ncols):
            pivot_row = next((i for i in range(r, nrows) if grid[i][c]), None)
            if pivot_row is None:
                continue
            grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
            prow = grid[r]
            p = prow[c]
            for i in range(nrows):
                f = grid[i][c]
                if f and i != r:
                    grid[i] = _primitive([p * x - f * y for x, y in zip(grid[i], prow)])
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        reduced = [
            tuple(v // row[c] if v % row[c] == 0 else Fraction(v, row[c]) for v in row)
            for row, c in zip(grid, pivots)
        ]
        return reduced + [(0,) * ncols] * (nrows - r), pivots
    grid = [list(row) for row in m.entries]
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = max(range(r, nrows), key=lambda i: abs(grid[i][c]))
        if abs(grid[pivot_row][c]) <= tol:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pv = grid[r][c]
        grid[r] = [v / pv for v in grid[r]]
        for i in range(nrows):
            if i != r and not _is_zero(grid[i][c], m.mode):
                f = grid[i][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        grid = [[0.0 if abs(v) <= tol else v for v in row] for row in grid]
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

    def __init__(self, ambient: int, basis: Matrix, mode: Numeric | str):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mode", _context(mode))

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
        return hash((self.ambient, self.rank))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.rank} in R^{self.ambient})"


def column_space(m: Matrix) -> Subspace:
    """Column space as a Subspace with canonical echelon basis."""
    if m.cols == 0:
        return Subspace(m.rows, _empty(m.rows, m.mode), m.mode)
    grid, pivots = _rref(m.transpose())
    if not pivots:
        return Subspace(m.rows, _empty(m.rows, m.mode), m.mode)
    # the RREF rows are already in the context's entry form
    basis = _of(tuple(zip(*grid[: len(pivots)])), m.mode)
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
