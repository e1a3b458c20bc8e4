"""Exact matrix algebra for logical and hybrid system analysis.

Provides the semi-tensor product (STP) calculus used throughout the
package: dense matrices over exact rationals (integers first) or floats,
logical matrices stored by column indices, Boolean {0,1} matrices with
their OR-AND product, structural matrices (swap, power-reducing),
and one Gaussian elimination over plain rows (_echelon, fraction-free on
exact rows) for ranks, column spaces and the subspace lattice operations
(sum, containment, fullness).

Conventions:
- all basis/column indices are 1-based, matching the usual delta_n^i
  notation for canonical basis vectors;
- every Matrix and Subspace carries a frozen numeric context (Numeric):
  exact contexts store int entries, and fractions.Fraction ones only where
  a value is not integral; float contexts store doubles, and every zero
  test and every elimination pivot (after partial pivoting) uses the
  context's own tolerance. Mixing exact and float operands gives float;
  mixing two different float tolerances is refused;
- every Matrix, LogicalMatrix, BooleanMatrix and Subspace stands on Record
  like the package's records: built by Record's one constructor, which
  binds values to ``__slots__`` by position or keyword; frozen, compared
  and hashed field by field, so equality is exact (context included) and
  the hash follows it.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import add, attrgetter, sub
from typing import Iterable, Sequence

# Results larger than this many entries are refused outright: merged-system
# matrices grow as n*N x n*M*N and a runaway STP should fail loudly.
SIZE_CAP = 10_000_000


class SizingError(ValueError):
    """A requested product would exceed SIZE_CAP entries."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def check_int(value, what: str, least: int = 1, most: int | None = None) -> int:
    """An index or count: an int (not a bool) in least..most, or at least
    least when most is None. Refusals raise DimensionError naming what."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DimensionError(f"{what} {value!r} is not an integer")
    if most is not None and not least <= value <= most:
        raise DimensionError(f"{what} {value} outside {least}..{most}")
    if value < least:
        raise DimensionError(f"{what} must be >= {least}")
    return value


class Record:
    """Base of the package's immutable value objects: the records that carry
    inputs and results, and the matrices and subspaces below.

    A record lists its fields in ``__slots__``, in constructor order, and
    Record's constructor binds them: positional values in that order, then
    keyword values by name. A missing, unknown or repeated field, or a
    surplus value, raises TypeError naming the record. A
    record that checks or derives its fields writes its own ``__init__``,
    which ends in ``super().__init__(...)``. Equality and the hash go field
    by field, leaving out the fields named by the class keyword
    ``uncompared``; the repr reads ``Name(field=value, ...)``, leaving out
    those named by ``hidden``; a subclass may write its own of each.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, hidden=(), uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._shown = tuple(name for name in cls.__slots__ if name not in hidden)
        cls._key = attrgetter(*(name for name in cls.__slots__ if name not in uncompared))

    def __init__(self, *values, **named):
        fields = self.__slots__
        if len(values) > len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} fields, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        if named or len(values) < len(fields):
            rest = fields[len(values):]
            for name in named:
                if name not in rest:
                    problem = f"got field {name!r} twice" if name in fields else f"has no field {name!r}"
                    raise TypeError(f"{type(self).__qualname__} {problem}")
            for name in rest:
                if name not in named:
                    raise TypeError(f"{type(self).__qualname__} is missing field {name!r}")
                object.__setattr__(self, name, named[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable")


class Numeric(Record):
    """Numeric context of a matrix: exact (tol None), or float with the
    tolerance below which a magnitude counts as zero."""

    __slots__ = ("tol",)

    def __init__(self, tol: float | None = None):
        if tol is not None and (
            isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf
        ):
            raise ValueError("tolerance must be finite and positive")
        super().__init__(tol)


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


def _exact(value):
    """Entry of an exact matrix: the int when value is integral, else its
    Fraction. Fraction(float) is the exact binary value; no silent rounding."""
    if type(value) is int:
        return value
    try:
        value = Fraction(value)
    except (OverflowError, ValueError):  # inf overflows; nan, or no number at all
        raise ValueError(f"{value!r} is not a finite rational number") from None
    return value.numerator if value.denominator == 1 else value


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------

class Matrix(Record):
    """Immutable dense matrix; entries all share one numeric context.

    Integers first: an exact matrix stores every integral entry as an int
    and only a non-integral one as a Fraction; a float matrix stores
    floats.

    ``cols == 0`` is permitted so that empty subspace bases have a
    carrier; all arithmetic degenerates correctly in that case.

    Equality is Record's: shape, entries and context all equal, so an
    exact matrix never equals a float one, nor a float matrix one under
    another tolerance. Closeness within a tolerance is
    ``(a - b).is_zero()``, which reads the joined context (see _join).
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
        super().__init__(len(grid), width, grid, mode)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, mode: Numeric | str = EXACT) -> "Matrix":
        _check_size(rows, cols)
        return Matrix([[0] * cols for _ in range(rows)], mode)

    @staticmethod
    def identity(n: int, mode: Numeric | str = EXACT) -> "Matrix":
        _check_size(n, n)
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

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(_is_zero(v, self.mode) for row in self.entries for v in row)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, "add", add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, "sub", sub)

    def _entrywise(self, other: "Matrix", name: str, op) -> "Matrix":
        if self.shape != other.shape:
            raise DimensionError(f"{name}: {self.shape} vs {other.shape}")
        mode = _join((self.mode, other.mode))
        return Matrix([list(map(op, row, their)) for row, their in zip(self.entries, other.entries)], mode)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"matmul: {self.shape} vs {other.shape}")
        mode = _join((self.mode, other.mode))
        _check_size(self.rows, other.cols)
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
        return Matrix(tuple(zip(*self.entries)), self.mode)


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
    mode = _join(m.mode for m in mats)
    grid = [[v for m in mats for v in m.entries[i]] for i in range(rows)]
    return Matrix(grid, mode)


def vstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack: column counts differ")
    mode = _join(m.mode for m in mats)
    return Matrix([row for m in mats for row in m.entries], mode)


def basis_vector(n: int, i: int, mode: Numeric | str = EXACT) -> Matrix:
    """Canonical basis column vector of length n with a 1 in slot i (1-based)."""
    check_int(n, "basis size")
    check_int(i, "basis index", 1, n)
    return Matrix([[1 if r == i - 1 else 0] for r in range(n)], mode)


# ---------------------------------------------------------------------------
# Kronecker-family products and the semi-tensor product
# ---------------------------------------------------------------------------

def kronecker(a: Matrix, b: Matrix) -> Matrix:
    _check_size(a.rows * b.rows, a.cols * b.cols)
    mode = _join((a.mode, b.mode))
    grid = []
    for arow in a.entries:
        for brow in b.entries:
            grid.append([x * y for x in arow for y in brow])
    return Matrix(grid, mode)


def khatri_rao(a: Matrix, b: Matrix) -> Matrix:
    """Columnwise Kronecker product; operands must share a column count."""
    if a.cols != b.cols:
        raise DimensionError(f"khatri_rao: {a.cols} vs {b.cols} columns")
    _check_size(a.rows * b.rows, a.cols)
    mode = _join((a.mode, b.mode))
    grid = [
        [a.entries[i][j] * b.entries[k][j] for j in range(a.cols)]
        for i in range(a.rows)
        for k in range(b.rows)
    ]
    return Matrix(grid, mode)


def stp(a: Matrix, b: Matrix) -> Matrix:
    """Semi-tensor product: (A (x) I_{t/n}) (B (x) I_{t/p}), t = lcm(n, p).

    Total on all shapes where a has a column; degenerates to the ordinary
    matrix product when cols(a) == rows(b).
    """
    if a.cols == 0:
        raise DimensionError("stp with an empty inner dimension")
    t = math.lcm(a.cols, b.rows)
    pad_a, pad_b = t // a.cols, t // b.rows
    # refuse an oversized padding or product before any identity is built
    _check_size(a.rows * pad_a, t)
    _check_size(t, b.cols * pad_b)
    _check_size(a.rows * pad_a, b.cols * pad_b)
    left = a if pad_a == 1 else kronecker(a, Matrix.identity(pad_a, a.mode))
    right = b if pad_b == 1 else kronecker(b, Matrix.identity(pad_b, b.mode))
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

class LogicalMatrix(Record):
    """Matrix in L_{m x n} stored as its column indices (1-based).

    Column j densifies to the basis vector with a single 1 in row
    col_index[j]; this keeps structure-matrix composition and graph
    extraction O(columns).
    """

    __slots__ = ("rows", "col_index")

    def __init__(self, rows: int, col_index: Sequence[int]):
        idx = tuple(col_index)
        check_int(rows, "logical matrix rows")
        # one pass over the whole tuple; the rule names the first bad column
        if idx and not (all(type(i) is int for i in idx) and 1 <= min(idx) and max(idx) <= rows):
            for j, i in enumerate(idx, start=1):
                check_int(i, f"column {j}: index", 1, rows)
        super().__init__(rows, idx)

    @property
    def cols(self) -> int:
        return len(self.col_index)

    def target(self, j: int) -> int:
        """Row index (1-based) of the single 1 in column j (1-based)."""
        return self.col_index[check_int(j, "column", 1, self.cols) - 1]

    def dense(self, mode: Numeric | str = EXACT) -> Matrix:
        _check_size(self.rows, self.cols)
        return Matrix(
            [[1 if self.col_index[j] == i + 1 else 0 for j in range(self.cols)]
             for i in range(self.rows)],
            mode,
        )

    def boolean(self) -> "BooleanMatrix":
        return BooleanMatrix(self.dense().entries)

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

    def __repr__(self) -> str:
        return f"LogicalMatrix(delta_{self.rows}{list(self.col_index)})"


def swap_matrix(m: int, n: int) -> LogicalMatrix:
    """W with W (x stp y) == (y stp x) for x in Delta_m, y in Delta_n.

    Built as the block row [I_n (x) d_m^1, ..., I_n (x) d_m^m]; column
    (i-1)n + j carries the basis vector with index (j-1)m + i.
    """
    check_int(m, "swap_matrix m")
    check_int(n, "swap_matrix n")
    idx = [(j - 1) * m + i for i in range(1, m + 1) for j in range(1, n + 1)]
    return LogicalMatrix(m * n, idx)


def power_reducing_matrix(n: int) -> LogicalMatrix:
    """P with P x == x stp x for every basis vector x in Delta_n."""
    check_int(n, "power_reducing_matrix n")
    return LogicalMatrix(n * n, [(i - 1) * n + i for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Boolean matrices
# ---------------------------------------------------------------------------

class BooleanMatrix(Record):
    """Dense {0,1} matrix, multiplied by boolean_product (OR of ANDs)."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, bits: Sequence[Sequence[int]]):
        rows = [tuple(row) for row in bits]
        # checked before int(), which would truncate 1.5 or parse "1"
        if any(b not in (0, 1) for row in rows for b in row):
            raise DimensionError("boolean entries must be 0 or 1")
        grid = tuple(tuple(int(b) for b in row) for row in rows)
        if not grid or not grid[0]:
            raise DimensionError("boolean matrix needs at least one entry")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("ragged rows in boolean matrix")
        super().__init__(len(grid), width, grid)

    @staticmethod
    def identity(n: int) -> "BooleanMatrix":
        _check_size(n, n)
        return BooleanMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.bits[i][j]

    def transpose(self) -> "BooleanMatrix":
        return BooleanMatrix(
            [[self.bits[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __repr__(self) -> str:
        body = "; ".join("".join(str(b) for b in row) for row in self.bits)
        return f"BooleanMatrix({self.rows}x{self.cols} [{body}])"


def boolean_product(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    """Matrix product with + as OR and * as AND (1 iff ordinary entry > 0)."""
    if a.cols != b.rows:
        raise DimensionError(f"boolean_product: {a.cols} vs {b.rows}")
    _check_size(a.rows, b.cols)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            row.append(1 if any(a.bits[i][k] and b.bits[k][j] for k in range(a.cols)) else 0)
        out.append(row)
    return BooleanMatrix(out)


def boolean_power(a: BooleanMatrix, k: int) -> BooleanMatrix:
    if a.rows != a.cols:
        raise DimensionError("boolean_power needs a square matrix")
    check_int(k, "boolean_power k", 0)
    out = BooleanMatrix.identity(a.rows)
    for _ in range(k):
        out = boolean_product(out, a)
    return out


# ---------------------------------------------------------------------------
# Gaussian elimination: rank, column spaces, subspace lattice
# ---------------------------------------------------------------------------

def _primitive(row):
    """Exact row scaled to coprime ints: times the lcm of its denominators,
    then divided by the gcd of its entries (its content)."""
    try:
        g = math.gcd(*row)
    except TypeError:  # a Fraction; products of rational entries give integral ones too
        d = math.lcm(*(v.denominator for v in row))
        row = [v.numerator * (d // v.denominator) for v in row]
        g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _echelon(rows, tol) -> tuple:
    """Gauss-Jordan rows spanning a sequence of rows, sorted by pivot
    column; their count is the rank. Exact (tol None), fraction-free: each
    row, cleared of denominators, is reduced forward against the kept rows
    in pivot order by integer cross-multiplication, dropped if it
    vanishes, and kept primitive at its pivot column. At full column rank
    the span is everything, and the identity's rows are returned at once;
    otherwise one back-substitution clears each pivot column from the rows
    above it. Each row is then a primitive int multiple of a row of the
    unique reduced row echelon form (divided by its pivot, it is that
    row). Float: partial pivoting on magnitude, each pivot row divided by
    its pivot (so every pivot is 1.0), |v| <= tol counting as zero; a
    column with no pivot is zeroed in the rows not yet pivoted, so every
    row is 0.0 before its pivot.
    """
    ncols = len(rows[0]) if rows else 0
    if tol is None:
        kept = []  # (pivot column, row), by pivot column; each row is 0 before its pivot
        for row in rows:
            row = _primitive(row)
            for c, k in kept:
                f = row[c]
                if f:
                    p = k[c]
                    row = [p * x - f * y for x, y in zip(row, k)]
            c = next((j for j, x in enumerate(row) if x), None)
            if c is None:
                continue
            if len(kept) + 1 == ncols:
                return tuple(tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols))
            bisect.insort(kept, (c, _primitive(row)))
        for i in range(len(kept) - 1, 0, -1):
            c, row = kept[i]
            p = row[c]
            for j, (cj, k) in enumerate(kept[:i]):
                f = k[c]
                if f:
                    kept[j] = cj, _primitive([p * x - f * y for x, y in zip(k, row)])
        return tuple(tuple(row) for _, row in kept)
    grid = [list(row) for row in rows]
    nrows, r = len(grid), 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = max(range(r, nrows), key=lambda i: abs(grid[i][c]))
        if abs(grid[pivot_row][c]) <= tol:
            # zeroed now: a later division by a small pivot could lift
            # these entries above the tolerance
            for i in range(r, nrows):
                grid[i][c] = 0.0
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pv = grid[r][c]
        grid[r] = [v / pv for v in grid[r]]
        for i in range(nrows):
            if i != r and abs(grid[i][c]) > tol:
                f = grid[i][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        grid = [[0.0 if abs(v) <= tol else v for v in row] for row in grid]
        r += 1
    return tuple(tuple(row) for row in grid[:r])


def _contains(rows, tol, vectors) -> bool:
    """Whether every vector lies in the span of Gauss-Jordan rows (see
    _echelon), read off the rows in one pass down each vector v: row j has
    pivot e_j at column p_j, so v lies in the span iff s v = sum_j v[p_j]
    (s / e_j) row_j, s the lcm of the pivots. In float mode every pivot is
    1.0, s is 1, and a residual of magnitude <= tol counts as zero.
    """
    exact = tol is None
    scale = math.lcm(*(next(filter(None, row)) for row in rows)) if exact else 1
    for v in vectors:
        weights = []
        for c, x in enumerate(v):
            if len(weights) < len(rows):
                e = rows[len(weights)][c]
                if e if exact else e == 1:
                    weights.append(x * (scale // e) if exact else x)
                    continue
            residual = x * scale - sum(row[c] * w for row, w in zip(rows, weights))
            if residual if exact else abs(residual) > tol:
                return False
    return True


def rank(m: Matrix) -> int:
    return len(_echelon(m.entries, m.mode.tol))


class Subspace(Record):
    """Linear subspace of R^ambient, stored as its basis alone, in reduced
    column echelon form; ambient and mode are read from the basis.

    The canonical basis makes equality checks deterministic: two subspaces
    are equal iff their basis matrices are equal, exactly (see Matrix);
    within a tolerance, two subspaces agree iff each contains the other
    (subspace_contains). Containment is read off the basis without
    elimination (see _contains).
    """

    __slots__ = ("basis",)

    @property
    def ambient(self) -> int:
        return self.basis.rows

    @property
    def mode(self) -> Numeric:
        return self.basis.mode

    @property
    def rank(self) -> int:
        return self.basis.cols

    def contains_vector(self, v: Matrix) -> bool:
        """Whether every column of v (a vector, or any matrix) lies in the subspace."""
        if v.rows != self.ambient:
            raise DimensionError(f"contains: ambient {self.ambient} vs {v.rows} rows")
        return _contains(tuple(zip(*self.basis.entries)), _join((self.mode, v.mode)).tol, zip(*v.entries))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.rank} in R^{self.ambient})"


def _span(rows, ambient: int, mode: Numeric) -> Subspace:
    """The Subspace that Gauss-Jordan rows (see _echelon) span in R^ambient;
    each exact row divided by its pivot gives the canonical basis."""
    if not rows:
        return Subspace(Matrix.zeros(ambient, 0, mode))
    if mode.tol is None:
        rows = [[Fraction(v, next(filter(None, row))) for v in row] for row in rows]
    return Subspace(Matrix(tuple(zip(*rows)), mode))


def column_space(m: Matrix) -> Subspace:
    """Column space as a Subspace with canonical echelon basis."""
    return _span(_echelon(tuple(zip(*m.entries)), m.mode.tol), m.rows, m.mode)


def subspace_sum(*spaces: Subspace) -> Subspace:
    return column_space(hstack([s.basis for s in spaces]))


def subspace_contains(big: Subspace, small: Subspace) -> bool:
    return big.contains_vector(small.basis)


def subspace_is_full(s: Subspace, n: int) -> bool:
    return s.rank == n
