"""Core algebra tests: products, structural matrices, elimination.

Derived expectations are checked against independent oracle routines
defined at the top of this file (definitional loops, determinant
minors) rather than against the implementation under test.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slsnet import algebra
from slsnet.algebra import (
    BooleanMatrix,
    DimensionError,
    LogicalMatrix,
    Matrix,
    Numeric,
    SizingError,
    Subspace,
    _echelon,
    basis_vector,
    boolean_power,
    boolean_product,
    column_space,
    hstack,
    khatri_rao,
    kronecker,
    power_reducing_matrix,
    rank,
    stp,
    stp_all,
    subspace_contains,
    subspace_is_full,
    subspace_sum,
    swap_matrix,
    vstack,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def kron_oracle(a, b):
    """Entrywise Kronecker definition on plain nested lists."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[Fraction(0)] * (ca * cb) for _ in range(ra * rb)]
    for i1 in range(ra):
        for j1 in range(ca):
            for i2 in range(rb):
                for j2 in range(cb):
                    out[i1 * rb + i2][j1 * cb + j2] = Fraction(a[i1][j1]) * Fraction(b[i2][j2])
    return out


def matmul_oracle(a, b):
    return [
        [sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b)))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def stp_oracle(a, b):
    """Direct lcm-padded product on nested lists, independent of Matrix."""
    ca, rb = len(a[0]), len(b)
    t = math.lcm(ca, rb)
    eye = lambda k: [[Fraction(i == j) for j in range(k)] for i in range(k)]
    return matmul_oracle(kron_oracle(a, eye(t // ca)), kron_oracle(b, eye(t // rb)))


def rank_oracle(a):
    """Largest nonsingular square minor, by exhaustive determinant search."""
    rows, cols = len(a), len(a[0])

    def det(idx_r, idx_c):
        if len(idx_r) == 1:
            return Fraction(a[idx_r[0]][idx_c[0]])
        total = Fraction(0)
        for pos, c in enumerate(idx_c):
            sub = det(idx_r[1:], idx_c[:pos] + idx_c[pos + 1:])
            total += (-1) ** pos * Fraction(a[idx_r[0]][c]) * sub
        return total

    for size in range(min(rows, cols), 0, -1):
        for idx_r in itertools.combinations(range(rows), size):
            for idx_c in itertools.combinations(range(cols), size):
                if det(idx_r, idx_c) != 0:
                    return size
    return 0


def fraction_rref(rows):
    """Rational Gauss-Jordan on Fraction entries: first nonzero pivot,
    pivot row divided at once. Returns (rows, pivot column list)."""
    grid = [[Fraction(v) for v in row] for row in rows]
    nrows, ncols = len(grid), len(grid[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if grid[i][c] != 0), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pv = grid[r][c]
        grid[r] = [v / pv for v in grid[r]]
        for i in range(nrows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    return grid, pivots


def reference_basis(rows):
    """Column-space basis from fraction_rref of the transpose, as rows of
    the basis matrix."""
    grid, pivots = fraction_rref([list(col) for col in zip(*rows)])
    return [list(row) for row in zip(*grid[: len(pivots)])]


def reference_rank(rows):
    return len(fraction_rref(rows)[1])


def as_lists(m):
    return [list(row) for row in m.entries]


small_entry = st.integers(min_value=-4, max_value=4)


def matrix_strategy(max_dim=4, entry=small_entry, mode="exact"):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda entries: Matrix(entries, mode))
        )
    )


# ---------------------------------------------------------------------------
# Kronecker / Khatri-Rao
# ---------------------------------------------------------------------------

def test_kronecker_identities():
    assert kronecker(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)
    assert kronecker(basis_vector(2, 2), basis_vector(3, 1)) == basis_vector(6, 4)


@given(matrix_strategy(3), matrix_strategy(3))
@settings(max_examples=60, deadline=None)
def test_kronecker_matches_entrywise_oracle(a, b):
    assert as_lists(kronecker(a, b)) == kron_oracle(as_lists(a), as_lists(b))


def test_khatri_rao_basic():
    assert khatri_rao(
        LogicalMatrix(2, [1, 2]).dense(), LogicalMatrix(2, [1, 2]).dense()
    ) == LogicalMatrix(4, [1, 4]).dense()
    assert khatri_rao(Matrix.identity(2), Matrix.identity(2)) == LogicalMatrix(4, [1, 4]).dense()


@given(matrix_strategy(3), matrix_strategy(3))
@settings(max_examples=40, deadline=None)
def test_khatri_rao_columnwise_oracle(a, b):
    if a.cols != b.cols:
        with pytest.raises(DimensionError):
            khatri_rao(a, b)
        return
    got = khatri_rao(a, b)
    for j in range(a.cols):
        col_a = Matrix.column(a.col(j))
        col_b = Matrix.column(b.col(j))
        assert got.col(j) == kronecker(col_a, col_b).col(0)


# ---------------------------------------------------------------------------
# Semi-tensor product
# ---------------------------------------------------------------------------

def test_stp_identity_and_stacking():
    assert stp(Matrix.identity(3), Matrix.identity(3)) == Matrix.identity(3)
    # basis stacking delta_2^1 stp delta_2^2 = delta_4^2
    assert stp(basis_vector(2, 1), basis_vector(2, 2)) == basis_vector(4, 2)


def test_stp_2x2_with_4x4_shape_and_value():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[(i * 4 + j) % 5 - 2 for j in range(4)] for i in range(4)])
    got = stp(a, b)
    assert got.shape == (4, 4)
    assert as_lists(got) == matmul_oracle(kron_oracle(as_lists(a), [[1, 0], [0, 1]]), as_lists(b))


@given(matrix_strategy(3), matrix_strategy(3))
@settings(max_examples=60, deadline=None)
def test_stp_matches_padding_oracle(a, b):
    assert as_lists(stp(a, b)) == stp_oracle(as_lists(a), as_lists(b))


@given(matrix_strategy(3), matrix_strategy(3), matrix_strategy(3))
@settings(max_examples=40, deadline=None)
def test_stp_associative(a, b, c):
    assert stp(stp(a, b), c) == stp(a, stp(b, c))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_stp_degenerates_to_ordinary_product(r, inner, c):
    a = Matrix([[(i + 2 * j) % 3 - 1 for j in range(inner)] for i in range(r)])
    b = Matrix([[(3 * i - j) % 4 - 2 for j in range(c)] for i in range(inner)])
    assert as_lists(stp(a, b)) == matmul_oracle(as_lists(a), as_lists(b))


def test_basis_stacking_exhaustive():
    for m in range(1, 6):
        for n in range(1, 6):
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    got = stp(basis_vector(m, i), basis_vector(n, j))
                    assert got == basis_vector(m * n, (i - 1) * n + j)


def test_stp_all_left_associates():
    mats = [Matrix([[1, 2]]), Matrix([[1], [2], [3], [4]]), Matrix([[2]])]
    assert stp_all(mats) == stp(stp(mats[0], mats[1]), mats[2])


def test_sizing_cap():
    wide = Matrix([[1] * 4000])
    with pytest.raises(SizingError):
        kronecker(wide, wide.transpose())


def test_sizing_cap_before_allocation(monkeypatch):
    monkeypatch.setattr(algebra, "SIZE_CAP", 10)
    built = []
    identity = Matrix.identity
    monkeypatch.setattr(
        Matrix, "identity", staticmethod(lambda *args: built.append(args) or identity(*args))
    )
    # the padded left factor would be 4x4: refused before I_4 is built
    with pytest.raises(SizingError):
        stp(Matrix([[1]]), Matrix.zeros(4, 1))
    assert built == []
    for oversized in (lambda: identity(4), lambda: Matrix.zeros(2, 6),
                      lambda: LogicalMatrix(4, [1, 2, 3, 4]).dense(),
                      lambda: LogicalMatrix(4, [1, 2, 3, 4]).boolean(),
                      lambda: BooleanMatrix.identity(4),
                      lambda: boolean_product(BooleanMatrix([[1]] * 4), BooleanMatrix([[1] * 4]))):
        with pytest.raises(SizingError):
            oversized()


def test_stp_refuses_empty_inner_dimension():
    with pytest.raises(DimensionError, match="empty inner dimension"):
        stp(Matrix([[]]), Matrix([[1], [2]]))


# ---------------------------------------------------------------------------
# Swap and power-reducing matrices
# ---------------------------------------------------------------------------

def test_swap_matrix_degenerate_and_small():
    assert swap_matrix(1, 3) == LogicalMatrix.identity(3)
    # solved by enumerating all basis pairs: the unique matrix with
    # W (x stp y) = y stp x for x, y in Delta_2
    assert swap_matrix(2, 2) == LogicalMatrix(4, [1, 3, 2, 4])


def test_swap_identity_exhaustive():
    for m in range(1, 5):
        for n in range(1, 5):
            w = swap_matrix(m, n).dense()
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    x, y = basis_vector(m, i), basis_vector(n, j)
                    assert stp(w, stp(x, y)) == stp(y, x)


def test_power_reducing_matrix():
    assert power_reducing_matrix(1) == LogicalMatrix(1, [1])
    assert power_reducing_matrix(2) == LogicalMatrix(4, [1, 4])
    for n in range(1, 9):
        pr = power_reducing_matrix(n).dense()
        for i in range(1, n + 1):
            x = basis_vector(n, i)
            assert pr @ x == stp(x, x)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Matrix([]), "matrix needs at least one row"),
        (lambda: Matrix([[1, 2], [3]]), "ragged rows in matrix literal"),
        (lambda: Matrix([[1, 2]]) + Matrix([[1], [2]]), r"add: \(1, 2\) vs \(2, 1\)"),
        (lambda: Matrix([[1, 2]]) - Matrix([[1], [2]]), r"sub: \(1, 2\) vs \(2, 1\)"),
        (lambda: Matrix([[1, 2]]) @ Matrix([[1, 2]]), r"matmul: \(1, 2\) vs \(1, 2\)"),
        (lambda: Matrix([[]]).transpose(), "cannot transpose a zero-column matrix"),
        (lambda: hstack([]), "hstack of nothing"),
        (lambda: vstack([]), "vstack of nothing"),
        (lambda: stp_all([]), "stp_all of nothing"),
    ],
    ids=["no-rows", "ragged", "add", "sub", "matmul", "transpose", "hstack", "vstack", "stp_all"],
)
def test_matrix_validation(call, message):
    with pytest.raises(DimensionError, match=message):
        call()


# ---------------------------------------------------------------------------
# Logical matrices
# ---------------------------------------------------------------------------

def test_logical_matrix_compose():
    lm = LogicalMatrix(4, [1, 1, 2, 4, 4, 4, 3, 3])
    other = LogicalMatrix(8, [3, 5, 1, 8])
    assert lm.compose(other).dense() == lm.dense() @ other.dense()


def test_logical_khatri_rao_matches_dense():
    a = LogicalMatrix(2, [2, 1, 2])
    b = LogicalMatrix(3, [1, 3, 2])
    assert a.khatri_rao(b).dense() == khatri_rao(a.dense(), b.dense())


def test_logical_matrix_validation():
    with pytest.raises(DimensionError):
        LogicalMatrix(2, [1, 3])
    with pytest.raises(DimensionError, match="compose: 2 vs 3"):
        LogicalMatrix(2, [1, 2]).compose(LogicalMatrix(3, [1, 2]))
    with pytest.raises(DimensionError, match="khatri_rao: column counts differ"):
        LogicalMatrix(2, [1, 2]).khatri_rao(LogicalMatrix(2, [1, 2, 1]))


# ---------------------------------------------------------------------------
# Boolean matrices
# ---------------------------------------------------------------------------

def test_boolean_product_basic():
    x = BooleanMatrix([[1, 0, 1], [0, 1, 1]])
    assert boolean_product(BooleanMatrix.identity(2), x) == x
    ones_row = BooleanMatrix([[1, 1]])
    ones_col = BooleanMatrix([[1], [1]])
    assert boolean_product(ones_row, ones_col) == BooleanMatrix([[1]])


@given(
    st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=4, max_size=4),
    st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_boolean_product_is_sign_of_integer_product(abits, bbits):
    a, b = BooleanMatrix(abits), BooleanMatrix(bbits)
    plain = matmul_oracle(abits, bbits)
    expect = BooleanMatrix([[1 if v > 0 else 0 for v in row] for row in plain])
    assert boolean_product(a, b) == expect


def test_boolean_power_walks():
    step = BooleanMatrix([[0, 1], [1, 0]])
    assert boolean_power(step, 0) == BooleanMatrix.identity(2)
    assert boolean_power(step, 2) == BooleanMatrix.identity(2)
    assert boolean_power(step, 3) == step


def test_boolean_validation():
    # an entry other than 0 or 1 is refused, not truncated or parsed to one
    for bad in (2, 1.5, 0.5, "1"):
        with pytest.raises(DimensionError):
            BooleanMatrix([[bad, 0]])
    with pytest.raises(DimensionError):
        boolean_product(BooleanMatrix([[1, 0]]), BooleanMatrix([[1, 0]]))
    for bits in ([], [[]]):
        with pytest.raises(DimensionError, match="boolean matrix needs at least one entry"):
            BooleanMatrix(bits)
    with pytest.raises(DimensionError, match="ragged rows in boolean matrix"):
        BooleanMatrix([[1, 0], [1]])
    with pytest.raises(DimensionError, match="boolean_power needs a square matrix"):
        boolean_power(BooleanMatrix([[1, 0]]), 2)


# ---------------------------------------------------------------------------
# Elimination, column spaces, subspaces
# ---------------------------------------------------------------------------

def test_column_space_basics():
    full = column_space(Matrix.identity(3))
    assert full.rank == 3
    assert subspace_is_full(full, 3)
    assert column_space(Matrix.zeros(3, 2)).rank == 0
    assert column_space(Matrix([[1, 2], [2, 4], [0, 1]])).rank == 2


@given(matrix_strategy(4))
@settings(max_examples=60, deadline=None)
def test_rank_matches_minor_oracle(m):
    assert rank(m) == rank_oracle(as_lists(m))


def test_subspace_canonical_equality():
    s1 = column_space(Matrix([[1, 0], [0, 1], [0, 0]]))
    s2 = column_space(Matrix([[2, 3], [1, 1], [0, 0]]))
    assert s1 == s2
    assert s1.basis == s2.basis


def test_subspace_contains():
    e1 = column_space(Matrix([[1], [0]]))
    e2 = column_space(Matrix([[0], [1]]))
    both = subspace_sum(e1, e2)
    assert subspace_is_full(both, 2)
    mixed = column_space(Matrix([[1], [1]]))
    assert subspace_contains(both, mixed)
    assert not subspace_contains(e1, e2)
    assert subspace_contains(e1, column_space(Matrix.zeros(2, 1)))
    # the empty subspace needs no shortcut: rank [basis | V] == 0 iff V == 0
    empty = Subspace(Matrix.zeros(2, 0))
    assert (empty.ambient, empty.rank, empty.mode) == (2, 0, Numeric())
    assert subspace_contains(empty, empty) and subspace_contains(e1, empty)
    assert not subspace_contains(empty, e1)
    assert empty.contains_vector(Matrix.zeros(2, 3))
    line = column_space(Matrix([[1], [0], [0]]))
    for call in (
        lambda: subspace_contains(e1, line),
        lambda: subspace_sum(e1, line),
        lambda: e1.contains_vector(Matrix.column([1, 0, 0])),
    ):
        with pytest.raises(DimensionError):
            call()


@given(matrix_strategy(4), matrix_strategy(4))
@settings(max_examples=40, deadline=None)
def test_subspace_sum_rank_bounds(a, b):
    if a.rows != b.rows:
        return
    sa, sb = column_space(a), column_space(b)
    total = subspace_sum(sa, sb)
    assert max(sa.rank, sb.rank) <= total.rank <= sa.rank + sb.rank
    assert subspace_contains(total, sa) and subspace_contains(total, sb)


def test_vector_membership():
    plane = column_space(Matrix([[1, 0], [0, 1], [0, 0]]))
    assert plane.contains_vector(Matrix.column([3, -2, 0]))
    assert not plane.contains_vector(Matrix.column([0, 0, 1]))
    # off the pivot rows, v must equal the basis weighted by v's pivot entries
    tilted = column_space(Matrix([[2, 0], [0, 1], [4, 3]]))
    assert tilted.contains_vector(Matrix([[1, 2], [1, 0], [5, 4]]))
    assert not tilted.contains_vector(Matrix([[1, 2], [1, 0], [5, 3]]))
    # a float residual counts as zero within the context's tolerance
    flat = column_space(Matrix([[1, 0], [0, 1], [0, 0]], "float"))
    assert flat.contains_vector(Matrix.column([3, -2, 1e-12], "float"))
    assert not flat.contains_vector(Matrix.column([3, -2, 1e-6], "float"))


# a nudge smaller than the float tolerance (1e-9); two nudges can differ by more
sub_tolerance_nudge = st.sampled_from([0.0, 0.4e-9, -0.6e-9, 0.9e-9])


@st.composite
def near_matrices(draw):
    """Matrices of one shape from one grid of small values: exact, rational
    and float copies, one under a second tolerance, and float copies
    nudged by less than the tolerance."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    grid = draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    out = [Matrix(grid), Matrix([[Fraction(v, 2) for v in row] for row in grid]),
           Matrix(grid, "float"), Matrix(grid, Numeric(1e-3))]
    for _ in range(draw(st.integers(1, 3))):
        out.append(Matrix([[v + draw(sub_tolerance_nudge) for v in row] for row in grid], "float"))
    return out


# float matrices close pairwise, not all three (closeness is not transitive)
CLOSE_CHAIN = [Matrix([[1.0 + d]], "float") for d in (0.0, 0.6e-9, 1.2e-9)]
# one value in three contexts
THREE_CONTEXTS = [Matrix([[1.0]], Numeric(1e-3)), Matrix([[1]]), Matrix([[1.0]], "float")]


@settings(max_examples=40, deadline=None)
@given(near_matrices())
@example(CLOSE_CHAIN)
@example(THREE_CONTEXTS)
def test_equal_matrices_and_subspaces_hash_equal(mats):
    # equality is an equivalence relation that agrees with the hash, so a
    # set keeps one object per value, whatever the order of insertion
    assert len(set(mats)) == len({(m.mode, m.entries) for m in mats})
    for objs in (mats, [column_space(m) for m in mats]):
        for a, b in itertools.product(objs, repeat=2):
            assert a != b or hash(a) == hash(b)
        for triple in itertools.product(objs, repeat=3):
            a, b, c = triple
            assert a == c or not (a == b and b == c)
            assert len({len(set(order)) for order in itertools.permutations(triple)}) == 1


def test_float_mode_pivot_tolerance():
    almost_singular = Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-12]], mode="float")
    assert rank(almost_singular) == 1
    clearly_regular = Matrix([[1.0, 1.0], [1.0, 2.0]], mode="float")
    assert rank(clearly_regular) == 2
    # the rank flips where the perturbation crosses the tolerance (1e-9);
    # exact copies of the same doubles see every perturbation
    for delta, float_rank in ((0.5e-9, 1), (2e-9, 2)):
        entries = [[1.0, 1.0], [1.0, 1.0 + delta]]
        assert rank(Matrix(entries, "float")) == float_rank
        exact = Matrix(entries)
        assert type(exact[1, 1]) is Fraction
        assert rank(exact) == column_space(exact).rank == 2


def test_float_tolerance_is_the_matrix_own():
    entries = [[1.0, 1.0], [1.0, 1.0001]]
    loose, tight = Numeric(0.01), Numeric(1e-9)
    assert rank(Matrix(entries, loose)) == 1
    assert rank(Matrix(entries, tight)) == 2
    assert rank(Matrix(entries, "float")) == 2
    assert Matrix(entries, "float").mode == tight
    space = column_space(Matrix(entries, loose))
    assert (space.rank, space.mode, space.basis.mode) == (1, loose, loose)
    assert (Matrix([[1.0]], loose) - Matrix([[1.005]], loose)).is_zero()
    assert not (Matrix([[1.0]], tight) - Matrix([[1.005]], tight)).is_zero()
    x, y, z = CLOSE_CHAIN
    assert (x - y).is_zero() and (y - z).is_zero() and not (x - z).is_zero()


def test_numeric_join_rule():
    loose, tight = Numeric(0.01), Numeric(1e-6)
    exact = Matrix([[1, 2], [3, 4]])
    a, b = Matrix(exact.entries, loose), Matrix(exact.entries, tight)
    # float beats exact, whichever side it is on
    for mixed in (exact @ a, a @ exact, exact + a, hstack([exact, a]), vstack([a, exact])):
        assert mixed.mode == loose
    assert (exact - a).is_zero() and exact != a and (exact @ exact).mode == Numeric()
    # two different float tolerances are refused, not silently resolved
    for mix in (lambda: a @ b, lambda: a + b, lambda: a - b, lambda: hstack([exact, a, b]),
                lambda: vstack([b, a]), lambda: kronecker(a, b)):
        with pytest.raises(ValueError, match="cannot mix float tolerances"):
            mix()


def test_different_float_tolerances_compare_unequal():
    a, b = Matrix([[1.0]], Numeric(1e-3)), Matrix([[1.0]], "float")
    assert not a == b and a != b
    assert len({a, b}) == 2
    assert column_space(a) != column_space(b) and len({column_space(a), column_space(b)}) == 2
    assert (a - Matrix([[1]])).is_zero() and (Matrix([[1]]) - b).is_zero()


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_numeric_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        Numeric(tol)


def test_unknown_numeric_mode():
    with pytest.raises(ValueError, match="unknown numeric mode"):
        Matrix([[1]], "decimal")


def test_exact_mode_sees_tiny_pivots():
    tiny = Matrix([[1, 1], [1, Fraction(1) + Fraction(1, 10**15)]])
    assert rank(tiny) == 2


def _is_exact_entry(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@st.composite
def rational_matrices(draw, rows=None):
    """Integer or rational matrices, entries p/q with |p| <= 6 and q in
    1..4, up to 6x8, with some rows and columns forced to zero."""
    r = rows if rows is not None else draw(st.integers(1, 6))
    c = draw(st.integers(1, 8))
    q_max = draw(st.sampled_from([1, 4]))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, q_max))
    grid = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, r - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(grid)]


@st.composite
def full_column_rank_matrices(draw):
    """Rational matrices of full column rank, up to 9x4 and at least as
    tall as wide: the rows of a unit lower times a nonsingular upper
    triangular matrix, with up to 5 further rows, in a drawn order."""
    c = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    nonzero = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4))
    lower = [[1 if i == j else draw(entry) if i > j else 0 for j in range(c)] for i in range(c)]
    upper = [[draw(nonzero) if i == j else draw(entry) if i < j else 0 for j in range(c)] for i in range(c)]
    square = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)] for row in lower]
    extra = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=5))
    return draw(st.permutations(square + extra))


@given(st.one_of(rational_matrices(), full_column_rank_matrices()), st.data())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_fraction_reference(rows, data):
    # the raw rows hold integral Fractions too, as products of rational
    # entries do: each echelon row is a primitive int row, pivots strictly
    # increase, and each row is a multiple of the reference's reduced row;
    # at full column rank the rows are exactly the identity's, and any row
    # order gives the same rows up to sign
    a = Matrix(rows)
    echelon = _echelon(rows, None)
    ref_grid, ref_pivots = fraction_rref(rows)
    pivots = [next(j for j, v in enumerate(row) if v) for row in echelon]
    assert pivots == ref_pivots and pivots == sorted(set(pivots))
    for row, c, ref in zip(echelon, pivots, ref_grid):
        assert all(type(v) is int for v in row) and math.gcd(*row) == 1
        assert [Fraction(v, row[c]) for v in row] == ref
    width = len(rows[0])
    if len(ref_pivots) == width:
        assert echelon == tuple(tuple(int(i == j) for j in range(width)) for i in range(width))
    shuffled = _echelon(data.draw(st.permutations(rows)), None)
    assert len(shuffled) == len(echelon)
    for row, other in zip(echelon, shuffled):
        assert other in (row, tuple(-v for v in row))
    assert rank(a) == len(ref_pivots)
    space = column_space(a)
    if ref_pivots:
        assert as_lists(space.basis) == reference_basis(rows)
    else:
        assert space.rank == 0
    assert all(_is_exact_entry(v) for row in space.basis.entries for v in row)
    # containment and membership against ranks of the reference
    other = data.draw(rational_matrices(rows=len(rows)))
    small = column_space(Matrix(other))
    joined = [list(x) + list(y) for x, y in zip(rows, other)]
    expected = reference_rank(joined) == len(ref_pivots)
    assert subspace_contains(space, small) == expected
    col = data.draw(st.integers(0, len(other[0]) - 1))
    vector = [[row[col]] for row in other]
    in_span = reference_rank([x + v for x, v in zip(rows, vector)]) == len(ref_pivots)
    assert space.contains_vector(Matrix(vector)) == in_span


@given(rational_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_column_space_invariant_under_invertible_column_operations(rows, data):
    # U = lower unit triangular times upper triangular with a nonzero
    # diagonal, so it is invertible and A U spans the same columns
    c = len(rows[0])
    ints = st.integers(-3, 3)
    lower = [[1 if i == j else data.draw(ints) if i > j else 0 for j in range(c)] for i in range(c)]
    upper = [[data.draw(st.sampled_from([-2, -1, 1, 2])) if i == j else data.draw(ints) if i < j else 0
              for j in range(c)] for i in range(c)]
    u = Matrix(lower) @ Matrix(upper)
    a = Matrix(rows)
    assert column_space(a).basis.entries == column_space(a @ u).basis.entries


def test_integral_entries_are_ints():
    assert type(Matrix([[Fraction(4, 2)]]).entries[0][0]) is int
    mixed = Matrix([[Fraction(1, 3), 2.0, True, Fraction(-6, 3)]])
    assert mixed.entries == ((Fraction(1, 3), 2, 1, -2),)
    assert [type(v) for v in mixed.entries[0]] == [Fraction, int, int, int]
    a = Matrix([[1, -2, 0], [3, 4, 5]])
    b = Matrix([[2, 1], [0, -1], [1, 1]])
    for m in (a @ b, b @ a, a.transpose(), hstack([a, a]), vstack([a, a]),
              hstack([Matrix.zeros(2, 0), a]), kronecker(a, b), a + a):
        assert all(type(v) is int for row in m.entries for v in row), m
    # a Fraction product that comes out integral is stored as an int
    halves = Matrix([[Fraction(1, 2)], [Fraction(3, 2)]])
    product = Matrix([[2, 2]]) @ halves
    assert product.entries == ((4,),) and type(product.entries[0][0]) is int
    assert Matrix([[1, 1]]) @ halves == Matrix([[2]])
    assert (Matrix([[1, 0]]) @ halves).entries == ((Fraction(1, 2),),)


def test_fast_paths_equal_converting_constructor():
    # a transpose and a column-space basis, built from entries already in
    # exact form, must equal the converting constructor given a literal
    a = Matrix([[1, Fraction(1, 2)], [0, -3], [3, 1]])
    for built, literal in (
        (a.transpose(), [[1, 0, 3], [Fraction(1, 2), -3, 1]]),
        (column_space(a).basis, reference_basis(as_lists(a))),
    ):
        expected = Matrix(literal)
        assert built.entries == expected.entries
        assert [type(v) for row in built.entries for v in row] == \
            [type(v) for row in expected.entries for v in row]
        assert built.mode == expected.mode == Numeric()


def test_float_column_spaces_near_tolerance():
    tol = 1e-9
    base = [[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]]
    nudged = [[1.0, 2.0 + 0.4 * tol], [2.0, 4.0], [0.0, 1.0 - 0.4 * tol]]
    a, b = Matrix(base, "float"), Matrix(nudged, "float")
    assert not (a - Matrix([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0 + 3 * tol]], "float")).is_zero()
    assert (a - b).is_zero()
    space_a, space_b = column_space(a), column_space(b)
    assert (space_a.basis - space_b.basis).is_zero()
    assert subspace_contains(space_a, space_b) and subspace_contains(space_b, space_a)
    # exact copies of the same doubles span two different planes
    exact_a, exact_b = column_space(Matrix(a.entries)), column_space(Matrix(b.entries))
    assert exact_a.rank == exact_b.rank == 2 and exact_a != exact_b


def test_float_membership_reads_pivots_not_sub_tolerance_leads():
    # the first coordinate is below tolerance, so the one pivot is the
    # second: e2 lies in the line
    line = column_space(Matrix([[5e-10], [1.5e-9], [0.0]], "float"))
    assert line.rank == 1 and line.basis[1, 0] == 1.0
    assert line.contains_vector(Matrix([[0.0], [1.0], [0.0]], "float"))


def test_float_skipped_column_stays_zero():
    # the skipped first column is zeroed before the division by the small
    # second pivot, which would lift 5e-10 to 1/3; the line then contains
    # its own basis
    line = column_space(Matrix([[5e-10], [1.5e-9], [0.0]], "float"))
    assert line.basis.entries == ((0.0,), (1.0,), (0.0,))
    assert subspace_contains(line, line)
    assert line.contains_vector(line.basis)
    # a skipped column between two pivots, below tolerance only in the
    # rows left after the first pivot
    plane = column_space(Matrix([[1.0, 0.0], [2.0, 4e-10], [0.0, 1.2e-9]], "float"))
    assert plane.rank == 2 and subspace_contains(plane, plane)


# entries near the tolerance (1e-9) make columns with no pivot
near_tolerance_entry = st.one_of(
    st.floats(-4, 4), st.sampled_from([0.0, 1e-10, -5e-10, 9e-10, 1.1e-9, 3e-9, -2e-9])
)


@given(matrix_strategy(4, near_tolerance_entry, "float"))
@settings(max_examples=200, deadline=None)
def test_float_column_space_contains_its_basis(m):
    space = column_space(m)
    assert subspace_contains(space, space)


def test_stack_helpers():
    a = Matrix([[1], [2]])
    b = Matrix([[3], [4]])
    assert hstack([a, b]) == Matrix([[1, 3], [2, 4]])
    assert vstack([a, b]) == Matrix([[1], [2], [3], [4]])
    with pytest.raises(DimensionError):
        vstack([a, Matrix([[1, 2]])])
