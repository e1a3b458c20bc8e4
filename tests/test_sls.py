"""Mergence tests: block placement vs closed-form formula, stepping.

Merged systems hold only one G/H mode pair per signal value and place
every block through L and R. The closed-form semi-tensor product
construction lives here as the reference: the dense views built from
the pairs must equal it. The tests also check the golden block
layout, the block pattern identities, and step equivalence against
plain two-system simulation.
"""

import random

import pytest

from conftest import golden_net, golden_sls, random_net_for, random_system
from slsnet import algebra
from slsnet.algebra import (
    EXACT,
    FLOAT,
    DimensionError,
    LogicalMatrix,
    Matrix,
    Numeric,
    SizingError,
    hstack,
    kronecker,
    power_reducing_matrix,
    stp,
)
from slsnet.lcn import LogicalNetwork, encode_pair, input_state_matrix, step
from slsnet.sls import (
    SwitchedLinearSystem,
    merge,
    merge_dual,
    step_merged,
)


def closed_form(amats, bmats, net, numeric_mode):
    """L [I_MN (x) (stacked_modes stp R)] PowerReducing_MN, for G and H."""
    r_dense = net.R.dense(numeric_mode)
    l_dense = net.L.dense(numeric_mode)
    reducer = power_reducing_matrix(net.M * net.N).dense(numeric_mode)
    eye = Matrix.identity(net.M * net.N, numeric_mode)

    def build(mats):
        return stp(stp(l_dense, kronecker(eye, stp(hstack(mats), r_dense))), reducer)

    return build(amats), build(bmats)


def assert_matches_closed_form(sls, net):
    mode = sls.mode_flag
    modes = range(1, sls.q + 1)
    g, h = closed_form([sls.a(i) for i in modes], [sls.b(i) for i in modes], net, mode)
    ms = merge(sls, net)
    assert ms.flat_g == g
    assert ms.flat_h == h
    g, h = closed_form(
        [sls.a(i).transpose() for i in modes], [sls.c(i).transpose() for i in modes], net, mode
    )
    dual = merge_dual(sls, net)
    assert dual.flat_g == g
    assert dual.flat_h == h


def test_golden_g1_blocks():
    ms = merge(golden_sls(), golden_net())
    a1, a2 = ms.sls.a(1), ms.sls.a(2)
    zero = Matrix.zeros(3, 3)
    expected = {(1, 1): a2, (1, 2): a2, (2, 3): a1, (4, 4): a1}
    for alpha in range(1, 5):
        for beta in range(1, 5):
            want = expected.get((alpha, beta), zero)
            assert ms.g_block(1, alpha, beta) == want


def test_golden_g2_blocks():
    ms = merge(golden_sls(), golden_net())
    a1, a2 = ms.sls.a(1), ms.sls.a(2)
    zero = Matrix.zeros(3, 3)
    expected = {(3, 3): a2, (3, 4): a1, (4, 1): a1, (4, 2): a2}
    for alpha in range(1, 5):
        for beta in range(1, 5):
            want = expected.get((alpha, beta), zero)
            assert ms.g_block(2, alpha, beta) == want


def test_golden_h_block_follows_g_pattern():
    ms = merge(golden_sls(), golden_net())
    b1, b2 = ms.sls.b(1), ms.sls.b(2)
    assert ms.h_block(1, 1, 1) == b2
    assert ms.h_block(1, 2, 3) == b1
    assert ms.h_block(2, 4, 2) == b2
    assert ms.h_block(2, 2, 2) == Matrix.zeros(3, 1)


def test_degenerate_single_mode_merge():
    a = Matrix([[2, 1], [0, 1]])
    b = Matrix([[1], [1]])
    c = Matrix([[1, 0]])
    sls = SwitchedLinearSystem([(a, b, c)])
    net = LogicalNetwork(2, 0, 0, LogicalMatrix(1, [1]), LogicalMatrix(1, [1]))
    ms = merge(sls, net)
    assert ms.flat_g == a
    assert ms.flat_h == b
    dual = merge_dual(sls, net)
    assert dual.flat_g == a.transpose()
    assert dual.flat_h == c.transpose()
    assert_matches_closed_form(sls, net)


def test_flat_shapes():
    ms = merge(golden_sls(), golden_net())
    assert ms.flat_g.shape == (12, 24)
    assert ms.flat_h.shape == (12, 8)
    dual = merge_dual(golden_sls(), golden_net())
    assert dual.flat_g.shape == (12, 24)
    assert dual.flat_h.shape == (12, 8)
    assert_matches_closed_form(golden_sls(), golden_net())


def test_dense_views_are_refused_past_the_size_cap(monkeypatch):
    # the smallest view, h_slice, has 12 x 4 = 48 entries
    monkeypatch.setattr(algebra, "SIZE_CAP", 47)
    for ms in (merge(golden_sls(), golden_net()), merge_dual(golden_sls(), golden_net())):
        for view in (lambda: ms.flat_g, lambda: ms.flat_h, lambda: ms.g_slice(1), lambda: ms.h_slice(2)):
            with pytest.raises(SizingError):
                view()
        assert ms.g_block(1, 1, 1) == ms.modes[1][0]  # pair 1 moves to state 1 under mode 2
    with pytest.raises(SizingError, match="8x8"):
        input_state_matrix(golden_net())


def test_compressed_pattern_equals_l_blocks():
    ms = merge(golden_sls(), golden_net())
    dual = merge_dual(golden_sls(), golden_net())
    for gamma in (1, 2):
        want = ms.net.l_block(gamma).boolean()
        assert ms.compressed_pattern(gamma) == want
        assert dual.compressed_pattern(gamma) == want


def test_single_nonzero_block_per_column():
    rng = random.Random(11)
    for _ in range(10):
        sls = random_system(rng)
        net = random_net_for(rng, sls.q)
        ms = merge(sls, net)
        zero_g, zero_h = Matrix.zeros(sls.n, sls.n), Matrix.zeros(sls.n, sls.m)
        for gamma in range(1, net.M + 1):
            for beta in range(1, net.N + 1):
                col = encode_pair(gamma, beta, net.N)
                target, sigma = net.L.target(col), net.R.target(col)
                for alpha in range(1, net.N + 1):
                    placed = alpha == target
                    assert ms.g_block(gamma, alpha, beta) == (sls.a(sigma) if placed else zero_g)
                    assert ms.h_block(gamma, alpha, beta) == (sls.b(sigma) if placed else zero_h)
        assert_matches_closed_form(sls, net)


def test_merge_past_closed_form_size_cap():
    # M*N = 256: the closed form's power-reducing matrix alone would have
    # 256^3 entries; the block form holds one 1x1 block per column.
    rng = random.Random(5)
    sls = SwitchedLinearSystem([
        (Matrix([[2]]), Matrix([[1]]), Matrix([[1]])),
        (Matrix([[-3]]), Matrix([[0]]), Matrix([[2]])),
    ])
    net = LogicalNetwork(
        2, 6, 2,
        LogicalMatrix(64, [rng.randint(1, 64) for _ in range(256)]),
        LogicalMatrix(2, [rng.randint(1, 2) for _ in range(256)]),
    )
    assert (net.N, net.M) == (64, 4)
    ms, dual = merge(sls, net), merge_dual(sls, net)
    for gamma in range(1, net.M + 1):
        for beta in range(1, net.N + 1):
            col = encode_pair(gamma, beta, net.N)
            target, sigma = net.L.target(col), net.R.target(col)
            assert ms.g_block(gamma, target, beta) == sls.a(sigma)
            assert dual.g_block(gamma, target, beta) == sls.a(sigma).transpose()


def test_dual_blocks_are_transposes():
    ms = merge(golden_sls(), golden_net())
    dual = merge_dual(golden_sls(), golden_net())
    assert dual.g_block(1, 2, 3) == ms.sls.a(1).transpose()
    for gamma in (1, 2):
        for alpha in range(1, 5):
            for beta in range(1, 5):
                assert dual.g_block(gamma, alpha, beta) == ms.g_block(gamma, alpha, beta).transpose()


@pytest.mark.parametrize("merger", [merge, merge_dual])
@pytest.mark.parametrize(
    "access",
    [
        lambda ms: ms.g_block(0, 1, 1),
        lambda ms: ms.g_block(3, 1, 1),
        lambda ms: ms.g_block(1, 0, 1),
        lambda ms: ms.g_block(1, 5, 1),
        lambda ms: ms.g_block(1, 1, 0),
        lambda ms: ms.g_block(1, 1, 5),
        lambda ms: ms.g_block(1, 1.5, 1),
        lambda ms: ms.h_block(3, 1, 1),
        lambda ms: ms.h_block(1, 5, 1),
        lambda ms: ms.h_block(1, 1, 5),
        lambda ms: ms.g_slice(0),
        lambda ms: ms.g_slice(3),
        lambda ms: ms.h_slice(3),
        lambda ms: ms.compressed_pattern(0),
        lambda ms: ms.compressed_pattern(3),
    ],
    ids=[
        "g_block-gamma0", "g_block-gamma3", "g_block-alpha0", "g_block-alpha5",
        "g_block-beta0", "g_block-beta5", "g_block-alpha1.5", "h_block-gamma3",
        "h_block-alpha5", "h_block-beta5", "g_slice-0", "g_slice-3", "h_slice-3",
        "compressed_pattern-0", "compressed_pattern-3",
    ],
)
def test_block_access_refuses_out_of_range_indices(merger, access):
    # golden: M = 2, N = 4; such an index used to read as a zero block
    with pytest.raises(DimensionError):
        access(merger(golden_sls(), golden_net()))


def test_merge_rejects_mode_count_mismatch():
    sls = golden_sls()
    bad_net = LogicalNetwork(
        2, 2, 1, LogicalMatrix(4, [1, 1, 2, 4, 4, 4, 3, 3]),
        LogicalMatrix(3, [2, 2, 1, 1, 1, 3, 2, 1]),
    )
    with pytest.raises(DimensionError):
        merge(sls, bad_net)
    with pytest.raises(DimensionError):
        merge_dual(sls, bad_net)


def test_step_merged_zero_state_keeps_logical_state():
    ms = merge(golden_sls(), golden_net())
    zero_x = Matrix.zeros(3, 1)
    zero_u = Matrix.zeros(1, 1)
    for gamma in (1, 2):
        for theta in range(1, 5):
            theta_next, x_next = step_merged(ms, gamma, theta, zero_x, zero_u)
            assert x_next == zero_x
            assert theta_next == step(ms.net, gamma, theta)[0]


def test_step_merged_golden_value():
    ms = merge(golden_sls(), golden_net())
    x = Matrix.column([1, 0, 0])
    u = Matrix.zeros(1, 1)
    theta_next, x_next = step_merged(ms, 1, 1, x, u)
    assert theta_next == 1
    assert x_next == Matrix.column([-2, 0, 1])


def test_step_merged_matches_two_system_simulation():
    rng = random.Random(23)
    for _ in range(5):
        sls = random_system(rng)
        net = random_net_for(rng, sls.q, n_nodes=rng.choice([1, 2]),
                             m_nodes=rng.choice([0, 1]))
        ms = merge(sls, net)
        for _ in range(200):
            gamma = rng.randint(1, net.M)
            theta = rng.randint(1, net.N)
            x = Matrix.column([rng.randint(-3, 3) for _ in range(sls.n)])
            u = Matrix.column([rng.randint(-3, 3) for _ in range(sls.m)])
            theta_next, x_next = step_merged(ms, gamma, theta, x, u)
            want_theta, sigma = step(net, gamma, theta)
            assert theta_next == want_theta
            assert x_next == sls.apply(sigma, x, u)


def test_step_merged_dimension_errors():
    ms = merge(golden_sls(), golden_net())
    with pytest.raises(DimensionError):
        step_merged(ms, 1, 1, Matrix.zeros(2, 1), Matrix.zeros(1, 1))
    with pytest.raises(DimensionError):
        step_merged(ms, 1, 1, Matrix.zeros(3, 1), Matrix.zeros(2, 1))


def test_step_merged_dual_takes_p_wide_u():
    # m = 2 inputs, p = 1 output: the dual H-block C^T is 2x1, so the dual
    # step takes a 1x1 u and refuses a 2x1 one
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[1, 0], [0, 1]])
    c = Matrix([[3, -1]])
    sls = SwitchedLinearSystem([(a, b, c)])
    net = LogicalNetwork(2, 0, 0, LogicalMatrix(1, [1]), LogicalMatrix(1, [1]))
    x, u = Matrix.column([1, 2]), Matrix.column([5])
    theta_next, x_next = step_merged(merge_dual(sls, net), 1, 1, x, u)
    assert theta_next == 1
    assert x_next == a.transpose() @ x + c.transpose() @ u
    with pytest.raises(DimensionError):
        step_merged(merge_dual(sls, net), 1, 1, x, Matrix.column([1, 1]))
    with pytest.raises(DimensionError):
        step_merged(merge(sls, net), 1, 1, x, u)


def test_system_validation():
    a = Matrix([[1, 0], [0, 1]])
    b = Matrix([[1], [0]])
    c = Matrix([[1, 0]])
    with pytest.raises(DimensionError):
        SwitchedLinearSystem([])
    with pytest.raises(DimensionError):
        SwitchedLinearSystem([(a, b, c), (Matrix([[1]]), b, c)])
    with pytest.raises(DimensionError):
        SwitchedLinearSystem([(a, Matrix([[1]]), c)])


@pytest.mark.parametrize(
    "first, second, bad",
    [
        # an exact mode beside a float one used to build, report exact and
        # turn the float 0.5 of flat_g into Fraction(1, 2)
        ((EXACT,) * 3, (FLOAT,) * 3, 2),
        # two tolerances used to fail only mid-search
        ((Numeric(1e-3),) * 3, (FLOAT,) * 3, 2),
        ((EXACT, FLOAT, EXACT), (EXACT,) * 3, 1),
        ((FLOAT,) * 3, (FLOAT, FLOAT, EXACT), 2),
    ],
)
def test_system_refuses_mixed_contexts(first, second, bad):
    grids = ([[0.5, 0], [0, 1]], [[1], [0]], [[1, 0]])
    modes = [tuple(Matrix(g, context) for g, context in zip(grids, contexts)) for contexts in (first, second)]
    with pytest.raises(ValueError) as raised:
        SwitchedLinearSystem(modes)
    assert str(raised.value) == f"mode {bad}: every matrix must carry the context {first[0]} of A_1"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", [0, 1, 2])
@pytest.mark.parametrize("bad", [1, 2])
def test_float_system_refuses_non_finite_entries(value, part, bad):
    # the worked system in float mode used to build and be analysed: a NaN
    # in A_1 gave a reachability witness, and with an inf the search and
    # kalman_oracle disagreed
    grids = [[[list(row) for row in m.entries] for m in triple] for triple in golden_sls("float").modes]
    grids[bad - 1][part][-1][-1] = value
    with pytest.raises(ValueError) as raised:
        SwitchedLinearSystem([tuple(Matrix(g, FLOAT) for g in triple) for triple in grids])
    assert str(raised.value) == f"mode {bad}: every float matrix entry must be finite"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_exact_matrix_refuses_non_finite_entries(value):
    # an infinite entry used to raise OverflowError, not a ValueError
    with pytest.raises(ValueError, match=f"^{value!r} is not a finite rational number$"):
        Matrix([[1, value]])


def test_float_mode_merge_agrees_with_exact():
    exact = merge(golden_sls(), golden_net())
    floaty = merge(golden_sls(mode="float"), golden_net())
    assert (floaty.flat_g - exact.flat_g).is_zero()
    assert (floaty.flat_h - exact.flat_h).is_zero()
    assert_matches_closed_form(golden_sls(mode="float"), golden_net())
