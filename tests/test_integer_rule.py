"""One integer rule for every logical index, count and size the library takes.

Every site below calls `algebra.check_int`: an `int` (not a `bool`)
within its bounds, or `ValueError`. Floats used to be truncated, read as
a wrong index or fail with `TypeError`, and bools used to pass as 1;
sizes (logical-matrix rows, network counts) also took integral floats.
A float tolerance follows the same line: a number, never a bool or a string.
"""

from enum import IntEnum

import pytest

from slsnet.algebra import (
    BooleanMatrix,
    DimensionError,
    LogicalMatrix,
    Matrix,
    Numeric,
    basis_vector,
    boolean_power,
    check_int,
    power_reducing_matrix,
    swap_matrix,
)
from slsnet.analysis import (
    check_observability,
    check_reachability,
    dual_reachable_set,
    feasible_input_sequences,
    reachable_set,
    switching_trajectory,
)
from slsnet.fileio import SystemDescription
from slsnet.lcn import (
    InputStateSubset,
    LogicalNetwork,
    SubsetClass,
    build_from_functions,
    set_reachability_matrix,
    step,
)
from slsnet.oracle import count_paths, enumerate_switching_sequences
from slsnet.realize import (
    FotSpec,
    TrackingProblem,
    check_dwell_time_realizable,
    check_trackable,
)
from slsnet.sls import merge, merge_dual

from conftest import golden_net, golden_sls

NET = golden_net()  # N = 4, M = 2, q = 2, so M*N = 8
SLS = golden_sls()  # q = 2 modes, n = 3, m = 1
MS, DMS = merge(SLS, NET), merge_dual(SLS, NET)
WHOLE = SubsetClass([InputStateSubset([1], 8)])


def _network(k=2, n_nodes=0, m_nodes=0):
    """A network whose L and R are sized from the counts as numbers, so only
    the count check itself can refuse a float or a bool."""
    n_states, width = int(k**n_nodes), int(k ** (n_nodes + m_nodes))
    return LogicalNetwork(
        k, n_nodes, m_nodes, LogicalMatrix(n_states, [1] * width), LogicalMatrix(1, [1] * width)
    )


# site -> (call taking the value, least bound, top bound or None)
SITES = {
    "LogicalMatrix index": (lambda v: LogicalMatrix(2, [v, 2]), 1, 2),
    "LogicalMatrix rows": (lambda v: LogicalMatrix(v, [1]), 1, None),
    "LogicalMatrix target column": (lambda v: NET.L.target(v), 1, 8),
    "LogicalNetwork k": (lambda v: _network(k=v), 2, None),
    "LogicalNetwork n_nodes": (lambda v: _network(n_nodes=v), 0, None),
    "LogicalNetwork m_nodes": (lambda v: _network(m_nodes=v), 0, None),
    "build_from_functions k": (lambda v: build_from_functions(v, 1, 0, [[1] * int(v)]), 2, None),
    "build_from_functions n_nodes": (
        lambda v: build_from_functions(2, v, 0, [[1] * int(2**v)] * int(v)), 1, None
    ),
    "build_from_functions m_nodes": (
        lambda v: build_from_functions(2, 1, v, [[1] * int(2 ** (v + 1))]), 0, None
    ),
    "swap_matrix m": (lambda v: swap_matrix(v, 2), 1, None),
    "swap_matrix n": (lambda v: swap_matrix(2, v), 1, None),
    "power_reducing_matrix n": (lambda v: power_reducing_matrix(v), 1, None),
    "boolean_power k": (lambda v: boolean_power(BooleanMatrix([[1]]), v), 0, None),
    "basis_vector size": (lambda v: basis_vector(v, 1), 1, None),
    "basis_vector index": (lambda v: basis_vector(3, v), 1, 3),
    "step input": (lambda v: step(NET, v, 1), 1, 2),
    "step state": (lambda v: step(NET, 1, v), 1, 4),
    "l_block input": (lambda v: NET.l_block(v), 1, 2),
    "successors state": (lambda v: NET.successors(v), 1, 4),
    "state_values state": (lambda v: NET.state_values(v), 1, 4),
    "sls a mode": (lambda v: SLS.a(v), 1, 2),
    "sls b mode": (lambda v: SLS.b(v), 1, 2),
    "sls c mode": (lambda v: SLS.c(v), 1, 2),
    "sls apply mode": (lambda v: SLS.apply(v, Matrix.zeros(3, 1), Matrix.zeros(1, 1)), 1, 2),
    "InputStateSubset member": (lambda v: InputStateSubset([v], 8), 1, 8),
    "InputStateSubset size": (lambda v: InputStateSubset([1], v), 1, None),
    "set_reachability_matrix ell": (lambda v: set_reachability_matrix(NET, WHOLE, WHOLE, v), 1, None),
    "build_from_functions value": (lambda v: build_from_functions(2, 1, 0, [[v, 2]]), 1, 2),
    "initial state": (lambda v: check_observability(DMS, alphas=[v]), 1, 4),
    "t_max": (lambda v: check_reachability(MS, t_max=v), 1, None),
    "k_max": (lambda v: feasible_input_sequences(MS, v), 1, None),
    "switching_trajectory state": (lambda v: switching_trajectory(NET, v, (1,)), 1, 4),
    "switching_trajectory input": (lambda v: switching_trajectory(NET, 1, (1, v)), 1, 2),
    "reachable_set input": (lambda v: reachable_set(MS, 1, (v,)), 1, 2),
    "dual_reachable_set input": (lambda v: dual_reachable_set(DMS, 1, (2, v)), 1, 2),
    "enumerate state": (lambda v: enumerate_switching_sequences(NET, v, 1), 1, 4),
    "enumerate horizon": (lambda v: enumerate_switching_sequences(NET, 1, v), 1, None),
    "count_paths source": (lambda v: count_paths(NET, [v], [1], 1), 1, 8),
    "count_paths target": (lambda v: count_paths(NET, [1], [v], 1), 1, 8),
    "count_paths ell": (lambda v: count_paths(NET, [1], [1], v), 0, None),
    "FotSpec duration": (lambda v: FotSpec([v, 2]), 1, None),
    "dwell time": (lambda v: check_dwell_time_realizable(NET, [v, 2]), 1, None),
    "tracking initial state": (lambda v: check_trackable(NET, TrackingProblem(v, [1])), 1, 4),
    "tracking reference": (lambda v: check_trackable(NET, TrackingProblem(1, [2, v])), 1, 2),
    "SystemDescription t_max": (lambda v: SystemDescription(NET, t_max=v), 1, None),
}


def _cases():
    for site, (call, least, most) in SITES.items():
        bad = [1.5, float(least), True, least - 1] + ([most + 1] if most is not None else [])
        for value in bad:
            yield pytest.param(call, value, id=f"{site}-{value!r}")


@pytest.mark.parametrize("call, value", _cases())
def test_every_site_refuses_non_integers_and_out_of_range(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("site", SITES)
def test_every_site_accepts_its_bounds(site):
    call, least, most = SITES[site]
    for value in (least, most if most is not None else least + 1):
        call(value)


def test_check_int_messages():
    assert check_int(3, "state", 1, 4) == 3
    assert check_int(0, "ell", 0) == 0
    for value, what, bounds, message in (
        (1.5, "state", (1, 4), "state 1.5 is not an integer"),
        (True, "state", (1, 4), "state True is not an integer"),
        ("2", "state", (1, 4), "state '2' is not an integer"),
        (5, "state", (1, 4), "state 5 outside 1..4"),
        (0, "t_max", (1,), "t_max must be >= 1"),
    ):
        with pytest.raises(DimensionError) as raised:
            check_int(value, what, *bounds)
        assert str(raised.value) == message


def test_tracking_problem_keeps_values_as_given():
    # a float start state used to be truncated to a valid one
    problem = TrackingProblem(1.7, [1])
    assert problem.theta0 == 1.7
    with pytest.raises(ValueError, match="initial state 1.7 is not an integer"):
        check_trackable(NET, problem)


@pytest.mark.parametrize("tail", [[], [0, 1.5]])
@pytest.mark.parametrize("bad", [True, 1.0, 0, 3, "2"])
def test_tracking_reference_names_a_late_bad_value(bad, tail):
    # the reference is checked in one pass first; a miss falls back to the
    # per-value rule, so the refusal is check_int's for the first bad value
    reference = [1, 2] * 400 + [bad] + tail
    with pytest.raises(DimensionError) as expected:
        check_int(bad, "reference signal", 1, NET.q)
    with pytest.raises(ValueError) as raised:
        check_trackable(NET, TrackingProblem(1, reference))
    assert str(raised.value) == str(expected.value)


def test_tracking_reference_accepts_int_subclasses():
    signal = IntEnum("Signal", ["LOW", "HIGH"])
    problem = TrackingProblem(4, [signal.LOW, signal.HIGH, signal.HIGH])
    assert check_trackable(NET, problem) == check_trackable(NET, TrackingProblem(4, [1, 2, 2]))


@pytest.mark.parametrize("tol", [True, False, "1e-9", 1j, [1e-9]])
def test_tolerance_is_a_number(tol):
    # Numeric(True) used to build a float context, and a string raised TypeError
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        Numeric(tol)
