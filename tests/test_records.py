"""Contract of slsnet's records: the immutable value objects that carry
inputs and results. Each is built positionally and by keyword, refuses a
missing, unknown, repeated or surplus field with a TypeError naming it,
equal by its compared fields, hashable unless a compared field is a dict,
shown as ``Name(field=value, ...)`` and refuses assignment and deletion.

Matrices, subspaces and merged systems refuse assignment and deletion
too; they keep their own reprs and equality."""

import re

import pytest

from conftest import golden_net, golden_sls
from slsnet.algebra import BooleanMatrix, LogicalMatrix, Matrix, Numeric, Record, Subspace, column_space
from slsnet.analysis import AlphaDetail, FeasibleSequence, PropertyVerdict, ReachableSet
from slsnet.fileio import SystemDescription
from slsnet.lcn import (
    Attractor,
    ControlAttractorReport,
    InputStateSubset,
    LogicalNetwork,
    SetReachabilityVerdicts,
    SubsetClass,
)
from slsnet.realize import (
    INFINITY,
    FotSpec,
    RealizabilityVerdict,
    SignalDiagnostic,
    SignalPreimage,
    TrackingProblem,
    TrackVerdict,
)
from slsnet.sls import SwitchedLinearSystem, merge, merge_dual

NET_REPR = (
    "LogicalNetwork(k=2, n_nodes=2, m_nodes=1, L=LogicalMatrix(delta_4[1, 1, 2, 4, 4, 4, 3, 3]), "
    "R=LogicalMatrix(delta_2[2, 2, 1, 1, 1, 2, 2, 1]))"
)


def _one_mode(entry):
    return SwitchedLinearSystem([(Matrix([[entry]]), Matrix([[0]]), Matrix([[1]]))])


def _net(r_cols=(2, 2, 1, 1, 1, 2, 2, 1)):
    return LogicalNetwork(2, 2, 1, LogicalMatrix(4, [1, 1, 2, 4, 4, 4, 3, 3]), LogicalMatrix(2, r_cols))


# (class, positional arguments, keyword arguments of the same record, the
# arguments of a record that differs in a compared field, its repr, hashable)
CASES = [
    (Numeric, (1e-9,), {"tol": 1e-9}, (1e-8,), "Numeric(tol=1e-09)", True),
    (
        ReachableSet,
        (1, (1, 2), column_space(Matrix([[1], [0]])), 3),
        {"alpha": 1, "gammas": (1, 2), "span": column_space(Matrix([[1], [0]])), "terminal_theta": 3},
        (1, (1, 2), column_space(Matrix([[0], [1]])), 3),
        "ReachableSet(alpha=1, gammas=(1, 2), span=Subspace(dim 1 in R^2), terminal_theta=3)",
        True,
    ),
    (AlphaDetail, (2, True), {"span_rank": 2, "holds": True}, (2, False),
     "AlphaDetail(span_rank=2, holds=True)", True),
    (
        PropertyVerdict,
        ("reachability", True, (1, 2), 2, {1: AlphaDetail(3, True)}, (1,)),
        {"property": "reachability", "holds": True, "witness": (1, 2), "T": 2,
         "per_alpha": {1: AlphaDetail(3, True)}, "checked_alphas": (1,)},
        ("reachability", True, (1, 2), 2, {1: AlphaDetail(2, True)}, (1,)),
        "PropertyVerdict(property='reachability', holds=True, witness=(1, 2), T=2, "
        "per_alpha={1: AlphaDetail(span_rank=3, holds=True)}, checked_alphas=(1,))",
        False,
    ),
    (FeasibleSequence, ((1, 2),), {"gammas": (1, 2)}, ((2, 1),), "FeasibleSequence(gammas=(1, 2))", True),
    (
        SystemDescription,
        (golden_net(), None, 3),
        {"net": golden_net(), "t_max": 3},
        (golden_net(), None, 4),
        f"SystemDescription(net={NET_REPR}, sls=None, t_max=3)",
        True,
    ),
    (LogicalNetwork, (2, 2, 1, golden_net().L, golden_net().R),
     {"k": 2, "n_nodes": 2, "m_nodes": 1, "L": golden_net().L, "R": golden_net().R},
     (2, 2, 1, golden_net().L, LogicalMatrix(2, [1, 2, 1, 1, 1, 2, 2, 1])), NET_REPR, True),
    (InputStateSubset, ([2, 1], 8), {"members": (1, 2), "mn": 8}, ([2, 1], 9),
     "InputStateSubset(members=frozenset({1, 2}), mn=8)", True),
    (SubsetClass, ([InputStateSubset([1], 8)],), {"subsets": (InputStateSubset([1], 8),)},
     ([InputStateSubset([2], 8)],), "SubsetClass(subsets=(InputStateSubset(members=frozenset({1}), mn=8),))", True),
    (
        SetReachabilityVerdicts,
        (BooleanMatrix([[1, 0]]), (True, False), (False,), False),
        {"pairwise": BooleanMatrix([[1, 0]]), "source_reaches_all": (True, False),
         "target_reached_by_all": (False,), "fully_reachable": False},
        (BooleanMatrix([[1, 1]]), (True, True), (True,), True),
        "SetReachabilityVerdicts(pairwise=BooleanMatrix(1x2 [10]), source_reaches_all=(True, False), "
        "target_reached_by_all=(False,), fully_reachable=False)",
        True,
    ),
    (Attractor, ((1,), (2,)), {"states": (1,), "inputs": (2,)}, ((1,), (1,)),
     "Attractor(states=(1,), inputs=(2,))", True),
    (
        ControlAttractorReport,
        ((Attractor((1,), (2,)),), (), {(1,): {1: ()}}, ()),
        {"fixed_points": (Attractor((1,), (2,)),), "cycles": (), "basins": {(1,): {1: ()}}, "cover": ()},
        ((Attractor((1,), (2,)),), (), {(1,): {1: ()}}, (Attractor((1,), (2,)),)),
        "ControlAttractorReport(fixed_points=(Attractor(states=(1,), inputs=(2,)),), cycles=(), "
        "basins={(1,): {1: ()}}, cover=())",
        True,
    ),
    (FotSpec, ((1, INFINITY),), {"durations": [1, INFINITY]}, ((1, 2),), "FotSpec(durations=(1, inf))", True),
    (SignalPreimage, (1, (1, 2)), {"sigma": 1, "members": (1, 2)}, (2, (1, 2)),
     "SignalPreimage(sigma=1, members=(1, 2))", True),
    (TrackingProblem, (1, [1, 2]), {"theta0": 1, "reference": (1, 2)}, (1, [1, 1]),
     "TrackingProblem(theta0=1, reference=(1, 2))", True),
    (SignalDiagnostic, (1, 2, False, (), ()),
     {"sigma": 1, "requirement": 2, "unreachable": False, "escape_failures": (), "stay_failures": ()},
     (1, 2, False, (), (3,)),
     "SignalDiagnostic(sigma=1, requirement=2, unreachable=False, escape_failures=(), stay_failures=())", True),
    (RealizabilityVerdict, (True, (), ()), {"realizable": True, "diagnostics": (), "warnings": ()},
     (True, (), ("w",)),
     "RealizabilityVerdict(realizable=True, diagnostics=(), warnings=())", True),
    (TrackVerdict, (True, (1,), None, (1, 1)),
     {"trackable": True, "witness": (1,), "failed_at": None, "frontier_sizes": (1, 1)},
     (False, None, 2, (1, 1)), "TrackVerdict(trackable=True, witness=(1,), failed_at=None, frontier_sizes=(1, 1))",
     True),
    (SwitchedLinearSystem, ([(Matrix([[1]]), Matrix([[0]]), Matrix([[1]]))],),
     {"modes": [(Matrix([[1]]), Matrix([[0]]), Matrix([[1]]))]}, ([(Matrix([[2]]), Matrix([[0]]), Matrix([[1]]))],),
     "SwitchedLinearSystem(modes=((Matrix(1x1 [1]), Matrix(1x1 [0]), Matrix(1x1 [1])),))", True),
]
IDS = [case[0].__name__ for case in CASES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_covered():
    # the carriers below are checked by the frozen test; classes a test
    # defines on Record are not the package's
    found = {c for c in _subclasses(Record) if c.__module__.startswith("slsnet.")}
    assert len(CASES) == len(set(IDS))
    assert found - {Matrix, LogicalMatrix, BooleanMatrix, Subspace} == {case[0] for case in CASES}


@pytest.mark.parametrize("cls, args, kwargs, other, text, hashable", CASES, ids=IDS)
def test_repr_is_field_wise(cls, args, kwargs, other, text, hashable):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text
    assert str(cls(*args)) == text


@pytest.mark.parametrize("cls, args, kwargs, other, text, hashable", CASES, ids=IDS)
def test_equality_is_field_wise(cls, args, kwargs, other, text, hashable):
    a, b, c = cls(*args), cls(**kwargs), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != args and a != text  # another type is never equal
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("cls, args, kwargs, other, text, hashable", CASES, ids=IDS)
def test_records_are_immutable(cls, args, kwargs, other, text, hashable):
    record = cls(*args)
    field = text[len(cls.__name__) + 1:].split("=", 1)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value
    assert repr(record) == text


@pytest.mark.parametrize("cls, args, kwargs, other, text, hashable", CASES, ids=IDS)
def test_constructor_refuses_unknown_and_surplus_arguments(cls, args, kwargs, other, text, hashable):
    name = cls.__name__
    first = text[len(name) + 1:].split("=", 1)[0]
    with pytest.raises(TypeError, match=rf"{name}\b.*'unknown'"):
        cls(*args, unknown=1)
    with pytest.raises(TypeError, match=rf"{name}\b"):
        cls(*args, None, None, None, None, None, None)
    with pytest.raises(TypeError, match=rf"{name}\b.*'{first}'"):
        cls(args[0], **{first: args[0]})  # named twice, not missing the rest
    if cls is not Numeric:  # the record whose every field has a default
        with pytest.raises(TypeError, match=rf"{name}\b.*'{first}'"):
            cls()


def test_defaults():
    assert Numeric() == Numeric(None) and Numeric().tol is None
    assert SystemDescription(golden_net()) == SystemDescription(golden_net(), None, None)


@pytest.mark.parametrize("cls, args, first", [
    (SignalDiagnostic, (1, 2), "unreachable"),
    (RealizabilityVerdict, (True, ()), "warnings"),
    (ControlAttractorReport, ((), (), {}), "cover"),
], ids=["SignalDiagnostic", "RealizabilityVerdict", "ControlAttractorReport"])
def test_an_omitted_field_is_refused(cls, args, first):
    # only a record's own signature gives a field a default
    with pytest.raises(TypeError, match=rf"^{cls.__name__} is missing field '{first}'$"):
        cls(*args)


def test_network_sizes_are_derived_not_given():
    net = golden_net()
    assert (net.N, net.M) == (4, 2)
    assert "N=" not in repr(net) and "M=" not in repr(net)
    with pytest.raises(TypeError):
        LogicalNetwork(2, 2, 1, net.L, net.R, 4)
    with pytest.raises(TypeError):
        LogicalNetwork(2, 2, 1, net.L, net.R, N=4)
    assert net == _net() and hash(net) == hash(_net())
    assert net != _net((1, 2, 1, 1, 1, 2, 2, 1))


def test_basins_are_left_out_of_equality_and_hash():
    fixed = (Attractor((1,), (2,)),)
    a = ControlAttractorReport(fixed, (), {(1,): {1: ()}}, fixed)
    b = ControlAttractorReport(fixed, (), {(1,): {1: (), 2: (1,)}}, fixed)
    assert a == b and hash(a) == hash(b)
    assert "basins={(1,): {1: (), 2: (1,)}}" in repr(b)


def test_system_descriptions_compare_their_systems():
    assert SystemDescription(golden_net(), golden_sls()) == SystemDescription(golden_net(), golden_sls())
    assert SystemDescription(golden_net(), golden_sls()) != SystemDescription(golden_net())
    assert _one_mode(1) == _one_mode(1) and _one_mode(1) != _one_mode(2)


def test_a_tolerance_shows_in_messages_as_its_record():
    with pytest.raises(ValueError, match=r"mode 2: every matrix must carry the context Numeric\(tol=1e-06\) of A_1"):
        SwitchedLinearSystem([golden_sls(Numeric(1e-6)).modes[0], golden_sls("float").modes[1]])


# (a builder, a builder of an equal instance or None where equality is
# identity, the repr as a regular expression)
CARRIERS = {
    "Matrix-exact": (lambda: Matrix([[1], [0]]), lambda: Matrix(((1.0,), (0.0,))),
                     re.escape("Matrix(2x1 [1; 0])")),
    "Matrix-float": (lambda: Matrix([[1.0], [0.0]], "float"), lambda: Matrix([[1], [0]], "float"),
                     re.escape("Matrix(2x1 [1.0; 0.0])")),
    "LogicalMatrix": (lambda: LogicalMatrix(2, [2, 1]), lambda: LogicalMatrix(2, (2, 1)),
                      re.escape("LogicalMatrix(delta_2[2, 1])")),
    "BooleanMatrix": (lambda: BooleanMatrix([[1, 0]]), lambda: BooleanMatrix([(True, False)]),
                      re.escape("BooleanMatrix(1x2 [10])")),
    "Subspace": (lambda: column_space(Matrix([[2], [0]])),
                 lambda: column_space(Matrix([[5, 3], [0, 0]])),
                 re.escape("Subspace(dim 1 in R^2)")),
    "MergedSystem": (lambda: merge(golden_sls(), golden_net()), None,
                     r"<slsnet\.sls\.MergedSystem object at 0x[0-9a-f]+>"),
    "DualMergedSystem": (lambda: merge_dual(golden_sls(), golden_net()), None,
                         r"<slsnet\.sls\.DualMergedSystem object at 0x[0-9a-f]+>"),
}


@pytest.mark.parametrize("build, twin, text", CARRIERS.values(), ids=CARRIERS)
def test_matrices_subspaces_and_merged_systems_are_frozen(build, twin, text):
    obj = build()
    assert not hasattr(obj, "__dict__")
    for name in (name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())):
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert re.fullmatch(text, repr(obj))
    assert obj == obj and hash(obj) == hash(obj)
    if twin is None:
        assert obj != build()  # a merged system compares by identity
    else:
        other = twin()
        assert obj == other and not obj != other and hash(obj) == hash(other)
        assert len({obj, other}) == 1
