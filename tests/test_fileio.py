"""Description-file parsing, validation diagnostics, and round trips."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsnet.algebra import EXACT, FLOAT, Matrix, Numeric
from slsnet.fileio import ParseError, SystemDescription, dumps, load, loads, save
from slsnet.lcn import build_from_functions
from slsnet.sls import SwitchedLinearSystem

from conftest import golden_net, golden_sls, random_net_for, random_system

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN = """
[modes]
n = 3
inputs = 1
outputs = 1
count = 2
A1 = 1 2 -1 ; 0 1 0 ; 1 -4 3
B1 = 1 ; 0 ; 0
C1 = 0 0 1
A2 = -2 2 1 ; 0 -2 0 ; 1 -4 0
B2 = 0 ; 1 ; 0
C2 = 0 1 0

[logic]
k = 2
state_nodes = 2
input_nodes = 1
L = 1 1 2 4 4 4 3 3
q = 2
R = 2 2 1 1 1 2 2 1
"""


def test_golden_fixture_loads():
    desc = load(FIXTURES / "sls_3x2.txt")
    assert desc.sls.n == 3
    assert desc.sls.m == 1
    assert desc.sls.p == 1
    assert desc.sls.q == 2
    assert desc.net.N == 4
    assert desc.net.M == 2
    assert desc.t_max == 3
    assert desc.sls.mode_flag == EXACT
    assert desc.sls == golden_sls()
    assert desc.net == golden_net()


def test_logic_only_fixture():
    desc = load(FIXTURES / "lcn_double.txt")
    assert desc.sls is None
    assert desc.net.q == 1
    assert desc.net.L.col_index == (1, 1, 2, 4, 4, 4, 3, 3)
    assert "[modes]" not in dumps(desc)


def test_golden_text_equals_fixture():
    # same system, the fixture just pins t_max in [options]
    inline, fixture = loads(GOLDEN), load(FIXTURES / "sls_3x2.txt")
    assert inline.net == fixture.net
    assert inline.sls == fixture.sls
    assert inline.t_max is None and fixture.t_max == 3


LOGIC_DUMP = """[logic]
k = 2
state_nodes = 2
input_nodes = 1
L = 1 1 2 4 4 4 3 3
q = 1
R = 1 1 1 1 1 1 1 1

[options]
numeric = exact
"""

FLOAT_OPTIONS = "\n[options]\nnumeric = float\n"


def test_fixture_dumps_are_pinned():
    # the canonical text of both fixtures, pinned: integral entries print
    # as integers whether they are stored as int or Fraction
    sls_text = (FIXTURES / "sls_3x2.txt").read_text()
    body = sls_text[sls_text.index("[modes]"):]
    assert dumps(loads(sls_text)) == body
    assert dumps(loads((FIXTURES / "lcn_double.txt").read_text())) == LOGIC_DUMP


def test_exact_entries_are_ints_unless_rational():
    desc = loads(GOLDEN.replace("A1 = 1 2 -1", "A1 = 1/3 4/2 -1"))
    a1 = desc.sls.a(1)
    assert (type(a1[0, 0]), a1[0, 0]) == (Fraction, Fraction(1, 3))
    assert (type(a1[0, 1]), a1[0, 1]) == (int, 2)
    assert all(type(v) is int for row in desc.sls.b(1).entries for v in row)
    assert "A1 = 1/3 2 -1 ;" in dumps(desc)


def test_round_trip_golden():
    desc = load(FIXTURES / "sls_3x2.txt")
    assert loads(dumps(desc)) == desc


def test_round_trip_rationals():
    text = GOLDEN.replace("A1 = 1 2 -1", "A1 = 1/3 2 -5/7")
    desc = loads(text)
    assert desc.sls.a(1)[0, 0] == Fraction(1, 3)
    assert desc.sls.a(1)[0, 2] == Fraction(-5, 7)
    assert loads(dumps(desc)) == desc


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_round_trip_random(seed):
    rng = random.Random(seed)
    sls = random_system(rng)
    net = random_net_for(rng, sls.q)
    desc = SystemDescription(net, sls, t_max=rng.choice([None, 1, 4]))
    assert loads(dumps(desc)) == desc


def test_round_trip_logic_only():
    desc = SystemDescription(golden_net())
    assert loads(dumps(desc)) == desc


def test_tolerance_only_with_float():
    # a float file's tolerance becomes its matrices' context and reloads
    # equal; test_diagnostics refuses a tolerance beside numeric = exact
    desc = loads(GOLDEN + FLOAT_OPTIONS + "tolerance = 1e-9\n")
    assert desc.sls.mode_flag == FLOAT
    assert loads(dumps(desc)) == desc


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: SystemDescription(golden_net(), t_max=0), "t_max must be >= 1"),
        # one mode on the two-signal network
        (lambda: SystemDescription(golden_net(), SwitchedLinearSystem(golden_sls().modes[:1])),
         "1 modes but the logic signal range is 2"),
    ],
)
def test_description_refuses_what_would_not_reload(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


def test_float_system_builds_without_options():
    # the context is the matrices' own, so dumps writes numeric = float for it
    desc = SystemDescription(golden_net(), golden_sls("float"))
    assert loads(dumps(desc)) == desc


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_every_description_that_builds_round_trips(seed):
    # exact and rational systems, float ones at 1e-9 and 1e-6, and
    # logic-only descriptions; the draws are biased towards consistent ones
    # and also hit every refusal
    rng = random.Random(seed)
    t_max = rng.choice([None, None, 1, 3, 0])
    modes, finite = None, True
    if rng.random() < 0.8:
        base = random_system(rng, denominators=rng.choice([None, (1, 5)]))
        matrices = rng.choice([EXACT, FLOAT, Numeric(1e-6)])
        modes = [[[list(row) for row in m.entries] for m in triple] for triple in base.modes]
        if matrices.tol is not None and rng.random() < 0.3:
            # a non-finite entry, which loads and the system refuse, anywhere in any matrix
            grid = rng.choice(rng.choice(modes))
            rng.choice(grid)[0] = rng.choice([float("nan"), float("inf"), float("-inf")])
            finite = False
    net = random_net_for(rng, rng.choice([len(modes) if modes else 1] * 5 + [1, 2, 3]))
    builds = (t_max is None or t_max >= 1) and (modes is None or (len(modes) == net.q and finite))
    try:
        sls = None if modes is None else SwitchedLinearSystem(
            [tuple(Matrix(m, matrices) for m in triple) for triple in modes]
        )
        desc = SystemDescription(net, sls, t_max)
    except ValueError:
        assert not builds
        return
    assert builds
    assert loads(dumps(desc)) == desc


def test_save_and_load(tmp_path):
    path = tmp_path / "sys.txt"
    desc = loads(GOLDEN)
    save(desc, path)
    assert load(path) == desc


def test_truth_table_form_matches_matrix_form():
    tables = """
[logic]
k = 2
state_nodes = 2
input_nodes = 1
node1 = 1 1 1 2 2 2 2 2
node2 = 1 1 2 2 2 2 1 1
q = 2
signal = 2 2 1 1 1 2 2 1
"""
    assert loads(tables).net == golden_net()


def test_truth_tables_with_ten_state_nodes():
    # node10 sorts before node2 as text; the tables are matched in numeric order
    rng = random.Random(10)
    tables = [[rng.randint(1, 2) for _ in range(2**10)] for _ in range(10)]
    lines = "\n".join(f"node{i} = {' '.join(map(str, t))}" for i, t in enumerate(tables, start=1))
    net = loads(f"[logic]\nk = 2\nstate_nodes = 10\ninput_nodes = 0\n{lines}\n").net
    assert net.N == 1024
    assert net == build_from_functions(2, 10, 0, tables)


def test_truth_table_builder_agreement():
    text = """
[logic]
k = 2
state_nodes = 1
input_nodes = 1
node1 = 1 2 2 1
q = 2
signal = 1 2 2 1
"""
    assert loads(text).net == build_from_functions(2, 1, 1, [[1, 2, 2, 1]], [1, 2, 2, 1], q=2)


def test_float_mode_allows_decimals():
    text = GOLDEN.replace("A1 = 1 2 -1", "A1 = 1.5 2 -1") + "\n[options]\nnumeric = float\ntolerance = 1e-8\n"
    desc = loads(text)
    assert desc.sls.mode_flag == Numeric(1e-8)
    assert desc.sls.a(1)[0, 0] == 1.5
    assert loads(dumps(desc)) == desc


def test_exact_mode_rejects_decimals():
    with pytest.raises(ParseError, match="numeric = float"):
        loads(GOLDEN.replace("A1 = 1 2 -1", "A1 = 1.5 2 -1"))


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda t: t.replace("L = 1 1 2 4 4 4 3 3", "L = 1 1 2 4 4 4 3"), "L has 7"),
        (lambda t: t.replace("R = 2 2 1 1 1 2 2 1", "R = 2 2 1 1 1 2 2 3"), "outside 1..2"),
        (lambda t: t.replace("L = 1 1 2 4 4 4 3 3", "L = 1 1 2 4 4 4 3 9"), "outside 1..4"),
        (lambda t: t.replace("B1 = 1 ; 0 ; 0", "B1 = 1 ; 0"), "B1 is 2x1"),
        (lambda t: t.replace("C2 = 0 1 0", ""), "missing 'C2'"),
        (lambda t: t.replace("count = 2", "count = 3"), "signal range is 2"),
        (lambda t: t + "\n[what]\n", "unknown section"),
        (lambda t: t.replace("[modes]", "stray = 1\n[modes]"), "before any"),
        (lambda t: t + "\n[logic]\nk = 2\n", "duplicate key"),
        (lambda t: t.replace("q = 2\nR = 2 2 1 1 1 2 2 1", "q = 2"), "no R given"),
        (lambda t: t.replace("A1 = 1 2 -1 ; 0 1 0 ; 1 -4 3",
                             "A1 = 1 2 ; 0 1 0 ; 1 -4 3"), "unequal lengths"),
        (lambda t: t + "\n[options]\nnumeric = weird\n", "numeric must be"),
        (lambda t: t + "\n[options]\nt_max = 0\n", "t_max must be"),
        (lambda t: t + "\n[options]\ntolerance = nan\n", r"line \d+: tolerance must be finite.*'nan'"),
        (lambda t: t + "\n[options]\ntolerance = inf\n", r"line \d+: tolerance must be finite.*'inf'"),
        (lambda t: t + "\n[options]\ntolerance = 0\n", r"line \d+: tolerance must be finite.*'0'"),
        (lambda t: t + "\n[options]\ntolerance = -1\n", r"line \d+: tolerance must be finite.*'-1'"),
        # exact arithmetic has no tolerance, so one is refused, not ignored
        (lambda t: t + "\n[options]\nnumeric = exact\ntolerance = 0.5\n",
         r"line \d+: tolerance needs numeric = float"),
        (lambda t: t + "\n[options]\ntolerance = 0.5\n", r"line \d+: tolerance needs numeric = float"),
        (lambda t: t.replace("L = 1 1 2 4 4 4 3 3",
                             "L = 1 1 2 4 4 4 3 3\nnode1 = 1 1 1 2 2 2 2 2"), "not both"),
        # a float entry must be finite: a nan one used to yield verdicts
        (lambda t: t.replace("A1 = 1 2 -1", "A1 = nan 2 -1") + FLOAT_OPTIONS, r"line \d+: 'nan' is not a finite"),
        (lambda t: t.replace("A1 = 1 2 -1", "A1 = -inf 2 -1") + FLOAT_OPTIONS, r"line \d+: '-inf' is not a finite"),
        (lambda t: t.replace("A1 = 1 2 -1", "A1 = 1e400 2 -1") + FLOAT_OPTIONS, r"line \d+: '1e400' is not a finite"),
        # one duplicate-key rule for every section; the last value used to win here
        (lambda t: t + "\n[options]\nnumeric = exact\nnumeric = float\n",
         r"line \d+: duplicate key 'numeric' in \[options\]"),
        # refused before N and M are derived from them
        (lambda t: t.replace("k = 2", "k = 1"), r"line \d+: k must be >= 2"),
        (lambda t: t.replace("state_nodes = 2", "state_nodes = -1"), r"line \d+: state_nodes must be >= 0"),
        # a width too long to print is refused on a line, and never computed
        (lambda t: "[logic]\nk = 2\nstate_nodes = 20000\ninput_nodes = 0\nL = 1 2\n",
         r"line 5: L has 2 entries, expected k\*\*\(state_nodes \+ input_nodes\) = 2\*\*20000"),
    ],
)
def test_diagnostics(mangle, fragment):
    with pytest.raises(ParseError, match=fragment):
        loads(mangle(GOLDEN))


def test_error_carries_line_number():
    bad = GOLDEN.replace("B1 = 1 ; 0 ; 0", "B1 = 1 ; x ; 0")
    with pytest.raises(ParseError, match=r"line \d+"):
        loads(bad)


def test_truth_table_validation():
    base = """
[logic]
k = 2
state_nodes = 1
input_nodes = 1
node1 = 1 2 2 1
q = 2
signal = 1 2 2 1
"""
    with pytest.raises(ParseError, match="node1 has 3"):
        loads(base.replace("node1 = 1 2 2 1", "node1 = 1 2 2"))
    with pytest.raises(ParseError, match="outside 1..2"):
        loads(base.replace("signal = 1 2 2 1", "signal = 1 2 2 3"))
    with pytest.raises(ParseError, match="no signal table"):
        loads(base.replace("signal = 1 2 2 1", ""))
    with pytest.raises(ParseError, match="need truth tables"):
        loads(base.replace("state_nodes = 1", "state_nodes = 2"))
    with pytest.raises(ParseError, match=r"line \d+: node1 contains 3, outside 1\.\.2"):
        loads(base.replace("node1 = 1 2 2 1", "node1 = 1 3 2 1"))


def test_logic_refuses_keys_outside_its_form():
    # the L form takes L and R, the truth-table form node1..nodeN and
    # signal; any other key used to be dropped without a word
    tables = """
[logic]
k = 2
state_nodes = 1
input_nodes = 1
node1 = 1 2 2 1
q = 2
signal = 1 2 2 1
"""
    for text, extra, key in (
        (GOLDEN, "foo = 7", "foo"),
        (GOLDEN, "signal = 1 1 1 1 1 1 1 1", "signal"),
        (tables, "R = 1 2 2 1", "r"),
    ):
        bad = text.replace("k = 2", f"k = 2\n{extra}")
        lineno = bad.splitlines().index(extra) + 1
        with pytest.raises(ParseError) as raised:
            loads(bad)
        assert str(raised.value) == f"line {lineno}: unknown key {key!r} in [logic]"
