"""End-to-end command runs against the fixture files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slsnet import BudgetExceededError, check_reachability, feasible_input_sequences, kalman_rank, load, merge
from slsnet.cli import main

from conftest import unreachable_single_input_text

FIXTURES = Path(__file__).parent / "fixtures"
SLS = str(FIXTURES / "sls_3x2.txt")
LCN = str(FIXTURES / "lcn_double.txt")
SINKS = str(FIXTURES / "lcn_sinks.txt")
UNOBSERVABLE = str(FIXTURES / "sls_unobservable.txt")
UNREACHABLE = str(FIXTURES / "sls_unreachable.txt")
UNREACHABLE_SIGNAL = str(FIXTURES / "lcn_unreachable_signal.txt")
SINGLE_INPUT = str(FIXTURES / "lcn_single_input.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    return code, json.loads(out)


def test_analyze_all_golden(capsys):
    code, rep = run_json(capsys, "analyze", "all", SLS)
    assert code == 0
    for prop in ("reachability", "controllability", "observability", "reconstructibility"):
        assert rep[prop]["holds"]
        assert rep[prop]["T"] == 3
    assert rep["reachability"]["witness"] == [1, 2, 2]
    assert rep["reachability"]["feasible"] == [
        [1, 2, 2], [2, 1, 1], [2, 1, 2], [2, 2, 1], [2, 2, 2]
    ]
    assert rep["observability"]["witness"] == [1, 1, 1]
    assert rep["reachability"]["checked_alphas"] == [4]
    assert rep["reachability"]["per_alpha"]["4"] == {"rank": 3, "holds": True}


def test_analyze_single_property_text(capsys):
    code, out, _ = run(capsys, "analyze", "reachability", SLS, "--no-timestamp")
    assert code == 0
    assert "holds: yes" in out
    assert "witness: 1 2 2" in out


def test_analyze_short_horizon_fails(capsys):
    code, rep = run_json(capsys, "analyze", "reachability", SLS, "--t-max", "2")
    assert code == 1
    assert rep["reachability"]["holds"] is False
    assert rep["reachability"]["witness"] is None


def test_analyze_strict_and_explicit_alphas(capsys):
    code, rep = run_json(capsys, "analyze", "reachability", SLS, "--strict")
    assert code == 0
    assert rep["reachability"]["checked_alphas"] == [1, 2, 3, 4]
    code, rep = run_json(capsys, "analyze", "observability", SLS, "--alphas", "2,4")
    assert code == 0
    assert rep["observability"]["checked_alphas"] == [2, 4]


@pytest.mark.parametrize("flags, checked", [((), {}), (("--strict",), {"strict": True}),
                                            (("--alphas", "1,3"), {"alphas": (1, 3)})])
def test_analyze_feasible_is_the_library_list(capsys, flags, checked):
    # the report's feasible list is feasible_input_sequences' at the same
    # checked states, led by the witness, every entry T inputs long
    code, rep = run_json(capsys, "analyze", "reachability", SLS, *flags)
    entry = rep["reachability"]
    assert (code, entry["holds"]) == (0, True)
    desc = load(SLS)
    library = feasible_input_sequences(merge(desc.sls, desc.net), entry["T"], **checked)
    assert entry["feasible"] == [list(f.gammas) for f in library]
    assert entry["feasible"][0] == entry["witness"]
    assert {len(gammas) for gammas in entry["feasible"]} == {entry["T"]}


def test_analyze_negative_reachability_has_no_feasible_list(capsys):
    code, rep = run_json(capsys, "analyze", "reachability", UNOBSERVABLE, "--strict")
    assert (code, rep["reachability"]["holds"]) == (1, False)
    assert "feasible" not in rep["reachability"]


def test_analyze_needs_modes(capsys):
    code, out, err = run(capsys, "analyze", "all", LCN)
    assert code == 2
    assert "modes" in err


def test_attractors_golden(capsys):
    code, rep = run_json(capsys, "attractors", SLS)
    assert code == 0
    assert rep["fixed_points"] == [1, 3, 4]
    # one canonical cycle per strongly connected component of two or more
    # states; the whole graph is one component here
    assert rep["cycles"] == [[2, 4, 3]]
    assert rep["checked_states"] == [4]
    (cover,) = rep["cover"]
    assert cover["states"] == [4]
    assert cover["basin"] == [1, 2, 3, 4]
    assert cover["steering"]["4"] == []


def test_attractors_report_pinned_with_two_sinks(capsys):
    # {1, 2} holds fixed point 1 but leaks into the sink {3, 4, 5}; {6, 7}
    # is a sink cycle and 8 is transient, so the cover holds one attractor
    # per sink and steers into nothing else
    code, rep = run_json(capsys, "attractors", SINKS)
    assert code == 0
    assert rep == {
        "tool": "slsnet 0.1.0",
        "command": "attractors",
        "input": "cafff3accba9c428",
        "fixed_points": [1, 4, 5],
        "cycles": [[1, 2], [6, 7], [3, 4, 5]],
        "cover": [
            {
                "states": [5],
                "kind": "fixed point",
                "basin": [1, 2, 3, 4, 5, 8],
                "steering": {
                    "1": [2, 2, 1, 2],
                    "2": [2, 1, 2],
                    "3": [1, 2],
                    "4": [2],
                    "5": [],
                    "8": [2, 2, 2, 1, 2],
                },
            },
            {
                "states": [6, 7],
                "kind": "cycle",
                "basin": [6, 7, 8],
                "steering": {"6": [], "7": [], "8": [1]},
            },
        ],
        "checked_states": [5, 6],
    }


ATTRACTORS_TEXT = """tool: slsnet 0.1.0
command: attractors
input: 5d46170a4aaac1fa
fixed_points: 1 3 4
cycles:
  - 2 4 3
cover:
  - states: 4
    kind: fixed point
    basin: 1 2 3 4
    steering:
      1: 2
      2: 2
      3: 1 2
      4: none
checked_states: 4
"""

FOT_UNREACHABLE_TEXT = """tool: slsnet 0.1.0
command: realize fot
input: ce9f4cd40a7641c4
realizable: yes
signals:
  - signal: 1
    requirement: inf
    ok: yes
    unreachable: no
    escape_failures: none
    stay_failures: none
  - signal: 2
    requirement: 5
    ok: yes
    unreachable: yes
    escape_failures: none
    stay_failures: none
warnings: signal 2 unreachable: no input-state pair produces it
"""


@pytest.mark.parametrize(
    "argv, text",
    [
        # a list of dicts (the cover) and an empty steering sequence
        (("attractors", SLS), ATTRACTORS_TEXT),
        # empty failure lists print as none
        (("realize", "fot", UNREACHABLE_SIGNAL, "--durations", "inf,5"), FOT_UNREACHABLE_TEXT),
    ],
    ids=["attractors", "realize-fot"],
)
def test_text_reports_pinned(capsys, argv, text):
    assert run(capsys, *argv, "--no-timestamp") == (0, text, "")


def test_setreach_one_step(capsys):
    code, rep = run_json(capsys, "setreach", LCN, "--l", "1",
                         "--omega0", "4,6", "--omegad", "5,7,8;1,2,3",
                         "--quantitative")
    assert code == 1
    assert rep["matrix"] == [[2], [0]]
    assert rep["fully_reachable"] is False


def test_setreach_two_steps(capsys):
    code, rep = run_json(capsys, "setreach", LCN, "--l", "2",
                         "--omega0", "4,6", "--omegad", "5,7,8;1,2,3",
                         "--quantitative")
    assert code == 0
    assert rep["matrix"] == [[4], [2]]
    code, rep = run_json(capsys, "setreach", LCN, "--l", "2",
                         "--omega0", "4,6", "--omegad", "5,7,8;1,2,3")
    assert rep["matrix"] == [[1], [1]]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_setreach_count_too_long_to_print_exits_3(capsys, fmt):
    # 2**30000 has 9031 digits, past the interpreter's default of 4300: a
    # size cap (exit 3), not an input error (exit 2), and refused before any output
    code, out, err = run(capsys, "setreach", SLS, "--l", "30000", "--omega0", "1,2", "--omegad", "3,4",
                         "--quantitative", "--format", fmt, "--no-timestamp")
    assert code == 3
    assert out == ""
    assert err == f"error: a path count has more than {sys.get_int_max_str_digits()} digits, the most this interpreter prints\n"


def test_realize_fot_golden(capsys):
    code, rep = run_json(capsys, "realize", "fot", SLS, "--durations", "2,2")
    assert code == 1
    assert rep["realizable"] is False
    first = rep["signals"][0]
    assert first["signal"] == 1
    assert any("pair 4" in s for s in first["escape_failures"])
    assert any("pair 3" in s for s in first["stay_failures"])


def test_realize_fot_positive(capsys, tmp_path):
    path = tmp_path / "hold.txt"
    path.write_text(
        "[logic]\nk = 2\nstate_nodes = 1\ninput_nodes = 1\n"
        "L = 1 2 1 2\nq = 2\nR = 1 2 1 2\n"
    )
    code, rep = run_json(capsys, "realize", "fot", str(path), "--durations", "inf,inf")
    assert code == 0
    assert rep["realizable"] is True
    assert rep["signals"][0]["requirement"] == "inf"


def test_realize_fot_unreachable_signal_warns(capsys):
    # no pair emits signal 2: its conditions hold vacuously, and the report says so
    code, rep = run_json(capsys, "realize", "fot", UNREACHABLE_SIGNAL, "--durations", "inf,5")
    assert code == 0
    assert rep["realizable"] is True
    assert [s["unreachable"] for s in rep["signals"]] == [False, True]
    assert rep["signals"][1]["ok"] is True
    assert rep["warnings"] == ["signal 2 unreachable: no input-state pair produces it"]


def test_realize_dwell_golden(capsys):
    code, rep = run_json(capsys, "realize", "dwell", SLS, "--min", "1,2")
    assert code == 1
    assert rep["signals"][1]["stay_failures"]


def test_track_golden(capsys):
    code, rep = run_json(capsys, "track", SLS, "--theta0", "4", "--ref", "1,2,2")
    assert code == 0
    assert rep["trackable"] is True
    assert rep["witness"] == [2, 2, 2]
    assert rep["frontier_sizes"] == [2, 1, 1]


def test_track_negative(capsys):
    code, rep = run_json(capsys, "track", SLS, "--theta0", "4", "--ref", "2")
    assert code == 1
    assert rep["witness"] is None
    assert rep["failed_at"] == 0


def test_graph_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", LCN)
    assert code == 0
    assert out.startswith("digraph input_state {")
    assert out.rstrip().endswith("}")

    target = tmp_path / "net.dot"
    code, rep = run_json(capsys, "graph", LCN, "--out", str(target))
    assert code == 0
    assert target.read_text() == out
    assert rep["written"] == str(target)


def test_oracle_ranks(capsys):
    code, rep = run_json(capsys, "oracle", "ranks", SLS, "--sigmas", "1,2,2")
    assert code == 0
    assert rep["kalman_rank"] == 3
    assert rep["observability_rank"] == 2


def test_oracle_enumerate(capsys):
    code, rep = run_json(capsys, "oracle", "enumerate", SLS, "--alpha", "4", "--horizon", "1")
    assert code == 0
    assert rep["sequences"] == [
        {"gammas": [1], "sigmas": [1]},
        {"gammas": [2], "sigmas": [1]},
    ]


def test_oracle_paths(capsys):
    code, rep = run_json(capsys, "oracle", "paths", LCN,
                         "--from", "4,6", "--to", "5,7,8", "--l", "2")
    assert code == 0
    assert rep["paths"] == 4


def test_exit_code_budget(capsys):
    code, out, err = run(capsys, "oracle", "enumerate", LCN,
                         "--alpha", "1", "--horizon", "40")
    assert code == 3
    assert "budget" in err


def test_oracle_paths_refuses_a_length_past_the_horizon_budget(capsys):
    # with one input the sequence budget never binds; the walk used to
    # recurse once per step and end in a RecursionError (exit 1). With two
    # inputs the length is checked before M^l is computed, so 10^12 steps
    # are refused at once instead of building a 10^12-bit integer
    code, rep = run_json(capsys, "oracle", "paths", SINGLE_INPUT, "--from", "1", "--to", "1", "--l", "32")
    assert (code, rep["paths"]) == (0, 1)
    for path, ell in ((SINGLE_INPUT, "33"), (SINGLE_INPUT, "5000"), (SLS, "40"), (SLS, "1000000000000")):
        code, out, err = run(capsys, "oracle", "paths", path, "--from", "1", "--to", "1", "--l", ell)
        assert code == 3 and out == ""
        assert err == f"error: path length {ell} exceeds the budget of 32\n"


def _unreachable_single_input(tmp_path):
    path = tmp_path / "unreachable.txt"
    path.write_text(unreachable_single_input_text())
    return str(path)


def test_analyze_refuses_horizon_past_budget(capsys, tmp_path):
    # the oracle's default budget caps the horizon at 32
    path = _unreachable_single_input(tmp_path)
    code, out, err = run(capsys, "analyze", "reachability", path, "--t-max", "40")
    assert (code, out) == (3, "")
    assert "horizon 33 exceeds the budget of 32" in err
    desc = load(path)
    with pytest.raises(BudgetExceededError):
        check_reachability(merge(desc.sls, desc.net), t_max=40)


STRUCTURAL_NEGATIVES = [(UNOBSERVABLE, "observability"), (UNREACHABLE, "reachability")]


@pytest.mark.parametrize("path, prop", STRUCTURAL_NEGATIVES, ids=["observability", "reachability"])
def test_analyze_refutes_a_structural_negative(capsys, path, prop):
    # one coordinate is never observed, or never reached: the
    # invariant-subspace bound settles the strict search before horizon 4
    # instead of walking 2^16 sequences per horizon, with the report the
    # full walk would give
    code, rep = run_json(capsys, "analyze", prop, path, "--strict", "--t-max", "16")
    assert code == 1
    assert (rep[prop]["holds"], rep[prop]["T"]) == (False, 16)
    assert rep[prop]["per_alpha"]["1"] == {"rank": 1, "holds": False}


@pytest.mark.parametrize("path, prop", STRUCTURAL_NEGATIVES, ids=["observability", "reachability"])
def test_analyze_refutation_keeps_the_budget_refusal(capsys, path, prop):
    # a refuted search still refuses the horizon the walk would refuse
    code, out, err = run(capsys, "analyze", prop, path, "--strict", "--t-max", "40")
    assert (code, out) == (3, "")
    assert err == "error: 2^20 sequences exceed the budget of 1000000\n"


def test_analyze_decides_before_budget(capsys):
    code, rep = run_json(capsys, "analyze", "all", SLS, "--t-max", "1000")
    assert code == 0
    props = ("reachability", "controllability", "observability", "reconstructibility")
    assert {rep[prop]["T"] for prop in props} == {3}


def test_analyze_strict_excludes_alphas(capsys):
    # --alphas used to win silently and check state 4 alone
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "reachability", SLS, "--strict", "--alphas", "4"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_analyze_rejects_repeated_alpha(capsys):
    code, out, err = run(capsys, "analyze", "reachability", SLS, "--alphas", "4,4")
    assert (code, out) == (2, "")
    assert "initial state 4 given twice" in err


def test_analyze_rejects_empty_alphas(capsys):
    # an empty list names no state to check; it does not fall back to the cover
    for text in ("", ","):
        code, out, err = run(capsys, "analyze", "reachability", SLS, "--alphas", text)
        assert (code, out) == (2, ""), text
        assert "no initial states to check" in err, text


# an empty field beside a value used to be dropped, so "1,,2" ran as "1,2"
EMPTY_FIELDS = ("1,,2", "1,", ",1", "1, ,2")


@pytest.mark.parametrize("text", EMPTY_FIELDS)
def test_analyze_rejects_empty_alpha_field(capsys, text):
    code, out, err = run(capsys, "analyze", "reachability", SLS, "--alphas", text)
    assert (code, out) == (2, "")
    assert f"--alphas has an empty field, got {text!r}" in err


@pytest.mark.parametrize("text", EMPTY_FIELDS)
def test_track_rejects_empty_reference_field(capsys, text):
    code, out, err = run(capsys, "track", SLS, "--theta0", "4", "--ref", text)
    assert (code, out) == (2, "")
    assert f"--ref has an empty field, got {text!r}" in err


def test_track_rejects_empty_reference(capsys):
    for text in ("", ","):
        code, out, err = run(capsys, "track", SLS, "--theta0", "4", "--ref", text)
        assert (code, out) == (2, ""), text
        assert "reference sequence may not be empty" in err, text


@pytest.mark.parametrize("text", EMPTY_FIELDS)
def test_realize_dwell_rejects_empty_field(capsys, text):
    code, out, err = run(capsys, "realize", "dwell", SLS, "--min", text)
    assert (code, out) == (2, "")
    assert f"--min has an empty field, got {text!r}" in err


@pytest.mark.parametrize("text", EMPTY_FIELDS + ("inf,,2",))
def test_realize_fot_rejects_empty_field(capsys, text):
    code, out, err = run(capsys, "realize", "fot", SLS, "--durations", text)
    assert (code, out) == (2, "")
    assert f"--durations has an empty field, got {text!r}" in err


def test_list_flags_still_take_spaces(capsys):
    assert run_json(capsys, "track", SLS, "--theta0", "4", "--ref", "1, 2 2")[1]["witness"] == [2, 2, 2]


# analyze_golden.json holds the exit code and JSON report of
# `analyze all --format json --no-timestamp` with each flag set, on the
# fixture and on its float copy
ANALYZE_FLAGS = ([], ["--strict"], ["--t-max", "2"], ["--alphas", "1,3"], ["--t-max", "5", "--strict"])


@pytest.mark.parametrize("numeric", ["exact", "float"])
def test_analyze_all_reports_pinned(capsys, tmp_path, numeric):
    golden = json.loads((FIXTURES / "analyze_golden.json").read_text())[numeric]
    path = tmp_path / "sls.txt"
    path.write_text(Path(SLS).read_text().replace("numeric = exact", f"numeric = {numeric}"))
    for flags in ANALYZE_FLAGS:
        want = golden[" ".join(flags)]
        code, out, _ = run(capsys, "analyze", "all", str(path), *flags, "--format", "json", "--no-timestamp")
        assert (code, out) == (want["exit"], json.dumps(want["report"], indent=2) + "\n"), flags


def test_exit_code_input_errors(capsys):
    assert run(capsys, "attractors", "no-such-file.txt")[0] == 2
    code, _, err = run(capsys, "track", SLS, "--theta0", "9", "--ref", "1")
    assert code == 2
    assert "9" in err
    assert run(capsys, "realize", "fot", SLS, "--durations", "2")[0] == 2
    assert run(capsys, "realize", "fot", SLS, "--durations", "2,x")[0] == 2
    for argv, message in (
        (("analyze", "all", SLS, "--alphas", "1,x"), "--alphas must be a comma-separated list of integers, got '1,x'"),
        (("oracle", "ranks", LCN, "--sigmas", "1"), "oracle ranks needs a [modes] section"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_reports_are_deterministic(capsys):
    first = run(capsys, "analyze", "all", SLS, "--no-timestamp")
    second = run(capsys, "analyze", "all", SLS, "--no-timestamp")
    assert first == second
    assert "generated" not in first[1]
    timed = run(capsys, "analyze", "all", SLS)
    assert "generated" in timed[1]
    assert "elapsed_ms" in timed[1]


def test_digest_tracks_content(capsys):
    _, rep_sls = run_json(capsys, "attractors", SLS)
    _, rep_lcn = run_json(capsys, "attractors", LCN)
    assert rep_sls["input"] != rep_lcn["input"]
    assert rep_sls["tool"].startswith("slsnet ")


# A1 is 1e-4 away from singular, so [B1, A1 B1] has rank 2 exactly but
# rank 1 once |v| <= 0.01 counts as zero.
NEAR_SINGULAR = """
[modes]
n = 2
inputs = 1
outputs = 1
count = 1
A1 = 1 1 ; 1 1.0001
B1 = 1 ; 1
C1 = 1 0

[logic]
k = 2
state_nodes = 1
input_nodes = 1
L = 1 2 1 2

[options]
numeric = float
"""


def test_float_tolerance_travels_with_description(capsys, tmp_path):
    loose = tmp_path / "loose.txt"
    loose.write_text(NEAR_SINGULAR + "tolerance = 0.01\n")
    plain = tmp_path / "plain.txt"
    plain.write_text(NEAR_SINGULAR)

    desc = load(loose)
    assert kalman_rank([1, 1], desc.sls) == 1
    assert not check_reachability(merge(desc.sls, desc.net)).holds
    _, rep = run_json(capsys, "oracle", "ranks", str(loose), "--sigmas", "1,1")
    assert rep["kalman_rank"] == 1
    assert run(capsys, "analyze", "reachability", str(loose))[0] == 1

    # a description without a tolerance gets 1e-9, whatever was loaded before
    other = load(plain)
    assert kalman_rank([1, 1], other.sls) == 2
    assert check_reachability(merge(other.sls, other.net)).holds
    _, rep = run_json(capsys, "oracle", "ranks", str(plain), "--sigmas", "1,1")
    assert rep["kalman_rank"] == 2
    assert kalman_rank([1, 1], desc.sls) == 1

    # the two descriptions' matrices carry different tolerances and do not mix
    with pytest.raises(ValueError, match="tolerances"):
        desc.sls.a(1) @ other.sls.b(1)


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_non_finite_tolerance_exits_2(capsys, tmp_path, tolerance):
    path = tmp_path / "float.txt"
    path.write_text(
        Path(SLS).read_text().replace("numeric = exact", f"numeric = float\ntolerance = {tolerance}")
    )
    code, out, err = run(capsys, "oracle", "ranks", str(path), "--sigmas", "1,2,2")
    assert code == 2
    assert out == ""
    assert "tolerance must be finite" in err


def test_non_finite_entry_exits_2(capsys, tmp_path):
    # this file used to report reachability holding at T = 3
    path = tmp_path / "float.txt"
    path.write_text(
        Path(SLS).read_text().replace("A1 = 1 2 -1", "A1 = nan 2 -1").replace("numeric = exact", "numeric = float")
    )
    code, out, err = run(capsys, "analyze", "all", str(path))
    assert (code, out) == (2, "")
    assert "'nan' is not a finite number" in err


def test_exact_tolerance_exits_2(capsys, tmp_path):
    # the fixture is exact; a tolerance there used to be stored and ignored
    path = tmp_path / "exact.txt"
    path.write_text(Path(SLS).read_text().replace("numeric = exact", "numeric = exact\ntolerance = 0.5"))
    code, out, err = run(capsys, "analyze", "all", str(path))
    assert (code, out) == (2, "")
    assert "tolerance needs numeric = float" in err


@pytest.mark.parametrize("module", ["slsnet", "slsnet.cli"])
def test_module_entry_point_matches_main(capsys, module):
    root = Path(__file__).parent.parent
    argv = ["analyze", "all", "tests/fixtures/sls_3x2.txt", "--format", "json", "--no-timestamp"]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], cwd=root,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    code, out, _ = run(capsys, *argv[:2], SLS, *argv[3:])
    assert (proc.returncode, proc.stdout) == (code, out)


def test_unwritable_stdout_exits_2():
    # the reader of stdout has gone before the report is written: that is an
    # output error (exit 2, one line), not a negative verdict (exit 1)
    root = Path(__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for buffering in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "slsnet", "analyze", "all", SLS],
                env=dict(env, PYTHONPATH=path, **buffering),
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_cli_import_leaves_out_heavy_standard_modules():
    # records are built without dataclasses (which pulls in inspect, ast and
    # dis), and datetime is loaded only to stamp a report
    root = Path(__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys; b = set(sys.modules); import slsnet.cli; print(' '.join(sorted(set(sys.modules) - b)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "slsnet.realize" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "datetime"}
