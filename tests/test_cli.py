"""End-to-end command runs against the two fixture files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slsnet import algebra
from slsnet.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SLS = str(FIXTURES / "sls_3x2.txt")
LCN = str(FIXTURES / "lcn_double.txt")


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


def test_analyze_needs_modes(capsys):
    code, out, err = run(capsys, "analyze", "all", LCN)
    assert code == 2
    assert "modes" in err


def test_attractors_golden(capsys):
    code, rep = run_json(capsys, "attractors", SLS)
    assert code == 0
    assert rep["fixed_points"] == [1, 3, 4]
    assert rep["cycles"] == [[2, 4, 3], [1, 4, 3, 2]]
    assert rep["checked_states"] == [4]
    (cover,) = rep["cover"]
    assert cover["states"] == [4]
    assert cover["basin"] == [1, 2, 3, 4]
    assert cover["steering"]["4"] == []


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


def test_exit_code_input_errors(capsys):
    assert run(capsys, "attractors", "no-such-file.txt")[0] == 2
    code, _, err = run(capsys, "track", SLS, "--theta0", "9", "--ref", "1")
    assert code == 2
    assert "9" in err
    assert run(capsys, "realize", "fot", SLS, "--durations", "2")[0] == 2
    assert run(capsys, "realize", "fot", SLS, "--durations", "2,x")[0] == 2


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


def test_float_tolerance_not_inherited(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(algebra, "FLOAT_TOL", algebra.FLOAT_TOL)
    text = Path(LCN).read_text() + "\n[options]\nnumeric = float\n"
    loose = tmp_path / "loose.txt"
    loose.write_text(text + "tolerance = 0.001\n")
    plain = tmp_path / "plain.txt"
    plain.write_text(text)
    assert run(capsys, "attractors", str(loose))[0] == 0
    assert algebra.FLOAT_TOL == 0.001
    assert run(capsys, "attractors", str(plain))[0] == 0
    assert algebra.FLOAT_TOL == 1e-9


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
