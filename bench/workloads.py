"""The benchmark's workloads: inputs, operations and output checks.

A workload is built in two steps. The constructor draws the inputs from
the seed and keeps the description texts that the timed set-up loads;
it does not import slsnet. ``prepare`` then receives the loaded slsnet
module and descriptions, computes every expected output with the
reference computations and slsnet's brute-force ``kalman_oracle``, and
returns the operations. An operation is a ``(name, run, check)`` triple:
``run()`` is timed, ``check(output)`` is not and returns None or a
description of the mismatch.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import reference

PROPERTIES = ("reachability", "controllability", "observability", "reconstructibility")


class Timeout(Exception):
    """An operation ran past its fixed budget."""

    def __init__(self, budget_s: float):
        super().__init__(f"no result within {budget_s} s")
        self.budget_s = budget_s


@dataclass
class Context:
    src: Path            # slsnet's source root, put on the CLI children's path
    bench: Path          # the benchmark's own directory
    workdir: Path        # scratch directory for the CLI's description files
    tracer: object = None  # spans.Tracer while a traced round runs


def _verdict_problem(prop, got, want):
    if got != want:
        return f"{prop}: (holds, witness, T) = {got}, oracle says {want}"
    return None


def _expected_verdicts(slsnet, sls, net, t_max, alphas=None):
    out = {}
    for prop in PROPERTIES:
        v = slsnet.kalman_oracle(sls, net, t_max=t_max, prop=prop, alphas=alphas)
        out[prop] = (v.holds, v.witness, v.T)
    return out


# ---------------------------------------------------------------------------
# analyze-strict: every logical state checked, in process
# ---------------------------------------------------------------------------

class AnalyzeStrict:
    """A ladder of switched systems decided in strict mode, one per rung."""

    RUNGS = (
        gen.Rung(n=3, N=4, M=2, q=2, m=1, p=1, t_max=3, reach_ok=True, obs_ok=True),
        gen.Rung(n=4, N=4, M=2, q=3, m=2, p=1, t_max=4, reach_ok=True, obs_ok=False),
        gen.Rung(n=3, N=4, M=4, q=2, m=1, p=2, t_max=2, reach_ok=False, obs_ok=True),
        gen.Rung(n=3, N=8, M=2, q=3, m=1, p=1, t_max=2, reach_ok=False, obs_ok=False),
    )

    def __init__(self, seed: int):
        rng = random.Random(f"analyze-strict:{seed}")
        self.systems = []
        for rung in self.RUNGS:
            L, R = gen.network(rng, rung.N, rung.M, rung.q)
            self.systems.append((rung, gen.modes(rng, rung, L, R), L, R))
        self.texts = [
            gen.system_text(triples, L, R, rung.N, rung.M, t_max=rung.t_max)
            for rung, triples, L, R in self.systems
        ]

    def prepare(self, slsnet, descs, ctx: Context):
        ops = []
        for (rung, triples, L, R), desc in zip(self.systems, descs):
            want = _expected_verdicts(slsnet, desc.sls, desc.net, rung.t_max)
            holds, _, horizon = want["reachability"]
            feasible = (
                reference.feasible_sequences(triples, L, R, rung.N, rung.M, range(1, rung.N + 1), horizon)
                if holds else None
            )
            ops.append((rung.label, _decider(slsnet, desc), _decision_checker(want, feasible)))
        return ops


def _decider(slsnet, desc):
    def run():
        ms = slsnet.merge(desc.sls, desc.net)
        dms = slsnet.merge_dual(desc.sls, desc.net)
        verdicts = {
            "reachability": slsnet.check_reachability(ms, desc.t_max, strict=True),
            "controllability": slsnet.check_controllability(ms, desc.t_max, strict=True),
            "observability": slsnet.check_observability(dms, desc.t_max, strict=True),
            "reconstructibility": slsnet.check_reconstructibility(dms, desc.t_max, strict=True),
        }
        reach = verdicts["reachability"]
        feasible = (
            slsnet.feasible_input_sequences(ms, reach.T, strict=True) if reach.holds else None
        )
        return verdicts, feasible
    return run


def _decision_checker(want, feasible):
    def check(output):
        verdicts, got_feasible = output
        for prop in PROPERTIES:
            v = verdicts[prop]
            problem = _verdict_problem(prop, (v.holds, v.witness, v.T), want[prop])
            if problem:
                return problem
        got = None if got_feasible is None else [f.gammas for f in got_feasible]
        if got != feasible:
            return f"feasible sequences {got}, enumeration gives {feasible}"
        return None
    return check


# ---------------------------------------------------------------------------
# analyze-cli: one `slsnet analyze all` process per description file
# ---------------------------------------------------------------------------

CLI_CODE = "import sys\nfrom slsnet.cli import main\nsys.exit(main())"
CLI_TRACED_CODE = "import sys, spans\nsys.exit(spans.child_main())"
CLI_TIMEOUT_S = 120


class AnalyzeCli:
    """Description files, some in float mode, each analysed by its own
    CLI process in default (attractor-cover) mode."""

    FILES = (
        (gen.Rung(n=3, N=4, M=2, q=2, m=1, p=1, t_max=3, reach_ok=True, obs_ok=True), "exact", None),
        (gen.Rung(n=3, N=4, M=2, q=2, m=1, p=1, t_max=3, reach_ok=True, obs_ok=False), "float", 1e-9),
        (gen.Rung(n=4, N=4, M=2, q=3, m=2, p=1, t_max=4, reach_ok=True, obs_ok=False), "exact", None),
        (gen.Rung(n=3, N=4, M=4, q=2, m=1, p=2, t_max=2, reach_ok=False, obs_ok=True), "float", 1e-8),
        (gen.Rung(n=3, N=8, M=2, q=2, m=1, p=1, t_max=3, reach_ok=False, obs_ok=True), "exact", None),
        (gen.Rung(n=3, N=8, M=2, q=3, m=1, p=1, t_max=3, reach_ok=True, obs_ok=False), "float", 1e-10),
    )

    def __init__(self, seed: int):
        rng = random.Random(f"analyze-cli:{seed}")
        self.files = []
        self.texts = []
        for rung, numeric, tolerance in self.FILES:
            L, R = gen.rooted_network(rng, rung.N, rung.M, rung.q)
            triples = gen.modes(rng, rung, L, R)
            # t_max left out where it equals the CLI's default, the state dimension
            t_max = None if rung.t_max == rung.n else rung.t_max
            self.files.append((rung, numeric, triples, L, R))
            self.texts.append(gen.system_text(triples, L, R, rung.N, rung.M, numeric, tolerance, t_max))

    def prepare(self, slsnet, descs, ctx: Context):
        ctx.workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, ((rung, numeric, triples, L, R), desc, text) in enumerate(zip(self.files, descs, self.texts)):
            path = ctx.workdir / f"{i}-{rung.label}-{numeric}.txt"
            path.write_text(text, encoding="utf-8")
            report = slsnet.control_attractors(desc.net)
            cover = [(a.states, a.inputs) for a in report.cover]
            problems = reference.cover_problems(L, rung.N, rung.M, cover, report.basins)
            alphas = report.checked_states()
            # float descriptions are checked against the exact oracle on the
            # same integer matrices
            exact = slsnet.SwitchedLinearSystem(
                [tuple(slsnet.Matrix(m) for m in triple) for triple in triples]
            )
            want = _expected_verdicts(slsnet, exact, desc.net, rung.t_max, alphas)
            holds, _, horizon = want["reachability"]
            feasible = (
                reference.feasible_sequences(triples, L, R, rung.N, rung.M, alphas, horizon)
                if holds else None
            )
            ops.append((
                f"{rung.label}-{numeric}",
                _cli_runner(ctx, path),
                _cli_checker(want, feasible, list(alphas), problems),
            ))
        return ops


def _cli_runner(ctx: Context, path: Path):
    argv = ["analyze", "all", str(path), "--format", "json", "--no-timestamp"]

    def run():
        env = dict(os.environ, PYTHONPATH=str(ctx.src))
        tracer = ctx.tracer
        code = CLI_CODE
        if tracer is not None:
            trace_path = ctx.workdir / "child-trace.json"
            env["PYTHONPATH"] += os.pathsep + str(ctx.bench)
            env["SLSNET_BENCH_TRACE"] = str(trace_path)
            code = CLI_TRACED_CODE
        # CLOCK_MONOTONIC is system-wide, so the child's stamps compare with it
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if tracer is not None and trace_path.exists():
            child = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
            top_level = sum(end - start for _, _, start, end, parent, _ in child["spans"] if parent is None)
            tracer.self_s["cli.startup"] += child["imported"] - launched
            tracer.self_s["cli.main"] += child["finished"] - child["imported"] - top_level
            tracer.merge_child(child, tracer.op_id)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def _cli_checker(want, feasible, alphas, cover_problems):
    all_hold = all(v[0] for v in want.values())

    def check(output):
        code, stdout, stderr = output
        if cover_problems:
            return f"attractor cover: {cover_problems[0]}"
        if code != (0 if all_hold else 1):
            return f"exit code {code}: {stderr.strip()[-200:]}"
        report = json.loads(stdout)
        for prop in PROPERTIES:
            entry = report[prop]
            if entry["checked_alphas"] != alphas:
                return f"{prop}: checked states {entry['checked_alphas']}, cover gives {alphas}"
            witness = tuple(entry["witness"]) if entry["witness"] is not None else None
            problem = _verdict_problem(prop, (entry["holds"], witness, entry["T"]), want[prop])
            if problem:
                return problem
        got = report["reachability"].get("feasible")
        got = None if got is None else [tuple(g) for g in got]
        if got != feasible:
            return f"feasible sequences {got}, enumeration gives {feasible}"
        return None
    return check


# ---------------------------------------------------------------------------
# logic-scale: logical layer only
# ---------------------------------------------------------------------------

# Short enough that the partial enumeration stays below the memory peak of
# the N=16, M=4 cover, so peak_rss_mib does not follow the machine's speed.
ATTRACTOR_BUDGET_S = 0.2


def _budgeted(fn, budget_s):
    """Run ``fn`` under a real-time alarm; raise Timeout when it fires."""
    def on_alarm(signum, frame):
        raise Timeout(budget_s)

    def run():
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return run


class LogicScale:
    """Logic-only networks, N = 16..256, M = 2 or 4."""

    # Attractor networks are the same for every seed: the cycle enumeration
    # behind control_attractors costs 2-4x more on some random networks of
    # one size than on others, and up to 40% more under a mere renumbering
    # of the states, so seeded networks would make every figure unsteady.
    ATTRACTOR_NETS = ((16, 2), (16, 4), (32, 2), (32, 2))
    # control_attractors does not finish on this size: kept under a budget
    # and counted as failed.
    BUDGETED_NET = (32, 4)
    # The other networks are seeded renumberings of fixed random networks:
    # path densities and tracking frontiers, and with them the cost of set
    # reachability and tracking, differ by up to a third between independent
    # random networks of one size.
    SETREACH_NETS = ((16, 4), (32, 2), (64, 2))
    REALIZE_NETS = ((64, 4), (128, 2), (128, 4), (256, 2))
    TRACK_NETS = ((64, 4), (128, 4), (256, 2), (256, 4))
    DEAD_TRACK_NETS = ((64, 2), (128, 2), (256, 2))
    SETREACH_STEPS = 3
    TRACK_LENGTH = 800
    Q = 3

    def __init__(self, seed: int):
        fixed = random.Random("logic-scale:attractors")
        base = random.Random("logic-scale:networks")
        rng = random.Random(f"logic-scale:{seed}")
        q = self.Q

        def seeded_net(N, M):
            return gen.renumbered(rng, *gen.network(base, N, M, q), N, M, q)

        self.nets = []  # (role, N, M, L, R, params)
        for N, M in self.ATTRACTOR_NETS:
            self.nets.append(("attractors", N, M, *gen.network(fixed, N, M, q), None))
        self.nets.append(("attractors-budget", *self.BUDGETED_NET,
                          *gen.network(random.Random("logic-scale:budget"), *self.BUDGETED_NET, q), None))
        for N, M in self.SETREACH_NETS:
            L, R = seeded_net(N, M)
            mn = N * M
            classes = (gen.subset_class(rng, mn, 2, mn // 4), gen.subset_class(rng, mn, 3, mn // 4))
            self.nets.append(("setreach", N, M, L, R, classes))
        for N, M in self.REALIZE_NETS:
            L, R = seeded_net(N, M)
            durations = gen.durations(rng)
            dwell = tuple(rng.randint(1, 4) for _ in range(q))
            self.nets.append(("realize", N, M, L, R, (durations, dwell)))
        for N, M in self.TRACK_NETS:
            L, R = seeded_net(N, M)
            theta0 = rng.randint(1, N)
            ref = gen.simulated_reference(rng, L, R, N, M, theta0, self.TRACK_LENGTH)
            self.nets.append(("track", N, M, L, R, (theta0, ref)))
        for N, M in self.DEAD_TRACK_NETS:
            L, R = seeded_net(N, M)
            ref = None
            while ref is None:
                theta0 = rng.randint(1, N)
                ref = gen.dead_reference(rng, L, R, N, M, q, theta0, self.TRACK_LENGTH)
            self.nets.append(("track", N, M, L, R, (theta0, ref)))
        self.texts = [gen.logic_text(L, R, N, M, q) for _, N, M, L, R, _ in self.nets]

    def prepare(self, slsnet, descs, ctx: Context):
        ops = []
        for i, ((role, N, M, L, R, params), desc) in enumerate(zip(self.nets, descs)):
            net = desc.net
            label = f"N{N}-M{M}"
            if role == "attractors":
                ops.append((f"attractors-{i}-{label}", _call(slsnet, "control_attractors", net),
                            _cover_checker(L, N, M)))
            elif role == "attractors-budget":
                ops.append((f"attractors-{label}",
                            _budgeted(_call(slsnet, "control_attractors", net), ATTRACTOR_BUDGET_S),
                            _cover_checker(L, N, M)))
            elif role == "setreach":
                sources, targets = params
                mn = N * M
                omega0 = slsnet.SubsetClass([slsnet.InputStateSubset(s, mn) for s in sources])
                omegad = slsnet.SubsetClass([slsnet.InputStateSubset(s, mn) for s in targets])
                counts = reference.path_counts(L, N, M, sources, targets, self.SETREACH_STEPS)
                for quantitative in (False, True):
                    kind = "quantitative" if quantitative else "boolean"
                    ops.append((
                        f"setreach-{kind}-{label}",
                        _call(slsnet, "set_reachability_matrix", net, omega0, omegad,
                              self.SETREACH_STEPS, quantitative),
                        _setreach_checker(counts, quantitative),
                    ))
            elif role == "realize":
                durations, dwell = params
                fot_want = reference.signal_failures(L, R, N, M, self.Q, reference.fot_needs(durations))
                dwell_want = reference.signal_failures(L, R, N, M, self.Q, [(True, True)] * self.Q)
                ops.append((f"fot-{label}",
                            _call(slsnet, "check_fot_realizable", net, slsnet.FotSpec(durations)),
                            _realize_checker(fot_want)))
                ops.append((f"dwell-{label}",
                            _call(slsnet, "check_dwell_time_realizable", net, dwell),
                            _realize_checker(dwell_want)))
            else:
                theta0, ref = params
                want = reference.track_frontier(L, R, N, M, theta0, ref)
                kind = "track" if want[0] else "track-dead"
                ops.append((f"{kind}-{label}",
                            _call(slsnet, "check_trackable", net, slsnet.TrackingProblem(theta0, ref)),
                            _track_checker(L, R, N, theta0, ref, want)))
        return ops


def _call(slsnet, name, *args):
    # looked up at call time, so a traced round calls the traced function
    return lambda: getattr(slsnet, name)(*args)


def _cover_checker(L, N, M):
    def check(report):
        cover = [(a.states, a.inputs) for a in report.cover]
        problems = reference.cover_problems(L, N, M, cover, report.basins)
        if not problems and report.checked_states() != tuple(a.states[0] for a in report.cover):
            problems = ["checked states are not the cover representatives"]
        return problems[0] if problems else None
    return check


def _setreach_checker(counts, quantitative):
    def check(matrix):
        if quantitative:
            got = [[int(v) for v in row] for row in matrix.entries]
            want = counts
        else:
            got = [list(row) for row in matrix.bits]
            want = [[1 if c else 0 for c in row] for row in counts]
        return None if got == want else f"matrix {got}, path counts give {want}"
    return check


def _realize_checker(want):
    realizable = all(not esc and not stay for _, esc, stay in want)

    def check(verdict):
        got = [(d.unreachable, d.escape_failures, d.stay_failures) for d in verdict.diagnostics]
        if got != want:
            return f"diagnostics {got}, successor sets give {want}"
        if verdict.realizable != realizable:
            return f"realizable = {verdict.realizable}, successor sets give {realizable}"
        return None
    return check


def _track_checker(L, R, N, theta0, ref, want):
    trackable, failed_at, sizes = want

    def check(verdict):
        if verdict.trackable != trackable:
            return f"trackable = {verdict.trackable}, frontier gives {trackable}"
        if trackable:
            emitted, _ = reference.replay(L, R, N, theta0, verdict.witness)
            if list(emitted) != list(ref):
                return "witness does not replay to the reference"
        elif verdict.failed_at != failed_at:
            return f"failed at {verdict.failed_at}, frontier dies at {failed_at}"
        if list(verdict.frontier_sizes) != sizes:
            return "frontier sizes differ from the reference frontier"
        return None
    return check


WORKLOADS = {
    "analyze-strict": AnalyzeStrict,
    "analyze-cli": AnalyzeCli,
    "logic-scale": LogicScale,
}
