"""Seeded benchmark of slsnet, end to end and layer by layer.

    python3 bench/run.py --workload analyze-strict --seed 1 --seconds 30 --trace 0

Run from the repository root; slsnet is imported from ``src``. One run
draws the workload's inputs from the seed, sets up (imports slsnet and
loads the description texts) several times, checks the reference
computations against the worked example, computes the expected outputs,
then runs whole rounds of the workload's operations for about
``--seconds`` seconds, one process, strictly sequential. Every output is
checked; a mismatch or error counts the operation as failed. Times are
reported in seconds at a reference machine speed (see ``speed.py``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the first round runs
untraced, the rest traced, and the object carries the per-layer metrics.
Each run also writes ``bench/results/BENCH_<workload>_seed<seed>_trace<t>.json``
with the per-operation times, and a traced run writes its spans to
``bench/results/TRACE_<workload>_seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUPS = 15

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_max_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# (metric, tracer table, key); times are per traced round
LAYER_METRICS = (
    ("sls.merge_s", "self_s", "sls.merge"),
    ("sls.merge_dual_s", "self_s", "sls.merge_dual"),
    ("analysis.check_reachability_s", "self_s", "analysis.check_reachability"),
    ("analysis.check_controllability_s", "self_s", "analysis.check_controllability"),
    ("analysis.check_observability_s", "self_s", "analysis.check_observability"),
    ("analysis.check_reconstructibility_s", "self_s", "analysis.check_reconstructibility"),
    ("analysis.feasible_input_sequences_s", "self_s", "analysis.feasible_input_sequences"),
    ("analysis.reachable_set_s", "self_s", "analysis.reachable_set"),
    ("analysis.reachable_set.calls", "calls", "analysis.reachable_set"),
    ("analysis.dual_reachable_set_s", "self_s", "analysis.dual_reachable_set"),
    ("analysis.dual_reachable_set.calls", "calls", "analysis.dual_reachable_set"),
    ("algebra.column_space_s", "self_s", "algebra.column_space"),
    ("algebra.column_space.calls", "calls", "algebra.column_space"),
    ("algebra.rank_s", "self_s", "algebra.rank"),
    ("algebra.rank.calls", "calls", "algebra.rank"),
    ("algebra.subspace_sum_s", "self_s", "algebra.subspace_sum"),
    ("algebra.subspace_contains_s", "self_s", "algebra.subspace_contains"),
    ("algebra.matmul_s", "self_s", "algebra.matmul"),
    ("algebra.matmul.calls", "calls", "algebra.matmul"),
    ("algebra.kronecker_s", "self_s", "algebra.kronecker"),
    ("algebra.stp_s", "self_s", "algebra.stp"),
    ("algebra.boolean_product_s", "self_s", "algebra.boolean_product"),
    ("algebra.boolean_product.calls", "calls", "algebra.boolean_product"),
    ("lcn.control_attractors_s", "self_s", "lcn.control_attractors"),
    ("lcn.cycles_listed", "counts", "lcn.cycles_listed"),
    ("lcn.set_reachability_matrix.boolean_s", "self_s", "lcn.set_reachability_matrix.boolean"),
    ("lcn.set_reachability_matrix.quantitative_s", "self_s", "lcn.set_reachability_matrix.quantitative"),
    ("realize.check_fot_realizable_s", "self_s", "realize.check_fot_realizable"),
    ("realize.check_dwell_time_realizable_s", "self_s", "realize.check_dwell_time_realizable"),
    ("realize.check_trackable_s", "self_s", "realize.check_trackable"),
    ("cli.startup_s", "self_s", "cli.startup"),
    ("cli.main_s", "self_s", "cli.main"),
)


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count"


def _purge_slsnet() -> None:
    for name in [k for k in sys.modules if k == "slsnet" or k.startswith("slsnet.")]:
        del sys.modules[name]


def set_up(texts):
    """Import slsnet afresh and load every description text.

    Returns (module, descriptions, total seconds, seconds in loads)."""
    _purge_slsnet()
    started = time.perf_counter()
    slsnet = importlib.import_module("slsnet")
    imported = time.perf_counter()
    descs = [slsnet.loads(text) for text in texts]
    done = time.perf_counter()
    return slsnet, descs, done - started, done - imported


def self_check(slsnet, gen, reference) -> None:
    text = gen.system_text(reference.WORKED_MODES, reference.WORKED_L, reference.WORKED_R, 4, 2)
    desc = slsnet.loads(text)
    reference.self_check(slsnet.kalman_oracle, desc.sls, desc.net)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_round(ops, index, tracer, gauge, records, timeouts, timeout_cls):
    """Run every operation once; returns the summed scaled operation time."""
    total = 0.0
    for name, run, check in ops:
        status, problem = "ok", None
        if tracer is not None:
            tracer.op_id = f"{index}:{name}"
            timed = lambda: tracer.run(f"op.{name}", run)  # noqa: E731
        else:
            timed = run
        # garbage left by the previous operation is collected outside the timing
        gc.collect()
        with gauge.measuring():
            started = time.perf_counter()
            try:
                output = timed()
            except timeout_cls as exc:
                status = "timeout"
                timeouts.append({"round": index, "op": name, "budget_s": exc.budget_s})
            except Exception as exc:  # an operation's failure is recorded, the run goes on
                status, problem = "error", f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
        elapsed -= gauge.spent
        factor = gauge.factor()
        if status == "ok":
            try:
                problem = check(output)
            except Exception as exc:  # malformed output, e.g. a CLI report that is not JSON
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                status = "mismatch"
        total += elapsed * factor
        records.append({"round": index, "op": name, "seconds": elapsed,
                        "scaled_s": elapsed * factor, "factor": factor, "status": status,
                        **({"problem": problem} if problem else {})})
    return total


def end_to_end(records, setups, workload):
    times = {}
    for r in records:
        times.setdefault(r["op"], []).append((r["scaled_s"], r["status"] == "ok"))
    # each operation's median over the rounds, so a slow or fast spell in one
    # round moves neither the round time nor an order statistic
    medians = {op: statistics.median(t for t, _ in runs) for op, runs in times.items()}
    ok_medians = [medians[op] for op, runs in times.items() if all(ok for _, ok in runs)]
    usage = resource.RUSAGE_CHILDREN if workload == "analyze-cli" else resource.RUSAGE_SELF
    values = {
        "wall_s": sum(medians.values()),
        "op_p50_s": statistics.median(ok_medians),
        "op_max_s": max(ok_medians),
        "setup_s": statistics.median(total for total, _ in setups),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, traced_walls, untraced_wall, setups, oracle_s, factor):
    """Layer times per traced round, scaled by the traced rounds' median factor."""
    tables = {"self_s": tracer.self_s, "calls": tracer.calls, "counts": tracer.counts}
    out = {}
    for metric, table, key in LAYER_METRICS:
        value = tables[table].get(key, 0) / len(traced_walls)
        if table == "self_s":
            value *= factor
        out[metric] = {"value": value, "unit": _units(metric)}
    out["realize.frontier_peak"] = {"value": tracer.peaks.get("realize.frontier_peak", 0), "unit": "count"}
    out["fileio.loads_s"] = {"value": statistics.median(loads for _, loads in setups), "unit": "s"}
    out["oracle.kalman_oracle_s"] = {"value": oracle_s, "unit": "s"}
    traced_wall = statistics.median(traced_walls)
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slsnet" / "__init__.py").is_file():
        print(f"error: slsnet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen
    import reference
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    gauge = speed.SpeedGauge()
    setups = []  # (total, seconds in loads), scaled, per set-up
    for _ in range(SETUPS):
        slsnet, descs, total_s, loads_s = set_up(workload.texts)
        factor = gauge.factor()
        setups.append((total_s * factor, loads_s * factor))
    self_check(slsnet, gen, reference)

    ctx = workloads.Context(src=SRC, bench=HERE, workdir=RESULTS / f"work-{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None
    records, timeouts = [], []
    traced_walls, untraced_wall, oracle_s = [], None, None
    try:
        if tracer is not None:
            tracer.install()
        ops = workload.prepare(slsnet, descs, ctx)
        if tracer is not None:
            oracle_s = gauge.factor() * sum(end - start for _, name, start, end, _, _ in tracer.spans
                                            if name == "oracle.kalman_oracle")
            tracer.uninstall()
            tracer.reset()

        started = time.perf_counter()
        index = 0
        while True:
            tracing = tracer is not None and index > 0
            if tracing and index == 1:
                tracer.install()
                ctx.tracer = tracer
            round_started = time.perf_counter()
            wall = run_round(ops, index, tracer if tracing else None, gauge, records, timeouts,
                             workloads.Timeout)
            round_elapsed = time.perf_counter() - round_started
            if tracing:
                traced_walls.append(wall)
            elif tracer is not None:
                untraced_wall = wall
            index += 1
            finished = time.perf_counter() - started
            if finished + round_elapsed > args.seconds and (tracer is None or traced_walls):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(records, setups, args.workload)
    else:
        factor = statistics.median(r["factor"] for r in records if r["round"] > 0)
        metrics = per_layer(tracer, traced_walls, untraced_wall, setups, oracle_s, factor)
    failed = sum(1 for r in records if r["status"] != "ok")
    correct = all(r["status"] in ("ok", "timeout") for r in records)

    RESULTS.mkdir(exist_ok=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "setups_scaled_s": [total for total, _ in setups],
        "probe_ref_s": speed.PROBE_REF_S,
        "rounds": index,
        "attempted": len(records),
        "failed": failed,
        "timeouts": timeouts,
        "correct": correct,
        "metrics": metrics,
        "operations": records,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"TRACE_{args.workload}_seed{args.seed}.jsonl")

    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
