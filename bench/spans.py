"""Span tracing of slsnet's layers from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS``
(and ``Matrix.__matmul__``) with a timing wrapper, in every loaded
slsnet module that holds the original object under any name, so calls
through ``from .algebra import rank as matrix_rank`` are caught too.
``uninstall`` puts the originals back.

Each call becomes a span (id, name, start, end, parent id, operation
id), kept in memory. Self time is the span's duration minus the time of
the spans it directly encloses, so the layer times add up to the time
spent inside slsnet. Counts come from the call count and, for
``control_attractors`` and ``check_trackable``, from the returned value.

``child_main`` is the entry point of a traced ``slsnet.cli`` child
process: it installs a tracer, runs ``slsnet.cli.main`` and writes the
timings and spans to the file named by ``SLSNET_BENCH_TRACE``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (layer name, module, attribute); "Matrix.__matmul__" is patched on the class.
TARGETS = (
    ("sls.merge", "slsnet.sls", "merge"),
    ("sls.merge_dual", "slsnet.sls", "merge_dual"),
    ("analysis.check_reachability", "slsnet.analysis", "check_reachability"),
    ("analysis.check_controllability", "slsnet.analysis", "check_controllability"),
    ("analysis.check_observability", "slsnet.analysis", "check_observability"),
    ("analysis.check_reconstructibility", "slsnet.analysis", "check_reconstructibility"),
    ("analysis.feasible_input_sequences", "slsnet.analysis", "feasible_input_sequences"),
    ("analysis.reachable_set", "slsnet.analysis", "reachable_set"),
    ("analysis.dual_reachable_set", "slsnet.analysis", "dual_reachable_set"),
    ("oracle.kalman_oracle", "slsnet.analysis", "kalman_oracle"),
    ("algebra.column_space", "slsnet.algebra", "column_space"),
    ("algebra.rank", "slsnet.algebra", "rank"),
    ("algebra.subspace_sum", "slsnet.algebra", "subspace_sum"),
    ("algebra.subspace_contains", "slsnet.algebra", "subspace_contains"),
    ("algebra.matmul", "slsnet.algebra", "Matrix.__matmul__"),
    ("algebra.kronecker", "slsnet.algebra", "kronecker"),
    ("algebra.stp", "slsnet.algebra", "stp"),
    ("algebra.boolean_product", "slsnet.algebra", "boolean_product"),
    ("lcn.control_attractors", "slsnet.lcn", "control_attractors"),
    ("lcn.set_reachability_matrix", "slsnet.lcn", "set_reachability_matrix"),
    ("realize.check_fot_realizable", "slsnet.realize", "check_fot_realizable"),
    ("realize.check_dwell_time_realizable", "slsnet.realize", "check_dwell_time_realizable"),
    ("realize.check_trackable", "slsnet.realize", "check_trackable"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[list] = []  # [span id, time of enclosed spans]
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self) -> None:
        """Drop the recorded spans and totals (the patches stay)."""
        self.spans.clear()
        for table in (self.self_s, self.calls, self.counts, self.peaks):
            table.clear()

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        clock = time.perf_counter
        start = clock()
        try:
            span_id = self._next_id
            self._next_id += 1
            self._stack.append([span_id, 0.0])
            return fn(*args, **kwargs)
        finally:
            end = clock()
            _, enclosed = self._stack.pop()
            duration = end - start
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += duration
            self.self_s[name] += duration - enclosed
            self.calls[name] += 1
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self.op_id)
            )

    def _wrapper(self, name, fn):
        run = self.run
        if name == "lcn.set_reachability_matrix":
            def wrapper(*args, **kwargs):
                quantitative = kwargs.get("quantitative", args[4] if len(args) > 4 else False)
                kind = "quantitative" if quantitative else "boolean"
                return run(f"{name}.{kind}", fn, *args, **kwargs)
        elif name == "lcn.control_attractors":
            def wrapper(*args, **kwargs):
                report = run(name, fn, *args, **kwargs)
                self.counts["lcn.cycles_listed"] += len(report.cycles)
                return report
        elif name == "realize.check_trackable":
            def wrapper(*args, **kwargs):
                verdict = run(name, fn, *args, **kwargs)
                peak = max(verdict.frontier_sizes)
                self.peaks["realize.frontier_peak"] = max(self.peaks["realize.frontier_peak"], peak)
                return verdict
        else:
            def wrapper(*args, **kwargs):
                return run(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "slsnet" or k.startswith("slsnet.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if attr == "Matrix.__matmul__":
                original = module.Matrix.__matmul__
                module.Matrix.__matmul__ = self._wrapper(name, original)
                self._patches.append((module.Matrix, "__matmul__", original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def merge_child(self, report: dict, op_id) -> None:
        """Add a traced child process's totals and spans to this tracer."""
        for name, value in report["self_s"].items():
            self.self_s[name] += value
        for name, value in report["calls"].items():
            self.calls[name] += value
        for name, value in report["counts"].items():
            self.counts[name] += value
        for name, value in report["peaks"].items():
            self.peaks[name] = max(self.peaks[name], value)
        base = self._next_id
        self._next_id += len(report["spans"])
        parent = self._stack[-1][0] if self._stack else None
        for span_id, name, start, end, span_parent, _ in report["spans"]:
            self.spans.append((
                base + span_id, name, start, end,
                parent if span_parent is None else base + span_parent, op_id,
            ))

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, op."""
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def child_main() -> int:
    """Run ``slsnet.cli.main`` traced; record when import and main ended."""
    from slsnet.cli import main

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    code = main()
    finished = time.monotonic()
    sys.stdout.flush()
    with open(os.environ["SLSNET_BENCH_TRACE"], "w", encoding="utf-8") as fh:
        json.dump({
            "imported": imported,
            "finished": finished,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "peaks": tracer.peaks,
            "spans": tracer.spans,
        }, fh)
    return code
