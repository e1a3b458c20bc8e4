"""Command-line front end.

Every command reads a system-description file, runs one analysis and
prints a report, either as indented text or as JSON. Exit codes: 0 when
the queried property holds (or the command is informational), 1 for a
definitive negative verdict, 2 for input errors or an unwritable report,
3 when an enumeration budget or size cap is exceeded or a quantitative
path count is too long to print.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .algebra import BooleanMatrix, DimensionError, SizingError
from .analysis import (
    PROPERTIES,
    check_controllability,
    check_observability,
    check_reachability,
    check_reconstructibility,
    feasible_input_sequences,
)
from .fileio import ParseError, content_digest, loads
from .lcn import (
    InputStateSubset,
    SubsetClass,
    control_attractors,
    decode_pair,
    dot_graph,
    set_reachability_matrix,
    set_reachability_verdicts,
)
from .oracle import (
    BudgetExceededError,
    count_paths,
    enumerate_switching_sequences,
    kalman_rank,
    obsv_rank,
)
from .realize import (
    INFINITY,
    FotSpec,
    TrackingProblem,
    check_dwell_time_realizable,
    check_fot_realizable,
    check_trackable,
)
from .sls import merge, merge_dual


def _tokens(text: str, what: str) -> list[str]:
    """The values of a comma- or space-separated list; an empty field beside
    a value (1,,2 or 1, or ,1) is refused, while a list of only empty
    fields is the empty list."""
    fields = [field.split() for field in text.split(",")]
    if any(fields) and not all(fields):
        raise ValueError(f"{what} has an empty field, got {text!r}")
    return [tok for field in fields for tok in field]


def _int_list(text: str, what: str) -> list[int]:
    tokens = _tokens(text, what)
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _duration_list(text: str, what: str) -> list:
    out = []
    for tok in _tokens(text, what):
        if tok.lower() in ("inf", "infinity"):
            out.append(INFINITY)
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(f"duration {tok!r} is not an integer or 'inf'")
    return out


def _subset_class(text: str, mn: int, what: str) -> SubsetClass:
    subsets = []
    for chunk in text.split(";"):
        subsets.append(InputStateSubset(_int_list(chunk, what), mn))
    return SubsetClass(subsets)


def _pair_label(pair: int, n_states: int) -> str:
    gamma, theta = decode_pair(pair, n_states)
    return f"pair {pair} (input {gamma}, state {theta})"


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _render_text(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, dict) or _is_nested_list(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalarize(val)}")
    elif _is_nested_list(value):
        for item in value:
            if isinstance(item, dict) or _is_nested_list(item):
                head = _render_text(item, indent + 1)
                lines.append(f"{pad}- {head[0].strip()}")
                lines.extend(head[1:])
            else:
                lines.append(f"{pad}- {_scalarize(item)}")
    return lines


def _is_nested_list(value) -> bool:
    return isinstance(value, (list, tuple)) and any(
        isinstance(v, (dict, list, tuple)) for v in value
    )


def _scalarize(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        if not value:
            return "none"
        parts = [_scalarize(v) for v in value]
        return ", ".join(parts) if any(" " in p for p in parts) else " ".join(parts)
    return str(value)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(report, indent=2, default=str), flush=True)
    else:
        print("\n".join(_render_text(report)), flush=True)


# ---------------------------------------------------------------------------
# Command handlers (each returns an exit code and fills the report)
# ---------------------------------------------------------------------------

def _verdict_dict(v) -> dict:
    return {
        "holds": v.holds,
        "T": v.T,
        "witness": list(v.witness) if v.witness is not None else None,
        "checked_alphas": list(v.checked_alphas),
        "per_alpha": {
            str(a): {"rank": d.span_rank, "holds": d.holds}
            for a, d in sorted(v.per_alpha.items())
        },
    }


def _cmd_analyze(args, desc, report) -> int:
    if desc.sls is None:
        raise ValueError("analysis needs a [modes] section")
    t_max = args.t_max if args.t_max is not None else desc.t_max
    alphas = _int_list(args.alphas, "--alphas") if args.alphas is not None else None
    wanted = PROPERTIES if args.property == "all" else (args.property,)
    ms = merge(desc.sls, desc.net) if ("reachability" in wanted or "controllability" in wanted) else None
    dms = (
        merge_dual(desc.sls, desc.net)
        if ("observability" in wanted or "reconstructibility" in wanted)
        else None
    )
    checks = {
        "reachability": (check_reachability, ms),
        "controllability": (check_controllability, ms),
        "observability": (check_observability, dms),
        "reconstructibility": (check_reconstructibility, dms),
    }
    for prop in wanted:
        check, merged = checks[prop]
        verdict = check(merged, t_max, args.strict, alphas)
        entry = _verdict_dict(verdict)
        if prop == "reachability" and verdict.holds:
            found = feasible_input_sequences(ms, verdict.T, args.strict, alphas)
            entry["feasible"] = [list(f.gammas) for f in found]
        report[prop] = entry
    return 0 if all(report[prop]["holds"] for prop in wanted) else 1


def _cmd_attractors(args, desc, report) -> int:
    found = control_attractors(desc.net)
    report["fixed_points"] = [a.states[0] for a in found.fixed_points]
    report["cycles"] = [list(a.states) for a in found.cycles]
    report["cover"] = [
        {
            "states": list(a.states),
            "kind": "cycle" if a.is_cycle else "fixed point",
            "basin": sorted(found.basins[a.states]),
            "steering": {
                str(state): list(gammas)
                for state, gammas in sorted(found.basins[a.states].items())
            },
        }
        for a in found.cover
    ]
    report["checked_states"] = list(found.checked_states())
    return 0


def _cmd_setreach(args, desc, report) -> int:
    mn = desc.net.M * desc.net.N
    omega0 = _subset_class(args.omega0, mn, "--omega0")
    omegad = _subset_class(args.omegad, mn, "--omegad")
    matrix = set_reachability_matrix(desc.net, omega0, omegad, args.ell, args.quantitative)
    rows = [list(row) for row in (matrix.entries if args.quantitative else matrix.bits)]
    # a Python without the limit (before 3.10.7) prints any integer
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if args.quantitative and limit and max(map(max, rows)) >= 10**limit:
        raise SizingError(f"a path count has more than {limit} digits, the most this interpreter prints")
    verdicts = set_reachability_verdicts(BooleanMatrix([[1 if v else 0 for v in row] for row in rows]))
    report["steps"] = args.ell
    report["matrix"] = rows
    report["fully_reachable"] = verdicts.fully_reachable
    report["source_reaches_all"] = list(verdicts.source_reaches_all)
    report["target_reached_by_all"] = list(verdicts.target_reached_by_all)
    return 0 if verdicts.fully_reachable else 1


def _diagnostics_dict(verdict, n_states) -> list[dict]:
    out = []
    for d in verdict.diagnostics:
        out.append(
            {
                "signal": d.sigma,
                "requirement": "inf" if d.requirement == INFINITY else d.requirement,
                "ok": d.ok,
                "unreachable": d.unreachable,
                "escape_failures": [_pair_label(x, n_states) for x in d.escape_failures],
                "stay_failures": [_pair_label(x, n_states) for x in d.stay_failures],
            }
        )
    return out


def _cmd_realize(args, desc, report) -> int:
    if args.constraint == "fot":
        verdict = check_fot_realizable(desc.net, FotSpec(_duration_list(args.durations, "--durations")))
    else:
        verdict = check_dwell_time_realizable(desc.net, _int_list(args.min, "--min"))
    report["realizable"] = verdict.realizable
    report["signals"] = _diagnostics_dict(verdict, desc.net.N)
    if verdict.warnings:
        report["warnings"] = list(verdict.warnings)
    return 0 if verdict.realizable else 1


def _cmd_track(args, desc, report) -> int:
    problem = TrackingProblem(args.theta0, _int_list(args.ref, "--ref"))
    verdict = check_trackable(desc.net, problem)
    report["trackable"] = verdict.trackable
    report["reference"] = list(problem.reference)
    report["witness"] = list(verdict.witness) if verdict.witness is not None else None
    report["failed_at"] = verdict.failed_at
    report["frontier_sizes"] = list(verdict.frontier_sizes)
    return 0 if verdict.trackable else 1


def _cmd_graph(args, desc, report) -> int:
    dot = dot_graph(desc.net)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        report["written"] = args.out
        return 0
    print(dot, end="", flush=True)
    return 0


def _cmd_oracle(args, desc, report) -> int:
    if args.oracle_command == "ranks":
        sigmas = _int_list(args.sigmas, "--sigmas")
        if desc.sls is None:
            raise ValueError("oracle ranks needs a [modes] section")
        report["sigmas"] = sigmas
        report["n"] = desc.sls.n
        report["kalman_rank"] = kalman_rank(sigmas, desc.sls)
        report["observability_rank"] = obsv_rank(sigmas, desc.sls)
    elif args.oracle_command == "enumerate":
        runs = enumerate_switching_sequences(desc.net, args.alpha, args.horizon)
        report["alpha"] = args.alpha
        report["horizon"] = args.horizon
        report["sequences"] = [
            {"gammas": list(g), "sigmas": list(s)} for g, s in runs
        ]
    else:
        source = _int_list(args.source, "--from")
        target = _int_list(args.target, "--to")
        report["paths"] = count_paths(desc.net, source, target, args.ell)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamp and timing from the report")

    parser = argparse.ArgumentParser(
        prog="slsnet",
        description="Analysis of switched linear systems driven by logical control networks.",
    )
    parser.add_argument("--version", action="version", version=f"slsnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", parents=[common],
                             help="property checks over logical input sequences")
    analyze.add_argument("property", choices=PROPERTIES + ("all",))
    analyze.add_argument("file", help="system description file")
    analyze.add_argument("--t-max", type=int, help="search horizon (default: state dimension)")
    checked = analyze.add_mutually_exclusive_group()
    checked.add_argument("--strict", action="store_true",
                         help="check every initial logical state, not the attractor cover")
    checked.add_argument("--alphas", help="explicit initial logical states, e.g. 1,2,4")

    attractors = sub.add_parser("attractors", parents=[common],
                                help="control attractors, basins and the checked-state cover")
    attractors.add_argument("file", help="system description file")

    setreach = sub.add_parser("setreach", parents=[common],
                              help="input-state subset reachability in exactly l steps")
    setreach.add_argument("file", help="system description file")
    setreach.add_argument("--l", dest="ell", type=int, required=True)
    setreach.add_argument("--omega0", required=True,
                          help="source subsets: members comma-separated, subsets ';'-separated")
    setreach.add_argument("--omegad", required=True, help="target subsets, same syntax")
    setreach.add_argument("--quantitative", action="store_true", help="count paths instead")

    realize = sub.add_parser("realize", help="switching-signal constraint realizability")
    realize_sub = realize.add_subparsers(dest="constraint", required=True)
    fot = realize_sub.add_parser("fot", parents=[common], help="fixed operating times")
    fot.add_argument("file", help="system description file")
    fot.add_argument("--durations", required=True, help="per-signal durations, e.g. 2,2 or 1,inf")
    dwell = realize_sub.add_parser("dwell", parents=[common], help="minimum dwell times")
    dwell.add_argument("file", help="system description file")
    dwell.add_argument("--min", required=True, help="per-signal minimum dwell, e.g. 1,3")

    track = sub.add_parser("track", parents=[common],
                           help="track a finite reference signal sequence")
    track.add_argument("file", help="system description file")
    track.add_argument("--theta0", type=int, required=True)
    track.add_argument("--ref", required=True, help="reference signals, e.g. 1,2,2")

    graph = sub.add_parser("graph", parents=[common], help="input-state transition graph as DOT")
    graph.add_argument("file", help="system description file")
    graph.add_argument("--out", help="write to a file instead of stdout")

    oracle = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    ranks = oracle_sub.add_parser("ranks", parents=[common],
                                  help="stacked-matrix ranks for a mode sequence")
    ranks.add_argument("file", help="system description file")
    ranks.add_argument("--sigmas", required=True)
    enum = oracle_sub.add_parser("enumerate", parents=[common],
                                 help="all input sequences and induced signals")
    enum.add_argument("file", help="system description file")
    enum.add_argument("--alpha", type=int, required=True)
    enum.add_argument("--horizon", type=int, required=True)
    paths = oracle_sub.add_parser("paths", parents=[common],
                                  help="count fixed-length input-state paths")
    paths.add_argument("file", help="system description file")
    paths.add_argument("--from", dest="source", required=True)
    paths.add_argument("--to", dest="target", required=True)
    paths.add_argument("--l", dest="ell", type=int, required=True)
    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "attractors": _cmd_attractors,
    "setreach": _cmd_setreach,
    "realize": _cmd_realize,
    "track": _cmd_track,
    "graph": _cmd_graph,
    "oracle": _cmd_oracle,
}


def _describe(args) -> str:
    extra = getattr(args, "property", None) or getattr(args, "constraint", None) \
        or getattr(args, "oracle_command", None)
    return f"{args.command} {extra}" if extra else args.command


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        desc = loads(text)
        report = {
            "tool": f"slsnet {__version__}",
            "command": _describe(args),
            "input": content_digest(text),
        }
        code = _HANDLERS[args.command](args, desc, report)
        if args.command != "graph" or args.out:
            if not args.no_timestamp:
                from datetime import datetime, timezone  # only a stamped report needs it

                report["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
                report["elapsed_ms"] = round((time.perf_counter() - started) * 1000)
            _emit(report, args)
    except (BudgetExceededError, SizingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:
        # stdout's reader is gone: drop the buffered rest, or the exit-time flush fails too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ParseError, DimensionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
