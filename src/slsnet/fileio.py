"""System-description files.

Line-oriented text format with three named sections. Comments start
with '#', blank lines are ignored, every other line is either a
"[section]" header or a "key = value" assignment.

    [modes]               optional; omit for a logic-only description
    n = 3                 linear state dimension
    inputs = 1            columns of each B
    outputs = 1           rows of each C
    count = 2             number of modes
    A1 = 1 2 -1 ; 0 1 0 ; 1 -4 3      rows separated by ';'
    B1 = 1 ; 0 ; 0
    C1 = 0 0 1
    ...A2/B2/C2...

    [logic]               required
    k = 2                 value domain of the logical nodes
    state_nodes = 2
    input_nodes = 1
    L = 1 1 2 4 4 4 3 3   transition map as column indices, or
    node1 = ...           per-node truth tables (with `signal = ...`)
    q = 2                 signal range (defaults to 1)
    R = 2 2 1 1 1 2 2 1   signal map as column indices

    [options]             optional
    numeric = exact       exact | float
    tolerance = 1e-9      float mode zero/pivot tolerance (default 1e-9);
                          refused unless numeric = float
    t_max = 3             property search horizon

Entries are integers or rationals "p/q"; decimals are accepted only
when numeric = float, so exact descriptions stay exact through a
save/load round trip.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .algebra import EXACT, FLOAT, LogicalMatrix, Matrix, Numeric
from .lcn import LogicalNetwork, build_from_functions
from .sls import SwitchedLinearSystem


class ParseError(ValueError):
    """Malformed description file; message carries the 1-based line."""


@dataclass(frozen=True)
class SystemDescription:
    net: LogicalNetwork
    sls: SwitchedLinearSystem | None = None
    numeric: str = "exact"
    tolerance: float | None = None
    t_max: int | None = None

    def __post_init__(self):
        if self.tolerance is not None and self.numeric != "float":
            raise ValueError("tolerance needs numeric = float (exact arithmetic has none)")


def _fail(lineno: int | None, message: str):
    where = f"line {lineno}: " if lineno else ""
    raise ParseError(f"{where}{message}")


def _scan(text: str):
    """Yield (lineno, section, key, value) assignments."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("modes", "logic", "options"):
                _fail(lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            _fail(lineno, f"expected 'key = value', got {line!r}")
        if section is None:
            _fail(lineno, "assignment before any [section] header")
        key, value = line.split("=", 1)
        yield lineno, section, key.strip().lower(), value.strip()


def _parse_scalar(token: str, context: Numeric, lineno: int):
    try:
        if "/" in token:
            return Fraction(token)
        if context.tol is not None:
            as_float = float(token)
            return int(as_float) if as_float.is_integer() else as_float
        return int(token)
    except (ValueError, ZeroDivisionError):
        if context.tol is None:
            _fail(lineno, f"{token!r} is not an integer or rational (decimals need numeric = float)")
        _fail(lineno, f"{token!r} is not a number")


def _parse_matrix(value: str, context: Numeric, lineno: int) -> Matrix:
    rows = [chunk.split() for chunk in value.split(";")]
    if any(not r for r in rows):
        _fail(lineno, "empty matrix row")
    if len({len(r) for r in rows}) != 1:
        _fail(lineno, "matrix rows have unequal lengths")
    return Matrix(
        [[_parse_scalar(tok, context, lineno) for tok in row] for row in rows],
        context,
    )


def _parse_int_list(value: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in value.split()]
    except ValueError:
        _fail(lineno, f"expected a list of integers, got {value!r}")


def _parse_int(value: str, key: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        _fail(lineno, f"{key} must be an integer, got {value!r}")


def loads(text: str) -> SystemDescription:
    assignments = list(_scan(text))

    # options first: the numeric mode decides how matrix entries parse
    numeric, tolerance, t_max = "exact", None, None
    tolerance_line = None
    for lineno, section, key, value in assignments:
        if section != "options":
            continue
        if key == "numeric":
            if value not in ("exact", "float"):
                _fail(lineno, f"numeric must be 'exact' or 'float', got {value!r}")
            numeric = value
        elif key == "tolerance":
            try:
                tolerance = float(value)
            except ValueError:
                _fail(lineno, f"tolerance must be a number, got {value!r}")
            if not 0 < tolerance < float("inf"):
                _fail(lineno, f"tolerance must be finite and positive, got {value!r}")
            tolerance_line = lineno
        elif key == "t_max":
            t_max = _parse_int(value, "t_max", lineno)
            if t_max < 1:
                _fail(lineno, "t_max must be >= 1")
        else:
            _fail(lineno, f"unknown option {key!r}")
    if tolerance_line is not None and numeric != "float":
        _fail(tolerance_line, "tolerance needs numeric = float (exact arithmetic has none)")

    logic: dict[str, tuple[int, str]] = {}
    modes: dict[str, tuple[int, str]] = {}
    for lineno, section, key, value in assignments:
        if section == "options":
            continue
        bucket = logic if section == "logic" else modes
        if key in bucket:
            _fail(lineno, f"duplicate key {key!r} in [{section}]")
        bucket[key] = (lineno, value)

    # every parsed matrix carries this context, and so does all arithmetic on them
    context = Numeric(tolerance or FLOAT.tol) if numeric == "float" else EXACT
    net = _build_net(logic)
    sls = _build_sls(modes, context, net) if modes else None
    return SystemDescription(net, sls, numeric, tolerance, t_max)


def _logic_int(logic, key, required=True, default=None):
    if key not in logic:
        if required:
            _fail(None, f"[logic] is missing {key!r}")
        return default
    lineno, value = logic[key]
    return _parse_int(value, key, lineno)


def _build_net(logic) -> LogicalNetwork:
    if not logic:
        _fail(None, "description has no [logic] section")
    k = _logic_int(logic, "k")
    n_nodes = _logic_int(logic, "state_nodes")
    m_nodes = _logic_int(logic, "input_nodes")
    q = _logic_int(logic, "q", required=False, default=1)
    n_states = k**n_nodes
    width = n_states * k**m_nodes

    node_keys = sorted(key for key in logic if key.startswith("node"))
    if "l" in logic and node_keys:
        _fail(logic["l"][0], "give either L or per-node truth tables, not both")

    if node_keys:
        expected = [f"node{i}" for i in range(1, n_nodes + 1)]
        if node_keys != expected:
            _fail(None, f"need truth tables {expected}, got {node_keys}")
        tables = []
        for key in expected:
            lineno, value = logic[key]
            table = _parse_int_list(value, lineno)
            if len(table) != width:
                _fail(lineno, f"{key} has {len(table)} entries, expected {width}")
            tables.append(table)
        signal = None
        if "signal" in logic:
            lineno, value = logic["signal"]
            signal = _parse_int_list(value, lineno)
            if len(signal) != width:
                _fail(lineno, f"signal has {len(signal)} entries, expected {width}")
            for c in signal:
                if not 1 <= c <= q:
                    _fail(lineno, f"signal contains {c}, outside 1..{q}")
        elif q != 1:
            _fail(None, f"q = {q} but no signal table given")
        try:
            return build_from_functions(k, n_nodes, m_nodes, tables, signal, q=q)
        except ValueError as exc:
            _fail(None, str(exc))

    if "l" not in logic:
        _fail(None, "[logic] needs either L or per-node truth tables")
    lineno, value = logic["l"]
    l_cols = _parse_int_list(value, lineno)
    if len(l_cols) != width:
        _fail(lineno, f"L has {len(l_cols)} columns, expected {width}")
    for c in l_cols:
        if not 1 <= c <= n_states:
            _fail(lineno, f"L contains {c}, outside 1..{n_states}")

    if "r" in logic:
        r_lineno, r_value = logic["r"]
        r_cols = _parse_int_list(r_value, r_lineno)
        if len(r_cols) != width:
            _fail(r_lineno, f"R has {len(r_cols)} columns, expected {width}")
        for c in r_cols:
            if not 1 <= c <= q:
                _fail(r_lineno, f"R contains {c}, outside 1..{q}")
    else:
        r_cols = [1] * width
        if q != 1:
            _fail(None, f"q = {q} but no R given")

    return LogicalNetwork(
        k, n_nodes, m_nodes,
        LogicalMatrix(n_states, l_cols), LogicalMatrix(q, r_cols),
    )


def _modes_int(modes, key):
    if key not in modes:
        _fail(None, f"[modes] is missing {key!r}")
    lineno, value = modes[key]
    return _parse_int(value, key, lineno)


def _build_sls(modes, context, net) -> SwitchedLinearSystem:
    n = _modes_int(modes, "n")
    m = _modes_int(modes, "inputs")
    p = _modes_int(modes, "outputs")
    count = _modes_int(modes, "count")
    if count != net.q:
        _fail(None, f"count = {count} modes but the logic signal range is {net.q}")

    known = {"n", "inputs", "outputs", "count"}
    triples = []
    for i in range(1, count + 1):
        triple = []
        for letter, rows, cols in (("a", n, n), ("b", n, m), ("c", p, n)):
            key = f"{letter}{i}"
            known.add(key)
            if key not in modes:
                _fail(None, f"[modes] is missing {key.upper()!r}")
            lineno, value = modes[key]
            mat = _parse_matrix(value, context, lineno)
            if mat.shape != (rows, cols):
                _fail(lineno, f"{key.upper()} is {mat.rows}x{mat.cols}, expected {rows}x{cols}")
            triple.append(mat)
        triples.append(tuple(triple))
    for key in modes:
        if key not in known:
            _fail(modes[key][0], f"unknown key {key!r} in [modes]")
    return SwitchedLinearSystem(triples)


def load(path) -> SystemDescription:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def _format_scalar(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(value) if isinstance(value, float) else str(value)


def _format_matrix(mat: Matrix) -> str:
    return " ; ".join(" ".join(_format_scalar(v) for v in row) for row in mat.entries)


def dumps(desc: SystemDescription) -> str:
    """Canonical text form; always writes L/R as column-index lists."""
    lines = []
    if desc.sls is not None:
        sls = desc.sls
        lines += [
            "[modes]",
            f"n = {sls.n}",
            f"inputs = {sls.m}",
            f"outputs = {sls.p}",
            f"count = {sls.q}",
        ]
        for i, (a, b, c) in enumerate(sls.modes, start=1):
            lines.append(f"A{i} = {_format_matrix(a)}")
            lines.append(f"B{i} = {_format_matrix(b)}")
            lines.append(f"C{i} = {_format_matrix(c)}")
        lines.append("")
    net = desc.net
    lines += [
        "[logic]",
        f"k = {net.k}",
        f"state_nodes = {net.n_nodes}",
        f"input_nodes = {net.m_nodes}",
        f"L = {' '.join(str(c) for c in net.L.col_index)}",
        f"q = {net.q}",
        f"R = {' '.join(str(c) for c in net.R.col_index)}",
        "",
        "[options]",
        f"numeric = {desc.numeric}",
    ]
    if desc.tolerance is not None:
        lines.append(f"tolerance = {desc.tolerance!r}")
    if desc.t_max is not None:
        lines.append(f"t_max = {desc.t_max}")
    return "\n".join(lines) + "\n"


def save(desc: SystemDescription, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(desc))


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
