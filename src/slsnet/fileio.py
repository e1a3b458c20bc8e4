"""System-description files.

Line-oriented text format with three named sections. Comments start
with '#', blank lines are ignored, every other line is either a
"[section]" header or a "key = value" assignment; a key appears at most
once per section, and a key a section does not take is refused.

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
    R = 2 2 1 1 1 2 2 1   signal map as column indices (beside L only)

    [options]             optional
    numeric = exact       exact | float
    tolerance = 1e-9      float mode zero/pivot tolerance (default 1e-9);
                          refused unless numeric = float
    t_max = 3             property search horizon

numeric and tolerance set the context of the parsed matrices; a
description carries no copy of them, and in a logic-only file they are
checked and dropped. Entries are integers or rationals "p/q"; decimals
are accepted only when numeric = float, so exact descriptions stay exact
through a save/load round trip, and a float entry must be finite.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .algebra import EXACT, FLOAT, LogicalMatrix, Matrix, Numeric, Record, check_int
from .lcn import LogicalNetwork, build_from_functions
from .sls import SwitchedLinearSystem

_SECTIONS = ("modes", "logic", "options")


class ParseError(ValueError):
    """Malformed description file; message carries the 1-based line."""


class SystemDescription(Record):
    """A description file's content; it builds only if dumps writes a text
    that loads reads back equal. Its numeric context is its system's
    (sls.mode_flag); a logic-only description has none."""

    __slots__ = ("net", "sls", "t_max")

    def __init__(self, net: LogicalNetwork, sls: SwitchedLinearSystem | None = None, t_max: int | None = None):
        if t_max is not None:
            check_int(t_max, "t_max")
        if sls is not None and sls.q != net.q:
            raise ValueError(f"{sls.q} modes but the logic signal range is {net.q}")
        super().__init__(net, sls, t_max)


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
            if section not in _SECTIONS:
                _fail(lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            _fail(lineno, f"expected 'key = value', got {line!r}")
        if section is None:
            _fail(lineno, "assignment before any [section] header")
        key, value = line.split("=", 1)
        yield lineno, section, key.strip().lower(), value.strip()


class _Section(dict):
    """One [section]'s assignments, key -> (lineno, value). Readers take a
    key as messages spell it (L, C2) and look it up in lower case."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def line(self, key: str) -> tuple[int, str]:
        if key.lower() not in self:
            _fail(None, f"[{self.name}] is missing {key!r}")
        return self[key.lower()]

    def integer(self, key: str, least: int) -> int:
        lineno, value = self.line(key)
        try:
            out = int(value)
        except ValueError:
            _fail(lineno, f"{key} must be an integer, got {value!r}")
        if out < least:
            _fail(lineno, f"{key} must be >= {least}")
        return out

    def indices(self, key: str, width: int, top: int) -> list[int]:
        """A column-index list: width entries, each in 1..top."""
        lineno, value = self.line(key)
        try:
            cols = [int(tok) for tok in value.split()]
        except ValueError:
            _fail(lineno, f"expected a list of integers, got {value!r}")
        if len(cols) != width:
            _fail(lineno, f"{key} has {len(cols)} entries, expected {width}")
        for c in cols:
            if not 1 <= c <= top:
                _fail(lineno, f"{key} contains {c}, outside 1..{top}")
        return cols

    def only(self, known) -> None:
        for key, (lineno, _) in self.items():
            if key not in known:
                _fail(lineno, f"unknown key {key!r} in [{self.name}]")


def _parse_scalar(token: str, context: Numeric, lineno: int):
    exact = context.tol is None
    try:
        value = Fraction(token) if "/" in token else int(token) if exact else float(token)
        if exact or math.isfinite(value):
            return value
    except (ValueError, ZeroDivisionError, OverflowError):
        if exact:
            _fail(lineno, f"{token!r} is not an integer or rational (decimals need numeric = float)")
    _fail(lineno, f"{token!r} is not a finite number")


def _parse_matrix(value: str, context: Numeric, lineno: int) -> Matrix:
    rows = [chunk.split() for chunk in value.split(";")]
    if any(not r for r in rows):
        _fail(lineno, "empty matrix row")
    if len({len(r) for r in rows}) != 1:
        _fail(lineno, "matrix rows have unequal lengths")
    return Matrix([[_parse_scalar(tok, context, lineno) for tok in row] for row in rows], context)


def loads(text: str) -> SystemDescription:
    sections = {name: _Section(name) for name in _SECTIONS}
    for lineno, section, key, value in _scan(text):
        if key in sections[section]:
            _fail(lineno, f"duplicate key {key!r} in [{section}]")
        sections[section][key] = (lineno, value)
    modes, logic, options = sections.values()

    options.only(("numeric", "tolerance", "t_max"))
    tol_line, tol_text = options.get("tolerance", (None, None))
    try:
        tolerance = FLOAT.tol if tol_text is None else float(tol_text)
    except ValueError:
        _fail(tol_line, f"tolerance must be a number, got {tol_text!r}")
    lineno, numeric = options.get("numeric", (None, "exact"))
    if numeric not in ("exact", "float"):
        _fail(lineno, f"numeric must be 'exact' or 'float', got {numeric!r}")
    try:
        # every parsed matrix carries this context, and so does all arithmetic on them
        context = Numeric(tolerance)
    except ValueError as exc:
        _fail(tol_line, f"{exc}, got {tol_text!r}")
    if numeric == "exact":
        if tol_text is not None:
            _fail(tol_line, f"tolerance needs numeric = float (exact arithmetic has none), got {tol_text!r}")
        context = EXACT
    t_max = options.integer("t_max", 1) if "t_max" in options else None

    net = _build_net(logic)
    sls = _build_sls(modes, context, net.q) if modes else None
    return SystemDescription(net, sls, t_max)


def _build_net(logic: _Section) -> LogicalNetwork:
    if not logic:
        _fail(None, "description has no [logic] section")
    k = logic.integer("k", 2)
    n_nodes = logic.integer("state_nodes", 0)
    m_nodes = logic.integer("input_nodes", 0)
    q = logic.integer("q", 1) if "q" in logic else 1

    # either form is checked against width before anything of that width is built;
    # node<i> keys sort by length first, so node10 comes after node9
    node_keys = sorted((key for key in logic if key.startswith("node")), key=lambda key: (len(key), key))
    if node_keys:
        if "l" in logic:
            _fail(logic["l"][0], "give either L or per-node truth tables, not both")
        # the count first, so a huge state_nodes builds no list of names
        if len(node_keys) != n_nodes or node_keys != [f"node{i}" for i in range(1, n_nodes + 1)]:
            _fail(None, f"need truth tables node1 to node{n_nodes}, got {node_keys}")
    elif "l" not in logic:
        _fail(None, "[logic] needs either L or per-node truth tables")
    form = ("signal", *node_keys) if node_keys else ("l", "r")
    logic.only({"k", "state_nodes", "input_nodes", "q", *form})
    width = _width(logic, k, n_nodes + m_nodes)
    n_states = k**n_nodes
    if node_keys:
        tables = [logic.indices(key, width, k) for key in node_keys]
        signal_key, signal_name = "signal", "signal table"
    else:
        l_cols = logic.indices("L", width, n_states)
        signal_key = signal_name = "R"

    if signal_key.lower() in logic:
        signal = logic.indices(signal_key, width, q)
    elif q != 1:
        _fail(None, f"q = {q} but no {signal_name} given")
    else:
        signal = [1] * width
    if node_keys:
        return build_from_functions(k, n_nodes, m_nodes, tables, signal, q=q)
    return LogicalNetwork(k, n_nodes, m_nodes, LogicalMatrix(n_states, l_cols), LogicalMatrix(q, signal))


def _width(logic: _Section, k: int, exponent: int) -> int:
    """k**exponent, the entry count of every list. A width past the entries
    on the longest list line is refused on that line before it is computed,
    so no length message prints a number too long to write."""
    key = max(
        (key for key in logic if key in ("l", "r", "signal") or key.startswith("node")),
        key=lambda key: len(logic[key][1].split()),
    )
    lineno, value = logic[key]
    most, width = len(value.split()), 1
    for _ in range(exponent):
        width *= k
        if width > most:
            name = key.upper() if len(key) == 1 else key
            _fail(lineno, f"{name} has {most} entries, expected k**(state_nodes + input_nodes) = {k}**{exponent}")
    return width


def _build_sls(modes: _Section, context: Numeric, q: int) -> SwitchedLinearSystem:
    n, m, p, count = (modes.integer(key, 1) for key in ("n", "inputs", "outputs", "count"))
    if count != q:
        _fail(None, f"count = {count} modes but the logic signal range is {q}")
    triples = []
    for i in range(1, count + 1):
        triple = []
        for letter, rows, cols in (("A", n, n), ("B", n, m), ("C", p, n)):
            key = f"{letter}{i}"
            lineno, value = modes.line(key)
            mat = _parse_matrix(value, context, lineno)
            if mat.shape != (rows, cols):
                _fail(lineno, f"{key} is {mat.rows}x{mat.cols}, expected {rows}x{cols}")
            triple.append(mat)
        triples.append(tuple(triple))
    # every known key was found by now, so this set is no larger than the file
    modes.only({"n", "inputs", "outputs", "count", *(f"{x}{i}" for x in "abc" for i in range(1, count + 1))})
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
    lines, context = [], EXACT
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
        context = desc.sls.mode_flag
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
        f"numeric = {'exact' if context == EXACT else 'float'}",
    ]
    if context not in (EXACT, FLOAT):
        lines.append(f"tolerance = {context.tol!r}")
    if desc.t_max is not None:
        lines.append(f"t_max = {desc.t_max}")
    return "\n".join(lines) + "\n"


def save(desc: SystemDescription, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(desc))


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
