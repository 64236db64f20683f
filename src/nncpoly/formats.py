"""Reading and writing polyhedron description files.

The layout follows the cdd text conventions.  An H-file carries rows
``c0 a1 .. an`` meaning ``c0 + a.x >= 0``; a ``linearity`` line turns rows
into equalities and a ``strict`` line into strict inequalities.  A V-file
carries homogeneous rows whose first entry is the divisor (0 for rays and
lines); ``linearity`` marks lines, ``closure`` marks closure points.  All
entries are integers and the size line must say so.  Row indices in the
marker lines are 1-based.
"""

from __future__ import annotations

from enum import Enum

from .errors import ParseError
from .systems import ConKind, Constraint, GenKind, Generator


def _meaningful(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*") or line.startswith("#"):
            continue
        yield lineno, line


def _parse_marker(line: str, lineno: int, name: str, nrows: int) -> set[int]:
    parts = line.split()
    try:
        count = int(parts[1])
        idx = [int(p) for p in parts[2:]]
    except (IndexError, ValueError):
        raise ParseError(f"malformed {name} line", lineno) from None
    if len(idx) != count:
        raise ParseError(f"{name} announces {count} indices but lists {len(idx)}", lineno)
    out = set()
    for i in idx:
        if not 1 <= i <= nrows:
            raise ParseError(f"{name} index {i} out of range 1..{nrows}", lineno)
        if i in out:
            raise ParseError(f"{name} index {i} repeated", lineno)
        out.add(i)
    return out


def _parse_body(text: str, header: str, markers: tuple[str, ...]):
    """Common file skeleton: header line, marker lines, begin, size, rows, end.

    Returns (rows, dim, marker_sets) with marker lines resolved after the
    size line is known (they may appear before begin, as cdd does)."""
    stream = _meaningful(text)

    def nxt(what: str):
        try:
            return next(stream)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected {what}") from None

    lineno, line = nxt(header)
    if line != header:
        raise ParseError(f"expected '{header}', got '{line}'", lineno)

    pending: dict[str, tuple[int, str]] = {}
    while True:
        lineno, line = nxt("'begin'")
        key = line.split()[0]
        if key == "begin":
            break
        if key in markers:
            if key in pending:
                raise ParseError(f"duplicate {key} line", lineno)
            pending[key] = (lineno, line)
        else:
            raise ParseError(f"unexpected '{line}' before begin", lineno)

    lineno, line = nxt("size line")
    parts = line.split()
    if len(parts) != 3:
        raise ParseError("size line must read 'rows cols type'", lineno)
    try:
        nrows, ncols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("size line must read 'rows cols type'", lineno) from None
    if parts[2] != "integer":
        raise ParseError(f"only the integer type is supported, got '{parts[2]}'", lineno)
    if ncols < 2:
        raise ParseError("need at least one coordinate (cols >= 2)", lineno)
    if nrows < 0:
        raise ParseError("negative row count", lineno)

    rows: list[tuple[int, tuple[int, ...]]] = []
    for _ in range(nrows):
        lineno, line = nxt("a data row")
        if line == "end":
            raise ParseError(f"expected {nrows} rows, found {len(rows)}", lineno)
        try:
            vals = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError("row entries must be integers", lineno) from None
        if len(vals) != ncols:
            raise ParseError(f"row has {len(vals)} entries, size line says {ncols}", lineno)
        rows.append((lineno, vals))

    lineno, line = nxt("'end'")
    if line != "end":
        raise ParseError(f"expected 'end', got '{line}'", lineno)
    for lineno, line in stream:
        raise ParseError(f"unexpected content after end: '{line}'", lineno)

    sets = {
        name: _parse_marker(pline, plineno, name, nrows)
        for name, (plineno, pline) in pending.items()
    }
    return rows, ncols - 1, sets


def parse_ine(text: str) -> tuple[list[Constraint], int]:
    """Parse an H-file into constraints; returns (constraints, dimension)."""
    rows, dim, sets = _parse_body(text, "H-representation", ("linearity", "strict"))
    linearity = sets.get("linearity", set())
    strict = sets.get("strict", set())
    overlap = linearity & strict
    if overlap:
        raise ParseError(
            f"rows {sorted(overlap)} marked both linearity and strict", rows[min(overlap) - 1][0]
        )
    out = []
    for i, (lineno, vals) in enumerate(rows, start=1):
        if i in linearity:
            kind = ConKind.EQUALITY
        elif i in strict:
            kind = ConKind.STRICT
        else:
            kind = ConKind.NONSTRICT
        try:
            out.append(Constraint(vals, kind))
        except Exception as exc:
            raise ParseError(str(exc), lineno) from None
    return out, dim


def parse_ext(text: str) -> tuple[list[Generator], int]:
    """Parse a V-file into generators; returns (generators, dimension)."""
    rows, dim, sets = _parse_body(text, "V-representation", ("linearity", "closure"))
    linearity = sets.get("linearity", set())
    closure = sets.get("closure", set())
    overlap = linearity & closure
    if overlap:
        raise ParseError(
            f"rows {sorted(overlap)} marked both linearity and closure", rows[min(overlap) - 1][0]
        )
    out = []
    for i, (lineno, vals) in enumerate(rows, start=1):
        if vals[0] < 0:
            raise ParseError(f"negative divisor {vals[0]}", lineno)
        if i in linearity:
            if vals[0] != 0:
                raise ParseError("a line must have divisor 0", lineno)
            kind = GenKind.LINE
        elif i in closure:
            if vals[0] == 0:
                raise ParseError("a closure point needs a positive divisor", lineno)
            kind = GenKind.CLOSURE_POINT
        elif vals[0] == 0:
            kind = GenKind.RAY
        else:
            kind = GenKind.POINT
        try:
            out.append(Generator(vals, kind))
        except Exception as exc:
            raise ParseError(str(exc), lineno) from None
    return out, dim


def _emit(header: str, rows: list, dim: int, markers: tuple[tuple[str, Enum], ...]) -> str:
    """Common file skeleton: header, one marker line per kind that occurs,
    begin, size line, rows, end."""
    lines = [header]
    for name, kind in markers:
        idx = [str(i) for i, r in enumerate(rows, start=1) if r.kind is kind]
        if idx:
            lines.append(f"{name} {len(idx)} " + " ".join(idx))
    lines.append("begin")
    lines.append(f" {len(rows)} {dim + 1} integer")
    lines += [" " + " ".join(str(x) for x in r.row) for r in rows]
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_ine(constraints: list[Constraint], dim: int) -> str:
    markers = (("linearity", ConKind.EQUALITY), ("strict", ConKind.STRICT))
    return _emit("H-representation", constraints, dim, markers)


def emit_ext(generators: list[Generator], dim: int) -> str:
    markers = (("linearity", GenKind.LINE), ("closure", GenKind.CLOSURE_POINT))
    return _emit("V-representation", generators, dim, markers)
