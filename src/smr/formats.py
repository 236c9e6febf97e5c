"""Canonical serialization of arrays: JSON, CSV and text grid.

JSON and CSV forms carry the parameter quadruple and round-trip bit-exactly
through the parsers here.  The grid form is the human-facing rendering
(right-aligned entries, "." for empty cells), whose parser infers the
parameters.  Every parser returns ``(array, params)``; ``read`` picks one.
"""

from __future__ import annotations

import gc
import re  # for _SNIFF; json is imported where JSON is read

from .core import Params, SignedArray


class ParseError(ValueError):
    """Input text does not match a supported serialization."""


def _by_row(a: SignedArray) -> list[list[tuple[int, int]]]:
    """Each row's (col, entry) pairs sorted by column, indexed by row; entry
    0 is empty.  One pass over the cells and a short sort per row: r cells a
    row, where a global sort would order all mr of them."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(a.rows + 1)]
    for (i, j), e in a.cells.items():
        rows[i].append((j, e))
    for row in rows:
        row.sort()
    return rows


def to_json(a: SignedArray, p: Params) -> str:
    """Canonical JSON: fixed key order, cells sorted by (row, col).

    The bytes are those of ``json.dumps`` with ``separators=(", ", ": ")``,
    written directly: an ``int`` prints the same either way.
    """
    rows = [
        f"[{i}, " + f"], [{i}, ".join([f"{j}, {e}" for j, e in row]) + "]"
        for i, row in enumerate(_by_row(a))
        if row
    ]
    cells = ", ".join(rows)
    return f'{{"m": {p.m}, "n": {p.n}, "r": {p.r}, "s": {p.s}, "cells": [{cells}]}}\n'


def from_json(text: str) -> tuple[SignedArray, Params]:
    return _paused(_read_json, text)


def _read_json(text: str) -> tuple[SignedArray, Params]:
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        p = Params(obj["m"], obj["n"], obj["r"], obj["s"])
        cells = obj["cells"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if type(cells) is not list:
        raise ParseError("field 'cells' is not a JSON array")
    # cell fields pass through as parsed, so the door rejects 1.9, true and "1"
    return _array(p, cells)


def to_csv(a: SignedArray, p: Params) -> str:
    """Canonical CSV: a parameter comment, a header, one sorted line per cell."""
    lines = [f"# m={p.m} n={p.n} r={p.r} s={p.s}", "row,col,value"]
    lines += [
        f"{i}," + f"\n{i},".join([f"{j},{e}" for j, e in row])
        for i, row in enumerate(_by_row(a))
        if row
    ]
    return "\n".join(lines) + "\n"


def from_csv(text: str) -> tuple[SignedArray, Params]:
    """Parse CSV with a ``row,col,value`` header.

    Parameters come from the leading ``# m=.. n=.. r=.. s=..`` comment when
    present and are otherwise inferred from the cells (maximal row and column
    index, uniform per-row and per-column counts).

    The cell lines are read by the JSON scanner (``_scan_csv``) when the text
    has the canonical layout.  If the scanner or the checks raise, the text
    is read again line by line (``_read_csv_lines``), which decides what the
    input means and words every error.
    """
    return _paused(_read_csv, text)


def _read_csv(text: str) -> tuple[SignedArray, Params]:
    try:
        return _scan_csv(text)
    except ValueError:
        pass
    # read again outside the handler, whose traceback holds the scanned lists
    return _read_csv_lines(text)


def _scan_csv(text: str) -> tuple[SignedArray, Params]:
    """The canonical CSV, its cell lines read as one JSON array of arrays.

    Only the head is split off: an optional comment line and the header,
    each one line as ``splitlines`` cuts the text, with no blank line before
    them.  The cell lines become ``[[`` + lines joined by ``],[`` + ``]]``.
    The text is refused (with a ``ValueError``) where JSON would read it
    otherwise than the line loop: a ``[`` or ``]`` would join or split lines,
    a ``{`` would nest, and a lone ``\\r`` is a line break to ``splitlines``
    but blank to JSON.  A blank line, a field that is no JSON integer
    (``05``, ``+5``) and a line of another length fail here too; only one
    trailing line break is allowed.  The door checks the rest, so whatever
    passes reads as it does line by line.
    """
    line, at = _head_line(text, 0)
    params = None
    if line.lstrip().startswith("#"):
        params = _parse_param_comment(line)
        line, at = _head_line(text, at)
    if line.strip().lower() != "row,col,value":
        raise ParseError("expected header line 'row,col,value'")
    if (
        text.find("[", at) >= 0
        or text.find("]", at) >= 0
        or text.find("{", at) >= 0
        or text.count("\r", at) != text.count("\r\n", at)
    ):
        raise ValueError("not a canonical CSV body")
    import json

    triples = json.loads("[[" + text[at:].replace("\n", "],[") + "]]")
    if not triples[-1]:  # the line break that ends the last line
        triples.pop()
    return _array(params, triples)


def _head_line(text: str, at: int) -> tuple[str, int]:
    """The line that starts at ``at`` and where the next one starts, if the
    text up to the next ``\\n`` is one line to ``splitlines``."""
    end = text.find("\n", at)
    if end < 0:
        end = len(text)
    lines = text[at:end].splitlines()
    if len(lines) != 1:
        raise ValueError("not a canonical CSV head")
    return lines[0], end + 1


def _read_csv_lines(text: str) -> tuple[SignedArray, Params]:
    """Read the CSV line by line; errors name lines as ``splitlines`` counts
    them from 1, comment, header and blank lines included."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    params: Params | None = None
    if lines and lines[0][1].lstrip().startswith("#"):
        params = _parse_param_comment(lines.pop(0)[1])
    if not lines or lines[0][1].strip().lower() != "row,col,value":
        raise ParseError("expected header line 'row,col,value'")
    triples = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected three comma-separated fields")
        try:
            triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return _array(params, triples)


def _paused(parse, text: str) -> tuple[SignedArray, Params]:
    """``parse(text)`` with the cyclic collector paused, and its state
    restored after, as found.  The pause is process-wide while a parse runs.
    The parsed lists and the cells hold no cycles, so reference counting
    frees what a collector pass would, and a parse of 2M cells is spared
    the passes that its millions of new lists would set off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(text)
    finally:
        if enabled:
            gc.enable()


def _array(
    params: Params | None, triples: list, shape: tuple[int, int] | None = None
) -> tuple[SignedArray, Params]:
    """The array of ``triples`` with ``params``, or with the inferred ones when
    None.  Every parser ends here: it is the one way through the checked door,
    and a door or inference error (``TypeError`` or ``ValueError``) becomes a
    ``ParseError`` with the same text.  ``triples`` is the parser's own list:
    the door takes it drained, each triple released once it is checked, so
    the parsed lists and the array are not held whole at once."""
    try:
        if params is None:
            params = _infer_params(triples, shape)
        return SignedArray.from_cells(params.m, params.n, _drain(triples)), params
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _drain(items: list):
    """The items of ``items`` in order, each popped off the list as it is
    taken.  The list is reversed once and popped up to a fresh sentinel,
    which no parsed item equals; ``iter`` calls ``pop`` without a generator
    frame to resume for every item."""
    end = object()
    items.append(end)
    items.reverse()
    return iter(items.pop, end)


def _parse_param_comment(line: str) -> Params:
    fields: dict[str, int] = {}
    for token in line.strip().lstrip("#").split():
        if "=" not in token:
            raise ParseError(f"malformed parameter token {token!r}")
        key, _, value = token.partition("=")
        if key not in Params._fields:
            raise ParseError(f"unknown parameter {key!r}")
        if key in fields:
            raise ParseError(f"repeated parameter {key!r}")
        try:
            fields[key] = int(value)
        except ValueError as exc:
            raise ParseError(f"malformed parameter token {token!r}") from exc
    missing = set(Params._fields) - fields.keys()
    if missing:
        raise ParseError(f"parameter comment missing {sorted(missing)}")
    try:
        return Params(**fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _infer_params(cells: list, shape: tuple[int, int] | None) -> Params:
    """Parameters of an m x n array whose ``cells`` fill its lines evenly; m
    and n are ``shape`` or, when None, the largest row and column index."""
    if not cells:
        raise ValueError("cannot infer parameters from an empty cell list")
    m, n = shape or (max(i for i, _, _ in cells), max(j for _, j, _ in cells))
    if m < 1 or n < 1:
        raise ValueError(f"cannot infer parameters from maximal indices {m}, {n}")
    if len(cells) % m or len(cells) % n:
        raise ValueError("cell count is not divisible by the inferred dimensions")
    return Params(m, n, len(cells) // m, len(cells) // n)


_RUN = 64  # the most empty fields one shared run string holds


def to_grid(a: SignedArray) -> str:
    """Text grid: one line per row, right-aligned entries, '.' when empty.

    Every field is written with the separator after it, " " or, in the last
    column, a newline.  A gap of k empty fields is one shared run string,
    ``run[k]``, or for k past the run length ``[chunk] * q`` and a run; the
    empty fields that close a row are ``close[k]`` the same way.  No piece is
    sliced from a blank row, so the final join writes each byte once.
    """
    cols = a.cols
    if not cols:
        return "\n" * a.rows
    values = a.cells.values()
    # the longest decimal is that of the largest or of the most negative entry
    width = max(len(str(max(values))), len(str(min(values)))) if values else 1
    field, last = f"%{width}d ", f"%{width}d\n"
    dot = ".".rjust(width)
    size = min(_RUN, cols)
    run = [(dot + " ") * k for k in range(size + 1)]
    close = [""] + [run[k - 1] + dot + "\n" for k in range(1, size + 1)]
    chunk = run[size]
    parts: list[str] = []
    for row in _by_row(a)[1:]:
        at = 0
        for j, e in row:
            k = j - at - 1
            if k > size:
                q, k = divmod(k, size)
                parts += [chunk] * q
            parts += (run[k], (last if j == cols else field) % e)
            at = j
        k = cols - at
        if k > size:  # close[k] keeps the last field, the one with the newline
            q, k = divmod(k - 1, size)
            parts += [chunk] * q
            k += 1
        parts.append(close[k])
    return "".join(parts)


def from_grid(text: str) -> tuple[SignedArray, Params]:
    """Parse the grid rendering, tolerant of extra spacing: "." is an empty
    cell and every integer, 0 included, is a cell.  m and n are the grid's
    shape, and r and s follow from the cell count."""
    return _paused(_read_grid, text)


def _read_grid(text: str) -> tuple[SignedArray, Params]:
    rows = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    n = len(rows[0]) if rows else 0
    triples = []
    for i, tokens in enumerate(rows, start=1):
        if len(tokens) != n:
            raise ParseError("ragged row lengths")
        for j, token in enumerate(tokens, start=1):
            if token != ".":
                try:
                    triples.append((i, j, int(token)))
                except ValueError as exc:
                    raise ParseError(f"bad grid token {token!r}") from exc
    return _array(None, triples, (len(rows), n))


_SNIFF = re.compile(r"\s*(?:(\{)|#|row,col,value(?!\S))", re.IGNORECASE)


def read(text: str) -> tuple[SignedArray, Params]:
    """Parse JSON, CSV or a grid, told apart by the first non-blank token:
    "{" is JSON, "#" or a ``row,col,value`` header (any case) is CSV, and
    anything else is a grid."""
    match = _SNIFF.match(text)
    if match is None:
        return from_grid(text)
    return from_json(text) if match.group(1) else from_csv(text)
