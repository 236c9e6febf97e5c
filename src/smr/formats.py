"""Canonical serialization of arrays: JSON, CSV and text grid.

JSON and CSV forms carry the parameter quadruple and round-trip bit-exactly
through the parsers here.  The grid form is the human-facing rendering
(right-aligned entries, "." for empty cells), whose parser infers the
parameters.  Every parser returns ``(array, params)``; ``read`` picks one.
The writers read the array's packed columns in their row-major order, and
canonical JSON and CSV are read in pieces, so a parse holds the array and
one piece's parsed lists.
"""

from __future__ import annotations

import functools
import gc  # json is imported where JSON is read, and re in read
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice

from .core import Params, SignedArray


class ParseError(ValueError):
    """Input text does not match a supported serialization."""


def _paused(parse: Callable) -> Callable:
    """``parse`` with the cyclic collector paused (process-wide) and then
    restored: parsed lists hold no cycles, and a parse of 2M cells is spared
    the passes that its millions of new lists would set off."""

    @functools.wraps(parse)
    def paused(text: str) -> tuple[SignedArray, Params]:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return parse(text)
        finally:
            if enabled:
                gc.enable()

    return paused


def to_json(a: SignedArray, p: Params) -> str:
    """Canonical JSON: fixed key order, cells sorted by (row, col).  The bytes
    of ``json.dumps`` with ``separators=(", ", ": ")``, written directly."""
    cells = ", ".join([f"[{i}, {j}, {e}]" for i, j, e in a.cells._triples()])
    return f'{{"m": {p.m}, "n": {p.n}, "r": {p.r}, "s": {p.s}, "cells": [{cells}]}}\n'


@_paused
def from_json(text: str) -> tuple[SignedArray, Params]:
    try:
        return _scan_json(text)
    except _Reread:
        pass
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


class _Reread(Exception):
    """A scanner cannot read the text in pieces; it is read again otherwise."""


def _scan_json(text: str) -> tuple[SignedArray, Params]:
    """The head up to the first ``"cells": [``, read with ``]}`` after it, then
    the cell array that closes the text, in pieces cut at ``, [``.  A cut
    inside a nested value leaves a piece unbalanced, so when every piece
    reads, they hold the cells of the whole text.  If one does not, or the
    head or parameters fail, ``_Reread``; a door error waits for the later
    pieces to read, so that a JSON error wins, as in a whole read."""
    import json

    at, stop = text.find('"cells": [') + 10, text.rfind("]}")
    if not 10 <= at <= stop or text[stop + 2 :].strip(" \t\n\r"):
        raise _Reread
    try:
        head = json.loads(text[:at] + "]}")
        p = Params(head["m"], head["n"], head["r"], head["s"])
    except (KeyError, TypeError, ValueError, RecursionError):
        raise _Reread from None
    pieces = _pieces(text, at, stop, ", [", 2, "[{}]".format, (ValueError, RecursionError))
    try:
        return _array(p, chain.from_iterable(pieces))
    except ParseError:
        for _ in pieces:
            pass
        raise


_PIECE = 1 << 13  # about how many characters of cells are parsed at once


def _pieces(text: str, at: int, stop: int, mark: str, skip: int, wrap, errors=()) -> Iterator:
    """Each piece of ``text[at:stop]``, wrapped and read as JSON; one of
    ``errors`` from a read becomes ``_Reread``.  A piece ends at the first
    ``mark`` past ``_PIECE`` characters; the next starts ``skip`` into it."""
    import json

    while True:
        cut = text.find(mark, at + _PIECE, stop)
        try:
            yield json.loads(wrap(text[at : stop if cut < 0 else cut]))
        except errors:
            raise _Reread from None
        if cut < 0:
            return
        at = cut + skip


def to_csv(a: SignedArray, p: Params) -> str:
    """Canonical CSV: a parameter comment, a header, one sorted line per cell."""
    lines = [f"# m={p.m} n={p.n} r={p.r} s={p.s}", "row,col,value"]
    lines += [f"{i},{j},{e}" for i, j, e in a.cells._triples()]
    lines.append("")  # the final line break, so the text is joined once
    return "\n".join(lines)


@_paused
def from_csv(text: str) -> tuple[SignedArray, Params]:
    """Parse CSV with a ``row,col,value`` header.  Parameters come from a leading
    ``# m=.. n=.. r=.. s=..`` comment, else from the cells (maximal indices,
    uniform line counts).  ``_scan_csv`` reads a canonical text; if it
    raises, ``_read_csv_lines`` decides what the input means and words every
    error."""
    try:
        return _scan_csv(text)
    except ValueError:
        pass
    # read again outside the handler, whose traceback holds the scanned lists
    return _read_csv_lines(text)


def _scan_csv(text: str) -> tuple[SignedArray, Params]:
    """The canonical CSV: an optional comment line and the header, each one
    line to ``splitlines``, then pieces of cell lines, each read as ``[[`` +
    its lines joined by ``],[`` + ``]]``.  Refused where JSON would read the
    text otherwise than the line loop: a ``[`` or ``]`` joins or splits
    lines, a ``{`` nests, a lone ``\\r`` breaks a line only to ``splitlines``.
    A blank line, a non-JSON integer (``05``, ``+5``) and a line of another
    length fail in the door; one trailing line break is allowed."""
    line, at = _head_line(text, 0)
    params = None
    if line.lstrip().startswith("#"):
        params = _parse_param_comment(line)
        line, at = _head_line(text, at)
    if line.strip().lower() != "row,col,value":
        raise ParseError("expected header line 'row,col,value'")
    if any(text.find(c, at) >= 0 for c in "[]{") or text.count("\r", at) != text.count("\r\n", at):
        raise ValueError("not a canonical CSV body")
    stop = len(text) - text.endswith("\n", at)  # the line break that ends the last line
    lines = _pieces(text, at, stop, "\n", 1, lambda piece: "[[" + piece.replace("\n", "],[") + "]]")
    cells = chain.from_iterable(lines if at < stop else ())
    return _array(params, list(cells) if params is None else cells)


def _head_line(text: str, at: int) -> tuple[str, int]:
    """The line at ``at`` and where the next starts, if it is one to ``splitlines``."""
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


def _array(params: Params | None, triples: Iterable, shape=None) -> tuple[SignedArray, Params]:
    """The array of ``triples`` with ``params``, or, from a list, with the
    inferred ones.  Every parser ends here, the one way through the checked
    door: a door or inference error (``TypeError`` or ``ValueError``) becomes
    a ``ParseError`` with the same text."""
    try:
        if params is None:
            params = _infer_params(triples, shape)
        return SignedArray.from_cells(params.m, params.n, triples), params
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


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
    Every field is written with its separator after it, " " or a newline.  A
    gap of k empty fields is one shared run string, ``run[k]``, or past the
    run length ``[chunk] * q`` and a run; the empty fields that close a row
    are ``close[k]`` the same way.  The final join writes each byte once."""
    cols = a.cols
    if not cols:
        return "\n" * a.rows
    rows, columns, values = a.cells._sorted()
    # the longest decimal is that of the largest or of the most negative entry
    width = max(len(str(max(values))), len(str(min(values)))) if values else 1
    field, last = f"%{width}d ", f"%{width}d\n"
    dot = ".".rjust(width)
    size = min(_RUN, cols)
    run = [(dot + " ") * k for k in range(size + 1)]
    close = [""] + [run[k - 1] + dot + "\n" for k in range(1, size + 1)]
    chunk = run[size]
    parts: list[str] = []
    cells = zip(columns, values)
    lo = 0
    for i in range(1, a.rows + 1):
        hi = bisect_right(rows, i, lo)  # row i is cells lo..hi - 1
        at = 0
        for j, e in islice(cells, hi - lo):
            k = j - at - 1
            if k > size:
                q, k = divmod(k, size)
                parts += [chunk] * q
            parts += (run[k], (last if j == cols else field) % e)
            at = j
        lo = hi
        k = cols - at
        if k > size:  # close[k] keeps the last field, the one with the newline
            q, k = divmod(k - 1, size)
            parts += [chunk] * q
            k += 1
        parts.append(close[k])
    return "".join(parts)


@_paused
def from_grid(text: str) -> tuple[SignedArray, Params]:
    """Parse the grid rendering, tolerant of extra spacing: "." is an empty
    cell and every integer, 0 included, is a cell.  m and n are the grid's
    shape, and r and s follow from the cell count."""
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


def read(text: str) -> tuple[SignedArray, Params]:
    """Parse JSON, CSV or a grid, told apart by the first non-blank token:
    "{" is JSON, "#" or a ``row,col,value`` header (any case) is CSV, and
    anything else is a grid.  ``re`` is imported on the first call, so that
    importing the module, as every seed lookup does, skips it."""
    import re

    match = re.match(r"\s*(?:(\{)|#|row,col,value(?!\S))", text, re.IGNORECASE)
    if match is None:
        return from_grid(text)
    return from_json(text) if match.group(1) else from_csv(text)
