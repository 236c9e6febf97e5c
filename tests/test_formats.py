"""Serialization: canonical forms, round-trips, parse failures."""

from __future__ import annotations

import contextlib
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smr import (
    Params,
    ParseError,
    SignedArray,
    construct,
    feasibility,
    from_csv,
    from_grid,
    from_json,
    seed,
    to_csv,
    to_grid,
    to_json,
)
from smr.formats import _read_csv_lines, _scan_csv, read


def test_grid_rendering_pinned():
    a, _ = seed("S_2x4")
    assert to_grid(a) == " 1 -2 -3  4\n-1  2  3 -4\n"


def test_grid_empty_cells_rendered_as_dots():
    a, _ = seed("S_3x6")
    assert to_grid(a) == (
        " 1  . -3 -4  .  6\n"
        "-1  2  .  4 -5  .\n"
        " . -2  3  .  5 -6\n"
    )


def test_grid_round_trip():
    a, p = seed("S_5x15")
    assert from_grid(to_grid(a)) == (a, p)


def test_json_canonical_form():
    a, p = seed("S_2x3")
    text = to_json(a, p)
    assert text == (
        '{"m": 2, "n": 3, "r": 3, "s": 2, '
        '"cells": [[1, 1, 1], [1, 2, 2], [1, 3, -3], '
        "[2, 1, -1], [2, 2, -2], [2, 3, 3]]}\n"
    )


def test_json_round_trip_bit_exact():
    a, p = seed("S_6x18")
    text = to_json(a, p)
    b, q = from_json(text)
    assert (b, q) == (a, p)
    assert to_json(b, q) == text


def test_csv_round_trip_bit_exact():
    a, p = seed("S_4x12")
    text = to_csv(a, p)
    b, q = from_csv(text)
    assert (b, q) == (a, p)
    assert to_csv(b, q) == text


def test_csv_header_and_sorting():
    a, p = seed("S_2x4")
    lines = to_csv(a, p).splitlines()
    assert lines[0] == "# m=2 n=4 r=4 s=2"
    assert lines[1] == "row,col,value"
    assert lines[2] == "1,1,1"
    assert lines[-1] == "2,4,-4"


def test_csv_parameters_inferred_without_comment():
    a, p = seed("S_3x9")
    text = "\n".join(to_csv(a, p).splitlines()[1:]) + "\n"
    b, q = from_csv(text)
    assert (b, q) == (a, p)


def test_json_parse_errors_carry_location():
    with pytest.raises(ParseError, match="line"):
        from_json('{"m": 2,\n "broken"...')
    with pytest.raises(ParseError):
        from_json('{"m": 2, "n": 3, "r": 3}')
    with pytest.raises(ParseError):
        from_json("[1, 2, 3]")
    with pytest.raises(ParseError, match="nested"):
        from_json('{"m": ' + "[" * 100_000 + "]" * 100_000 + "}")

    # int() coercion would read 1.9 and true as 1 and let a tampered file verify
    a, p = seed("S_2x3")
    text = to_json(a, p)
    for old, new in [
        ("[1, 1, 1]", "[1, 1, 1.9]"),
        ("[1, 1, 1]", "[1, 1, true]"),
        ("[1, 1, 1]", '[1, 1, "1"]'),
        ("[1, 1, 1]", "[1.0, 1, 1]"),
        ("[1, 1, 1]", "[1, false, 1]"),
        ('"m": 2', '"m": 2.0'),
        ('"r": 3', '"r": true'),
        # past the interpreter's digit limit json.loads raises a plain ValueError
        ("[1, 1, 1]", "[1, 1, 1" + "0" * 4999 + "]"),
    ]:
        assert old in text
        with pytest.raises(ParseError):
            from_json(text.replace(old, new, 1))


@pytest.mark.parametrize("cells", ['""', "{}", '"abc"', "5", "null"])
def test_json_cells_must_be_an_array(cells):
    # "" and {} once read as no cells; the others failed to unpack or iterate
    with pytest.raises(ParseError, match=r"^field 'cells' is not a JSON array$"):
        from_json(f'{{"m": 2, "n": 3, "r": 3, "s": 2, "cells": {cells}}}')


def test_csv_parse_errors():
    with pytest.raises(ParseError, match="header"):
        from_csv("not,a,header\n1,1,1\n")
    with pytest.raises(ParseError, match="line 2"):
        from_csv("row,col,value\n1,1\n")
    with pytest.raises(ParseError, match="line 3"):
        from_csv("row,col,value\n1,1,1\n1,2,x\n")
    with pytest.raises(ParseError, match="infer"):
        from_csv("row,col,value\n0,1,1\n0,2,-1\n")
    with pytest.raises(ParseError, match="infer"):
        from_csv("row,col,value\n1,0,1\n2,0,-1\n")
    with pytest.raises(ParseError, match="outside"):
        from_csv("# m=2 n=3 r=3 s=2\nrow,col,value\n3,1,1\n")
    with pytest.raises(ParseError, match="duplicate"):
        from_csv("# m=2 n=3 r=3 s=2\nrow,col,value\n1,1,1\n1,1,-1\n")
    # a repeated or unknown key in the parameter comment; the last value no
    # longer wins, and no key is ignored
    with pytest.raises(ParseError, match="repeated parameter 'm'"):
        from_csv("# m=2 n=3 r=3 s=2 m=9\nrow,col,value\n")
    with pytest.raises(ParseError, match="unknown parameter 'x'"):
        from_csv("# m=2 n=3 r=3 s=2 x=5\nrow,col,value\n")


def test_csv_errors_name_lines_of_the_file():
    # lines as splitlines counts them: the comment, the header and blank lines count
    with pytest.raises(ParseError, match="^line 3: expected three"):
        from_csv("# m=1 n=1 r=1 s=1\nrow,col,value\n1,1\n")
    with pytest.raises(ParseError, match="^line 6: invalid literal"):
        from_csv("\n# m=2 n=3 r=3 s=2\n\nrow,col,value\n \n1,1,x\n")
    with pytest.raises(ParseError, match="^line 4: expected three"):
        from_csv("row,col,value\n1,1,1\n\r\n1,2\n")


def test_csv_indented_comment_is_the_parameter_comment():
    # the comment is found on the stripped line, as the header is
    a, p = seed("S_2x4")
    text = to_csv(a, p)
    assert text.startswith("# m=2 n=4 r=4 s=2\n")
    for indent in ("\t", "  ", " \t "):
        assert from_csv(indent + text) == (a, p)
        assert read(indent + text) == (a, p)
    with pytest.raises(ParseError, match="unknown parameter 'x'"):
        from_csv("\t# m=2 n=4 r=4 s=2 x=1\nrow,col,value\n")


# Each is put into a to_csv text at every position, or replaces the character
# there.  They cover what JSON and the line loop read differently: brackets
# that join or split lines, a lone \r (a line break to splitlines, blank to
# JSON), other line breaks, blank lines, JSON literals, and integers that
# int() takes and JSON does not (05, +5, 1_0) or that pass the digit limit.
CSV_MUTATIONS = [
    "[", "]", "],[", "{", "}", '"', "\r", "\r\n", "\n", "\n\n", "\n \n", " ", "\t",
    "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0", "05", "+5", "-0", "1_0", "1.5",
    "1e3", "true", "null", "NaN", '"1"', ",", "#", "1" + "0" * 5000,
]


def _read_outcome(read_csv, text: str):
    try:
        return read_csv(text)
    except ParseError as exc:
        return str(exc)


def _csv_mutants():
    a, p = seed("S_2x3")
    canonical = to_csv(a, p)
    for text in (canonical, canonical.split("\n", 1)[1]):  # with and without the comment
        yield text
        yield text.replace("\n", "\r\n")
        for at in range(len(text) + 1):
            for token in CSV_MUTATIONS:
                yield text[:at] + token + text[at:]
                yield text[:at] + token + text[at + 1:]


def test_scanner_and_line_loop_agree_on_mutated_csv():
    # from_csv reads through the JSON scanner and, when that raises, through
    # the line loop; whatever the scanner accepts, the loop reads the same,
    # and from_csv's result or error text is always the loop's
    scanned = 0
    for text in _csv_mutants():
        expected = _read_outcome(_read_csv_lines, text)
        assert _read_outcome(from_csv, text) == expected, repr(text)
        try:
            result = _scan_csv(text)
        except (TypeError, ValueError):
            continue
        assert result == expected, repr(text)
        scanned += 1
    assert scanned > 300  # spaces, tabs, CRLF and -0, among others, go the scanner's way


def test_scanner_reads_the_canonical_forms():
    a, p = seed("S_4x12")
    text = to_csv(a, p)
    no_comment = text.split("\n", 1)[1]
    for variant in (text, text.replace("\n", "\r\n"), text.rstrip("\n"), no_comment):
        assert _scan_csv(variant) == (a, p)
    # a cell line holding a bracket is the line loop's to word
    bracketed = text.replace("\n1,1,-1\n", "\n[1,1,-1]\n")
    with pytest.raises(ValueError):
        _scan_csv(bracketed)
    with pytest.raises(ParseError, match=r"line 3: invalid literal for int\(\) with base 10: '\[1'"):
        from_csv(bracketed)
    # a "{" could nest past the recursion limit, which is no ValueError
    deep = text + "1,1," + '{"a": ' * 100_000 + "1" + "}" * 100_000 + "\n"
    with pytest.raises(ParseError, match="line 27: invalid literal"):
        from_csv(deep)
    # a lone \r splits the line for splitlines, so the loop sees two short lines
    with pytest.raises(ParseError, match="line 4: expected three comma-separated fields"):
        from_csv(text.replace("\n1,2,", "\n1,\r2,", 1))
    with pytest.raises(ValueError):
        _scan_csv(text.replace("\n1,2,", "\n1,\r2,", 1))


def test_grid_parse_errors():
    with pytest.raises(ParseError):
        from_grid("1 2 q\n")
    with pytest.raises(ParseError, match="ragged"):
        from_grid("1 2\n3\n")
    # the parameters are inferred as from a CSV without its comment
    with pytest.raises(ParseError, match="empty cell list"):
        from_grid(" . .\n . .\n")
    with pytest.raises(ParseError, match="not divisible"):
        from_grid(" 1 -1\n 2  .\n")


# the SMR(3, 5; 5, 3): mr = 15 is odd, so 0 is one of its entries
ODD_3x5 = SignedArray.from_cells(3, 5, [
    (i, j, e)
    for i, row in enumerate([[-7, -6, 3, 6, 4], [0, 1, 2, -2, -1], [7, 5, -5, -4, -3]], 1)
    for j, e in enumerate(row, 1)
])


@st.composite
def uniform_arrays_with_zero(draw) -> tuple[SignedArray, Params]:
    # cell t of row t // r + 1 lies in column t % n + 1: each row takes r
    # cyclically consecutive columns, and each column is taken s = mr / n times
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    r = draw(st.sampled_from([r for r in range(1, n + 1) if m * r % n == 0]))
    entries = draw(st.lists(st.integers(-(10**6), 10**6), min_size=m * r, max_size=m * r))
    entries[draw(st.integers(0, m * r - 1))] = 0
    a = SignedArray.from_cells(m, n, [(t // r + 1, t % n + 1, e) for t, e in enumerate(entries)])
    return a, Params(m, n, r, m * r // n)


@settings(max_examples=200)
@given(uniform_arrays_with_zero())
@example((ODD_3x5, Params(3, 5, 5, 3)))
def test_grid_round_trip_keeps_zero_entries(case):
    a, p = case
    assert 0 in a.cells.values()
    assert from_grid(to_grid(a)) == (a, p)


def test_read_picks_the_parser():
    a, p = seed("S_3x6")
    csv = to_csv(a, p)
    header_only = csv.split("\n", 1)[1]  # parameters inferred from the cells
    for text in (to_json(a, p), csv, header_only, header_only.upper(), to_grid(a)):
        assert read(text) == (a, p)
        assert read("\n  \n" + text) == (a, p)
    assert read(to_grid(ODD_3x5)) == (ODD_3x5, Params(3, 5, 5, 3))
    with pytest.raises(ParseError, match="bad grid token 'hello'"):
        read("hello\n")
    with pytest.raises(ParseError, match="invalid JSON"):
        read("{")
    with pytest.raises(ParseError, match="header"):
        read("# m=2 n=3 r=3 s=2\n")


POINTS = [(2, 4, 4), (2, 11, 11), (3, 6, 4), (6, 9, 3), (5, 15, 6), (8, 20, 5)]


@settings(max_examples=30)
@given(st.sampled_from(POINTS))
def test_constructed_arrays_round_trip(point):
    m, n, r = point
    a, _ = construct(m, n, r)
    p = Params(m, n, r, 2)
    assert from_json(to_json(a, p)) == (a, p)
    assert from_csv(to_csv(a, p)) == (a, p)
    assert from_grid(to_grid(a)) == (a, p)


def test_every_sweep_output_pinned():
    # the JSON, CSV and grid bytes of every point of the sweep grid
    digest = hashlib.sha256()
    points = 0
    for m in range(2, 41):
        for r in range(3, 41):
            n = r if m == 2 else (m * r) // 2
            if feasibility(m, n, r).feasible:
                a, _ = construct(m, n, r)
                p = Params(m, n, r, 2)
                digest.update((to_json(a, p) + to_csv(a, p) + to_grid(a)).encode())
                points += 1
    assert points == 1103
    assert digest.hexdigest() == (
        "440fa26983f39805185d650c258d4397ce37043dd03828ebac199edb3e672c60"
    )


# The writers as they were before they bucketed cells by row: a global sort,
# json.dumps over one list per cell, and n fields joined per grid row.


def reference_json(a: SignedArray, p: Params) -> str:
    cells = [[i, j, e] for (i, j), e in sorted(a.cells.items())]
    obj = {"m": p.m, "n": p.n, "r": p.r, "s": p.s, "cells": cells}
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def reference_csv(a: SignedArray, p: Params) -> str:
    lines = [f"# m={p.m} n={p.n} r={p.r} s={p.s}", "row,col,value"]
    lines += [f"{i},{j},{e}" for (i, j), e in sorted(a.cells.items())]
    return "\n".join(lines) + "\n"


def reference_grid(a: SignedArray) -> str:
    width = max((len(str(e)) for e in a.cells.values()), default=1)
    by_row: list[list[tuple[int, int]]] = [[] for _ in range(a.rows + 1)]
    for (i, j), e in a.cells.items():
        by_row[i].append((j, e))
    blank = ".".rjust(width)
    lines = []
    for row in by_row[1:]:
        fields = [blank] * a.cols
        for j, e in row:
            fields[j - 1] = str(e).rjust(width)
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def sparse_arrays(draw) -> SignedArray:
    # a few hundred columns give gaps past to_grid's 64-field run at a row's
    # start, middle and end, and rows with no entry at all
    rows = draw(st.integers(0, 6))
    cols = draw(st.one_of(st.integers(0, 9), st.integers(0, 300)))
    if not rows or not cols:
        return SignedArray(rows, cols, {})
    entries = draw(st.sampled_from([
        st.integers(-(10**6), 10**6),  # mixed widths, zero included
        st.integers(-(10**6), -1),  # all negative
        st.integers(-9, 9),
    ]))
    index = st.tuples(st.integers(1, rows), st.integers(1, cols))
    return SignedArray(rows, cols, draw(st.dictionaries(index, entries)))


# any positive k, r, s give a valid (sk, rk; r, s); the writers only print them
params = st.builds(
    lambda k, r, s: Params(s * k, r * k, r, s),
    st.integers(1, 50), st.integers(1, 50), st.integers(1, 3),
)


@settings(max_examples=300)
@given(sparse_arrays(), params)
@example(SignedArray(0, 0, {}), Params(1, 1, 1, 1))
@example(SignedArray(0, 4, {}), Params(1, 1, 1, 1))
@example(SignedArray(3, 0, {}), Params(1, 1, 1, 1))
@example(SignedArray(3, 4, {(2, 3): 0}), Params(2, 4, 4, 2))
@example(SignedArray(3, 4, {(1, 4): -7, (3, 1): -12345}), Params(2, 4, 4, 2))
# long gaps: at a row's start, in its middle, at its end, a whole empty row
@example(SignedArray(2, 200, {(1, 150): 5}), Params(1, 1, 1, 1))
@example(SignedArray(2, 200, {(1, 1): 3, (1, 140): -4, (2, 1): 9}), Params(1, 1, 1, 1))
@example(SignedArray(3, 257, {(1, 1): 1, (1, 130): -1, (2, 129): 2, (3, 130): 3}), Params(1, 1, 1, 1))
# gaps of 64 and 65 fields between, before and after entries; 64 and 65 columns
@example(
    SignedArray(6, 130, {
        (1, 1): 1, (1, 66): -1, (2, 1): 1, (2, 67): -1, (3, 65): 10,
        (4, 66): -10, (5, 66): 0, (6, 65): 7,
    }),
    Params(1, 1, 1, 1),
)
@example(SignedArray(2, 64, {}), Params(1, 1, 1, 1))
@example(SignedArray(2, 65, {(1, 65): 7}), Params(1, 1, 1, 1))
def test_writers_match_reference(a, p):
    assert to_json(a, p) == reference_json(a, p)
    assert to_csv(a, p) == reference_csv(a, p)
    assert to_grid(a) == reference_grid(a)


def _per_cell_json(a: SignedArray, p: Params) -> str:
    # the writer that formatted each cell with its own f-string
    cells = ", ".join([f"[{i}, {j}, {e}]" for (i, j), e in a.cells.items()])
    return f'{{"m": {p.m}, "n": {p.n}, "r": {p.r}, "s": {p.s}, "cells": [{cells}]}}\n'


def _per_cell_csv(a: SignedArray, p: Params) -> str:
    lines = [f"# m={p.m} n={p.n} r={p.r} s={p.s}", "row,col,value"]
    lines += [f"{i},{j},{e}" for (i, j), e in a.cells.items()]
    lines.append("")
    return "\n".join(lines)


@pytest.mark.parametrize("k", [0, 1, 4095, 4096, 4097, 8195])
def test_pieces_join_to_the_per_cell_text_at_every_boundary(k):
    # a 1 x k row: each one-% piece holds 4,096 cells, so k runs up to, onto
    # and past the first and second cuts; entries are signed, of many digits,
    # and the largest magnitudes a cell holds sit at the ends and at the cuts
    big = (1 << 63) - 1
    entries = [(-1) ** j * (j * 7919 % 100003 + 1) for j in range(1, k + 1)]
    for at, e in ((0, big), (4095, -big), (4096, big), (k - 1, -big)):
        if 0 <= at < k:
            entries[at] = e
    a = SignedArray.from_cells(1, k, [(1, j, e) for j, e in enumerate(entries, start=1)])
    p = Params(1, max(k, 1), max(k, 1), 1)
    assert to_json(a, p) == _per_cell_json(a, p) == reference_json(a, p)
    assert to_csv(a, p) == _per_cell_csv(a, p) == reference_csv(a, p)
    if not k:
        assert to_json(a, p) == '{"m": 1, "n": 1, "r": 1, "s": 1, "cells": []}\n'
        assert to_csv(a, p) == "# m=1 n=1 r=1 s=1\nrow,col,value\n"


def test_grid_written_with_one_copy():
    # the final join writes the text once: the peak is the text, the list of
    # pieces and the shared run strings, and no slice holds a second copy
    import tracemalloc

    a, _ = construct(1000, 6000, 12)
    tracemalloc.start()
    try:
        text = to_grid(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(text)


@pytest.mark.parametrize("m, n, r", [(2, 15000, 15000), (10000, 15000, 3)])  # wide; tall, rule 3
@pytest.mark.parametrize("write, parse", [(to_json, from_json), (to_csv, from_csv)])
def test_parse_holds_one_copy_of_the_cells(m, n, r, write, parse):
    # the door drains the parsed list, so each parsed triple is freed as its
    # cell is stored: the peak is the array plus what is not yet drained
    import tracemalloc

    a, _ = construct(m, n, r)
    p = Params(m, n, r, 2)
    text = write(a, p)
    tracemalloc.start()
    try:
        parsed = parse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == (a, p)
    assert peak <= 1.35 * kept


_S_2x4 = seed("S_2x4")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "parse, text, fails",
    [
        (from_json, to_json(*_S_2x4), False),
        (from_csv, to_csv(*_S_2x4), False),
        (from_csv, to_csv(*_S_2x4).replace("\n", "\n\n"), False),  # the line loop
        (from_grid, to_grid(_S_2x4[0]), False),
        (read, to_json(*_S_2x4), False),
        (read, to_grid(_S_2x4[0]), False),
        (from_json, "[1]", True),
        (from_json, '{"m": 2, "n": 4, "r": 4, "s": 2, "cells": [[1, 1, 1], [1, 1, 1]]}', True),
        (from_csv, "row,col,value\n1,1,1\n1,1,1\n", True),  # the scanner, then the line loop
        (from_grid, "1 2\n3\n", True),
        (read, "{", True),
        (read, "hello\n", True),
    ],
)
def test_parsers_restore_the_collector_state(parse, text, fails, enabled):
    import gc

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ParseError) if fails else contextlib.nullcontext():
            parse(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# Tokens inserted at or written over every position of a canonical JSON
# text: brackets and separators that move the cuts between pieces, strings,
# literals and numbers JSON reads otherwise, and the marks the scanner
# looks for.
JSON_MUTATIONS = [
    "[", "]", "], [", ", [", "{", "}", '"', ",", " ", "\n", "1.5", "true", "null",
    "-", "0", "1" + "0" * 5000, '"cells": [', "]}", '"m": 3, ',
]


def _json_mutants():
    a, p = seed("S_2x3")
    canonical = to_json(a, p)
    yield canonical
    for at in range(len(canonical) + 1):
        for token in JSON_MUTATIONS:
            yield canonical[:at] + token + canonical[at:]
            yield canonical[:at] + token + canonical[at + 1:]


def test_json_read_in_pieces_agrees_with_a_whole_read(monkeypatch):
    # from_json reads a canonical text a piece at a time (here one cell a
    # piece); whatever it returns or raises is what a read of the whole
    # text returns or raises
    import smr.formats as formats

    def whole(text):
        raise formats._Reread

    monkeypatch.setattr(formats, "_PIECE", 1)
    pieces_read = 0
    for text in _json_mutants():
        in_pieces = _read_outcome(from_json, text)
        with monkeypatch.context() as patch:
            patch.setattr(formats, "_scan_json", whole)
            assert in_pieces == _read_outcome(from_json, text), repr(text)
        try:
            formats._scan_json(text)
        except (formats._Reread, ParseError):
            continue
        pieces_read += 1
    assert pieces_read > 100  # spaces, newlines and -0, among others, read in pieces
