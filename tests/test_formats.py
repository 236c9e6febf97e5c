"""Serialization: canonical forms, round-trips, parse failures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr import (
    Params,
    ParseError,
    construct,
    from_csv,
    from_grid,
    from_json,
    seed,
    to_csv,
    to_grid,
    to_json,
)


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
    a, _ = seed("S_5x15")
    assert from_grid(to_grid(a)) == a


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
    ]:
        assert old in text
        with pytest.raises(ParseError):
            from_json(text.replace(old, new, 1))


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


def test_grid_parse_errors():
    with pytest.raises(ParseError):
        from_grid("1 2 q\n")
    with pytest.raises(ParseError, match="ragged"):
        from_grid("1 2\n3\n")


POINTS = [(2, 4, 4), (2, 11, 11), (3, 6, 4), (6, 9, 3), (5, 15, 6), (8, 20, 5)]


@settings(max_examples=30)
@given(st.sampled_from(POINTS))
def test_constructed_arrays_round_trip(point):
    m, n, r = point
    a, _ = construct(m, n, r)
    p = Params(m, n, r, 2)
    assert from_json(to_json(a, p)) == (a, p)
    assert from_csv(to_csv(a, p)) == (a, p)
    assert from_grid(to_grid(a)) == a
