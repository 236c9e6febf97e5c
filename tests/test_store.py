"""The packed cell store: three array columns behind a read-only view."""

from __future__ import annotations

import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr import (
    SEED_IDS,
    ParseError,
    Params,
    SignedArray,
    construct,
    feasibility,
    from_csv,
    from_json,
    inflate_horizontal,
    join_horizontal,
    seed,
    to_csv,
    to_grid,
    to_json,
    verify_smr,
)
from smr import transforms
from smr.cli import main
from smr.transforms import Layout

BIG = 1 << 63  # one past the largest value an array("q") holds


def test_out_of_order_repeat_before_off_grid_is_the_repeat():
    # (1,1) breaks key order; the repeat of (1,2) still comes before (9,9)
    with pytest.raises(ValueError, match=r"^duplicate cell \(1,2\)$"):
        SignedArray.from_cells(2, 2, [(1, 2, 1), (1, 1, 1), (1, 2, 5), (9, 9, 9)])


def test_out_of_order_off_grid_before_repeat_is_off_grid():
    with pytest.raises(ValueError, match=r"^cell \(9,9\) outside the 2x2 grid$"):
        SignedArray.from_cells(2, 2, [(1, 2, 1), (1, 1, 1), (9, 9, 9), (1, 2, 5)])


def test_out_of_order_input_is_stored_row_major():
    a = SignedArray.from_cells(2, 3, [(2, 1, 4), (1, 3, 2), (1, 1, 1), (2, 3, 3)])
    assert list(a.cells.items()) == [((1, 1), 1), ((1, 3), 2), ((2, 1), 4), ((2, 3), 3)]
    assert a == SignedArray.from_cells(2, 3, sorted([(2, 1, 4), (1, 3, 2), (1, 1, 1), (2, 3, 3)]))


@pytest.mark.parametrize("entry", [BIG, -BIG - 1, 10**30])
def test_entry_past_64_bits_is_a_door_error(entry):
    message = rf"^cell \(1,2\) or its entry {entry} does not fit in a 64-bit integer$"
    with pytest.raises(ValueError, match=message):
        SignedArray.from_cells(1, 2, [(1, 1, 1), (1, 2, entry)])
    with pytest.raises(ValueError, match=message):  # out of order first: the dict door
        SignedArray.from_cells(1, 2, [(1, 2, entry), (1, 1, 1)])
    # the extremes themselves fit
    assert SignedArray.from_cells(1, 2, [(1, 1, BIG - 1), (1, 2, -BIG)]).cells[1, 2] == -BIG


def test_verify_of_an_entry_past_64_bits_exits_1(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"m": 1, "n": 2, "r": 2, "s": 1, "cells": [[1, 1, %d], [1, 2, -1]]}' % BIG)
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse failure in {path}: cell (1,1) or its entry {BIG} does not fit in a 64-bit integer\n"
    )


def test_a_constructed_array_holds_at_most_32_bytes_a_cell():
    seed("S_2x4")  # the seed cache is not the array's
    tracemalloc.start()
    try:
        a, _ = construct(2, 60000, 60000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(a.cells) == 120000
    assert held <= 32 * len(a.cells)


def test_values_cannot_write_the_store():
    a, _ = construct(4, 10, 5)
    values = a.cells.values()
    with pytest.raises(TypeError):
        values[0] = 99
    with pytest.raises(TypeError):
        values[:1] = values[1:2]
    assert a == construct(4, 10, 5)[0]


def _sources(m: int, n: int, r: int) -> dict[str, SignedArray]:
    a, _ = construct(m, n, r)
    p = Params(m, n, r, 2)
    triples = [(i, j, e) for (i, j), e in a.cells.items()]
    random.Random(m * r).shuffle(triples)
    return {
        "construct": a,
        "from_json": from_json(to_json(a, p))[0],
        "from_csv": from_csv(to_csv(a, p))[0],
        "shuffled from_cells": SignedArray.from_cells(m, n, triples),
    }


@pytest.mark.parametrize("m,n,r", [(2, 8, 8), (4, 10, 5), (6, 24, 8), (7, 21, 6), (10, 35, 7)])
def test_equality_and_hash_agree_across_sources(m, n, r):
    sources = _sources(m, n, r)
    first = sources["construct"]
    for name, a in sources.items():
        assert a == first and hash(a) == hash(first), name
        assert list(a.cells.items()) == sorted(first.cells.items()), name
    assert len({*sources.values()}) == 1
    other = SignedArray.from_cells(m, n, [(i, j, -e) for (i, j), e in first.cells.items()])
    assert other != first


@pytest.mark.parametrize("m,n,r", [(2, 8, 8), (6, 24, 8), (7, 21, 6)])
def test_pickle_round_trip_returns_an_equal_array(m, n, r):
    for name, a in _sources(m, n, r).items():
        again = pickle.loads(pickle.dumps(a))
        assert again == a and hash(again) == hash(a), name


def test_arrays_written_in_part_order_read_row_major():
    # an inflation and a join write their parts one after another; every
    # read sees the cells row-major, and the writers print them so
    a, p = seed("S_2x4")
    b, _ = seed("S_2x3")
    for wide in (inflate_horizontal(a, 3), join_horizontal(inflate_horizontal(a, 2), b)):
        keys = list(wide.cells)
        assert keys == sorted(keys)
        assert [wide.cells[key] for key in keys] == list(wide.cells.values())
        q = Params(wide.rows, wide.cols, len(wide.cells) // wide.rows, 2)
        assert verify_smr(wide, q).ok
        for write, read in ((to_json, from_json), (to_csv, from_csv)):
            assert read(write(wide, q)) == (wide, q)
        first_row = [int(x) for x in to_grid(wide).splitlines()[0].split() if x != "."]
        assert first_row == [e for (i, _), e in wide.cells.items() if i == 1]


def test_a_parse_of_a_non_integer_entry_still_fails():
    with pytest.raises(ParseError, match=r"entry at \(1,2\) is not an integer: 1.5"):
        from_json('{"m": 1, "n": 2, "r": 2, "s": 1, "cells": [[1, 1, 1], [1, 2, 1.5]]}')


# the door over triple lists on a grid of at most 3x3: valid cells, and each
# defect the door names, at any place in any order
_GRID = st.integers(0, 3)
_VALID = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(-9, 9))
_ODD = st.sampled_from([0, -1, 4, 1.0, True, "1", [1], BIG, -BIG - 1, BIG - 1, -BIG])


@st.composite
def _triples(draw, defects: bool) -> tuple[int, int, list]:
    rows, cols = draw(_GRID), draw(_GRID)
    cells = {}
    for i, j, e in draw(st.lists(_VALID, max_size=12)):
        if i <= rows and j <= cols:
            cells[i, j] = e
    valid = [(i, j, e) for (i, j), e in sorted(cells.items())]
    triples = list(valid)
    if defects and valid:
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(triples)))
            triple = list(draw(st.sampled_from(valid)))
            kind = draw(st.sampled_from(["repeat", "odd", "length"]))
            if kind == "repeat":  # the same key again, maybe with its entry changed
                triple[2] = draw(st.integers(-9, 9))
            elif kind == "odd":  # one or two fields
                for field in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)):
                    triple[field] = draw(_ODD)
            else:  # a triple of another length, or no sequence at all
                triple = draw(st.sampled_from([triple[:2], triple + [1], 7]))
            if triple != 7 and draw(st.booleans()):  # a tuple, or the list JSON gives
                triple = tuple(triple)
            triples.insert(at, triple)
    if draw(st.booleans()):
        triples = draw(st.permutations(triples))
    return rows, cols, triples


def _outcome(rows: int, cols: int, triples: list) -> object:
    try:
        return SignedArray.from_cells(rows, cols, triples)
    except (ValueError, TypeError) as error:
        return type(error), str(error)


@settings(max_examples=400, deadline=None)
@given(_triples(defects=False))
def test_valid_cells_in_any_order_give_the_array_of_their_sorted_list(case):
    rows, cols, triples = case
    a = SignedArray.from_cells(rows, cols, triples)
    assert list(a.cells.items()) == [((i, j), e) for i, j, e in sorted(triples)]
    assert a == SignedArray.from_cells(rows, cols, sorted(triples))


@settings(max_examples=600, deadline=None)
@given(_triples(defects=True))
def test_a_failing_list_raises_as_its_shortest_failing_prefix(case):
    rows, cols, triples = case
    outcome = _outcome(rows, cols, triples)
    valid = all(
        type(t) is not int and len(t) == 3 and all(type(x) is int for x in t)
        and 1 <= t[0] <= rows and 1 <= t[1] <= cols and -BIG <= t[2] < BIG
        for t in triples
    ) and len({(t[0], t[1]) for t in triples}) == len(triples)
    assert isinstance(outcome, SignedArray) == valid
    if valid:
        return
    first = next(k for k in range(len(triples) + 1) if _outcome(rows, cols, triples[:k]) == outcome)
    assert all(isinstance(_outcome(rows, cols, triples[:k]), SignedArray) for k in range(first))
    # the cells before it in key order, then in reverse: the same error either way
    before = sorted(triples[: first - 1], key=lambda t: (t[0], t[1]))
    for cells in (before, before[::-1]):
        assert _outcome(rows, cols, cells + triples[first - 1 : first]) == outcome


def test_a_long_leaf_inflates_a_slice_at_a_time():
    # 8,200 values a column, past _append's 4,096-value batch
    a, _ = construct(2, 4100, 4100)
    wide = inflate_horizontal(a, 2)
    quantum = len(a.cells) // 2
    expected = dict(a.cells.items())
    for (i, j), e in a.cells.items():
        expected[i, j + 4100] = e + quantum if e > 0 else e - quantum
    assert dict(wide.cells.items()) == expected
    assert list(wide.cells) == sorted(expected)
    assert verify_smr(wide, Params(2, 8200, 8200, 2)).ok


@pytest.mark.parametrize("key", [5, "ab", (1,), (1, 2, 3), ("a", 1)])
def test_a_key_that_is_not_a_pair_is_not_in_the_cells(key):
    a, _ = seed("S_2x4")
    with pytest.raises(KeyError):
        a.cells[key]
    assert key not in a.cells
    assert a.cells.get(key) is None


# the first ordered read of an array that materialize wrote in part order,
# against a plain stable argsort by row of the columns as they were written
def _argsorted(a: SignedArray) -> list:
    row, col, entry, _ = a.cells._columns
    order = sorted(range(len(row)), key=row.__getitem__)
    return [((row[x], col[x]), entry[x]) for x in order]


def _paired(rows: int, pairs: list) -> SignedArray:
    """A shiftable array: its column pair t holds +, - in row i and -, +
    in row h, for (i, h) the t-th pair, so its rows may differ in length."""
    cells = {}
    for t, (i, h) in enumerate(pairs):
        for row, j, sign in ((i, 2 * t + 1, 1), (i, 2 * t + 2, -1), (h, 2 * t + 1, -1), (h, 2 * t + 2, 1)):
            cells[row, j] = sign * (len(cells) + 1)
    return SignedArray(rows, 2 * len(pairs), cells)


@st.composite
def _uneven(draw) -> SignedArray:
    rows = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.tuples(st.integers(1, rows), st.integers(1, rows)), min_size=1, max_size=4))
    return _paired(rows, [(i, h) for i, h in pairs if i != h])


_LEAVES = st.one_of(st.sampled_from(SEED_IDS).map(lambda seed_id: seed(seed_id)[0]), _uneven())


# a diagonal inflation, a copy and a horizontal join twice as often: together
# they make stacked bands beside copies
_STEPS = ["leaf", "inflate_horizontal", "swap", "join_diagonal", "materialize"]
_STEPS += 2 * ["inflate_diagonal", "join_horizontal", "copy"]


@st.composite
def _programs(draw) -> list[tuple[SignedArray, list]]:
    """Layouts built by a short program on a stack: leaves pushed, copied
    and swapped, inflated both ways with k = 0, 1, below and above the row
    count, joined both ways (a diagonal layout joined horizontally is a
    stacked band), and materialized between steps.  A step whose
    preconditions fail is skipped.  Every array materialize writes, with
    its items as the argsort reads them, taken before a later step reads
    it as a leaf."""
    stack: list[Layout] = []
    written: list[tuple[SignedArray, list]] = []

    def write(layout: Layout) -> Layout:
        a = layout.materialize()
        written.append((a, _argsorted(a)))
        return Layout.of(a)

    for op in draw(st.lists(st.sampled_from(_STEPS), min_size=4, max_size=12)):
        if op == "leaf" or not stack:
            stack.append(Layout.of(draw(_LEAVES)))
        elif op.startswith("inflate"):
            top = stack[-1]
            most = top.rows + 2 if op == "inflate_horizontal" else 3
            k = draw(st.integers(0, most))
            if top.size * k <= 3000 and top.rows * k <= 60:
                try:
                    stack[-1] = getattr(top, op)(k)
                except ValueError:
                    pass
        elif op.startswith("join") and len(stack) > 1:
            try:
                stack[-2:] = [getattr(stack[-2], op)(stack[-1])]
            except ValueError:
                pass
        elif op == "copy":  # the layout itself, or its array as one part: the same rows
            stack.append(write(stack[-1]) if draw(st.booleans()) else stack[-1])
        elif op == "swap" and len(stack) > 1:
            stack[-2:] = stack[-1], stack[-2]
        elif op == "materialize":
            stack[-1] = write(stack[-1])
    for layout in stack:
        write(layout)
    return written


@settings(max_examples=300, deadline=None)
@given(_programs())
def test_the_first_ordered_read_is_the_stable_sort_by_row(written):
    for a, expected in written:
        assert list(a.cells.items()) == expected


def test_every_construction_reaches_row_order_without_the_argsort(monkeypatch):
    def refuse(*columns):
        raise AssertionError("the argsort fallback ran")

    monkeypatch.setattr(transforms, "_by_row", refuse)
    # every point with m, r <= 60, and one a route rule at m > 170: rules
    # 3, 4, 5, 7, 6 and 8 at m = 402, rules 9 and 10 at m = 401
    points = [(m, r) for m in range(1, 61) for r in range(1, 61)]
    points += [(402, r) for r in (3, 5, 8, 9, 14, 7)] + [(401, 8), (401, 14)]
    built = 0
    for m, r in points:
        if m * r % 2 or not feasibility(m, m * r // 2, r).feasible:
            continue
        a, _ = construct(m, m * r // 2, r)
        assert list(a.cells.items()) == _argsorted(a), (m, r)
        built += 1
    assert built == 2553 + 8


# rows of 2, 4 and 2 cells: 8 cells are no whole count a row; rows of 2,
# 6 and 4 cells: the first cell of each 4 reads rows 1, 2, 2; rows of 4, 2
# and 6 cells: the first reads rows 1, 2, 3, but the last 1, 3, 3
@pytest.mark.parametrize("pairs", [[(1, 2), (2, 3)], [(2, 3), (1, 2), (2, 3)], [(1, 3), (1, 3), (2, 3)]])
def test_a_store_whose_bands_do_not_hold_takes_the_argsort(monkeypatch, pairs):
    calls = []
    by_row = transforms._by_row
    monkeypatch.setattr(transforms, "_by_row", lambda *columns: calls.append(1) or by_row(*columns))
    wide = inflate_horizontal(_paired(3, pairs), 2)
    expected = _argsorted(wide)
    assert list(wide.cells.items()) == expected and calls == [1]
