"""Compact three- and five-column blocks and the spread step."""

from __future__ import annotations

import pytest

from smr import (
    BlockError,
    Params,
    SignedArray,
    entry_multiset,
    five_column_block,
    spread,
    three_column_block,
    verify_smr,
)
from smr.direct import _raw_five_column_entries

from goldens import (
    GRID_8x12,
    GRID_BLOCK3_M8,
    GRID_BLOCK3_M10,
    GRID_BLOCK5_M8,
    GRID_BLOCK5_M10,
    by_line,
    golden,
)


def test_three_column_block_m8_pinned():
    assert three_column_block(8).array == golden(GRID_BLOCK3_M8)


def test_three_column_block_m10_pinned():
    assert three_column_block(10).array == golden(GRID_BLOCK3_M10)


def test_three_column_block_m2():
    a = three_column_block(2).array
    rows, _ = by_line(a)
    assert rows[1] == {1: 1, 2: 2, 3: -3}
    assert rows[2] == {1: -1, 2: -2, 3: 3}
    assert entry_multiset(a) == (-3, -2, -1, 1, 2, 3)


def test_three_column_block_rejects_odd_or_small():
    for m in (0, 1, 3, 7, 4.0, True):
        with pytest.raises(ValueError):
            three_column_block(m)


def test_three_column_row_sum_identities():
    # both row classes cancel exactly, row by row
    for m in range(2, 41, 2):
        half, top = m // 2, 3 * m // 2
        for i in range(1, half + 1):
            assert i + (top - 2 * i + 1) + (-top + i - 1) == 0
        for i in range(half + 1, m + 1):
            assert (half - i) + (-i) + (-half + 2 * i) == 0


def test_five_column_block_m8_pinned():
    block = five_column_block(8)
    assert block.kind == "five"
    assert block.array == golden(GRID_BLOCK5_M8)


def test_five_column_block_m10_repaired_pinned():
    block = five_column_block(10)
    assert block.kind == "five_repaired"
    assert block.array == golden(GRID_BLOCK5_M10)


def test_five_column_block_m12_needs_no_repair():
    block = five_column_block(12)
    assert block.kind == "five"
    rows, _ = by_line(block.array)
    for i in range(1, 13):
        row = rows[i]
        assert sum(row.values()) == 0
        mags = [abs(e) for e in row.values()]
        assert len(set(mags)) == 5


def test_five_column_block_rejects_odd_small_or_two():
    for m in (0, 2, 3, 5, 7, 8.0):
        with pytest.raises(ValueError):
            five_column_block(m)


@pytest.mark.parametrize("m", range(6, 63, 4))
def test_raw_five_column_degeneracy_rows(m):
    # for m = 2 mod 4 the unrepaired block collapses in exactly two rows
    assert m % 4 == 2
    entries = _raw_five_column_entries(m)  # row-major, five a row
    degenerate = []
    for i in range(1, m + 1):
        mags = [abs(e) for e in entries[5 * i - 5 : 5 * i]]
        if len(set(mags)) != 5:
            degenerate.append(i)
    assert degenerate == [(m + 2) // 4, (3 * m + 2) // 4]
    rows, _ = by_line(five_column_block(m).array)
    for i in range(1, m + 1):
        mags = [abs(e) for e in rows[i].values()]
        assert len(set(mags)) == 5


def test_spread_m8_pinned():
    assert spread(three_column_block(8)) == golden(GRID_8x12)


def test_spread_of_2x3_block_keeps_contents():
    block = three_column_block(2)
    out = spread(block)
    # entries 1..3 already sit at their magnitude columns
    assert out == block.array


def test_spread_five_column_m12_verifies():
    out = spread(five_column_block(12))
    assert verify_smr(out, Params(12, 30, 5, 2)).ok


def test_spread_columns_hold_value_and_negation():
    _, cols = by_line(spread(five_column_block(8)))
    for j in range(1, 21):
        assert sorted(cols[j].values()) == [-j, j]


def test_block_rejects_pair_in_row():
    from smr import CompactBlock, from_grid

    # zero-sum first row that still contains an entry and its negation
    grid = """
     1 -1  2  3  -5
    -2 -3  4 -4   5
     6 -6  8 -8  10
     7 -7  9 -9 -10
    """
    # rows 3 and 4 do not sum to zero either: the +-k row is named first
    with pytest.raises(BlockError, match=r"^row 1 contains an entry and its negation$"):
        CompactBlock(from_grid(grid)[0], "five")


def test_block_rejects_wrong_support():
    from smr import CompactBlock, from_grid

    grid = """
     1  2 -3
    -1 -2  4
    """  # 4 replaces 3: support is no longer exact
    with pytest.raises(BlockError):
        CompactBlock(from_grid(grid)[0], "three")


@pytest.mark.parametrize(
    "last_row",
    [
        "-1 -2 -4",  # -4 replaces 3; without the range check it would set 3's byte
        "-1 -2  0",  # a 0, which no block holds
        "-1 -2 -2",  # a repeat among six entries
        "-1 -2",  # one entry short
    ],
)
def test_block_support_marks_at_their_edges(last_row):
    from smr import CompactBlock

    cells = [(1, 1, 1), (1, 2, 2), (1, 3, -3)]
    cells += [(2, j, int(e)) for j, e in enumerate(last_row.split(), 1)]
    with pytest.raises(BlockError, match=r"^block entries are not exactly \+-1\.\.\+-3$"):
        CompactBlock(SignedArray.from_cells(2, 3, cells), "three")


def _swapped_rows_1_2(block):
    cells = dict(block.array.cells)
    cells[1, 1], cells[2, 1] = cells[2, 1], cells[1, 1]
    return SignedArray(block.array.rows, block.array.cols, cells)


@pytest.mark.parametrize(
    "array, kind, message",
    [
        # swapping one column's entries between rows keeps the support and pairs
        (_swapped_rows_1_2(three_column_block(4)), "three", "row 1 sums to 1"),
        # an odd row count leaves one cell of the grid empty: the support set
        # of 14 cells, no +-k row pair and zero row sums do not fill 3 x 5
        (
            SignedArray.from_cells(3, 5, [
                (i, j + 1, e)
                for i, row in enumerate([(1, -3, -5, 7), (-1, -2, 4, 5, -6), (2, 3, -4, 6, -7)], 1)
                for j, e in enumerate(row)
            ]),
            "five",
            "row 1 is not fully filled",
        ),
    ],
)
def test_block_names_its_first_bad_row(array, kind, message):
    from smr import CompactBlock

    with pytest.raises(BlockError, match=f"^{message}$"):
        CompactBlock(array, kind)


def test_block_kind_matches_its_width():
    from smr import CompactBlock

    three = three_column_block(4)
    with pytest.raises(BlockError, match="width 3 cannot be of kind 'x'"):
        CompactBlock(three.array, "x")
    with pytest.raises(BlockError, match="width 3 cannot be of kind 'five'"):
        three._replace(kind="five")
    with pytest.raises(BlockError, match="width 5 cannot be of kind 'three'"):
        CompactBlock(five_column_block(8).array, "three")
    # a five-column block may name either construction; the cells are the judge
    for kind in ("five", "five_repaired"):
        assert CompactBlock(five_column_block(6).array, kind).kind == kind


@pytest.mark.parametrize("m", range(2, 201, 2))
def test_three_column_range(m):
    assert verify_smr(spread(three_column_block(m)), Params(m, 3 * m // 2, 3, 2)).ok


@pytest.mark.parametrize("m", range(4, 201, 2))
def test_five_column_range(m):
    assert verify_smr(spread(five_column_block(m)), Params(m, 5 * m // 2, 5, 2)).ok
