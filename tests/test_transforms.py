"""Shift, inflations and joins: pinned outputs, preconditions, properties."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr import (
    JoinMismatchError,
    NotShiftableError,
    Params,
    ParityError,
    SignedArray,
    entry_multiset,
    from_grid,
    inflate_diagonal,
    inflate_horizontal,
    is_shiftable,
    join_diagonal,
    join_horizontal,
    seed,
    shift,
    verify_smr,
)
from smr import transforms
from smr.transforms import Layout

from goldens import (
    GRID_2x11_CONSTRUCTED,
    GRID_2x11_MIRRORED,
    GRID_2x12,
    GRID_6x12,
    GRID_7x14_CONSTRUCTED,
    GRID_7x14_MIRRORED,
    by_line,
    golden,
    swap_rows,
)

SHIFTABLE_SEEDS = ("S_2x4", "S_4x12", "S_6x18", "S_5x10", "S_3x6", "S_5x15", "S_3x9")


def line_sums(a: SignedArray) -> tuple[list[int], list[int]]:
    rows, cols = by_line(a)
    return [sum(row.values()) for row in rows[1:]], [sum(col.values()) for col in cols[1:]]


# shift


def test_shift_pinned_block():
    a, _ = seed("S_2x4")
    shifted = shift(a, 4)
    rows, _ = by_line(shifted)
    assert rows[1] == {1: 5, 2: -6, 3: -7, 4: 8}
    assert rows[2] == {1: -5, 2: 6, 3: 7, 4: -8}


def test_shift_zero_is_identity():
    a, _ = seed("S_3x9")
    assert shift(a, 0) == a


def test_shift_3x6_row_one():
    a, _ = seed("S_3x6")
    shifted = shift(a, 6)
    row = by_line(shifted)[0][1]
    assert row == {1: 7, 3: -9, 4: -10, 6: 12}
    assert sum(row.values()) == 0


def test_counts_must_be_nonnegative_integers():
    # outputs skip validation, so a float shift or count must not get through
    a, _ = seed("S_2x4")
    for bad in (-1, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            shift(a, bad)
        with pytest.raises(ValueError, match="nonnegative integer"):
            inflate_horizontal(a, bad)
        with pytest.raises(ValueError, match="nonnegative integer"):
            inflate_diagonal(a, bad)


def test_shift_rejects_non_shiftable():
    b, _ = seed("S_2x3")
    with pytest.raises(NotShiftableError):
        shift(b, 1)
    with pytest.raises(NotShiftableError):
        shift(b, 0)


@given(st.sampled_from(SHIFTABLE_SEEDS), st.integers(min_value=0, max_value=500))
def test_shift_preserves_sums_and_balance(sid, t):
    a, _ = seed(sid)
    shifted = shift(a, t)
    rows, cols = line_sums(shifted)
    assert all(v == 0 for v in rows + cols)
    assert is_shiftable(shifted)
    assert set(shifted.cells) == set(a.cells)


# inflations


def test_inflate_horizontal_pinned():
    a, _ = seed("S_2x4")
    assert inflate_horizontal(a, 3) == golden(GRID_2x12)


def test_inflate_diagonal_pinned():
    a, _ = seed("S_2x4")
    assert inflate_diagonal(a, 3) == golden(GRID_6x12)


def test_inflate_identity():
    a, _ = seed("S_5x15")
    assert inflate_horizontal(a, 1) == a
    assert inflate_diagonal(a, 1) == a


def test_inflate_zero_is_empty():
    a, _ = seed("S_2x4")
    h = inflate_horizontal(a, 0)
    assert (h.rows, h.cols, dict(h.cells)) == (2, 0, {})
    d = inflate_diagonal(a, 0)
    assert (d.rows, d.cols, dict(d.cells)) == (0, 0, {})


def test_inflate_horizontal_3x6_twice():
    a, _ = seed("S_3x6")
    out = inflate_horizontal(a, 2)
    assert verify_smr(out, Params(3, 12, 8, 2)).ok
    assert is_shiftable(out)


def test_inflate_diagonal_4x12_twice():
    a, _ = seed("S_4x12")
    out = inflate_diagonal(a, 2)
    assert verify_smr(out, Params(8, 24, 6, 2)).ok
    assert is_shiftable(out)


def test_inflate_rejects_non_shiftable():
    b, _ = seed("S_2x3")
    with pytest.raises(NotShiftableError):
        inflate_horizontal(b, 2)
    with pytest.raises(NotShiftableError):
        inflate_diagonal(b, 2)


@given(st.sampled_from(SHIFTABLE_SEEDS), st.integers(min_value=1, max_value=6))
def test_inflations_verify(sid, k):
    a, p = seed(sid)
    h = inflate_horizontal(a, k)
    assert verify_smr(h, Params(p.m, k * p.n, k * p.r, p.s)).ok
    assert is_shiftable(h)
    d = inflate_diagonal(a, k)
    assert verify_smr(d, Params(k * p.m, k * p.n, p.r, p.s)).ok
    assert is_shiftable(d)


@given(st.sampled_from(SHIFTABLE_SEEDS), st.integers(min_value=1, max_value=6))
def test_inflation_support_exactness(sid, k):
    a, _ = seed(sid)
    half = len(a.cells) // 2
    expected = tuple(range(-k * half, 0)) + tuple(range(1, k * half + 1))
    assert entry_multiset(inflate_horizontal(a, k)) == expected
    assert entry_multiset(inflate_diagonal(a, k)) == expected


@settings(max_examples=60)
@given(
    st.sampled_from(SHIFTABLE_SEEDS),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_inflation_composition_consistency(sid, k1, k2):
    a, _ = seed(sid)
    flat = inflate_horizontal(a, k1 * k2)
    nested = inflate_horizontal(inflate_horizontal(a, k1), k2)
    assert entry_multiset(flat) == entry_multiset(nested)
    assert line_sums(flat)[0] == line_sums(nested)[0]


# joins


def test_join_horizontal_pinned():
    a, _ = seed("S_2x4")
    b, _ = seed("S_2x3")
    out = join_horizontal(inflate_horizontal(a, 2), b)
    assert out == golden(GRID_2x11_CONSTRUCTED)
    assert verify_smr(out, Params(2, 11, 11, 2)).ok
    # the mirrored presentation flips both two-row operands; same design
    assert golden(GRID_2x11_MIRRORED) == swap_rows(out, [(1, 2)])
    assert verify_smr(golden(GRID_2x11_MIRRORED), Params(2, 11, 11, 2)).ok


def test_join_horizontal_empty_left_operand():
    b, _ = seed("S_2x3")
    empty = inflate_horizontal(seed("S_2x4")[0], 0)
    assert join_horizontal(empty, b) == b


def test_join_horizontal_parity_gate():
    # odd shared row count times odd fixed-operand degree: shift would be half-integral
    a, _ = seed("S_3x6")
    bad = from_grid(
        """
         1  2 -3
        -1 -2  3
         4 -4  5
        """
    )[0]
    with pytest.raises(ParityError):
        join_horizontal(a, bad)


def test_join_with_an_empty_operand_keeps_the_parity_gate():
    # an empty shiftable operand goes through the same join code as any
    # other, so a fixed operand with an odd cell count is refused there too
    odd = SignedArray(1, 1, {(1, 1): 5})
    with pytest.raises(ParityError, match="fixed operand has 1 cells"):
        join_horizontal(SignedArray(1, 0), odd)
    with pytest.raises(ParityError, match="fixed operand has 1 cells"):
        join_diagonal(SignedArray(0, 0), odd)
    two_rows = SignedArray(2, 1, {(1, 1): 5})
    with pytest.raises(ParityError, match="fixed operand has 1 cells"):
        join_horizontal(SignedArray(2, 0), two_rows)


def test_join_horizontal_row_count_mismatch():
    a, _ = seed("S_2x4")
    b, _ = seed("S_3x6")
    with pytest.raises(JoinMismatchError):
        join_horizontal(a, b)
    # an empty 3x0 operand still has three rows
    with pytest.raises(JoinMismatchError, match="row counts differ: 3 vs 2"):
        join_horizontal(inflate_horizontal(b, 0), a)
    # equal row counts, but 4 cells cannot fill 3 columns alike
    part = SignedArray.from_cells(2, 3, [(1, 1, 1), (2, 1, -1), (1, 2, 2), (2, 2, -2)])
    with pytest.raises(JoinMismatchError, match="^operand columns are not uniformly filled$"):
        join_horizontal(a, part)


def test_join_horizontal_rejects_non_shiftable_left():
    a, _ = seed("S_2x3")
    b, _ = seed("S_2x4")
    with pytest.raises(NotShiftableError):
        join_horizontal(a, b)


def test_join_diagonal_pinned():
    a, _ = seed("S_2x4")
    b, _ = seed("S_3x6")
    out = join_diagonal(inflate_diagonal(a, 2), b)
    assert out == golden(GRID_7x14_CONSTRUCTED)
    assert verify_smr(out, Params(7, 14, 4, 2)).ok
    assert is_shiftable(out)
    # mirrored presentation: each shifted two-row block row-swapped
    assert golden(GRID_7x14_MIRRORED) == swap_rows(out, [(4, 5), (6, 7)])
    assert verify_smr(golden(GRID_7x14_MIRRORED), Params(7, 14, 4, 2)).ok


def test_join_diagonal_empty_left_operand():
    b, _ = seed("S_3x6")
    empty = inflate_diagonal(seed("S_2x4")[0], 0)
    assert join_diagonal(empty, b) == b


def test_join_diagonal_pinned_7x21():
    a, _ = seed("S_4x12")
    b, _ = seed("S_3x9")
    out = join_diagonal(inflate_diagonal(a, 1), b)
    assert verify_smr(out, Params(7, 21, 6, 2)).ok
    assert is_shiftable(out)


def test_join_diagonal_degree_mismatch():
    a, _ = seed("S_2x4")  # row degree 4
    b, _ = seed("S_3x9")  # row degree 6
    with pytest.raises(JoinMismatchError):
        join_diagonal(a, b)


def test_join_diagonal_rejects_non_shiftable_left():
    a, _ = seed("S_2x3")
    b, _ = seed("S_2x3")
    with pytest.raises(NotShiftableError):
        join_diagonal(a, b)


def test_join_shiftability_follows_fixed_operand():
    shiftable_a = inflate_horizontal(seed("S_2x4")[0], 2)
    non_shiftable_b, _ = seed("S_2x3")
    assert not is_shiftable(join_horizontal(shiftable_a, non_shiftable_b))
    shiftable_b, _ = seed("S_2x4")
    assert is_shiftable(join_horizontal(shiftable_a, shiftable_b))
    # the layout's flag is b's, scanned for a seed, True for an inflation
    assert Layout.of(shiftable_b).shiftable is True
    joined = Layout.of(shiftable_a).join_horizontal(Layout.of(non_shiftable_b))
    assert joined.shiftable is False
    assert Layout.of(shiftable_a).join_horizontal(Layout.of(shiftable_b)).shiftable is True
    flagged_b = Layout.of(shiftable_b).inflate_diagonal(2)
    assert Layout.of(shiftable_b).inflate_diagonal(3).join_diagonal(flagged_b).shiftable is True


@settings(max_examples=60)
@given(st.sampled_from(SHIFTABLE_SEEDS), st.integers(min_value=1, max_value=4))
def test_join_horizontal_verifies_on_matched_operands(sid, k):
    a, p = seed(sid)
    out = join_horizontal(inflate_horizontal(a, k), a)
    assert verify_smr(out, Params(p.m, (k + 1) * p.n, (k + 1) * p.r, p.s)).ok
    assert is_shiftable(out)


@settings(max_examples=60)
@given(st.sampled_from(SHIFTABLE_SEEDS), st.integers(min_value=1, max_value=4))
def test_join_diagonal_verifies_on_matched_operands(sid, k):
    a, p = seed(sid)
    out = join_diagonal(inflate_diagonal(a, k), a)
    assert verify_smr(out, Params((k + 1) * p.m, (k + 1) * p.n, p.r, p.s)).ok
    assert is_shiftable(out)


# _append against one copy at a time, at every boundary of its batches: a
# column of at most a batch or of more, and copies that fill a batch or spill
# into the next.  _append reads _BATCH when called, so a batch of 8 walks the
# boundaries the real one has; at the real one, cases past 32k values are
# skipped, as their reference lists would take seconds and hundreds of MB.


@pytest.mark.parametrize("batch", [8, transforms._BATCH])
@pytest.mark.parametrize("away", [False, True])
def test_append_equals_a_per_copy_reference_at_every_batch_boundary(monkeypatch, batch, away):
    monkeypatch.setattr(transforms, "_BATCH", batch)
    for size in (0, 1, 3, batch - 1, batch, batch + 1, 2 * batch + 3):
        column = array("q", [(i + 1) * (-1) ** i for i in range(size)])  # no 0, both signs
        for copies in (1, 2, batch // 3 + 1):
            if size * copies > 1 << 15:
                continue
            for moves in (range(0, 5 * copies, 5), range(7, 7 + 5 * copies, 5), [0] * copies):
                moves = tuple(moves)
                out = array("q", [99])
                transforms._append(out, column, moves, away)
                expected = [99]
                for t in moves:
                    expected += [(v + t if v > 0 else v - t) if away else v + t for v in column]
                assert out.tolist() == expected, (size, copies, moves)
