"""Composition operators: shifting, inflation and joins.

All operators take shiftable input where stated, preserve zero line sums,
and keep the entry set exact: a valid operand using {+-1..+-N} combines with
one using {+-1..+-N'} into a result using {+-1..+-(N+N')}.

The shift quantum of an array is half its cell count (the largest absolute
entry of a valid array).  Degenerate empty operands are accepted by the
inflations (k = 0) and go through the same join code, under the same
preconditions, so boundary cases of the dispatch table need no special-casing.

The operators act on a ``Layout``: a shape, a cell count, a shiftability
flag and a list of runs, each k copies of a leaf array placed from a row
and column offset with their entries moved a fixed amount away from zero,
copy b a fixed step further down, b leaf widths further right and b leaf
quanta further out.  Each copy has its own band of columns, and the runs
go in order of column offset.  A join only appends runs and an inflation
is one run of copies of its materialized operand, so a chain of operators
writes each output cell once, when ``Layout.materialize`` builds the
array.  It writes the runs one after another, each a leaf's row-major
columns moved for each copy (``_append``), and records the bands they
form: runs of full-height copies side by side, and copies stacked down
the rows.  The array's first ordered read moves the
bands row-major with strided slices (``_row_major``); a store they do not
describe, made from an array with uneven rows, is sorted by row
(``_by_row``), the one other way to row order.  Building and checking an
array need no order.  The array is made with ``SignedArray._trusted``:
its cells are leaf cells at ``int`` offsets inside its own shape, so the
full validation would only repeat what the leaves already passed.
Shiftability lives in the layout, not in the array: ``Layout.of`` scans
its leaf, an inflation or shift is shiftable and a join takes the fixed
operand's flag, so no ``Layout`` operator scans its operand.  The public
functions wrap one operator each: array in, ``Layout.of``, then the
materialized array out.

A copy is moved by lane arithmetic, not by Python code per value: a
column's native bytes are read as one integer of 64-bit lanes, each value
v held as v + 2^63 (under ``away``, a value <= 0 as 2^63 - 1 - v), so that
moving every value of a copy by t is adding t times the integer of 1 in
every lane, and writing back is the inverse XOR and the integer's bytes.
While every moved value fits in 64 bits, every lane of the sum lies in
[0, 2^64) and no carry crosses into the next; a move that would take a
value past that raises ``OverflowError`` before anything is written.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial

from .core import SignedArray, _Cells, is_shiftable


class NotShiftableError(ValueError):
    """Operand required to be shiftable is not."""


class ParityError(ValueError):
    """Join would need a half-integral shift (odd cell count in the fixed operand)."""


class JoinMismatchError(ValueError):
    """Join operands disagree on shared dimensions or fill degrees."""


def _check_count(k: object, what: str) -> None:
    if type(k) is not int or k < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {k!r}")


class Layout:
    """An array not yet written: ``rows`` x ``cols`` holding ``size`` cells,
    the union of ``parts``, each a run (leaf, copies, row offset, column
    offset, shift, row step) in order of column offset, whose copy b lies
    b row steps down (0 side by side, the leaf's rows down the diagonal)
    and b leaf widths right of the offsets, its entries b times half the
    leaf's cells further from zero than the shift.
    ``shiftable`` is True iff the layout is shiftable.

    A value: no operator changes a layout, each returns a new one.  A slots
    class, not a named tuple: nothing compares, hashes or pickles a layout.
    """

    __slots__ = ("rows", "cols", "size", "shiftable", "parts")

    def __init__(self, rows: int, cols: int, size: int, shiftable: bool, parts: tuple):
        self.rows = rows
        self.cols = cols
        self.size = size
        self.shiftable = shiftable
        self.parts = parts

    @classmethod
    def of(cls, a: SignedArray) -> Layout:
        return cls(a.rows, a.cols, len(a.cells), is_shiftable(a), ((a, 1, 0, 0, 0, 0),))

    def materialize(self) -> SignedArray:
        """Write the runs' cells into one array, run by run: the copies of a
        run take its leaf's row-major columns, moved, in one pass a column.
        The array's columns are then in part order, and the walk over the
        runs records their bands, without reading a column: a run of
        full-height copies, which lie side by side, is one band of k copies;
        a copy of fewer rows that lies below the one before it extends that
        one's band, and any other starts a band of one copy.  One band of
        one copy is row-major.  Otherwise the array gets its order from
        ``_row_major`` when an order is first needed (``_Cells``), which
        building it and checking it never do."""
        if len(self.parts) == 1:  # the leaf itself, when it is all of the array
            a, _, row_off, col_off, t, _ = self.parts[0]
            if not (row_off or col_off or t) and a.rows == self.rows and a.cols == self.cols:
                return a
        row, col, entry = array("q"), array("q"), array("q")
        bands: list[tuple[int, int]] = []  # (copies, cells a copy), in part order
        below = None  # the first row under the last copy, while its band may grow
        for a, k, row_off, col_off, t, step in self.parts:
            rows, cols, entries = a.cells._sorted()
            _append(row, rows, row_off, step, k)
            _append(col, cols, col_off, a.cols, k)
            _append(entry, entries, t, len(rows) // 2, k, away=True)
            size, height = len(rows), a.rows
            if not size:
                continue
            if height == self.rows:  # full height, so at row offset 0
                bands.append((k, size))
                below = None
                continue
            if below is None or row_off < below:  # else the first copy extends the last band
                bands.append((1, 0))
            stacked = k if step else 1  # each diagonal copy lies below the one before it
            bands[-1] = (1, bands[-1][1] + stacked * size)
            bands += [(1, size)] * (k - stacked)  # later copies side by side start bands
            below = row_off + (k - 1) * step + height
        order = None
        if len(bands) > 1 or bands and bands[0][0] > 1:
            order = partial(_row_major, self.rows, tuple(bands))
        return SignedArray._trusted(self.rows, self.cols, _Cells(row, col, entry, order))

    def inflate_horizontal(self, k: int) -> Layout:
        return self._inflate(k, False, "horizontal")

    def inflate_diagonal(self, k: int) -> Layout:
        return self._inflate(k, True, "diagonal")

    def _inflate(self, k: int, diagonal: bool, name: str) -> Layout:
        _check_count(k, "copy count")
        if not self.shiftable:
            raise NotShiftableError(f"{name} inflation requires a shiftable array")
        if k == 1:
            return self
        row_step = self.rows if diagonal else 0
        parts = ((self.materialize(), k, 0, 0, 0, row_step),) if k else ()
        rows = self.rows * k if diagonal else self.rows
        return Layout(rows, self.cols * k, self.size * k, True, parts)

    def join_horizontal(self, b: Layout) -> Layout:
        if self.rows != b.rows:
            raise JoinMismatchError(f"row counts differ: {self.rows} vs {b.rows}")
        return self._join(b, 0, "horizontal", "the shared row count times its row degree")

    def join_diagonal(self, b: Layout) -> Layout:
        return self._join(b, b.rows, "diagonal", "its row count times the shared row degree")

    def _join(self, b: Layout, row_off: int, name: str, parity: str) -> Layout:
        """b's runs, then self's moved past b (down by row_off, right by
        b.cols) and shifted past b's entry range; the flag is b's."""
        if not self.shiftable:
            raise NotShiftableError(f"{name} join requires a shiftable first operand")
        if b.size % 2:
            raise ParityError(f"fixed operand has {b.size} cells; {parity} must be even")
        if b.size and self.size:
            # a diagonal join (row_off = b.rows > 0) matches row degrees too
            for line in ("row", "column") if row_off else ("column",):
                if _degree(self, line) != _degree(b, line):
                    raise JoinMismatchError(
                        f"{line} degrees differ: {_degree(self, line)} vs {_degree(b, line)}"
                    )
        t = b.size // 2
        moved = [(a, k, i + row_off, j + b.cols, s + t, d) for a, k, i, j, s, d in self.parts]
        return Layout(
            self.rows + row_off, self.cols + b.cols, self.size + b.size,
            b.shiftable, b.parts + tuple(moved),
        )


def _append(out: array, column: array, start: int, step: int, k: int, away: bool = False) -> None:
    """Append ``column`` k times, in order, copy b's values plus
    ``start + b * step``, or with ``away`` moved that far from zero (a 0
    moves down); start and step are >= 0.  Copies that move nothing are
    appended as they are.

    The others are moved by lane arithmetic, with no Python code per value.
    A group of copies of the column, about ``_GROUP`` values or one copy,
    or one copy of a ``_BATCH``-value slice of a longer column, is read from
    its native bytes as one integer of 64-bit lanes (``_lanes``).  Each
    value v is held as its bits XOR a key: v + 2^63 as an unsigned number,
    or under ``away``, where v <= 0, 2^63 - 1 - v.  So moving every copy of
    the group by t, up or down, is adding t times the integer of 1 in every
    lane, and writing back is the XOR again and the integer's bytes, one
    group at a time; the last group ends at copy k and writes only the
    copies not yet written.  The sum is exact, and when every moved value
    fits in 64 bits every lane of it lies in [0, 2^64), so its base-2^64
    digits are the lanes: no carry crosses one.  So the range is checked
    first, from the largest move: values within 2^62 of 0 moved by less
    than 2^62 fit, and otherwise the least and greatest values decide.  A
    value that would not fit raises ``OverflowError`` before anything is
    written, where its lane would wrap."""
    if not column or not start and (not step or k < 2):
        for _ in range(k):
            out.extend(column)
        return
    reach = start + (k - 1) * step  # the largest move
    size = len(column)
    per = min(k, max(1, _GROUP // size)) if size <= _BATCH else 1  # copies a group
    groups = [_lanes(column[lo : lo + _BATCH], per, step, reach, away) for lo in range(0, size, _BATCH)]
    whole = k - k % per  # copies in whole groups
    for b in range(0, whole, per):
        for lanes, ones, key, nbytes in groups:
            out.frombytes(((lanes + (start + b * step) * ones) ^ key).to_bytes(nbytes, _ORDER))
    if whole < k:
        lanes, ones, key, nbytes = groups[0]
        data = ((lanes + (start + (k - per) * step) * ones) ^ key).to_bytes(nbytes, _ORDER)
        out.frombytes(data[(whole + per - k) * 8 * size :])


def _lanes(part: array, copies: int, step: int, reach: int, away: bool) -> tuple[int, int, int, int]:
    """``copies`` copies of ``part`` as ``_append`` moves them: the integer
    of their lanes, copy b's already moved by ``b * step``; the integer of 1
    in every lane; the key; and their byte count.  Raises OverflowError when
    a move of up to ``reach`` takes a value past 64 bits."""
    n = len(part) * copies
    flip = int.from_bytes(_TOP * n, _ORDER)  # 2^63 in every lane
    raw = int.from_bytes(part.tobytes() * copies, _ORDER)
    biased = raw ^ flip  # v + 2^63 in every lane
    if reach >> 62 or (biased ^ biased << 1) & flip != flip:  # a lane's top two bits agree
        top, bottom = max(part), min(part)
        if not away or top > 0:
            top += reach
        if away and bottom <= 0:
            bottom -= reach
        if top >= 1 << 63 or bottom < -1 << 63:
            raise OverflowError(f"a value moved by up to {reach} does not fit in 64 bits")
    ones = flip >> 63
    key = flip
    if away:  # 2^63 - 1 in the lanes of values <= 0, whose v + 2^63 - 1 has no top bit
        key += (((biased - ones) & flip) >> 63) - ones
    lanes = raw ^ key
    if copies > 1:  # copy b's lanes hold b, in the bytes' order
        lanes += step * int.from_bytes(b"".join([b.to_bytes(8, _ORDER) * len(part) for b in range(copies)]), _ORDER)
    return lanes, ones, key, 8 * n


_BATCH = 1 << 12  # the most values of a long column one integer of ``_append`` holds
_GROUP = 64  # about how many values of a short column's copies one integer holds
_TOP = array("q", [-1 << 63]).tobytes()  # a lane of 2^63 (the int64 -2^63)
_ORDER = sys.byteorder  # the order of an array's bytes


def _row_major(m: int, bands: tuple, row: array, col: array, entry: array) -> list[array]:
    """The columns of an m-row array in part order, as ``materialize``
    records its ``bands``, moved row-major: the stable sort by row, since
    the rows of each copy never fall and the copies run in column order.

    Each copy of a band must hold d cells in each of rows 1..m, which its
    rows show at two strides, its first and its last cell of each row, as
    they cannot fall between.  Row i then takes, band after band and copy
    after copy, its d cells of each copy: one strided slice a cell of a
    copy (k <= m), or one a cell of a row across the k copies (k > m).  A
    store whose bands do not hold, made by a transform of an array with
    uneven rows, is sorted by ``_by_row``."""
    ref = array("q", range(1, m + 1))
    at = 0
    for k, size in bands:
        d = size // m
        if size != m * d or row[at : at + size : d] != ref or row[at + d - 1 : at + size : d] != ref:
            return _by_row(row, col, entry)
        at += k * size
    n = len(row)
    per_row = n // m
    out = []
    for src in (row, col, entry):
        dst = array("q", [0]) * n
        at = lane = 0
        for k, size in bands:
            d = size // m
            if k <= m:
                for b in range(k):
                    copy = at + b * size
                    for t in range(d):
                        dst[lane + b * d + t :: per_row] = src[copy + t : copy + size : d]
            else:
                for i in range(m):
                    for t in range(d):
                        start = i * per_row + lane + t
                        dst[start : start + k * d : d] = src[at + i * d + t : at + k * size : size]
            at += k * size
            lane += k * d
        out.append(dst)
    return out


def _by_row(row: array, col: array, entry: array) -> list[array]:
    """The columns stably sorted by row, through an argsort."""
    order = sorted(range(len(row)), key=row.__getitem__)
    return [array("q", [c[x] for x in order]) for c in (row, col, entry)]


def _degree(a: Layout, line: str) -> int:
    """Cells per row or per column of a uniformly filled operand holding cells."""
    count = a.rows if line == "row" else a.cols
    if a.size % count:
        raise JoinMismatchError(f"operand {line}s are not uniformly filled")
    return a.size // count


def shift(a: SignedArray, t: int) -> SignedArray:
    """Increase every entry's absolute value by t.

    Requires a shiftable operand: balanced sign counts are exactly what keeps
    every row and column sum at zero after the shift.
    """
    _check_count(t, "shift amount")
    if not is_shiftable(a):
        raise NotShiftableError("refusing to shift a non-shiftable array")
    return Layout(a.rows, a.cols, len(a.cells), True, ((a, 1, 0, 0, t, 0),)).materialize()


def inflate_horizontal(a: SignedArray, k: int) -> SignedArray:
    """Lay k progressively shifted copies side by side.

    Maps an (m, n; r, s) shiftable array to an (m, kn; kr, s) shiftable
    array; copy number b (0-based) is shifted by b times the quantum.  k = 0
    yields the empty m x 0 array.
    """
    return Layout.of(a).inflate_horizontal(k).materialize()


def inflate_diagonal(a: SignedArray, k: int) -> SignedArray:
    """Lay k progressively shifted copies along the block diagonal.

    Maps an (m, n; r, s) shiftable array to a (km, kn; r, s) shiftable array
    with empty off-diagonal blocks.  k = 0 yields the empty 0 x 0 array.
    """
    return Layout.of(a).inflate_diagonal(k).materialize()


def join_horizontal(a: SignedArray, b: SignedArray) -> SignedArray:
    """Attach b to the left of a shifted copy of a.

    b occupies columns 1..n' unchanged; a, shifted past b's entry range,
    follows.  Requires equal row counts and column degrees, a shiftable, and
    an even cell count in b.  The result is shiftable iff b is.
    """
    return Layout.of(a).join_horizontal(Layout.of(b)).materialize()


def join_diagonal(a: SignedArray, b: SignedArray) -> SignedArray:
    """Attach b at the top-left of a shifted copy of a.

    b occupies the leading b.rows x b.cols region unchanged; a, shifted past
    b's entry range, fills the trailing diagonal block.  Requires equal row
    and column degrees, a shiftable, and an even cell count in b.  The result
    is shiftable iff b is.
    """
    return Layout.of(a).join_diagonal(Layout.of(b)).materialize()
