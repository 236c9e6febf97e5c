"""Composition operators: shifting, inflation and joins.

All operators take shiftable input where stated, preserve zero line sums,
and keep the entry set exact: a valid operand using {+-1..+-N} combines with
one using {+-1..+-N'} into a result using {+-1..+-(N+N')}.

The shift quantum of an array is half its cell count (the largest absolute
entry of a valid array).  Degenerate empty operands are accepted by the
inflations (k = 0) and go through the same join code, under the same
preconditions, so boundary cases of the dispatch table need no special-casing.

The operators act on a ``Layout``: a shape, a cell count, a shiftability
flag and a list of parts, each a leaf array placed at a row and column
offset with its entries moved a fixed amount away from zero.  Each part
has its own band of columns, and the parts run in order of column offset.
A join only appends parts and an inflation lays out copies of its
materialized operand, so a chain of operators writes each output cell
once, when ``Layout.materialize`` builds the array.  It writes the parts
one after another, each a leaf's row-major columns moved, a run of copies
of one leaf through one batched loop (``_append``), and records the bands
they form: runs of full-height copies side by side, and parts stacked
down the rows.  The array's first ordered read moves the bands
row-major with strided slices (``_row_major``); a store they do not
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
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import groupby

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
    the union of ``parts``, each a (leaf, row offset, column offset, shift),
    in order of column offset.
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
        return cls(a.rows, a.cols, len(a.cells), is_shiftable(a), ((a, 0, 0, 0),))

    def materialize(self) -> SignedArray:
        """Write the parts' cells into one array, part by part: each run of
        copies of one leaf takes that leaf's row-major columns, moved, in one
        pass a column.  The array's columns are then in part order, and the
        walk over the runs records their bands, without reading a column:
        a run of full-height copies, which lie side by side, is one band of
        k copies; a part of fewer rows that lies below the one before it
        extends that one's band, and any other starts a band of one copy.
        One band of one copy is row-major.  Otherwise the array gets its
        order from ``_row_major`` when an order is first needed
        (``_Cells``), which building it and checking it never do."""
        if len(self.parts) == 1:  # the leaf itself, when it is all of the array
            a, row_off, col_off, t = self.parts[0]
            if not (row_off or col_off or t) and a.rows == self.rows and a.cols == self.cols:
                return a
        row, col, entry = array("q"), array("q"), array("q")
        bands: list[tuple[int, int]] = []  # (copies, cells a copy), in part order
        below = None  # the first row under the last part, while its band may grow
        for _, run in groupby(self.parts, lambda part: id(part[0])):  # copies of one leaf
            # unpacked from a list: unpacking the group's iterator itself
            # raised perfbench sweep's peak RSS by 2 MB (20 s runs, 10 of 10)
            leaves, row_offs, col_offs, shifts = zip(*list(run))
            rows, cols, entries = leaves[0].cells._sorted()
            _append(row, rows, row_offs)
            _append(col, cols, col_offs)
            _append(entry, entries, shifts, away=True)
            size, height = len(rows), leaves[0].rows
            if not size:
                continue
            if height == self.rows:  # full height, so at row offset 0
                bands.append((len(row_offs), size))
                below = None
                continue
            for row_off in row_offs:
                if below is not None and below <= row_off:
                    bands[-1] = (1, bands[-1][1] + size)
                else:
                    bands.append((1, size))
                below = row_off + height
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
        quantum = self.size // 2  # even: each row of a shiftable layout balances
        a = self.materialize() if k else None
        row_step = self.rows if diagonal else 0
        parts = tuple([(a, b * row_step, b * self.cols, b * quantum) for b in range(k)])
        rows = self.rows * k if diagonal else self.rows
        return Layout(rows, self.cols * k, self.size * k, True, parts)

    def join_horizontal(self, b: Layout) -> Layout:
        if self.rows != b.rows:
            raise JoinMismatchError(f"row counts differ: {self.rows} vs {b.rows}")
        return self._join(b, 0, "horizontal", "the shared row count times its row degree")

    def join_diagonal(self, b: Layout) -> Layout:
        return self._join(b, b.rows, "diagonal", "its row count times the shared row degree")

    def _join(self, b: Layout, row_off: int, name: str, parity: str) -> Layout:
        """b's parts, then self's moved past b (down by row_off, right by
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
        moved = tuple([(a, i + row_off, j + b.cols, s + t) for a, i, j, s in self.parts])
        return Layout(
            self.rows + row_off, self.cols + b.cols, self.size + b.size,
            b.shiftable, b.parts + moved,
        )


def _append(out: array, column: array, moves: tuple, away: bool = False) -> None:
    """Append ``column`` once for each of ``moves``, in order, each copy's
    values plus the move, or with ``away`` moved that far from zero.  Copies
    that move nothing are appended as they are; the others are written in
    one loop, about ``_BATCH`` values at a time: as many copies together as
    fit in ``_BATCH`` values, at least one, one ``_BATCH``-value slice of the
    column at a time."""
    if not (column and any(moves)):
        for _ in moves:
            out.extend(column)
        return
    per = max(1, _BATCH // len(column))  # copies a group
    for at in range(0, len(moves), per):
        group = moves[at : at + per]
        for lo in range(0, len(column), _BATCH):
            values = column[lo : lo + _BATCH].tolist()
            if away:
                out.fromlist([e + t if e > 0 else e - t for t in group for e in values])
            else:
                out.fromlist([v + m for m in group for v in values])


_BATCH = 1 << 12  # about how many values ``_append`` writes at once


def _row_major(m: int, bands: tuple, row: array, col: array, entry: array) -> list[array]:
    """The columns of an m-row array in part order, as ``materialize``
    records its ``bands``, moved row-major: the stable sort by row, since
    the rows of each copy never fall and the parts run in column order.

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
    return Layout(a.rows, a.cols, len(a.cells), True, ((a, 0, 0, t),)).materialize()


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
