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
offset with its entries moved a fixed amount away from zero.  A join only
appends parts and an inflation lays out copies of its materialized operand,
so a chain of operators writes each output cell once, when
``Layout.materialize`` builds the array.  That array is made with
``SignedArray._trusted``: its cells are leaf cells at ``int`` offsets
inside its own shape, so the full validation would only repeat what the
leaves already passed.  Shiftability lives in the layout, not in the array:
``Layout.of`` scans its leaf, an inflation or shift is shiftable and a join
takes the fixed operand's flag, so no ``Layout`` operator scans its
operand.  The public functions wrap one operator each: array in,
``Layout.of``, then the materialized array out.
"""

from __future__ import annotations

from .core import SignedArray, is_shiftable


class NotShiftableError(ValueError):
    """Operand required to be shiftable is not."""


class ParityError(ValueError):
    """Join would need a half-integral shift (odd cell count in the fixed operand)."""


class JoinMismatchError(ValueError):
    """Join operands disagree on shared dimensions or fill degrees."""


def _place(
    cells: dict[tuple[int, int], int], a: SignedArray, t: int, row_off: int, col_off: int
) -> dict[tuple[int, int], int]:
    """Write a's cells into ``cells``, each entry moved t away from zero and
    each position offset by (row_off, col_off).  Returns ``cells``."""
    for (i, j), e in a.cells.items():
        cells[i + row_off, j + col_off] = e + t if e > 0 else e - t
    return cells


def _check_count(k: object, what: str) -> None:
    if type(k) is not int or k < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {k!r}")


class Layout:
    """An array not yet written: ``rows`` x ``cols`` holding ``size`` cells,
    the union of ``parts``, each a (leaf, row offset, column offset, shift).
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
        """Write every part's cells, in part order, into one array."""
        if len(self.parts) == 1:  # the leaf itself, when it is all of the array
            a, row_off, col_off, t = self.parts[0]
            if not (row_off or col_off or t) and a.rows == self.rows and a.cols == self.cols:
                return a
        cells: dict[tuple[int, int], int] = {}
        for a, row_off, col_off, t in self.parts:
            if cells or row_off or col_off or t:
                _place(cells, a, t, row_off, col_off)
            else:  # a leading part that moves nothing: one C-level dict copy
                cells = a.cells.copy()
        return SignedArray._trusted(self.rows, self.cols, cells)

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
