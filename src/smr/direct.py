"""Direct constructions for row degrees 3 and 5 at even row counts.

Both follow the same two-step plan: first build a compact m x 3 or m x 5
block whose rows sum to zero, whose entries are exactly {+-1..+-(cm/2)}
(c = 3 or 5), and in which no row contains both k and -k; then spread the
block by sending each entry k to column |k| of the full-width rectangle.
Column |k| then holds exactly k and -k, so the spread array satisfies every
axiom of an (m, cm/2; c, 2) rectangle.

The five-column block is degenerate in exactly two rows when the row count
is 2 mod 4; an entry swap between two row pairs in the outer columns repairs
it.  There is no five-column construction at m = 2.

Blocks and spread outputs are built with ``SignedArray._trusted``, the
unchecked door that skips only the cell checks: their cells lie inside
their own shape by construction, and their columns are written
row-major.  ``CompactBlock`` checks the block invariants that spreading
relies on, once: its array is a ``SignedArray``, which cannot change
afterwards.  A spread output is a leaf of the layouts
that ``dispatch.replay`` composes: a join takes it as one part and copies
no cell of it until the final array is materialized.  It is not shiftable:
its rows hold an odd number of cells.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from operator import eq

from .core import SignedArray, SupportSet, _Cells, _Checked, _marked, _marks

_NO_ROW = array("q", [0])  # a slot of a row table, which _marks copies


class BlockError(ValueError):
    """Compact block violates its construction invariants."""


class CompactBlock(_Checked, namedtuple("CompactBlock", "array kind")):
    """A zero-row-sum block ready to be spread to full width.

    A block that breaks an invariant raises ``BlockError`` for the first
    invariant it breaks, naming a row where there is one.  A row that holds
    an entry and its negation is the lowest such row, read off the row of
    each value: on a row-major store, as every block built here and every
    array from the checked door has, that is the first such row in storage
    order."""

    __slots__ = ()

    def __new__(cls, array: SignedArray, kind: str) -> CompactBlock:
        if not isinstance(array, SignedArray):
            raise TypeError(f"block array must be a SignedArray, got {type(array).__name__}")
        m, width = array.rows, array.cols
        if kind not in {3: ("three",), 5: ("five", "five_repaired")}.get(width, ()):
            raise BlockError(f"a block of width {width} cannot be of kind {kind!r}")
        rows, _, entries, _ = array.cells._columns  # sums and marks need no order
        half = (width * m) // 2
        support = SupportSet(half, includes_zero=False)
        # at[e]: the row of entry e, its mark; rows start at 1
        at = _marks(entries, support, _NO_ROW)
        sums = [0] * (m + 1)
        if at is not None:
            for i, e in zip(rows, entries):
                sums[i] += e
                at[e] = i
        # each invariant is decided by a whole-list builtin; only a failing
        # one is searched for its first bad row, in the order the messages name
        if not _marked(at, support):
            raise BlockError(f"block entries are not exactly +-1..+-{half}")
        # each value occurs once, so a row holds k and -k iff at[k] == at[-k]
        if any(map(eq, at[1 : half + 1], at[: -half - 1 : -1])):
            row = min(i for i, j in zip(at[1 : half + 1], at[: -half - 1 : -1]) if i == j)
            raise BlockError(f"row {row} contains an entry and its negation")
        # m * width cells leave no cell of the grid empty; sums[0] is 0, no row 0
        if len(entries) != m * width or sums.count(0) != m + 1:
            counts = Counter(rows)
            for i in range(1, m + 1):
                if counts[i] != width:
                    raise BlockError(f"row {i} is not fully filled")
                if sums[i] != 0:
                    raise BlockError(f"row {i} sums to {sums[i]}")
        return super().__new__(cls, array, kind)


def three_column_block(m: int) -> CompactBlock:
    """The m x 3 block spreading to an (m, 3m/2; 3, 2) rectangle, m even >= 2."""
    if type(m) is not int or m < 2 or m % 2:
        raise ValueError(f"row count must be an even integer of at least 2, got {m!r}")
    half = m // 2
    top = 3 * half  # largest absolute entry
    entries: list[int] = []
    for i in range(1, half + 1):
        entries += (i, top - 2 * i + 1, -top + i - 1)
    for i in range(half + 1, m + 1):
        entries += (half - i, -i, -half + 2 * i)
    return CompactBlock(SignedArray._trusted(m, 3, _full(m, 3, entries)), "three")


def five_column_block(m: int) -> CompactBlock:
    """The m x 5 block spreading to an (m, 5m/2; 5, 2) rectangle, m even >= 4.

    For m = 0 mod 4 the raw column formulas already avoid +-k row pairs.  For
    m = 2 mod 4 the raw block has exactly two degenerate rows, (m+2)/4 and
    (3m+2)/4; entries in columns 1 and 5 are swapped between each degenerate
    row and its predecessor, which restores the no-pair invariant while
    keeping row sums at zero.
    """
    if type(m) is not int or m < 4 or m % 2:
        raise ValueError(f"row count must be an even integer of at least 4, got {m!r}")
    entries = _raw_five_column_entries(m)
    if m % 4 == 0:
        return CompactBlock(SignedArray._trusted(m, 5, _full(m, 5, entries)), "five")
    for upper in ((m - 2) // 4, (3 * m - 2) // 4):
        for at in (5 * upper - 5, 5 * upper - 1):  # columns 1 and 5 of row upper
            entries[at], entries[at + 5] = entries[at + 5], entries[at]
    return CompactBlock(SignedArray._trusted(m, 5, _full(m, 5, entries)), "five_repaired")


def _raw_five_column_entries(m: int) -> list[int]:
    half = m // 2
    entries: list[int] = []
    for i in range(1, half + 1):
        entries += (i, half + 2 * i - 1, -m - i, -3 * half - i, 2 * m - i + 1)
    for i in range(half + 1, m + 1):
        entries += (half - i, -3 * half + i - 1, 5 * half - 2 * i + 2, 3 * half + i, -3 * m + i - 1)
    return entries


def _full(m: int, width: int, entries: list[int]) -> _Cells:
    """The cells of an m x width block that ``entries`` fill row-major."""
    rows = array("q", [i for i in range(1, m + 1) for _ in range(width)])
    return _Cells(rows, array("q", range(1, width + 1)) * m, array("q", entries))


def spread(block: CompactBlock) -> SignedArray:
    """Relocate each entry k of the block to column |k| of the full rectangle.

    Row contents (hence row sums) are unchanged; column |k| receives exactly
    k and -k.  A +-k pair inside one row would collide in one cell, which
    ``CompactBlock`` ruled out when the block was built.
    """
    a = block.array
    width = a.cols
    rows, _, entries = a.cells._sorted()
    # each row's cells in order of |k|, which is their column
    entries = array("q", [e for row in zip(*[iter(entries)] * width) for e in sorted(row, key=abs)])
    cells = _Cells(rows, array("q", [abs(e) for e in entries]), entries)
    return SignedArray._trusted(a.rows, (width * a.rows) // 2, cells)
