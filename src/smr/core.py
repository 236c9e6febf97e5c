"""Data model and axiom checker for signed magic rectangles.

A signed magic rectangle with parameters (m, n; r, s) is an m x n array in
which exactly r cells per row and s cells per column are filled, the filled
entries use every value of the support set exactly once, and every row and
every column sums to zero.  The support set is {+-1, ..., +-(mr/2)} when mr
is even and {0, +-1, ..., +-((mr-1)/2)} when mr is odd: mr values for the mr
filled cells.  The paper's abstract prints (ms-1)/2 for the odd case, which
gives ms values and admits no array with r != s; it is read as a typo.

Indices are 1-based throughout the public model.  An array keeps its cells
packed: three ``array("q")`` columns of row, column and entry, about 24
bytes a cell, read row-major; a construction's come in the order it wrote
them, with the function that moves them row-major on the first ordered read
(see ``_Cells``).  ``cells`` is a read-only ``Mapping`` view over them, from
(row, col) to entry, and a write to it raises ``TypeError``.  Cells from
outside enter through one loop, ``_checked``: straight into the columns
while the keys rise, and checked against a dict of the cells from the first
triple that does not; the columns alone decide what fits in 64 bits.  Arrays
are immutable after construction, which is why the unchecked outputs of the
transforms and the cached seeds are safe to share, between calls and between
threads.  Parameters, dimensions, indices and entries must be exact ``int``s:
``bool`` is a subclass of ``int`` and is rejected, as are floats such as
``1.0``.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, namedtuple
from collections.abc import Callable, ItemsView, Iterable, Iterator, Mapping
from itertools import chain, islice, repeat


class DimensionError(ValueError):
    """Array shape does not match the parameter set it is checked against."""


def _check_ints(**values: object) -> None:
    """Raise ValueError for a value that is not an exact ``int``."""
    for name, v in values.items():
        if type(v) is not int:
            raise ValueError(f"{name} must be an int, got {v!r}")


class _Checked:
    """Base of a ``namedtuple`` subclass that checks its fields in ``__new__``.
    Every other way to a copy calls the class: ``_make``, so ``_replace``, and
    ``copy`` and ``pickle``."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable) -> _Checked:
        return cls(*fields)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


class Params(_Checked, namedtuple("Params", "m n r s")):
    """The parameter quadruple (m, n, r, s).

    m, n are the row and column counts; r and s are the filled-cell counts
    per row and per column, with mr = ns and r <= n, which give s <= m.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, r: int, s: int) -> Params:
        for name, v in zip(cls._fields, (m, n, r, s)):
            if type(v) is not int or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if m * r != n * s:
            raise ValueError(f"cell-count mismatch: m*r = {m * r} but n*s = {n * s}")
        if r > n:  # then s = mr/n <= m too
            raise ValueError(f"r = {r} exceeds column count n = {n}")
        return super().__new__(cls, m, n, r, s)


class SupportSet(namedtuple("SupportSet", "half includes_zero")):
    """The exact multiset of entries a valid array must use.

    ``half`` is mr/2 in the even case and (mr-1)/2 in the odd case; the odd
    case additionally contains zero.  ``v in s`` is True iff ``v`` is an
    exact ``int`` in the set, not one of the two fields.
    """

    __slots__ = ()

    def __contains__(self, v: object) -> bool:
        if type(v) is not int:
            return False
        return -self.half <= v <= self.half and (v != 0 or self.includes_zero)

    def sorted_values(self) -> tuple[int, ...]:
        negatives = range(-self.half, 0)
        positives = range(1, self.half + 1)
        middle = (0,) if self.includes_zero else ()
        return tuple(negatives) + middle + tuple(positives)


def support_set(p: Params) -> SupportSet:
    """Required entry set for parameters ``p``, split on the parity of mr."""
    if (p.m * p.r) % 2 == 0:
        return SupportSet(half=(p.m * p.r) // 2, includes_zero=False)
    return SupportSet(half=(p.m * p.r - 1) // 2, includes_zero=True)


def _marks(
    entries: array, support: SupportSet, zero: bytearray | array = bytearray(1)
) -> bytearray | array | None:
    """Zeroed marks for ``seen[e] = x`` at each entry, ``x`` never 0: the
    one-slot ``zero``, copied once for each value of -half..half, ``v``'s slot
    at index ``v`` (a negative one from the end).  When ``entries`` cannot be
    exactly the support, as there are not as many as it holds or one lies
    past +-half, there is nothing to mark: None, and ``_marked`` is False.
    The size check runs first, so the slots are at most one more than the
    entries."""
    half = support.half
    if len(entries) != 2 * half + support.includes_zero or not (
        -half <= min(entries) <= max(entries) <= half
    ):
        return None
    return zero * (2 * half + 1)


def _marked(seen: bytearray | array | None, support: SupportSet) -> bool:
    """True iff ``seen``, from ``_marks`` and then set at each entry, shows the
    entries to be exactly the support: every slot set but 0's, and 0's iff the
    support holds 0.  As many entries as values, each value set, leave no room
    for a repeat."""
    zero = support.includes_zero
    return seen is not None and seen.count(0) == (not zero) and seen[0] == zero


class _Cells(Mapping):
    """The read-only map from (row, col) to entry over three ``array("q")``
    columns of rows, columns and entries, one item a cell, no key twice.

    The columns are row-major, or, as ``Layout.materialize`` writes them,
    in part order with ``order``, a function of the three columns that
    returns them row-major, as a stable sort by row would.  It runs the
    first time an order is needed, and ``_sorted()`` returns the row-major
    columns; counts and sums read ``_columns`` as it stands: (rows, cols,
    entries, order or None once row-major), replaced whole, so that every
    reader sees one consistent tuple.  Nothing writes to a column.

    A lookup bisects the row column, then the column slice of that row;
    iteration is row-major.  ``values()`` is a read-only ``memoryview`` of
    the entries.  Two views are equal iff their sorted columns are, and
    hash alike then."""

    __slots__ = ("_columns",)

    def __init__(self, row: array, col: array, entry: array, order: Callable | None = None):
        self._columns = (row, col, entry, order)

    def _sorted(self) -> tuple[array, array, array]:
        row, col, entry, order = self._columns
        if order is not None:
            row, col, entry = order(row, col, entry)
            self._columns = (row, col, entry, None)
        return row, col, entry

    def __getitem__(self, key: object) -> int:
        row, col, entry = self._sorted()
        try:
            i, j = key  # type: ignore[misc]
            lo = bisect_left(row, i)
            hi = bisect_right(row, i, lo)
            at = bisect_left(col, j, lo, hi)
        except (TypeError, ValueError):  # not a pair of numbers: not a key
            raise KeyError(key) from None
        if at < hi and col[at] == j:
            return entry[at]
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        row, col, _ = self._sorted()
        return zip(row, col)

    def __len__(self) -> int:
        return len(self._columns[0])

    def items(self) -> _Items:
        return _Items(self)

    def values(self) -> memoryview:
        return memoryview(self._sorted()[2]).toreadonly()

    def __eq__(self, other: object) -> bool:
        if type(other) is _Cells:
            return self._sorted() == other._sorted()
        return super().__eq__(other)

    def __hash__(self) -> int:
        # one column's bytes at a time: equal views have equal sorted columns
        return hash(tuple(hash(c.tobytes()) for c in self._sorted()))

    def __repr__(self) -> str:
        return f"cells({dict(self.items())})"


class _Items(ItemsView):
    """The (key, entry) pairs, zipped from the sorted columns."""

    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        row, col, entry = self._mapping._sorted()
        return zip(zip(row, col), entry)


def _checked(rows: int, cols: int, triples: Iterable) -> _Cells:
    """The one checked door into ``SignedArray``: check the shape, then take each
    ``(row, col, entry)`` once.  A triple of another length, a repeat, a
    non-``int`` index or entry, a cell off the grid and an entry or index
    past a signed 64-bit integer are ``ValueError``s; a triple that is not
    iterable and an unhashable index are ``TypeError``s, from the unpacking
    and a dict lookup.  The first defect in input order is raised.  The
    triples may be tuples or the lists ``json.loads`` returns, which the
    parsers hand in as they are.

    One loop, in two states.  While the keys rise, as in every canonical
    file, seed and construction, no key can repeat: a triple that passes one
    compound test is kept in the columns alone.  The first that fails it
    starts a dict of the cells so far, which finds a repeat as its triple
    comes; every later triple is checked rule by rule, and one sort of the
    keys gives the columns at the end.  Every cell is appended to the
    ``array("q")`` columns, whose ``OverflowError`` alone decides what fits."""
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"dimensions are not integers: {rows!r}x{cols!r}")
    if rows < 0 or cols < 0:
        raise ValueError(f"negative dimensions {rows}x{cols}")
    row, col, entry = array("q"), array("q"), array("q")
    cells = None  # (row, col) -> entry, once a triple has left key order
    last_i, last_j = 1, 0  # below every key on the grid
    for i, j, e in triples:
        if (
            type(i) is int and i >= last_i and type(j) is int and type(e) is int
            and (i > last_i or j > last_j) and i <= rows and 1 <= j <= cols
        ):
            last_i, last_j = i, j
        else:
            if cells is None:
                cells = dict(zip(zip(row, col), entry))
                last_i = rows + 1  # past the grid: no later triple passes the test
            key = (i, j)
            if key in cells:
                raise ValueError(f"duplicate cell ({i},{j})")
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"cell index ({i!r},{j!r}) is not an integer pair")
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ValueError(f"cell ({i},{j}) outside the {rows}x{cols} grid")
            if type(e) is not int:
                raise ValueError(f"entry at ({i},{j}) is not an integer: {e!r}")
            cells[key] = e
        try:
            row.append(i)
            col.append(j)
            entry.append(e)
        except OverflowError:
            raise ValueError(
                f"cell ({i},{j}) or its entry {e} does not fit in a 64-bit integer"
            ) from None
    if cells is not None:  # the columns in key order
        keys = sorted(cells)
        row, col = array("q", [i for i, _ in keys]), array("q", [j for _, j in keys])
        entry = array("q", [cells[key] for key in keys])
    return _Cells(row, col, entry)


def _pairs(cells: Mapping) -> Iterator[tuple]:
    """The ``(row, col, entry)`` triples of a mapping, each key checked to be a
    (row, col) pair as it reaches the door, so defects keep their input order."""
    for key, e in cells.items():
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"cell index {key!r} is not a (row, col) pair")
        yield (*key, e)


_NO_CELLS = _Cells(array("q"), array("q"), array("q"))


class SignedArray(_Checked, namedtuple("SignedArray", "rows cols cells")):
    """Sparse m x n grid of signed integer entries, 1-based indices.

    ``cells`` is a read-only map from (row, col) to the entry, over packed
    columns read row-major.  Entries are nonzero for every parameter
    set with an even cell count (the only kind any construction here
    produces); zero is representable for odd-support parameter sets.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, cells: Mapping = _NO_CELLS) -> SignedArray:
        return cls._trusted(rows, cols, _checked(rows, cols, _pairs(cells)))

    @classmethod
    def _trusted(cls, rows: int, cols: int, cells: _Cells) -> SignedArray:
        """Wrap ``cells`` unchecked; its columns are taken, not copied, and
        the caller must not write to them again.  Only for the stores
        ``_checked`` returns, for direct blocks and for materialized
        transform layouts, which place cells of checked (or themselves
        trusted) leaves at ``int`` offsets inside their own ``rows`` x
        ``cols``, so every check would pass a second time.  The
        array is a plain value: how it was built, shiftability included, is
        not recorded on it.
        """
        return tuple.__new__(cls, (rows, cols, cells))

    @classmethod
    def from_cells(
        cls, rows: int, cols: int, triples: Iterable[tuple[int, int, int]]
    ) -> SignedArray:
        return cls._trusted(rows, cols, _checked(rows, cols, triples))

    def __reduce__(self) -> tuple[type[SignedArray], tuple[int, int, dict]]:
        # rebuilt through the checks, from a plain dict of the cells
        return type(self), (self.rows, self.cols, dict(self.cells.items()))


def entry_multiset(a: SignedArray) -> tuple[int, ...]:
    """All stored entries in ascending order."""
    return tuple(sorted(a.cells._columns[2]))


def is_shiftable(a: SignedArray) -> bool:
    """True iff every row and every column balances positive and negative
    entry counts.  The empty array is vacuously shiftable."""
    row_bal = [0] * (a.rows + 1)
    col_bal = [0] * (a.cols + 1)
    rows, cols, entries, _ = a.cells._columns
    for i, j, e in zip(rows, cols, entries):
        d = 1 if e > 0 else -1
        row_bal[i] += d
        col_bal[j] += d
    return all(b == 0 for b in row_bal) and all(b == 0 for b in col_bal)


class Violation(namedtuple("Violation", "axiom index detail")):
    """One failed axiom; ``index`` is the offending row or column, or None."""

    __slots__ = ()

    def __str__(self) -> str:
        where = "" if self.index is None else f" at {self.axiom.split('_')[0]} {self.index}"
        return f"{self.axiom}{where}: {self.detail}"


class VerificationReport(namedtuple("VerificationReport", "violations more", defaults=((),))):
    """The violations found, at most ``_CAP`` of each axiom; ``more`` pairs
    each axiom that had more with how many were left out."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        lines = [f"fail ({len(self.violations) + sum(n for _, n in self.more)} violations)"]
        lines += [f"  - {v}" for v in self.violations]
        lines += [f"  ... and {n} more {axiom} violations" for axiom, n in self.more]
        return "\n".join(lines)


_CAP = 1000  # violations listed per axiom; the rest are counted


def verify_smr(a: SignedArray, p: Params) -> VerificationReport:
    """Check the five axioms and report the violations, at most ``_CAP`` an
    axiom and a count of the rest.

    Axioms: r filled cells per row, s per column, entry multiset equal to
    the support set, zero row sums, zero column sums.  Pure function; raises
    DimensionError when the array shape disagrees with ``p``, and
    OverflowError for a shape of more lines than an index holds.

    One loop tallies the rows and columns and marks each entry in a byte a
    support value (``_marks``), unless the count or the range of the entries
    has already failed the support.  Each axiom is decided once, from the
    tallies or from the marks, and only a failing one is listed: the counts
    of the entries are built once, only when the support axiom fails.  Each
    axis picks its own tallies (``_tallies``): lists of a slot a line when
    it has no more lines than there are cells, else dicts of the lines that
    hold cells, as such an axis has an empty line and cannot pass, and its
    empty lines are counted, not visited.  So the tallies and the marks are
    each at most one slot longer than the cells, a passing array holds no
    object a cell, and time and memory grow with the cells and the ``_CAP``
    listed, not with the declared shape.  No order is needed, so the columns
    are read as they are stored.
    """
    if a.rows != p.m or a.cols != p.n:
        raise DimensionError(
            f"array is {a.rows}x{a.cols} but parameters expect {p.m}x{p.n}"
        )
    rows, cols, entries, _ = a.cells._columns
    support = support_set(p)
    seen = _marks(entries, support)
    row_count, row_sum = _tallies(p.m, len(entries))
    col_count, col_sum = _tallies(p.n, len(entries))
    if seen is None:  # the support has failed: nothing to mark
        for i, j, e in zip(rows, cols, entries):
            row_count[i] += 1
            col_count[j] += 1
            row_sum[i] += e
            col_sum[j] += e
    else:
        for i, j, e in zip(rows, cols, entries):
            row_count[i] += 1
            col_count[j] += 1
            row_sum[i] += e
            col_sum[j] += e
            seen[e] = 1
    violations, more = [], []
    _lines(violations, more, "row_count", row_count, p.m, p.r, "{} filled cells, expected {}")
    _lines(violations, more, "col_count", col_count, p.n, p.s, "{} filled cells, expected {}")
    if not _marked(seen, support):
        violations.append(Violation("support", None, _support_detail(entries, support)))
    _lines(violations, more, "row_sum", row_sum, p.m, 0, "sums to {}")
    _lines(violations, more, "col_sum", col_sum, p.n, 0, "sums to {}")
    return VerificationReport(tuple(violations), tuple(more))


def _tallies(lines: int, cells: int) -> tuple[list, list] | tuple[dict, dict]:
    """The count and sum tallies of an axis of ``lines`` lines over ``cells``
    cells: two lists of a slot a line after slot 0 when the lines are no more
    than the cells, else two ``defaultdict``s of the lines that hold cells,
    which the tally loops fill alike."""
    if lines <= cells:
        return [0] * (lines + 1), [0] * (lines + 1)
    if lines > sys.maxsize:  # as a list of the lines would raise
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    return defaultdict(int), defaultdict(int)


def _lines(violations: list, more: list, axiom: str, tally: list | dict, lines: int,
           target: int, detail: str) -> None:
    """List the first ``_CAP`` of lines 1..``lines`` whose tally is not
    ``target``, each with ``detail`` formatted by the tally and the target,
    and count the rest in ``more``.  ``tally`` is a list with a slot a line
    after slot 0, which holds 0, or a ``defaultdict`` of the lines that hold
    cells: every other line tallies 0, and is counted, and visited only by a
    count axiom (``target`` >= 1), where each one fails.  The count is taken
    before any line is read, so the zeros that reading an absent line inserts
    into a ``defaultdict`` change nothing."""
    listed = type(tally) is list
    if listed:
        bad = lines + (target == 0) - tally.count(target)
    else:
        bad = lines - [*tally.values()].count(target) - (lines - len(tally)) * (target == 0)
    if bad:
        walk = range(1, lines + 1) if listed or target else sorted(tally)
        failing = islice((i for i in walk if tally[i] != target), _CAP)
        violations += [Violation(axiom, i, detail.format(tally[i], target)) for i in failing]
        if bad > _CAP:
            more.append((axiom, bad - _CAP))


def _support_detail(entries: array, support: SupportSet) -> str:
    """What the entries lack of the support and hold past it, in ascending
    order with multiplicity, from a count of the entries: the support itself
    is walked only up to its first missing values listed."""
    counts = Counter(entries)
    half, zero = support.half, support.includes_zero
    present = sum(v in support for v in counts)
    values = chain(range(-half, 0), (0,) * zero, range(1, half + 1))
    missing = _preview((v for v in values if v not in counts), 2 * half + zero - present)
    extra = chain.from_iterable(repeat(v, counts[v] - (v in support)) for v in sorted(counts))
    return f"missing {missing}, unexpected {_preview(extra, len(entries) - present)}"


def _preview(values: Iterable[int], total: int) -> str:
    """The first of ``total`` values, and a count of the rest."""
    if not total:
        return "nothing"
    shown = list(islice(values, 8))  # values listed before "... (k more)"
    rest = "" if total <= len(shown) else f", ... ({total - len(shown)} more)"
    return f"[{', '.join(map(str, shown))}{rest}]"
