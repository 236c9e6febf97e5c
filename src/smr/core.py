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

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Collection, ItemsView, Iterable, Iterator, Mapping


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


def _is_support(values: Collection[int], support: SupportSet) -> bool:
    """True iff ``values`` are exactly the support set, with no sort: as many
    distinct entries as it holds, within +-half and 0 only if it has 0."""
    distinct = set(values)
    size = 2 * support.half + support.includes_zero
    return (
        len(values) == len(distinct) == size
        and (not size or -support.half <= min(distinct) <= max(distinct) <= support.half)
        and (support.includes_zero or 0 not in distinct)
    )


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


class VerificationReport(namedtuple("VerificationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        lines = [f"fail ({len(self.violations)} violations)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def verify_smr(a: SignedArray, p: Params) -> VerificationReport:
    """Check the five axioms and report every violation.

    Axioms: r filled cells per row, s per column, entry multiset equal to
    the support set, zero row sums, zero column sums.  Pure function; raises
    DimensionError when the array shape disagrees with ``p``.

    One loop tallies the rows and columns.  Each axiom is decided once, from
    the tallies with ``list.count`` or from a set of the entries, and only a
    failing one is listed: the counts of the entries and of the support are
    built only when the support axiom fails, so a passing array takes the
    O(m + n) tallies plus that set.  Time and memory grow with the declared
    ``p.m + p.n`` and ``mr``, not with the number of stored cells, and every
    failing row and column is listed: an empty array that declares a million
    rows yields a million violations.  No order is needed, so the columns
    are read as they are stored.
    """
    if a.rows != p.m or a.cols != p.n:
        raise DimensionError(
            f"array is {a.rows}x{a.cols} but parameters expect {p.m}x{p.n}"
        )

    row_count = [0] * (p.m + 1)
    col_count = [0] * (p.n + 1)
    row_sum = [0] * (p.m + 1)
    col_sum = [0] * (p.n + 1)
    rows, cols, entries, _ = a.cells._columns
    for i, j, e in zip(rows, cols, entries):
        row_count[i] += 1
        col_count[j] += 1
        row_sum[i] += e
        col_sum[j] += e
    violations: list[Violation] = []
    if row_count.count(p.r) != p.m:
        violations += [
            Violation("row_count", i, f"{row_count[i]} filled cells, expected {p.r}")
            for i in range(1, p.m + 1) if row_count[i] != p.r
        ]
    if col_count.count(p.s) != p.n:
        violations += [
            Violation("col_count", j, f"{col_count[j]} filled cells, expected {p.s}")
            for j in range(1, p.n + 1) if col_count[j] != p.s
        ]
    support = support_set(p)
    if not _is_support(entries, support):
        expected = Counter(support.sorted_values())
        actual = Counter(entries)
        missing = _preview(sorted((expected - actual).elements()))
        extra = _preview(sorted((actual - expected).elements()))
        violations.append(Violation("support", None, f"missing {missing}, unexpected {extra}"))
    if row_sum.count(0) != p.m + 1:  # row_sum[0] is 0: there is no row 0
        violations += [
            Violation("row_sum", i, f"sums to {row_sum[i]}")
            for i in range(1, p.m + 1) if row_sum[i] != 0
        ]
    if col_sum.count(0) != p.n + 1:
        violations += [
            Violation("col_sum", j, f"sums to {col_sum[j]}")
            for j in range(1, p.n + 1) if col_sum[j] != 0
        ]
    return VerificationReport(tuple(violations))


def _preview(values: list[int]) -> str:
    limit = 8  # values listed before "... (k more)"
    if not values:
        return "nothing"
    shown = ", ".join(str(v) for v in values[:limit])
    more = "" if len(values) <= limit else f", ... ({len(values) - limit} more)"
    return f"[{shown}{more}]"
