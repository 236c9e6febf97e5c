"""Composition operators: shifting, inflation and joins.

All operators take shiftable input where stated, preserve zero line sums,
and keep the entry set exact: a valid operand using {+-1..+-N} combines with
one using {+-1..+-N'} into a result using {+-1..+-(N+N')}.

The shift quantum of an array is half its cell count (the largest absolute
entry of a valid array).  Degenerate empty operands are accepted by the
inflations (k = 0) and act as identities in the joins, so boundary cases of
the dispatch table need no special-casing.

Outputs are built with ``SignedArray._trusted``: their cells are operand
cells at ``int`` offsets inside the output's own shape, so the full
validation would only repeat what the operands already passed.  Inflation
and shift outputs record that they are shiftable, and join outputs carry
the fixed operand's recorded flag, so that the shiftability preconditions
of later steps need not rescan them.
"""

from __future__ import annotations

from .core import SignedArray, is_shiftable


class NotShiftableError(ValueError):
    """Operand required to be shiftable is not."""


class ParityError(ValueError):
    """Join would need a half-integral shift (odd cell count in the fixed operand)."""


class JoinMismatchError(ValueError):
    """Join operands disagree on shared dimensions or fill degrees."""


def support_half(a: SignedArray) -> int:
    """Half the cell count: the shift quantum used by inflations and joins."""
    if len(a.cells) % 2:
        raise ParityError(f"array has an odd cell count {len(a.cells)}")
    return len(a.cells) // 2


def _shiftable(a: SignedArray) -> bool:
    """a's shiftability: the flag recorded by construction, else computed."""
    return is_shiftable(a) if a._shiftable is None else a._shiftable


def _place(
    cells: dict[tuple[int, int], int], a: SignedArray, t: int, row_off: int, col_off: int
) -> dict[tuple[int, int], int]:
    """Write a's cells into ``cells``, each entry moved t away from zero and
    each position offset by (row_off, col_off).  Returns ``cells``."""
    for (i, j), e in a.cells.items():
        cells[i + row_off, j + col_off] = e + t if e > 0 else e - t
    return cells


def shift(a: SignedArray, t: int) -> SignedArray:
    """Increase every entry's absolute value by t.

    Requires a shiftable operand: balanced sign counts are exactly what keeps
    every row and column sum at zero after the shift.
    """
    if type(t) is not int or t < 0:
        raise ValueError(f"shift amount must be a nonnegative integer, got {t!r}")
    if not _shiftable(a):
        raise NotShiftableError("refusing to shift a non-shiftable array")
    if t == 0:
        return a
    return SignedArray._trusted(a.rows, a.cols, _place({}, a, t, 0, 0), True)


def inflate_horizontal(a: SignedArray, k: int) -> SignedArray:
    """Lay k progressively shifted copies side by side.

    Maps an (m, n; r, s) shiftable array to an (m, kn; kr, s) shiftable
    array; copy number b (0-based) is shifted by b times the quantum.  k = 0
    yields the empty m x 0 array.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"copy count must be a nonnegative integer, got {k!r}")
    if not _shiftable(a):
        raise NotShiftableError("horizontal inflation requires a shiftable array")
    if k == 1:
        return a
    quantum = support_half(a)
    cells: dict[tuple[int, int], int] = {}
    for b in range(k):
        _place(cells, a, b * quantum, 0, b * a.cols)
    return SignedArray._trusted(a.rows, a.cols * k, cells, True)


def inflate_diagonal(a: SignedArray, k: int) -> SignedArray:
    """Lay k progressively shifted copies along the block diagonal.

    Maps an (m, n; r, s) shiftable array to a (km, kn; r, s) shiftable array
    with empty off-diagonal blocks.  k = 0 yields the empty 0 x 0 array.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"copy count must be a nonnegative integer, got {k!r}")
    if not _shiftable(a):
        raise NotShiftableError("diagonal inflation requires a shiftable array")
    if k == 1:
        return a
    quantum = support_half(a)
    cells: dict[tuple[int, int], int] = {}
    for b in range(k):
        _place(cells, a, b * quantum, b * a.rows, b * a.cols)
    return SignedArray._trusted(a.rows * k, a.cols * k, cells, True)


def _row_degree(a: SignedArray) -> int:
    if a.rows == 0:
        return 0
    if len(a.cells) % a.rows:
        raise JoinMismatchError("operand rows are not uniformly filled")
    return len(a.cells) // a.rows


def _col_degree(a: SignedArray) -> int:
    if a.cols == 0:
        return 0
    if len(a.cells) % a.cols:
        raise JoinMismatchError("operand columns are not uniformly filled")
    return len(a.cells) // a.cols


def join_horizontal(a: SignedArray, b: SignedArray) -> SignedArray:
    """Attach b to the left of a shifted copy of a.

    b occupies columns 1..n' unchanged; a, shifted past b's entry range,
    follows.  Requires equal row counts and column degrees, a shiftable, and
    an even cell count in b.  The result is shiftable iff b is.
    """
    if a.is_empty and a.cols == 0:
        return b
    if a.rows != b.rows:
        raise JoinMismatchError(f"row counts differ: {a.rows} vs {b.rows}")
    if not _shiftable(a):
        raise NotShiftableError("horizontal join requires a shiftable first operand")
    if len(b.cells) % 2:
        raise ParityError(
            f"fixed operand has {len(b.cells)} cells; the shared row count times "
            "its row degree must be even"
        )
    if not b.is_empty and not a.is_empty and _col_degree(a) != _col_degree(b):
        raise JoinMismatchError(
            f"column degrees differ: {_col_degree(a)} vs {_col_degree(b)}"
        )
    cells = _place(b.cells.copy(), a, support_half(b), 0, b.cols)
    return SignedArray._trusted(a.rows, a.cols + b.cols, cells, b._shiftable)


def join_diagonal(a: SignedArray, b: SignedArray) -> SignedArray:
    """Attach b at the top-left of a shifted copy of a.

    b occupies the leading b.rows x b.cols region unchanged; a, shifted past
    b's entry range, fills the trailing diagonal block.  Requires equal row
    and column degrees, a shiftable, and an even cell count in b.  The result
    is shiftable iff b is.
    """
    if a.is_empty and a.rows == 0 and a.cols == 0:
        return b
    if not _shiftable(a):
        raise NotShiftableError("diagonal join requires a shiftable first operand")
    if len(b.cells) % 2:
        raise ParityError(
            f"fixed operand has {len(b.cells)} cells; its row count times the "
            "shared row degree must be even"
        )
    if not b.is_empty and not a.is_empty:
        if _row_degree(a) != _row_degree(b):
            raise JoinMismatchError(
                f"row degrees differ: {_row_degree(a)} vs {_row_degree(b)}"
            )
        if _col_degree(a) != _col_degree(b):
            raise JoinMismatchError(
                f"column degrees differ: {_col_degree(a)} vs {_col_degree(b)}"
            )
    cells = _place(b.cells.copy(), a, support_half(b), b.rows, b.cols)
    return SignedArray._trusted(a.rows + b.rows, a.cols + b.cols, cells, b._shiftable)
