"""Catalog of fixed base arrays used by the construction dispatcher.

Each seed is a small hand-built signed magic rectangle, stored as data and
validated when first requested.  Seed names encode the array shape; the
catalog's key order is ``SEED_IDS``.  Shiftability is computed from the
array, not stored: all seeds are shiftable except S_2x3, which the
horizontal join only ever uses as its unshifted operand.

In the dense literals below, 0 marks an empty cell; no stored entry is zero.
"""

from __future__ import annotations

from functools import cache

from .core import Params, SignedArray, verify_smr

_CATALOG: dict[str, tuple[Params, list[list[int]]]] = {
    "S_2x4": (
        Params(2, 4, 4, 2),
        [
            [1, -2, -3, 4],
            [-1, 2, 3, -4],
        ],
    ),
    "S_2x3": (
        Params(2, 3, 3, 2),
        [
            [1, 2, -3],
            [-1, -2, 3],
        ],
    ),
    "S_4x12": (
        Params(4, 12, 6, 2),
        [
            [-1, 2, 0, 0, -5, 6, 0, 0, 9, -11, 0, 0],
            [1, -2, 0, 0, 5, -6, 0, 0, -9, 11, 0, 0],
            [0, 0, -3, 4, 0, 0, -7, 8, 0, 0, 10, -12],
            [0, 0, 3, -4, 0, 0, 7, -8, 0, 0, -10, 12],
        ],
    ),
    "S_6x18": (
        Params(6, 18, 6, 2),
        [
            [-1, 0, 3, 0, 0, 0, 7, -8, 0, 0, 0, 0, 13, -14, 0, 0, 0, 0],
            [0, -2, 0, 4, 0, 0, 0, 8, -9, 0, 0, 0, 0, 14, -15, 0, 0, 0],
            [0, 0, -3, 0, 5, 0, 0, 0, 9, -10, 0, 0, 0, 0, 15, -16, 0, 0],
            [0, 0, 0, -4, 0, 6, 0, 0, 0, 10, -11, 0, 0, 0, 0, 16, -17, 0],
            [1, 0, 0, 0, -5, 0, 0, 0, 0, 0, 11, -12, -13, 0, 0, 0, 0, 18],
            [0, 2, 0, 0, 0, -6, -7, 0, 0, 0, 0, 12, 0, 0, 0, 0, 17, -18],
        ],
    ),
    "S_5x10": (
        Params(5, 10, 4, 2),
        [
            [1, 0, 0, 0, -5, -6, 0, 0, 0, 10],
            [-1, 2, 0, 0, 0, 6, -7, 0, 0, 0],
            [0, -2, 3, 0, 0, 0, 7, -8, 0, 0],
            [0, 0, -3, 4, 0, 0, 0, 8, -9, 0],
            [0, 0, 0, -4, 5, 0, 0, 0, 9, -10],
        ],
    ),
    "S_3x6": (
        Params(3, 6, 4, 2),
        [
            [1, 0, -3, -4, 0, 6],
            [-1, 2, 0, 4, -5, 0],
            [0, -2, 3, 0, 5, -6],
        ],
    ),
    "S_5x15": (
        Params(5, 15, 6, 2),
        [
            [1, -2, 0, 0, 0, -6, 0, 0, 0, 10, 0, 12, 0, 0, -15],
            [0, 2, -3, 0, 0, 6, -7, 0, 0, 0, 0, 0, -13, 0, 15],
            [0, 0, 3, -4, 0, 0, 7, -8, 0, 0, -11, 0, 13, 0, 0],
            [0, 0, 0, 4, -5, 0, 0, 8, -9, 0, 0, -12, 0, 14, 0],
            [-1, 0, 0, 0, 5, 0, 0, 0, 9, -10, 11, 0, 0, -14, 0],
        ],
    ),
    "S_3x9": (
        Params(3, 9, 6, 2),
        [
            [1, -2, 0, -4, 0, 6, 7, -8, 0],
            [0, 2, -3, 4, -5, 0, -7, 0, 9],
            [-1, 0, 3, 0, 5, -6, 0, 8, -9],
        ],
    ),
}

SEED_IDS = tuple(_CATALOG)


@cache  # the catalog is fixed and an array immutable: one check per seed
def seed(seed_id: str) -> tuple[SignedArray, Params]:
    """Return the catalog array and its parameters, validated on first use.

    Raises KeyError for an unknown id and AssertionError if a catalog entry
    fails its own axioms (a transcription error, never expected at runtime).
    """
    if seed_id not in _CATALOG:
        raise KeyError(f"unknown seed id {seed_id!r}; known: {', '.join(SEED_IDS)}")
    params, grid = _CATALOG[seed_id]
    cells = ((i, j, e) for i, row in enumerate(grid, 1) for j, e in enumerate(row, 1) if e)
    array = SignedArray.from_cells(params.m, params.n, cells)
    report = verify_smr(array, params)
    if not report.ok:  # raised, not asserted: python -O must not skip it
        raise AssertionError(f"seed {seed_id} fails validation: {report}")
    return array, params
