"""Catalog of fixed base arrays used by the construction dispatcher.

Each seed is a small hand-built signed magic rectangle, stored as the grid
text ``to_grid`` writes, which is what ``smr seed <id>`` prints.  It is read
by ``from_grid``, which infers the parameters from the grid, and validated
when first requested.  Seed names encode the array shape; the catalog's key
order is ``SEED_IDS``.  Shiftability is computed from the array, not stored:
all seeds are shiftable except S_2x3, which the horizontal join only ever
uses as its unshifted operand.
"""

from __future__ import annotations

from functools import cache

from .core import Params, SignedArray, verify_smr
from .formats import ParseError, from_grid

_CATALOG: dict[str, str] = {
    "S_2x4": """\
 1 -2 -3  4
-1  2  3 -4
""",
    "S_2x3": """\
 1  2 -3
-1 -2  3
""",
    "S_4x12": """\
 -1   2   .   .  -5   6   .   .   9 -11   .   .
  1  -2   .   .   5  -6   .   .  -9  11   .   .
  .   .  -3   4   .   .  -7   8   .   .  10 -12
  .   .   3  -4   .   .   7  -8   .   . -10  12
""",
    "S_6x18": """\
 -1   .   3   .   .   .   7  -8   .   .   .   .  13 -14   .   .   .   .
  .  -2   .   4   .   .   .   8  -9   .   .   .   .  14 -15   .   .   .
  .   .  -3   .   5   .   .   .   9 -10   .   .   .   .  15 -16   .   .
  .   .   .  -4   .   6   .   .   .  10 -11   .   .   .   .  16 -17   .
  1   .   .   .  -5   .   .   .   .   .  11 -12 -13   .   .   .   .  18
  .   2   .   .   .  -6  -7   .   .   .   .  12   .   .   .   .  17 -18
""",
    "S_5x10": """\
  1   .   .   .  -5  -6   .   .   .  10
 -1   2   .   .   .   6  -7   .   .   .
  .  -2   3   .   .   .   7  -8   .   .
  .   .  -3   4   .   .   .   8  -9   .
  .   .   .  -4   5   .   .   .   9 -10
""",
    "S_3x6": """\
 1  . -3 -4  .  6
-1  2  .  4 -5  .
 . -2  3  .  5 -6
""",
    "S_5x15": """\
  1  -2   .   .   .  -6   .   .   .  10   .  12   .   . -15
  .   2  -3   .   .   6  -7   .   .   .   .   . -13   .  15
  .   .   3  -4   .   .   7  -8   .   . -11   .  13   .   .
  .   .   .   4  -5   .   .   8  -9   .   . -12   .  14   .
 -1   .   .   .   5   .   .   .   9 -10  11   .   . -14   .
""",
    "S_3x9": """\
 1 -2  . -4  .  6  7 -8  .
 .  2 -3  4 -5  . -7  .  9
-1  .  3  .  5 -6  .  8 -9
""",
}

SEED_IDS = tuple(_CATALOG)


@cache  # the catalog is fixed and an array immutable: one check per seed
def seed(seed_id: str) -> tuple[SignedArray, Params]:
    """Return the catalog array and its parameters, validated on first use.

    Raises KeyError for an unknown id and AssertionError if a catalog entry
    fails to parse or fails its own axioms (a transcription error, never
    expected at runtime).
    """
    if seed_id not in _CATALOG:
        raise KeyError(f"unknown seed id {seed_id!r}; known: {', '.join(SEED_IDS)}")
    try:
        array, params = from_grid(_CATALOG[seed_id])
        problem = verify_smr(array, params)
    except ParseError as exc:
        problem = exc
    else:
        if problem.ok:
            return array, params
    # raised, not asserted: python -O must not skip it
    raise AssertionError(f"seed {seed_id} fails validation: {problem}")
