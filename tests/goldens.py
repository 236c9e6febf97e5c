"""Known-good arrays shared across test modules.

All literals here were derived by hand (seed arithmetic, shifts and block
formulas worked out independently) before the implementation existed; the
tests compare library output against them cell for cell.

The two joined arrays are recorded in two presentations.  The CONSTRUCTED
form is what the pipeline emits.  The MIRRORED form swaps the two rows of
each shifted two-row block, which negates those entries; both presentations
satisfy every axiom and encode the same design.  Tests pin the pipeline to
the CONSTRUCTED form and assert the documented relation to the MIRRORED one.
"""

from __future__ import annotations

from smr import SignedArray, from_grid

# horizontal inflation of the 2x4 seed, three copies
GRID_2x12 = """
 1 -2 -3  4  5 -6 -7  8  9 -10 -11  12
-1  2  3 -4 -5  6  7 -8 -9  10  11 -12
"""

# diagonal inflation of the 2x4 seed, three copies
GRID_6x12 = """
 1 -2 -3  4  .  .  .  .  .   .   .   .
-1  2  3 -4  .  .  .  .  .   .   .   .
 .  .  .  .  5 -6 -7  8  .   .   .   .
 .  .  .  . -5  6  7 -8  .   .   .   .
 .  .  .  .  .  .  .  .  9 -10 -11  12
 .  .  .  .  .  .  .  . -9  10  11 -12
"""

# 2x4 seed inflated twice then joined after the 2x3 seed: the (2, 11; 11, 2) array
GRID_2x11_CONSTRUCTED = """
 1  2 -3  4 -5 -6  7  8  -9 -10  11
-1 -2  3 -4  5  6 -7 -8   9  10 -11
"""

GRID_2x11_MIRRORED = """
-1 -2  3 -4  5  6 -7 -8   9  10 -11
 1  2 -3  4 -5 -6  7  8  -9 -10  11
"""

# 2x4 seed inflated diagonally twice, joined after the 3x6 seed: the (7, 14; 4, 2) array
GRID_7x14_CONSTRUCTED = """
 1  .  -3  -4   .   6   .   .   .   .   .   .   .   .
-1  2   .   4  -5   .   .   .   .   .   .   .   .   .
 .  -2  3   .   5  -6   .   .   .   .   .   .   .   .
 .  .   .   .   .   .   7  -8  -9  10   .   .   .   .
 .  .   .   .   .   .  -7   8   9 -10   .   .   .   .
 .  .   .   .   .   .   .   .   .   .  11 -12 -13  14
 .  .   .   .   .   .   .   .   .   . -11  12  13 -14
"""

GRID_7x14_MIRRORED = """
 1  .  -3  -4   .   6   .   .   .   .   .   .   .   .
-1  2   .   4  -5   .   .   .   .   .   .   .   .   .
 .  -2  3   .   5  -6   .   .   .   .   .   .   .   .
 .  .   .   .   .   .  -7   8   9 -10   .   .   .   .
 .  .   .   .   .   .   7  -8  -9  10   .   .   .   .
 .  .   .   .   .   .   .   .   .   . -11  12  13 -14
 .  .   .   .   .   .   .   .   .   .  11 -12 -13  14
"""

# three-column compact blocks at m = 8 and m = 10
GRID_BLOCK3_M8 = """
 1  11 -12
 2   9 -11
 3   7 -10
 4   5  -9
-1  -5   6
-2  -6   8
-3  -7  10
-4  -8  12
"""

GRID_BLOCK3_M10 = """
 1  14 -15
 2  12 -14
 3  10 -13
 4   8 -12
 5   6 -11
-1  -6   7
-2  -7   9
-3  -8  11
-4  -9  13
-5 -10  15
"""

# the spread of the m = 8 three-column block: an (8, 12; 3, 2) rectangle
GRID_8x12 = """
 1  .  .  .  .  .  .  .  .   .  11 -12
 .  2  .  .  .  .  .  .  9   . -11   .
 .  .  3  .  .  .  7  .  . -10   .   .
 .  .  .  4  5  .  .  . -9   .   .   .
-1  .  .  . -5  6  .  .  .   .   .   .
 . -2  .  .  . -6  .  8  .   .   .   .
 .  . -3  .  .  . -7  .  .  10   .   .
 .  .  . -4  .  .  . -8  .   .   .  12
"""

# five-column compact blocks: raw at m = 8, repaired at m = 10
GRID_BLOCK5_M8 = """
 1   5  -9 -13  16
 2   7 -10 -14  15
 3   9 -11 -15  14
 4  11 -12 -16  13
-1  -8  12  17 -20
-2  -7  10  18 -19
-3  -6   8  19 -18
-4  -5   6  20 -17
"""

GRID_BLOCK5_M10 = """
 1   6 -11 -16  20
 3   8 -12 -17  18
 2  10 -13 -18  19
 4  12 -14 -19  17
 5  14 -15 -20  16
-1 -10  15  21 -25
-3  -9  13  22 -23
-2  -8  11  23 -24
-4  -7   9  24 -22
-5  -6   7  25 -21
"""


def golden(grid: str) -> SignedArray:
    return from_grid(grid)[0]


def by_line(a: SignedArray) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Each row's {col: entry} and each column's {row: entry}, bucketed in one
    pass over the cells; index 0 of both lists is empty."""
    rows: list[dict[int, int]] = [{} for _ in range(a.rows + 1)]
    cols: list[dict[int, int]] = [{} for _ in range(a.cols + 1)]
    for (i, j), e in a.cells.items():
        rows[i][j] = e
        cols[j][i] = e
    return rows, cols


def swap_rows(a: SignedArray, pairs: list[tuple[int, int]]) -> SignedArray:
    """Exchange whole rows; used to state the two-presentation relation."""
    mapping = {}
    for x, y in pairs:
        mapping[x] = y
        mapping[y] = x
    cells = {(mapping.get(i, i), j): e for (i, j), e in a.cells.items()}
    return SignedArray(a.rows, a.cols, cells)
