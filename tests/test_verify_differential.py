"""verify_smr against a dense checker that shares no code with smr.core.

Valid constructed arrays are mutated (a cell negated, entries swapped across
rows, a value dropped or duplicated, a cell moved, every entry doubled) and
both checkers judge the result: verify_smr must accept exactly what the dense
checker accepts, and its report must name exactly the axioms the dense checker
finds broken.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from smr import Params, SignedArray, construct, feasibility, verify_smr


def dense_broken(m: int, n: int, r: int, s: int, grid: list[list[int | None]]) -> set[str]:
    """The axioms an m x n grid breaks; ``None`` marks an empty cell."""
    columns = [[grid[i][j] for i in range(m)] for j in range(n)]
    broken = set()
    if any(sum(v is not None for v in row) != r for row in grid):
        broken.add("row_count")
    if any(sum(v is not None for v in col) != s for col in columns):
        broken.add("col_count")
    if any(sum(v for v in row if v is not None) != 0 for row in grid):
        broken.add("row_sum")
    if any(sum(v for v in col if v is not None) != 0 for col in columns):
        broken.add("col_sum")
    # the support is +-1..+-mr/2 for even mr, and 0, +-1..+-(mr-1)/2 for odd:
    # mr values for the mr filled cells
    top = m * r // 2 if m * r % 2 == 0 else (m * r - 1) // 2
    want = [v for v in range(-top, top + 1) if v != 0 or m * r % 2]
    if sorted(v for row in grid for v in row if v is not None) != want:
        broken.add("support")
    return broken


POINTS = [
    (m, n, r)
    for m in range(2, 9)
    for r in range(3, 11)
    for n in [r if m == 2 else m * r // 2]
    if feasibility(m, n, r).feasible
]
MUTATIONS = ["negate", "swap rows", "drop", "duplicate", "move", "double"]


def _mutate(draw, grid: list[list[int | None]], kind: str) -> None:
    filled = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v is not None]
    empty = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v is None]
    i, j = draw(st.sampled_from(filled))
    if kind == "double":  # every entry: counts and sums hold, the range breaks
        for row in grid:
            row[:] = [None if v is None else 2 * v for v in row]
    elif kind == "negate":
        grid[i][j] = -grid[i][j]
    elif kind == "swap rows":
        others = [(k, l) for k, l in filled if k != i]
        if others:
            k, l = draw(st.sampled_from(others))
            grid[i][j], grid[k][l] = grid[k][l], grid[i][j]
    elif kind == "drop":
        grid[i][j] = None
    elif kind == "duplicate":
        k, l = draw(st.sampled_from([c for c in filled if c != (i, j)]))
        grid[i][j] = grid[k][l]
    elif empty:  # move
        k, l = draw(st.sampled_from(empty))
        grid[k][l], grid[i][j] = grid[i][j], None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(POINTS), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_verify_agrees_with_dense_checker(point, kinds, data):
    m, n, r = point
    a, _ = construct(m, n, r)
    grid: list[list[int | None]] = [[None] * n for _ in range(m)]
    for (i, j), e in a.cells.items():
        grid[i - 1][j - 1] = e
    for kind in kinds:
        _mutate(data.draw, grid, kind)
    broken = dense_broken(m, n, r, 2, grid)
    cells = {(i + 1, j + 1): v for i, row in enumerate(grid) for j, v in enumerate(row) if v is not None}
    report = verify_smr(SignedArray(m, n, cells), Params(m, n, r, 2))
    assert report.ok == (not broken)
    assert {v.axiom for v in report.violations} == broken, (kinds, str(report))


def test_dense_checker_sees_each_axiom():
    # the checker itself, on hand-made 2 x 4 grids with known defects
    grid = [[1, -2, -3, 4], [-1, 2, 3, -4]]
    assert dense_broken(2, 4, 4, 2, grid) == set()
    assert dense_broken(2, 4, 4, 2, [[1, -2, -3, 4], [-1, 2, 3, None]]) == {
        "row_count", "col_count", "support", "row_sum", "col_sum"
    }
    assert dense_broken(2, 4, 4, 2, [[-1, -2, -3, 4], [1, 2, 3, -4]]) == {"row_sum"}
    assert dense_broken(2, 4, 4, 2, [[1, 2, -3, 4], [-1, -2, 3, -4]]) == {"row_sum"}
    assert dense_broken(2, 4, 4, 2, [[1, -2, -3, 4], [-1, 2, 3, -3]]) == {"support", "row_sum", "col_sum"}
    # odd mr: 0 is in the support
    assert dense_broken(1, 1, 1, 1, [[0]]) == set()
    # odd mr with r != s: the support is 0, +-1..+-(mr-1)/2, mr values
    assert dense_broken(3, 5, 5, 3, [[-7, -6, 3, 6, 4], [0, 1, 2, -2, -1], [7, 5, -5, -4, -3]]) == set()


# Mutations that keep every line count and line sum and break only the
# support: the passing case must not take them, and the report must name
# the support alone, in the text of the sorted multiset diff.
SUPPORT_ONLY = [
    # every entry doubled: the values leave the range +-mr/2
    ((2, 4, 4), None, "missing [-3, -1, 1, 3], unexpected [-8, -6, 6, 8]"),
    (
        (4, 10, 5),
        None,
        "missing [-9, -7, -5, -3, -1, 1, 3, 5, ... (2 more)], "
        "unexpected [-20, -18, -16, -14, -12, 12, 14, 16, ... (2 more)]",
    ),
    # values repeated with the right count, all within range
    ((2, 4, 4), [[1, -1, 2, -2], [-1, 1, -2, 2]], "missing [-4, -3, 3, 4], unexpected [-2, -1, 1, 2]"),
]


def test_support_only_mutations_report_exactly_support():
    for (m, n, r), grid, detail in SUPPORT_ONLY:
        if grid is None:
            a, _ = construct(m, n, r)
            a = SignedArray(m, n, {k: 2 * e for k, e in a.cells.items()})
        else:
            cells = {(i, j): e for i, row in enumerate(grid, 1) for j, e in enumerate(row, 1)}
            a = SignedArray(m, n, cells)
        report = verify_smr(a, Params(m, n, r, 2))
        assert str(report) == f"fail (1 violations)\n  - support: {detail}"

