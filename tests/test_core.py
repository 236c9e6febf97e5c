"""Data model, support set, verifier and shiftability checks."""

from __future__ import annotations

import random
import tracemalloc
from array import array

import pytest

from smr import core
from smr import (
    DimensionError,
    ParseError,
    Params,
    SignedArray,
    SupportSet,
    Violation,
    entry_multiset,
    from_json,
    is_shiftable,
    seed,
    support_set,
    verify_smr,
)

from goldens import GRID_7x14_CONSTRUCTED, by_line, golden


def test_params_validation():
    Params(2, 4, 4, 2)
    with pytest.raises(ValueError):
        Params(2, 4, 3, 2)  # mr != ns
    with pytest.raises(ValueError):
        Params(2, 3, 4, 2)  # r > n
    # s > m too, which mr = ns and r <= n rule out: r > n is what is named
    with pytest.raises(ValueError, match=r"^r = 4 exceeds column count n = 2$"):
        Params(1, 2, 4, 2)
    with pytest.raises(ValueError, match=r"^r = 2 exceeds column count n = 1$"):
        Params(1, 1, 2, 2)
    with pytest.raises(ValueError):
        Params(0, 1, 1, 0)
    with pytest.raises(ValueError):
        Params(2, 4, 4, True)  # bool is an int subclass, not a count
    with pytest.raises(ValueError):
        Params(2.0, 4, 4, 2)


def test_support_set_even_case():
    s = support_set(Params(2, 4, 4, 2))
    assert s.half == 4 and not s.includes_zero
    assert s.sorted_values() == (-4, -3, -2, -1, 1, 2, 3, 4)


def test_support_set_odd_case_singleton_zero():
    s = support_set(Params(1, 1, 1, 1))
    assert s.sorted_values() == (0,)
    assert s.half == 0 and s.includes_zero


def test_support_set_membership_is_of_values():
    # not of the two fields: half = 4 and includes_zero = False
    even = support_set(Params(2, 4, 4, 2))
    assert [v for v in range(-6, 7) if v in even] == [-4, -3, -2, -1, 1, 2, 3, 4]
    odd = support_set(Params(3, 5, 5, 3))
    assert [v for v in range(-9, 10) if v in odd] == list(range(-7, 8))
    # only an exact int is a value: bool and float are not
    assert True not in even and False not in odd and 1.0 not in even and 0.0 not in odd


def test_support_set_spread_parameters():
    s = support_set(Params(8, 12, 3, 2))
    assert s.half == 12 and not s.includes_zero
    assert len(s.sorted_values()) == 24


def test_array_bounds_checked():
    with pytest.raises(ValueError):
        SignedArray(2, 2, {(3, 1): 5})
    with pytest.raises(ValueError):
        SignedArray(2, 2, {(0, 1): 5})
    for cells in (
        {(1.0, 1): 1, (2, 1): -1},
        {(1, True): 1, (2, 1): -1},
        {(1, 1): 1.0, (2, 1): -1},
        {(1, 1): True, (2, 1): -1},
        {5: 1},
        {(1, 2, 3): 1},
    ):
        with pytest.raises(ValueError):
            SignedArray(2, 2, cells)
    with pytest.raises(ValueError):
        SignedArray(2.0, 2, {})
    with pytest.raises(ValueError, match=r"^negative dimensions -1x2$"):
        SignedArray(-1, 2)
    with pytest.raises(ValueError, match=r"^negative dimensions 2x-1$"):
        SignedArray.from_cells(2, -1, [])


def test_from_cells_rejects_duplicates():
    with pytest.raises(ValueError):
        SignedArray.from_cells(2, 2, [(1, 1, 3), (1, 1, -3)])


def test_from_cells_names_the_first_repeat_in_input_order():
    triples = [(1, 1, 1), (2, 2, 2), (2, 2, 3), (1, 1, 4)]
    with pytest.raises(ValueError, match=r"duplicate cell \(2,2\)"):
        SignedArray.from_cells(2, 2, iter(triples))
    # a repeat before an unhashable index is still the error reported
    with pytest.raises(ValueError, match=r"duplicate cell \(1,1\)"):
        SignedArray.from_cells(2, 2, [(1, 1, 1), (1, 1, 2), ([1], 1, 3)])
    with pytest.raises(TypeError, match="unhashable"):
        SignedArray.from_cells(2, 2, [(1, 1, 1), ([1], 1, 3), (1, 1, 2)])
    assert SignedArray.from_cells(2, 2, iter(triples[:2])).cells == {(1, 1): 1, (2, 2): 2}


def test_first_defect_in_input_order_is_reported():
    # one loop takes the cells in input order, so a repeat is no longer
    # reported ahead of a defect in an earlier cell
    with pytest.raises(ValueError, match=r"cell \(3,1\) outside the 2x2 grid"):
        SignedArray.from_cells(2, 2, [(3, 1, 1), (1, 1, 1), (1, 1, 2)])
    with pytest.raises(ValueError, match=r"entry at \(1,1\) is not an integer: 1.5"):
        SignedArray.from_cells(2, 2, [(1, 1, 1.5), (2, 2, 1), (2, 2, 1)])
    with pytest.raises(ValueError, match=r"duplicate cell \(1,1\)"):
        SignedArray.from_cells(2, 2, [(1, 1, 1), (1, 1, 2), (3, 1, 1.5)])
    with pytest.raises(ValueError, match=r"cell \(3,3\) outside"):
        SignedArray(2, 2, {(3, 3): 1, (1, 1): 1.5})
    with pytest.raises(ValueError, match=r"entry at \(1,1\)"):
        SignedArray(2, 2, {(1, 1): 1.5, (3, 3): 1})
    with pytest.raises(ValueError, match=r"entry at \(1,2\)"):
        SignedArray.from_cells(2, 2, [(1, 1, 1), (1, 2, 1.5), (2, 1, 2.5), (2, 2, 3)])
    # the door takes triples as tuples or as the lists json.loads returns
    with pytest.raises(ValueError, match=r"cell \(3,1\) outside the 2x2 grid"):
        SignedArray.from_cells(2, 2, [[3, 1, 1], [1, 1, 1], [1, 1, 2]])
    with pytest.raises(ValueError, match=r"not enough values to unpack"):
        SignedArray.from_cells(2, 2, [(1, 1, 1), (1, 2), (3, 1, 1)])
    # from_json hands its cell lists to the same door
    for cells, message in [
        ("[1, 1, 1], [1, 1, 2], [3, 1, 1.5]", r"duplicate cell \(1,1\)"),
        ("[1, 2, 1.5], [1, 2, 1]", r"entry at \(1,2\) is not an integer: 1.5"),
        ("[1, 1, 1], [2, 3, 1], [true, 1, 1]", r"cell \(2,3\) outside the 2x2 grid"),
        ("[1, 1, 1], [true, 1, 1], [2, 3, 1]", r"duplicate cell \(True,1\)"),
        ("[1, 1, 1], [1, 2], [2, 3, 1]", r"not enough values to unpack"),
    ]:
        with pytest.raises(ParseError, match=message):
            from_json('{"m": 2, "n": 2, "r": 2, "s": 2, "cells": [%s]}' % cells)
    # the mapping constructor checks a key's shape as it reaches the door,
    # so an earlier cell's defect is still the one reported
    with pytest.raises(ValueError, match=r"cell \(3,3\) outside"):
        SignedArray(2, 2, {(3, 3): 1, 5: 1})
    with pytest.raises(ValueError, match=r"cell index 5 is not a \(row, col\) pair"):
        SignedArray(2, 2, {5: 1, (3, 3): 1})
    with pytest.raises(ValueError, match=r"entry at \(1,1\)"):
        SignedArray(2, 2, {(1, 1): 1.5, (1, 2, 3): 1})


def test_a_key_that_is_no_pair_is_named():
    with pytest.raises(ValueError, match=r"cell index 5 is not a \(row, col\) pair"):
        SignedArray(2, 2, {(1, 1): 1, 5: 1})
    with pytest.raises(ValueError, match=r"cell index \(1, 2, 3\) is not a \(row, col\) pair"):
        SignedArray(2, 2, {(1, 2, 3): 1})
    # keys that unpack into two values are no pair either: stored, they would
    # hide the cell from a lookup by (row, col) and change in a round trip
    with pytest.raises(ValueError, match=r"cell index frozenset\(\{1, 2\}\) is not a"):
        SignedArray(2, 2, {frozenset({1, 2}): 1})
    with pytest.raises(ValueError, match=r"cell index 'ab' is not a \(row, col\) pair"):
        SignedArray(2, 2, {"ab": 1})


def test_verify_seed_passes():
    a, p = seed("S_2x4")
    report = verify_smr(a, p)
    assert report.ok
    assert str(report) == "pass"


def test_verify_single_mutation_breaks_three_axioms():
    a, p = seed("S_2x4")
    cells = dict(a.cells)
    cells[1, 1] = 2  # duplicates the entry 2 and unbalances row 1
    mutated = SignedArray(a.rows, a.cols, cells)
    report = verify_smr(mutated, p)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert {"support", "row_sum", "col_sum"} <= axioms


def test_verify_seven_row_join_output():
    a = golden(GRID_7x14_CONSTRUCTED)
    assert verify_smr(a, Params(7, 14, 4, 2)).ok


def test_verify_dimension_mismatch_raises():
    a, _ = seed("S_2x4")
    with pytest.raises(DimensionError):
        verify_smr(a, Params(4, 8, 4, 2))


def test_verify_reports_offending_indices():
    a, p = seed("S_2x3")
    cells = dict(a.cells)
    del cells[2, 3]
    report = verify_smr(SignedArray(2, 3, cells), p)
    rows = [v.index for v in report.violations if v.axiom == "row_count"]
    cols = [v.index for v in report.violations if v.axiom == "col_count"]
    assert rows == [2] and cols == [3]


def _s2x4_with(**changes: int) -> SignedArray:
    """S_2x4 with cell (i, j) set to each ``c<i><j>=value``."""
    a, _ = seed("S_2x4")
    cells = dict(a.cells)
    for key, e in changes.items():
        cells[int(key[1]), int(key[2])] = e
    return SignedArray(2, 4, cells)


def _far_4x12() -> SignedArray:
    """S_4x12 with every entry moved 12 away from zero: +-13..+-24."""
    a, _ = seed("S_4x12")
    return SignedArray(4, 12, {k: e + 12 if e > 0 else e - 12 for k, e in a.cells.items()})


@pytest.mark.parametrize(
    "array,params,text",
    [
        # a duplicated entry: the value it replaced is missing, the copy unexpected
        (
            lambda: _s2x4_with(c11=2),
            Params(2, 4, 4, 2),
            "fail (3 violations)\n"
            "  - support: missing [1], unexpected [2]\n"
            "  - row_sum at row 1: sums to 1\n"
            "  - col_sum at col 1: sums to 1",
        ),
        # multiplicities are listed: 2 appears three times
        (
            lambda: _s2x4_with(c11=2, c24=2),
            Params(2, 4, 4, 2),
            "fail (5 violations)\n"
            "  - support: missing [-4, 1], unexpected [2, 2]\n"
            "  - row_sum at row 1: sums to 1\n"
            "  - row_sum at row 2: sums to 6\n"
            "  - col_sum at col 1: sums to 1\n"
            "  - col_sum at col 4: sums to 6",
        ),
        # an entry out of range
        (
            lambda: _s2x4_with(c14=9),
            Params(2, 4, 4, 2),
            "fail (3 violations)\n"
            "  - support: missing [4], unexpected [9]\n"
            "  - row_sum at row 1: sums to 5\n"
            "  - col_sum at col 4: sums to 5",
        ),
        # a 0 in an even support
        (
            lambda: _s2x4_with(c11=0),
            Params(2, 4, 4, 2),
            "fail (3 violations)\n"
            "  - support: missing [1], unexpected [0]\n"
            "  - row_sum at row 1: sums to -1\n"
            "  - col_sum at col 1: sums to -1",
        ),
        # more than 8 values on each side: the preview names 8 and counts the rest
        (
            _far_4x12,
            Params(4, 12, 6, 2),
            "fail (1 violations)\n"
            "  - support: missing [-12, -11, -10, -9, -8, -7, -6, -5, ... (16 more)], "
            "unexpected [-24, -23, -22, -21, -20, -19, -18, -17, ... (16 more)]",
        ),
        # past +-half by one: without the range check, -5 would set 4's
        # byte of the marks, and 5 -4's, and each would pass the support
        (
            lambda: _s2x4_with(c14=-5),
            Params(2, 4, 4, 2),
            "fail (3 violations)\n"
            "  - support: missing [4], unexpected [-5]\n"
            "  - row_sum at row 1: sums to -9\n"
            "  - col_sum at col 4: sums to -9",
        ),
        (
            lambda: _s2x4_with(c24=5),
            Params(2, 4, 4, 2),
            "fail (3 violations)\n"
            "  - support: missing [-4], unexpected [5]\n"
            "  - row_sum at row 2: sums to 9\n"
            "  - col_sum at col 4: sums to 9",
        ),
        # +half and -half swapped: both marked, only the row sums break
        (
            lambda: _s2x4_with(c14=-4, c24=4),
            Params(2, 4, 4, 2),
            "fail (2 violations)\n"
            "  - row_sum at row 1: sums to -8\n"
            "  - row_sum at row 2: sums to 8",
        ),
    ],
)
def test_support_violation_text_is_pinned(array, params, text):
    assert str(verify_smr(array(), params)) == text


def test_support_marks_take_both_ends_and_zero():
    entries = array("q", [-4, -3, -2, -1, 1, 2, 3, 4])
    seen = core._marks(entries, SupportSet(4, False))
    assert seen == bytearray(9)
    for e in entries:
        seen[e] = 1
    assert core._marked(seen, SupportSet(4, False))
    assert seen == bytearray([0] + [1] * 8)
    odd = array("q", [-1, 0, 1])
    seen = core._marks(odd, SupportSet(1, True))
    for e in odd:
        seen[e] = 1
    assert core._marked(seen, SupportSet(1, True))
    # the slots copy the one-slot table given, as a block's row table does
    assert core._marks(entries, SupportSet(4, False), array("q", [0])) == array("q", [0] * 9)
    # one entry short, or one past the range: no marks, and never marked
    assert core._marks(entries[1:], SupportSet(4, False)) is None
    assert core._marks(array("q", [-5, -3, -2, -1, 1, 2, 3, 4]), SupportSet(4, False)) is None
    assert not core._marked(None, SupportSet(4, False))


def test_a_declared_support_allocates_nothing_past_the_cells():
    # one cell that declares mr = 10^12: no bytes of marks, and a capped report
    a = SignedArray(1, 10**12, {(1, 1): 1})
    tracemalloc.start()
    try:
        report = verify_smr(a, Params(1, 10**12, 10**12, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    lines = str(report).splitlines()
    assert lines[0] == f"fail ({10**12 + 3} violations)"
    assert lines[1] == "  - row_count at row 1: 1 filled cells, expected 1000000000000"
    assert lines[2:4] == [
        "  - col_count at col 2: 0 filled cells, expected 1",
        "  - col_count at col 3: 0 filled cells, expected 1",
    ]
    assert lines[1002:] == [
        "  - support: missing [-500000000000, -499999999999, -499999999998, -499999999997, "
        "-499999999996, -499999999995, -499999999994, -499999999993, ... (999999999991 more)], "
        "unexpected nothing",
        "  - row_sum at row 1: sums to 1",
        "  - col_sum at col 1: sums to 1",
        f"  ... and {10**12 - 1001} more col_count violations",
    ]


def test_report_lists_at_most_1000_violations_an_axiom():
    assert core._CAP == 1000
    # as many rows as cells (list tallies): each row holds one 1, two are expected
    a = SignedArray(1001, 2, {(i, 1): 1 for i in range(1, 1002)})
    report = verify_smr(a, Params(1001, 2, 2, 1001))
    axioms = [v.axiom for v in report.violations]
    assert axioms.count("row_count") == axioms.count("row_sum") == 1000
    assert report.more == (("row_count", 1), ("row_sum", 1))
    lines = str(report).splitlines()
    assert lines[0] == "fail (2005 violations)"
    assert lines[1000] == "  - row_count at row 1000: 1 filled cells, expected 2"
    assert lines[-2:] == ["  ... and 1 more row_count violations", "  ... and 1 more row_sum violations"]
    # more rows than cells (dict tallies): every row is empty
    report = verify_smr(SignedArray(1001, 1, {}), Params(1001, 1, 1, 1001))
    assert report.more == (("row_count", 1),)
    assert str(report).splitlines()[0] == "fail (1003 violations)"
    # exactly 1000 of an axiom: all listed, no count line
    report = verify_smr(SignedArray(1000, 1, {}), Params(1000, 1, 1, 1000))
    assert report.more == () and "violations" not in str(report).splitlines()[-1]


def _list_report(a: SignedArray, p: Params) -> core.VerificationReport:
    """verify_smr's report from list tallies of every line, for a shape with
    fewer cells than the support holds."""
    rows, cols, entries, _ = a.cells._columns
    row_count, row_sum = [0] * (p.m + 1), [0] * (p.m + 1)
    col_count, col_sum = [0] * (p.n + 1), [0] * (p.n + 1)
    for i, j, e in zip(rows, cols, entries):
        row_count[i] += 1
        col_count[j] += 1
        row_sum[i] += e
        col_sum[j] += e
    violations, more = [], []
    core._lines(violations, more, "row_count", row_count, p.m, p.r, "{} filled cells, expected {}")
    core._lines(violations, more, "col_count", col_count, p.n, p.s, "{} filled cells, expected {}")
    violations.append(Violation("support", None, core._support_detail(entries, support_set(p))))
    core._lines(violations, more, "row_sum", row_sum, p.m, 0, "sums to {}")
    core._lines(violations, more, "col_sum", col_sum, p.n, 0, "sums to {}")
    return core.VerificationReport(tuple(violations), tuple(more))


@pytest.mark.parametrize("cap", [1000, 2])
def test_a_shape_past_the_cells_reports_as_the_list_tallies_do(monkeypatch, cap):
    monkeypatch.setattr(core, "_CAP", cap)
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        k = rng.randrange(0, 6)  # cells
        m, n = (k + 1, rng.randrange(1, 7)) if rng.random() < 0.5 else (rng.randrange(1, 7), k + 1)
        shapes = [(r, m * r // n) for r in range(1, n + 1) if m * r % n == 0]
        if m * n < k or not shapes:
            continue
        r, s = rng.choice(shapes)
        keys = rng.sample([(i, j) for i in range(1, m + 1) for j in range(1, n + 1)], k)
        a = SignedArray(m, n, {key: rng.randrange(-3, 4) for key in keys})
        p = Params(m, n, r, s)
        assert m > k or n > k
        assert verify_smr(a, p) == _list_report(a, p), (a, p)
        checked += 1


def test_two_entry_columns_hold_value_and_negation():
    # with two cells per column, a zero column sum forces the pair {k, -k}
    for sid in ("S_2x4", "S_4x12", "S_5x10", "S_3x9"):
        a, p = seed(sid)
        assert p.s == 2
        _, cols = by_line(a)
        for j in range(1, p.n + 1):
            values = sorted(cols[j].values())
            assert len(values) == 2 and values[0] == -values[1]


def test_is_shiftable_examples():
    a, _ = seed("S_2x4")
    assert is_shiftable(a)
    b, _ = seed("S_2x3")
    assert not is_shiftable(b)
    assert is_shiftable(SignedArray(0, 0, {}))
    assert is_shiftable(SignedArray(3, 5, {}))


def test_shiftable_implies_even_line_counts():
    for sid in ("S_2x4", "S_4x12", "S_6x18", "S_5x10", "S_3x6", "S_5x15", "S_3x9"):
        a, _ = seed(sid)
        assert is_shiftable(a)
        rows, cols = by_line(a)
        for i in range(1, a.rows + 1):
            assert len(rows[i]) % 2 == 0
        for j in range(1, a.cols + 1):
            assert len(cols[j]) % 2 == 0


def test_entry_multiset_sorted():
    a, _ = seed("S_2x4")
    assert entry_multiset(a) == (-4, -3, -2, -1, 1, 2, 3, 4)
    assert entry_multiset(SignedArray(2, 2, {})) == ()
    full, _ = seed("S_4x12")
    assert entry_multiset(full) == tuple(range(-12, 0)) + tuple(range(1, 13))


def test_verify_is_pure():
    a, p = seed("S_3x6")
    assert verify_smr(a, p) == verify_smr(a, p)


def test_verifier_handles_odd_support_parameters():
    # the verifier is generic over s: the 1x1 zero array is the one valid
    # design for the odd support set {0}
    a = SignedArray(1, 1, {(1, 1): 0})
    assert verify_smr(a, Params(1, 1, 1, 1)).ok
    assert not verify_smr(SignedArray(1, 1, {(1, 1): 1}), Params(1, 1, 1, 1)).ok


def test_odd_support_counts_the_cells():
    # mr = 15 cells take 0, +-1..+-7; (ms-1)/2 would give 9 values for 15 cells
    assert support_set(Params(3, 5, 5, 3)) == SupportSet(half=7, includes_zero=True)
    dense = [[-7, -6, 3, 6, 4], [0, 1, 2, -2, -1], [7, 5, -5, -4, -3]]
    a = SignedArray(3, 5, {(i + 1, j + 1): e for i, row in enumerate(dense) for j, e in enumerate(row)})
    assert verify_smr(a, Params(3, 5, 5, 3)).ok
