"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import pytest

from smr import (
    InfeasibleError,
    JoinMismatchError,
    NotShiftableError,
    Params,
    ParityError,
    SEED_IDS,
    construct,
    cross_check,
    decide,
    feasibility,
    five_column_block,
    from_csv,
    from_grid,
    from_json,
    inflate_diagonal,
    inflate_horizontal,
    is_shiftable,
    join_diagonal,
    join_horizontal,
    seed,
    shift,
    spread,
    three_column_block,
    to_csv,
    to_json,
    verify_smr,
)

from goldens import (
    GRID_2x11_CONSTRUCTED,
    GRID_2x11_MIRRORED,
    GRID_2x12,
    GRID_6x12,
    GRID_7x14_CONSTRUCTED,
    GRID_7x14_MIRRORED,
    GRID_8x12,
    GRID_BLOCK3_M8,
    GRID_BLOCK3_M10,
    GRID_BLOCK5_M8,
    GRID_BLOCK5_M10,
    by_line,
    golden,
    swap_rows,
)

SHIFTABLE_SEEDS = ("S_2x4", "S_4x12", "S_6x18", "S_5x10", "S_3x6", "S_5x15", "S_3x9")


class Criterion:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self) -> "Criterion":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.label}): {status} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget_s}s"
            )


def test_criterion_1_seed_fidelity():
    with Criterion(1, "seed fidelity", 1.0):
        assert len(SEED_IDS) == 8
        for sid in SEED_IDS:
            a, p = seed(sid)
            assert verify_smr(a, p).ok, sid
            assert is_shiftable(a) == (sid != "S_2x3"), sid


def test_criterion_2_known_array_reproduction():
    with Criterion(2, "cell-exact reproduction of the known arrays", 1.0):
        s24, _ = seed("S_2x4")
        assert inflate_horizontal(s24, 3) == golden(GRID_2x12)
        assert inflate_diagonal(s24, 3) == golden(GRID_6x12)

        joined_2x11, _ = construct(2, 11, 11)
        assert joined_2x11 == golden(GRID_2x11_CONSTRUCTED)
        assert swap_rows(joined_2x11, [(1, 2)]) == golden(GRID_2x11_MIRRORED)

        joined_7x14, _ = construct(7, 14, 4)
        assert joined_7x14 == golden(GRID_7x14_CONSTRUCTED)
        assert swap_rows(joined_7x14, [(4, 5), (6, 7)]) == golden(GRID_7x14_MIRRORED)

        assert three_column_block(8).array == golden(GRID_BLOCK3_M8)
        assert three_column_block(10).array == golden(GRID_BLOCK3_M10)
        assert spread(three_column_block(8)) == golden(GRID_8x12)
        assert five_column_block(8).array == golden(GRID_BLOCK5_M8)
        assert five_column_block(10).array == golden(GRID_BLOCK5_M10)


def _expected_verdict(m: int, n: int, r: int) -> tuple[bool, str]:
    # restated independently of the library: existence holds iff m = 2 with
    # n = r congruent 0 or 3 mod 4, or m, r >= 3 with mr = 2n
    if m < 2 or n < 1 or r < 1:
        return False, "FAIL_SMALL"
    if m == 2:
        if n != r:
            return False, "FAIL_ARITH"
        return (True, "OK_M2") if r % 4 in (0, 3) else (False, "FAIL_M2_RESIDUE")
    if m % 2 == 1 and r % 2 == 1:
        return False, "FAIL_PARITY"
    if m * r != 2 * n:
        return False, "FAIL_ARITH"
    if r < 3:
        return False, "FAIL_SMALL"
    return True, "OK_GENERAL"


def test_criterion_3_constructive_sweep():
    with Criterion(3, "constructive sweep m<=40, r<=40", 10.0):
        feasible_points = 0
        infeasible_points = 0
        for m in range(2, 41):
            for r in range(3, 41):
                n = r if m == 2 else (m * r) // 2
                expected_ok, expected_reason = _expected_verdict(m, n, r)
                verdict = feasibility(m, n, r)
                assert verdict.feasible == expected_ok, (m, n, r)
                assert verdict.reason == expected_reason, (m, n, r)
                if expected_ok:
                    array, _ = construct(m, n, r)
                    assert verify_smr(array, Params(m, n, r, 2)).ok, (m, n, r)
                    feasible_points += 1
                else:
                    with pytest.raises(InfeasibleError) as err:
                        construct(m, n, r)
                    assert err.value.verdict.reason == expected_reason, (m, n, r)
                    infeasible_points += 1
        assert feasible_points == 1103
        assert infeasible_points == 39 * 38 - 1103


def test_criterion_4_direct_construction_range():
    with Criterion(4, "direct constructions to m = 200", 5.0):
        for m in range(2, 201, 2):
            assert verify_smr(
                spread(three_column_block(m)), Params(m, 3 * m // 2, 3, 2)
            ).ok, m
        repaired = 0
        for m in range(4, 201, 2):
            block = five_column_block(m)
            if m % 4 == 2:
                assert block.kind == "five_repaired", m
                repaired += 1
            else:
                assert block.kind == "five", m
            assert verify_smr(spread(block), Params(m, 5 * m // 2, 5, 2)).ok, m
        assert repaired == 49


def test_criterion_5_search_vs_criterion():
    with Criterion(5, "exhaustive search agrees with the existence criterion", 60.0):
        report = cross_check(6, 8)
        assert report.ok, str(report)
        assert not report.cutoffs, str(report)
        assert report.checked == 48

        report = cross_check(7, 10)
        assert report.ok, str(report)
        assert not report.cutoffs, str(report)
        assert report.checked == 70

        assert decide(2, 5).status == "not_exists"
        for n in range(1, 41):
            outcome = decide(2, n)
            assert outcome.status != "cutoff", n
            assert (outcome.status == "exists") == (n % 4 in (0, 3)), n


def test_criterion_6_randomized_property_suite():
    with Criterion(6, "randomized property suite (>= 1000 cases)", 60.0):
        rng = random.Random(777)
        cases = 0

        # shifting preserves zero line sums and sign balance
        for _ in range(400):
            sid = rng.choice(SHIFTABLE_SEEDS)
            base, _ = seed(sid)
            if rng.random() < 0.5:
                base = inflate_horizontal(base, rng.randint(1, 4))
            else:
                base = inflate_diagonal(base, rng.randint(1, 4))
            t = rng.randint(0, 100)
            shifted = shift(base, t)
            rows, cols = by_line(shifted)
            for i in range(1, shifted.rows + 1):
                assert sum(rows[i].values()) == 0
            for j in range(1, shifted.cols + 1):
                assert sum(cols[j].values()) == 0
            assert is_shiftable(shifted)
            cases += 1

        # joins reject precondition violations with the documented error types
        odd_cells = from_grid(" 1  2 -3\n-1 -2  3\n 4 -4  5\n")[0]
        for _ in range(300):
            kind = rng.randrange(3)
            if kind == 0:  # odd cell count in the fixed operand
                a, _ = seed("S_3x6")
                with pytest.raises(ParityError):
                    join_horizontal(inflate_horizontal(a, rng.randint(1, 3)), odd_cells)
            elif kind == 1:  # row-count mismatch
                a, _ = seed("S_2x4")
                b, _ = seed(rng.choice(("S_3x6", "S_5x10", "S_3x9")))
                with pytest.raises(JoinMismatchError):
                    join_horizontal(a, b)
            else:  # first operand not shiftable
                a, _ = seed("S_2x3")
                b, _ = seed("S_2x4")
                err = NotShiftableError
                if rng.random() < 0.5:
                    with pytest.raises(err):
                        join_horizontal(a, b)
                else:
                    with pytest.raises(err):
                        join_diagonal(a, b)
            cases += 1

        # serialization round-trips bit-exactly
        pool = [(2, 4), (2, 7), (3, 4), (4, 5), (5, 6), (6, 3), (7, 4), (8, 9), (9, 6)]
        built = {}
        for _ in range(300):
            m, r = rng.choice(pool)
            n = r if m == 2 else (m * r) // 2
            if (m, r) not in built:
                built[m, r] = construct(m, n, r)[0]
            a = built[m, r]
            p = Params(m, n, r, 2)
            js = to_json(a, p)
            assert from_json(js) == (a, p)
            assert to_json(*from_json(js)) == js
            cs = to_csv(a, p)
            assert from_csv(cs) == (a, p)
            assert to_csv(*from_csv(cs)) == cs
            cases += 1

        assert cases >= 1000


def _run_module(*argv: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "smr", *argv], capture_output=True, check=True
    )
    return proc.stdout


def test_criterion_7_deterministic_output():
    with Criterion(7, "byte-identical generator and sweep output", 60.0):
        for argv in (
            ("gen", "2", "12", "12", "--grid"),
            ("gen", "9", "63", "14", "--json", "--trace"),
            ("sweep", "--max-m", "12", "--max-r", "12"),
        ):
            assert _run_module(*argv) == _run_module(*argv)
