"""Seed catalog: every entry verifies, shiftability flags match, contents pinned."""

from __future__ import annotations

import subprocess
import sys

import pytest

from smr import SEED_IDS, entry_multiset, is_shiftable, seed, verify_smr

from goldens import by_line


def test_catalog_is_complete():
    assert set(SEED_IDS) == {
        "S_2x4",
        "S_2x3",
        "S_4x12",
        "S_6x18",
        "S_5x10",
        "S_3x6",
        "S_5x15",
        "S_3x9",
    }


@pytest.mark.parametrize("sid", SEED_IDS)
def test_seed_verifies(sid):
    a, p = seed(sid)
    assert verify_smr(a, p).ok


@pytest.mark.parametrize("sid", SEED_IDS)
def test_seed_shiftability_flag(sid):
    a, _ = seed(sid)
    expected = sid != "S_2x3"
    assert is_shiftable(a) == expected


def test_seed_2x4_contents():
    a, p = seed("S_2x4")
    assert (p.m, p.n, p.r, p.s) == (2, 4, 4, 2)
    rows, _ = by_line(a)
    assert rows[1] == {1: 1, 2: -2, 3: -3, 4: 4}
    assert rows[2] == {1: -1, 2: 2, 3: 3, 4: -4}


def test_seed_2x3_contents():
    a, p = seed("S_2x3")
    assert (p.m, p.n, p.r, p.s) == (2, 3, 3, 2)
    rows, _ = by_line(a)
    assert rows[1] == {1: 1, 2: 2, 3: -3}
    assert rows[2] == {1: -1, 2: -2, 3: 3}


def test_seed_3x6_first_row():
    a, p = seed("S_3x6")
    assert (p.m, p.n, p.r, p.s) == (3, 6, 4, 2)
    assert by_line(a)[0][1] == {1: 1, 3: -3, 4: -4, 6: 6}


def test_seed_entry_ranges():
    for sid, half in [
        ("S_2x4", 4),
        ("S_2x3", 3),
        ("S_4x12", 12),
        ("S_6x18", 18),
        ("S_5x10", 10),
        ("S_3x6", 6),
        ("S_5x15", 15),
        ("S_3x9", 9),
    ]:
        a, _ = seed(sid)
        assert entry_multiset(a) == tuple(range(-half, 0)) + tuple(range(1, half + 1))


def test_unknown_seed_id():
    # a raised KeyError is not cached: every call raises it again
    for _ in range(2):
        with pytest.raises(KeyError, match="unknown seed id 'S_9x9'"):
            seed("S_9x9")


def test_seed_result_is_shared():
    assert seed("S_4x12") is seed("S_4x12")


def test_corrupted_seed_fails_under_python_O():
    # the catalog check raises, so python -O, which strips asserts, keeps it
    code = "import smr.seeds as s; s._CATALOG['S_2x4'][1][0][0] = 2; s.seed('S_2x4')"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=False
    )
    assert done.returncode != 0
    assert "fails validation" in done.stderr
