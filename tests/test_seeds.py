"""Seed catalog: every entry verifies, shiftability flags match, contents pinned."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from smr import SEED_IDS, entry_multiset, is_shiftable, seed, to_grid, to_json, verify_smr
from smr.seeds import _CATALOG

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


# sha256 of to_json(*seed(sid)) for every sid in SEED_IDS order, taken while
# the catalog was still stored as dense lists with their parameters
SEEDS_JSON_SHA256 = "44e3154b9cc3803665d9a75d00fc947496c55d9a47cdc059f904660a1ef0cdd3"


def test_catalog_is_the_grid_smr_seed_prints():
    digest = hashlib.sha256()
    for sid in SEED_IDS:
        a, p = seed(sid)
        assert to_grid(a) == _CATALOG[sid], sid
        digest.update(to_json(a, p).encode())
    assert digest.hexdigest() == SEEDS_JSON_SHA256


def test_corrupted_seed_fails_under_python_O():
    # the catalog check raises, so python -O, which strips asserts, keeps it;
    # an entry changed (the text parses, the axioms fail) and a ragged row
    # (the text does not parse) raise the same message
    for corrupt in ("s._CATALOG['S_2x4'].replace(' 1 -2', ' 2 -2', 1)",
                    "s._CATALOG['S_2x4'] + ' 5\\n'"):
        code = f"import smr.seeds as s; s._CATALOG['S_2x4'] = {corrupt}; s.seed('S_2x4')"
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=False
        )
        assert done.returncode != 0
        assert "AssertionError: seed S_2x4 fails validation: " in done.stderr
