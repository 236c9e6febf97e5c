"""Exhaustive search: known answers, criterion agreement, column canonicalization."""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys

import pytest

from smr import (
    Params,
    SearchOutcome,
    SearchStats,
    SignedArray,
    cross_check,
    decide,
    feasibility,
    oracle,
    verify_smr,
)

from goldens import by_line


def test_no_2x5_design():
    outcome = decide(2, 5)
    assert outcome.status == "not_exists"
    assert outcome.witness is None
    assert outcome.nodes > 0


def test_2x4_witness_found_and_valid():
    outcome = decide(2, 4)
    assert outcome.status == "exists"
    assert verify_smr(outcome.witness, Params(2, 4, 4, 2)).ok


def test_m2_residue_law_small():
    for n in range(1, 11):
        outcome = decide(2, n)
        assert (outcome.status == "exists") == (n % 4 in (0, 3)), n


def test_odd_times_odd_is_immediate():
    outcome = decide(3, 3)
    assert outcome.status == "not_exists"
    assert outcome.nodes == 0


def test_single_row_never_works():
    assert decide(1, 2).status == "not_exists"


def test_budget_cutoff_reported_honestly():
    outcome = decide(6, 8, budget=5)
    assert outcome.status == "cutoff"
    assert outcome.nodes == 6  # first count past the budget stops the search
    # a search deeper than the interpreter's recursion limit still cuts off
    outcome = decide(2, 1200, budget=2000)
    assert (outcome.status, outcome.nodes) == ("cutoff", 2001)
    assert outcome.stats.max_depth == 1177 > sys.getrecursionlimit()


@pytest.mark.parametrize("budget", [-1, -3, True, False, 5.0, "5", None])
def test_budget_must_be_an_int_at_least_zero(budget):
    for m, r in [(4, 5), (3, 3)]:  # also where no search is needed
        with pytest.raises(ValueError, match="budget"):
            decide(m, r, budget)


def test_zero_budget_cuts_off_at_the_first_node():
    outcome = decide(4, 5, 0)
    assert (outcome.status, outcome.nodes) == ("cutoff", 1)
    assert decide(3, 3, 0) == SearchOutcome("not_exists", None, 0)


@pytest.mark.parametrize("m,r", [(4, 5), (6, 4), (3, 8), (2, 12)])
def test_every_budget_up_to_the_node_count(m, r):
    # rejected candidates are counted in bulk, so the cutoff must still land
    # on node budget + 1 wherever the budget runs out
    full = decide(m, r)
    assert full.status == "exists"
    for budget in range(full.nodes + 1):
        outcome = decide(m, r, budget)
        if budget < full.nodes:
            assert (outcome.status, outcome.nodes) == ("cutoff", budget + 1), budget
        else:
            assert outcome == full
            assert outcome.stats == full.stats


# (m, r, budget) -> (status, nodes, the first four SearchStats fields), as
# counted one candidate at a time
PINNED_COUNTS = {
    (8, 3, None): ("exists", 19259, (106, 350, 362, 12)),
    (4, 15, None): ("exists", 1656, (73, 123, 153, 30)),
    (4, 17, None): ("exists", 1344, (32, 102, 136, 34)),
    (3, 20, None): ("exists", 4637, (292, 758, 788, 30)),
    (6, 9, None): ("exists", 89, (0, 0, 27, 27)),
    (7, 10, None): ("exists", 11607, (209, 541, 576, 35)),
    (4, 19, None): ("exists", 215, (0, 12, 50, 38)),
    (2, 17, None): ("not_exists", 1, (0, 0, 1, 1)),
    (2, 18, None): ("not_exists", 1, (0, 0, 1, 1)),
    (2, 21, None): ("not_exists", 1, (0, 0, 1, 1)),
    (8, 5, 100_000): ("cutoff", 100_001, (1534, 1820, 1835, 17)),
    (10, 5, 100_000): ("cutoff", 100_001, (581, 1138, 1156, 22)),
    (2, 1202, 20_000): ("not_exists", 1, (0, 0, 1, 1)),
}


def test_node_counts_and_stats_pinned():
    assert set(HARD_POINTS) == {(m, r) for m, r, budget in PINNED_COUNTS if budget is None}
    for (m, r, budget), pinned in PINNED_COUNTS.items():
        outcome = decide(m, r) if budget is None else decide(m, r, budget)
        assert (outcome.status, outcome.nodes, tuple(outcome.stats)[:4]) == pinned, (m, r)


def test_decide_deterministic():
    a = decide(4, 5)
    b = decide(4, 5)
    assert (a.status, a.nodes) == (b.status, b.nodes)
    assert a.witness == b.witness


def test_witnesses_verify_across_grid():
    for m in range(2, 6):
        for r in range(3, 7):
            outcome = decide(m, r)
            if outcome.status == "exists":
                n = (m * r) // 2
                assert verify_smr(outcome.witness, Params(m, n, r, 2)).ok


def test_cross_check_small_grids():
    for max_m, max_r in [(4, 6), (2, 12)]:
        report = cross_check(max_m, max_r)
        assert report.ok
        assert not report.cutoffs
        assert report.checked == max_m * max_r


def test_cross_check_reports_cutoffs_separately():
    report = cross_check(6, 8, budget=3)
    assert report.cutoffs  # starved search cannot decide the larger points
    assert report.ok  # cutoffs are not disagreements


# (m, r) -> nodes of the search without the failed-state table; the table
# only skips subtrees without a witness, so counts can only fall
HARD_POINTS = {
    (8, 3): 26342, (4, 15): 23352, (4, 17): 18192, (3, 20): 17345, (6, 9): 59500,
    (7, 10): 41067, (4, 19): 32437, (2, 17): 9483, (2, 18): 17521, (2, 21): 112783,
}
# sha256 over (m, r, status, sorted witness cells) of every decide(m, r) with
# m <= 7, r <= 10, then the hard points, computed with the search without
# the failed-state table
PINNED_DIGEST = "c4315ae0791ee508174fc5460ef2c673c58c0ae0a84a2980dc83669b3fb2b6a4"


def _pinned_outcomes() -> tuple[str, dict[tuple[int, int], SearchOutcome]]:
    points = [(m, r) for m in range(1, 8) for r in range(1, 11)] + list(HARD_POINTS)
    digest = hashlib.sha256()
    outcomes = {}
    for m, r in points:
        outcome = decide(m, r)
        cells = sorted(outcome.witness.cells.items()) if outcome.witness is not None else []
        digest.update(repr((m, r, outcome.status, cells)).encode())
        outcomes[m, r] = outcome
    return digest.hexdigest(), outcomes


def test_statuses_and_witnesses_pinned():
    digest, outcomes = _pinned_outcomes()
    assert digest == PINNED_DIGEST
    for point, nodes in HARD_POINTS.items():
        assert outcomes[point].nodes <= nodes, point


def _charges(monkeypatch, m: int, r: int, budget: int | None = None) -> list[tuple[int, int]]:
    """What a search with room for everything stores, in order: (1, bytes)
    for each key its table records, (0, bytes) for each flag its memo keeps,
    a key charged 200 + 8 bytes a code and a flag 100."""
    charges = []
    row_test = oracle._row_test

    class Table(set):
        def add(self, key):
            charges.append((1, 200 + 8 * len(key)))
            super().add(key)

    with monkeypatch.context() as spy:
        spy.setattr(oracle, "set", Table, raising=False)
        spy.setattr(oracle, "_row_test", lambda *args: charges.append((0, 100)) or row_test(*args))
        spy.setattr(oracle, "_SEARCH_BYTES", 1 << 40)
        decide(m, r) if budget is None else decide(m, r, budget)
    return charges


def _keys_recorded(charges: list[tuple[int, int]], room: int) -> int:
    """The keys recorded under a budget of ``room`` bytes: a search stores
    while room is left, and the same as with room for everything until then."""
    keys = 0
    for is_key, cost in charges:
        if room <= 0:
            break
        room -= cost
        keys += is_key
    return keys


def test_full_table_changes_no_answer(monkeypatch):
    # a budget that fills after a handful of entries only skips less and tests
    # again, and its table holds exactly the keys that the charges allow
    points = [(m, r) for m in range(1, 8) for r in range(1, 11)] + list(HARD_POINTS)
    recorded = {(m, r): _keys_recorded(_charges(monkeypatch, m, r), 12_000) for m, r in points}
    monkeypatch.setattr(oracle, "_SEARCH_BYTES", 12_000)
    digest, outcomes = _pinned_outcomes()
    assert digest == PINNED_DIGEST
    for point, outcome in outcomes.items():
        assert outcome.stats.table_entries == recorded[point], point
    full = outcomes[4, 15].stats
    assert 0 < full.table_entries < PINNED_COUNTS[4, 15, None][2][1] and full.table_hits > 0


def test_a_keys_charge_does_not_depend_on_m(monkeypatch):
    # a key is charged for its codes, the rows in use plus one, whatever m:
    # keys of 4 codes at m = 3 and of 201 at m = 200, under half the bytes
    # that each search stores with room
    for m, r, nodes in [(3, 20, None), (8, 7, 300_000), (16, 5, 20_000), (200, 7, None)]:
        charges = _charges(monkeypatch, m, r, nodes)
        room = sum(cost for _, cost in charges) // 2
        with monkeypatch.context() as half:
            half.setattr(oracle, "_SEARCH_BYTES", room)
            outcome = decide(m, r) if nodes is None else decide(m, r, nodes)
        assert outcome.stats.table_entries == _keys_recorded(charges, room) > 0, (m, r)


def test_a_full_budget_holds_what_it_states(monkeypatch):
    # the charges are the bytes measured under tracemalloc, or more: a search
    # that fills a 1 MiB budget peaks within 1.1 MiB, frames and all
    room = decide(8, 7, 300_000).stats.table_entries
    monkeypatch.setattr(oracle, "_SEARCH_BYTES", 1 << 20)
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = decide(8, 7, 300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < outcome.stats.table_entries < room
    assert peak <= 1.1 * (1 << 20), peak


def test_search_stats():
    outcome = decide(4, 5)
    assert (outcome.status, outcome.nodes) == ("exists", 63)
    stats = outcome.stats
    assert stats.max_depth == 10  # every value placed
    assert stats.table_entries <= stats.frames_pushed <= outcome.nodes
    longer = decide(4, 17).stats
    assert longer.table_hits > 0 and longer.max_depth == 34
    # stats take no part in equality, and the outcome still builds positionally
    assert outcome == SearchOutcome("exists", outcome.witness, 63)
    assert decide(3, 3).stats == SearchStats()


def test_every_node_is_pruned_a_hit_a_push_or_the_last():
    # each candidate counted is rejected by the viability check, skipped by
    # the table, opens a frame (all but the root's), or ends the search: the
    # witness, or the node past the budget
    points = [(m, r, None) for m in range(1, 8) for r in range(1, 11)]
    points += list(PINNED_COUNTS)
    points += [(m, r, 500) for m in range(2, 9) for r in range(3, 10)]
    for m, r, budget in points:
        outcome = decide(m, r) if budget is None else decide(m, r, budget)
        stats = outcome.stats
        last = outcome.status != "not_exists"
        assert outcome.nodes == (
            stats.pruned + stats.table_hits + max(stats.frames_pushed - 1, 0) + last
        ), (m, r, budget)
    assert decide(8, 5, 100_000).stats.pruned > 90_000


def signed_subset_sums(max_r: int) -> dict[tuple[int, int], set[int]]:
    """(d, R) -> every sum of d distinct magnitudes from 1..R with any signs,
    for R <= max_r, by adding the magnitudes one at a time."""
    sums = {(0, 0): {0}}
    for a in range(1, max_r + 1):
        for d in range(a + 1):
            grown = sums.get((d, a - 1), set())
            if d:
                grown = grown | {s + e for s in sums[d - 1, a - 1] for e in (a, -a)}
            sums[d, a] = grown
    return sums


def reach(d: int, R: int, t: int) -> bool:
    """The lemma as oracle._row_test holds it: d magnitudes from 1..R can
    sum to t iff a row with d + 1 entries to go and sum -t - 1 passes with +1."""
    return bool(oracle._row_test(d + 1, R, -t - 1, 1) & 2)


def test_reach_is_exact():
    sums = signed_subset_sums(12)
    for R in range(13):
        for d in range(R + 2):
            reachable = sums.get((d, R), set())
            for t in range(-R * R - 2, R * R + 3):
                assert reach(d, R, t) == (t in reachable), (d, R, t)


def test_row_test_is_exact():
    # every flag of a row with d entries to go and sum s, at value k with
    # 1..R left: fails as it stands, passes with +k, passes with -k
    sums = signed_subset_sums(12)
    for R in range(13):
        for d in range(1, R + 3):
            now, then = sums.get((d, R), set()), sums.get((d - 1, R), set())
            for k in range(1, R + 2):
                for s in range(-R * R - 2, R * R + 3):
                    want = (-s not in now) | (-s - k in then) << 1 | (-s + k in then) << 2
                    assert oracle._row_test(d, R, s, k) == want, (d, R, s, k)
            # the lowest unused row is code 0: its flag for -k is that for +k
            for k in range(1, R + 2):
                flags = oracle._row_test(d, R, 0, k)
                assert flags >> 1 & 1 == flags >> 2 & 1 == (k in then), (d, R, k)


def test_each_row_code_is_tested_once_per_value(monkeypatch):
    # with room in the budget no (d, R, s, k) is tested twice; with none, rows
    # are tested again, and the search is the one without a table
    tests = []
    row_test, budget = oracle._row_test, oracle._SEARCH_BYTES
    monkeypatch.setattr(oracle, "_row_test", lambda *args: tests.append(args) or row_test(*args))
    for m, r in [(8, 3), (4, 15)]:
        runs = []
        for room in (budget, 0):
            monkeypatch.setattr(oracle, "_SEARCH_BYTES", room)
            tests.clear()
            runs.append((decide(m, r).nodes, list(tests)))
        (nodes, once), (bare_nodes, again) = runs
        assert len(once) == len(set(once)) and set(again) >= set(once), (m, r)
        assert len(again) > len(set(again)) and nodes < bare_nodes <= HARD_POINTS[m, r], (m, r)


@pytest.mark.parametrize("budget", [0, 500])
def test_full_memo_changes_nothing(monkeypatch, budget):
    # a budget that takes no entry, or a handful, only tests rows again and
    # skips less: statuses and witnesses stay, and nodes can only rise
    points = [(m, r, None) for m in range(1, 7) for r in range(1, 9)]
    points += [(m, r, None) for m, r in HARD_POINTS] + [(8, 5, 100_000)]
    outcomes = [decide(m, r) if nodes is None else decide(m, r, nodes) for m, r, nodes in points]
    recorded = [_keys_recorded(_charges(monkeypatch, *point), budget) for point in points]
    monkeypatch.setattr(oracle, "_SEARCH_BYTES", budget)
    for (m, r, nodes), full, keys in zip(points, outcomes, recorded):
        outcome = decide(m, r) if nodes is None else decide(m, r, nodes)
        assert outcome[:2] == full[:2] and outcome.nodes >= full.nodes, (m, r)
        assert outcome.stats.table_entries == keys, (m, r)


def test_every_refutation_is_settled_at_the_root():
    # the exact row test leaves the root no viable candidate at any point the
    # criterion rejects, however large
    rng = random.Random(26)
    points = [(2, r) for r in range(1, 200) if r % 4 in (1, 2)]
    points += [(2, 4 * rng.randrange(50, 250_001) + rng.choice((1, 2))) for _ in range(50)]
    points += [(2, 10**6 + 1), (2, 10**6 + 2)]
    points += [(m, r) for r in (1, 2) for m in list(range(1, 100)) + [10**4, 10**5 - 1, 10**5]]
    points += [(m, r) for m in range(1, 41) for r in range(1, 41)]
    points += [(rng.randint(1, 300), rng.randint(1, 300)) for _ in range(1000)]
    refuted = 0
    for m, r in points:
        if feasibility(m, m * r // 2, r).feasible:
            continue
        outcome = decide(m, r)
        assert outcome.status == "not_exists" and outcome.nodes <= 1, (m, r, outcome)
        refuted += 1
    assert refuted > 1000
    # and conversely: no feasible point is settled there, so at a budget of
    # one node the root refutes exactly the points the criterion rejects
    cutoffs = 0
    for m in range(1, 101):
        for r in range(1, 101):
            outcome = decide(m, r, 1)
            if feasibility(m, m * r // 2, r).feasible:
                assert outcome.status == "cutoff", (m, r, outcome)
                cutoffs += 1
            else:
                assert outcome.status == "not_exists" and outcome.nodes <= 1, (m, r, outcome)
    assert cutoffs == 7253


@pytest.mark.parametrize("m,r", [(8, 13), (9, 10), (13, 14)])
def test_former_cutoffs_find_witnesses(m, r):
    # each cut off at 2M nodes under the bound test on partial row sums
    outcome = decide(m, r, budget=2_000_000)
    assert outcome.status == "exists"
    assert verify_smr(outcome.witness, Params(m, m * r // 2, r, 2)).ok


def test_huge_codes_still_keyed_exactly():
    # row codes past 64 bits: a key is a tuple of ints, exact at any size
    outcome = decide(2, 2_000_000, budget=50)
    assert (outcome.status, outcome.nodes) == ("cutoff", 51)


def test_memory_follows_the_search_not_n():
    # per-value storage grows with the depth reached, so 51 nodes at
    # n = 2_000_000 allocate little
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = decide(2, 2_000_000, budget=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.nodes) == ("cutoff", 51)
    assert peak < 2 << 20


def test_memory_follows_the_depth():
    # a witness 2000 values deep at m = 1000: frames hold no key, so the
    # search's memory grows with its depth, not with depth times m
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = decide(1000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.stats.max_depth) == ("exists", 2000)
    assert peak <= 8 << 20


@pytest.mark.parametrize("r, budget, status, nodes", [(2, 10**8, "not_exists", 1), (4, 1000, "cutoff", 1001)])
def test_memory_follows_the_rows_opened_not_m(r, budget, status, nodes):
    # m = 10^12: the state holds the rows in use and the lowest unused row,
    # so a refutation at the root and a 1001-node cutoff allocate little
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = decide(10**12, r, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.nodes) == (status, nodes)
    assert peak < 2 << 20


# column canonicalization: an unrestricted search over column contents finds
# exactly the canonical solutions times the n! column orders, and sorting any
# found array's columns by magnitude yields a valid canonical array.


def can_close(s: int, d: int, left: list[int]) -> bool:
    """Whether a row with sum s can still end at zero with d more cells, at
    most one per open column, given the magnitudes ``left`` of the open
    columns (largest first): d must not exceed them, and they must be able
    to cancel s, exactly for d <= 1 and by the d largest reaching |s| beyond.
    Rows failing this are dead; both searches below cut only them."""
    if d > len(left):
        return False
    return abs(s) in left if d == 1 else abs(s) <= sum(left[:d])


def stuck_rows(counts: list[int], sums: list[int], r: int, left: list[int]) -> list[int]:
    """Rows that are dead unless the next column places a cell in them."""
    return [i for i in range(len(counts)) if not can_close(sums[i], r - counts[i], left)]


def unrestricted_solutions(m: int, n: int, r: int) -> list[SignedArray]:
    """Enumerate all (m, n; r, 2) arrays cell-level: each column holds a +-pair
    of a distinct magnitude in any row pair, columns in any magnitude order."""
    results: list[SignedArray] = []
    counts = [0] * m
    sums = [0] * m
    used = [False] * (n + 1)
    placement: list[tuple[int, int, int]] = []  # (magnitude, pos_row, neg_row)

    def rec(col: int) -> None:
        if col > n:
            if all(c == r for c in counts) and all(s == 0 for s in sums):
                cells = {}
                for j, (mag, p, q) in enumerate(placement, start=1):
                    cells[p + 1, j] = mag
                    cells[q + 1, j] = -mag
                results.append(SignedArray(m, n, cells))
            return
        for mag in range(1, n + 1):
            if used[mag]:
                continue
            used[mag] = True
            left = [k for k in range(n, 0, -1) if not used[k]]
            stuck = stuck_rows(counts, sums, r, left)
            for p in range(m):
                if counts[p] >= r or not can_close(sums[p] + mag, r - 1 - counts[p], left):
                    continue
                for q in range(m):
                    if (
                        q == p
                        or counts[q] >= r
                        or not can_close(sums[q] - mag, r - 1 - counts[q], left)
                        or any(i != p and i != q for i in stuck)
                    ):
                        continue
                    counts[p] += 1
                    counts[q] += 1
                    sums[p] += mag
                    sums[q] -= mag
                    placement.append((mag, p, q))
                    rec(col + 1)
                    placement.pop()
                    counts[p] -= 1
                    counts[q] -= 1
                    sums[p] -= mag
                    sums[q] += mag
            used[mag] = False

    rec(1)
    return results


def canonicalize_columns(a: SignedArray) -> SignedArray:
    """Permute columns so column k holds {k, -k}."""
    cells = {}
    for (i, j), e in a.cells.items():
        cells[i, abs(e)] = e
    return SignedArray(a.rows, a.cols, cells)


def count_canonical(m: int, n: int, r: int) -> int:
    count = 0
    counts = [0] * m
    sums = [0] * m

    def rec(k: int) -> None:
        nonlocal count
        if k == 0:
            if all(c == r for c in counts) and all(s == 0 for s in sums):
                count += 1
            return
        left = list(range(k - 1, 0, -1))
        stuck = stuck_rows(counts, sums, r, left)
        for p in range(m):
            if counts[p] >= r or not can_close(sums[p] + k, r - 1 - counts[p], left):
                continue
            for q in range(m):
                if (
                    q == p
                    or counts[q] >= r
                    or not can_close(sums[q] - k, r - 1 - counts[q], left)
                    or any(i != p and i != q for i in stuck)
                ):
                    continue
                counts[p] += 1
                counts[q] += 1
                sums[p] += k
                sums[q] -= k
                rec(k - 1)
                counts[p] -= 1
                counts[q] -= 1
                sums[p] -= k
                sums[q] += k

    rec(n)
    return count


@pytest.mark.parametrize(
    "m,n,r",
    [
        (2, 3, 3),
        (2, 4, 4),
        (3, 6, 4),
    ],
)
def test_canonical_columns_lose_no_generality(m, n, r):
    import math

    found = unrestricted_solutions(m, n, r)
    canonical = count_canonical(m, n, r)
    assert len(found) == canonical * math.factorial(n)
    params = Params(m, n, r, 2)
    for a in found:
        c = canonicalize_columns(a)
        assert verify_smr(c, params).ok
        _, cols = by_line(c)
        for k in range(1, n + 1):
            assert sorted(cols[k].values()) == [-k, k]


def test_invalid_witness_fails_under_python_O():
    # the witness check raises, so python -O, which strips asserts, keeps it
    code = (
        "import smr.oracle as o; from smr.core import VerificationReport, Violation; "
        "o.verify_smr = lambda a, p: VerificationReport((Violation('support', None, 'x'),)); "
        "o.decide(4, 5)"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=False
    )
    assert done.returncode != 0
    assert "search produced an invalid witness" in done.stderr
