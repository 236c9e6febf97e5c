"""Independent exhaustive existence decider for small parameters.

With two filled cells per column, every column of a valid array holds some
value k together with -k (a two-term zero sum), and relabeling columns so
that column k holds {k, -k} loses no generality.  The search therefore only
assigns, for each value k from n down to 1, the row receiving +k and the row
receiving -k.  Pruning uses row capacities and a reachability bound on
partial row sums; row-relabeling symmetry is broken by touching new rows in
index order, which also fixes the global sign reflection.

Rows are interchangeable, and the rows in use are exactly the rows holding a
value, so whether a partial assignment can be completed depends only on the
multiset of per-row (count, sum) pairs; the next value k follows from the
counts.  When a value runs out of candidates, that multiset is recorded as
failed, and a later candidate leading to a recorded multiset is skipped:
its subtree holds no witness, so statuses and witnesses are those of the
plain search and node counts can only fall.  A key is the sorted row codes
``count * (2nr + 1) + sum`` packed as 64-bit integers (a tuple when they do
not fit, which needs r in the millions), so it is exact.  The table is
local to each call and stops growing at about ``_TABLE_BYTES`` = 64 MiB:
an entry takes about 8m + 75 bytes, so the cap is near 740k entries at
m = 2 and 430k at m = 10.  A full table only skips less.

Placing +k in row p and -k in row q changes only those two rows, so the
rows that fail the reachability bound with k - 1 values left are found once
per value; a candidate is viable iff those rows lie in {p, q} and p and q
pass, which costs O(1) per candidate instead of a scan of all m rows.

``decide`` answers existence by exhaustion and never guesses: a node budget
overrun is reported as a cutoff, not as a decision.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .core import Params, SignedArray, verify_smr
from .dispatch import Verdict, feasibility

DEFAULT_BUDGET = 10**8
# the failed-state table stops growing at about this many bytes
_TABLE_BYTES = 64 << 20


class SearchStats(NamedTuple):
    table_hits: int = 0  # candidates skipped because their state had failed
    table_entries: int = 0  # failed states recorded
    frames_pushed: int = 0  # values whose candidates were opened, revisits too
    max_depth: int = 0  # most values on the stack at once; n for a witness


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "exists" | "not_exists" | "cutoff"
    witness: SignedArray | None
    nodes: int
    stats: SearchStats = field(default=SearchStats(), compare=False)


def decide(m: int, r: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Search for an (m, mr/2; r, 2) rectangle by exhaustive backtracking.

    An odd m*r leaves no valid support set, so the answer is immediate.
    Values are assigned largest first; large values constrain row sums the
    most, so the reachability bound prunes early.
    """
    if m < 1 or r < 1 or (m * r) % 2:
        return SearchOutcome("not_exists", None, 0)
    n = (m * r) // 2

    counts = [0] * m
    sums = [0] * m
    # codes[i] = counts[i] * width + sums[i], one int per row; |sum| <= nr
    width = 2 * n * r + 1
    codes = [0] * m
    fits = r * width + n * r < 1 << 63
    pack = _pack64 if fits else tuple
    failed: set[bytes | tuple[int, ...]] = set()
    # an entry takes about 75 bytes plus 8 per row (44 in a tuple of big ints)
    cap = _TABLE_BYTES // ((8 if fits else 44) * m + 75)
    # rows of +k and -k for each value k on the stack, at index n - k; they
    # grow and shrink with the stack, so with the depth reached, not with n
    pos_row = [0]
    neg_row = [0]
    nodes = hits = pushed = depth = 0

    def failing(remaining: int) -> list[int]:
        # rows that cannot reach exactly r entries and a zero sum using
        # distinct magnitudes from 1..remaining, at most one per value
        rows = []
        for i in range(m):
            d = r - counts[i]
            if d > remaining or abs(sums[i]) > d * remaining - d * (d - 1) // 2:
                rows.append(i)
        return rows

    def minus_rows(k: int, used: int) -> Iterator[int]:
        # Rows 0..used-1 are in use.  Each sign of k goes to an open row in
        # use or to the lowest unused row.  For each row p of +k in turn,
        # this places +k there and yields, per row q of -k, q when the state
        # after -k is viable and -1 otherwise; +k stays placed while they
        # are tried and is lifted before the next row of +k.
        rem = k - 1
        at = n - k
        bad = failing(rem)  # placing ±k leaves rows other than p and q as they are
        d = r - 1
        fresh_ok = d <= rem and k <= d * rem - d * (d - 1) // 2  # -k in an unused row
        rows = [i for i in range(used) if counts[i] < r]
        if used < m:
            rows.append(used)
        for p in rows:
            counts[p] += 1
            sums[p] += k
            codes[p] += width + k
            pos_row[at] = p
            # q must be the one failing row besides p, when there is one
            others = len(bad)
            must = -1
            for i in bad:
                if i == p:
                    others -= 1
                elif must < 0:
                    must = i
            d = r - counts[p]
            p_ok = others < 2 and d <= rem and abs(sums[p]) <= d * rem - d * (d - 1) // 2
            for q in rows:
                if q < used and q != p:
                    if p_ok and (must < 0 or q == must):
                        d = r - 1 - counts[q]
                        if d <= rem and abs(sums[q] - k) <= d * rem - d * (d - 1) // 2:
                            yield q
                            continue
                    yield -1
            q = p + 1 if p >= used else used  # the lowest unused row left
            if q < m:
                yield q if p_ok and (must < 0 or q == must) and fresh_ok else -1
            counts[p] -= 1
            sums[p] -= k
            codes[p] -= width + k

    # one frame per value k = n, n-1, ...: its row iterator, the rows in use
    # and the key of the state it starts from
    frames: list[tuple[Iterator[int], int, bytes | tuple[int, ...]]] = []
    if not failing(n):
        frames.append((minus_rows(n, 0), 0, b""))
        pushed = depth = 1
    status = "not_exists"
    while frames and status == "not_exists":
        k = n + 1 - len(frames)
        at = n - k
        candidates, used, _ = frames[-1]
        for q in candidates:
            nodes += 1
            if nodes > budget:
                status = "cutoff"
                break
            if q < 0:
                continue
            neg_row[at] = q
            if k == 1:
                # viability at remaining = 0 forced full rows and zero sums
                status = "exists"
                break
            codes[q] += width - k
            key = pack(sorted(codes))
            if key in failed:
                hits += 1
                codes[q] -= width - k
                continue
            counts[q] += 1
            sums[q] -= k
            now_used = pos_row[at] + 1
            if q >= now_used:
                now_used = q + 1
            if used > now_used:
                now_used = used
            frames.append((minus_rows(k - 1, now_used), now_used, key))
            pos_row.append(0)
            neg_row.append(0)
            pushed += 1
            if len(frames) > depth:
                depth = len(frames)
            break
        else:
            # k is exhausted; its iterator lifted its last +k, so undo the -(k+1)
            _, _, key = frames.pop()
            pos_row.pop()
            neg_row.pop()
            if frames:
                if len(failed) < cap:
                    failed.add(key)
                q = neg_row[at - 1]
                counts[q] -= 1
                sums[q] += k + 1
                codes[q] -= width - k - 1
    stats = SearchStats(hits, len(failed), pushed, depth)
    if status != "exists":
        return SearchOutcome(status, None, nodes, stats)

    cells: dict[tuple[int, int], int] = {}
    for k in range(1, n + 1):
        cells[pos_row[n - k] + 1, k] = k
        cells[neg_row[n - k] + 1, k] = -k
    witness = SignedArray(m, n, cells)
    report = verify_smr(witness, Params(m, n, r, 2))
    assert report.ok, f"search produced an invalid witness: {report}"
    return SearchOutcome("exists", witness, nodes, stats)


def _pack64(codes: list[int]) -> bytes:
    return array("q", codes).tobytes()


@dataclass(frozen=True)
class Disagreement:
    m: int
    r: int
    search_status: str
    verdict: Verdict


@dataclass(frozen=True)
class CrossCheckReport:
    checked: int
    disagreements: tuple[Disagreement, ...]
    cutoffs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def __str__(self) -> str:
        lines = [
            f"checked {self.checked} parameter points: "
            f"{len(self.disagreements)} disagreements, {len(self.cutoffs)} cutoffs"
        ]
        lines += [
            f"  disagree at m={d.m} r={d.r}: search says {d.search_status}, "
            f"criterion says {d.verdict}"
            for d in self.disagreements
        ]
        lines += [f"  cutoff at m={mm} r={rr}" for mm, rr in self.cutoffs]
        return "\n".join(lines)


def cross_check(
    max_m: int, max_r: int, budget: int = DEFAULT_BUDGET
) -> CrossCheckReport:
    """Compare exhaustive search against the existence criterion on a grid.

    Every (m, r) with 1 <= m <= max_m, 1 <= r <= max_r is decided both ways
    (n taken as floor(mr/2); when mr is odd both sides reject).  Cutoffs are
    listed separately and excluded from the disagreement count.
    """
    disagreements: list[Disagreement] = []
    cutoffs: list[tuple[int, int]] = []
    checked = 0
    for m in range(1, max_m + 1):
        for r in range(1, max_r + 1):
            checked += 1
            outcome = decide(m, r, budget)
            if outcome.status == "cutoff":
                cutoffs.append((m, r))
                continue
            verdict = feasibility(m, (m * r) // 2, r)
            if verdict.feasible != (outcome.status == "exists"):
                disagreements.append(Disagreement(m, r, outcome.status, verdict))
    return CrossCheckReport(checked, tuple(disagreements), tuple(cutoffs))
