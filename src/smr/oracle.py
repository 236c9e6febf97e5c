"""Independent exhaustive existence decider for small parameters.

With two filled cells per column, every column of a valid array holds some
value k together with -k (a two-term zero sum), and relabeling columns so
that column k holds {k, -k} loses no generality.  The search therefore only
assigns, for each value k from n down to 1, the row receiving +k and the row
receiving -k.  Pruning uses row capacities and a reachability bound on
partial row sums; row-relabeling symmetry is broken by touching new rows in
index order, which also fixes the global sign reflection.

``decide`` answers existence by exhaustion and never guesses: a node budget
overrun is reported as a cutoff, not as a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Params, SignedArray, verify_smr
from .dispatch import Verdict, feasibility

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "exists" | "not_exists" | "cutoff"
    witness: SignedArray | None
    nodes: int


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
    pos_row = [0] * (n + 1)
    neg_row = [0] * (n + 1)
    nodes = 0

    def viable(remaining: int) -> bool:
        # every row must reach exactly r entries and a zero sum using
        # distinct magnitudes from 1..remaining, at most one per value
        for i in range(m):
            d = r - counts[i]
            if d > remaining:
                return False
            if abs(sums[i]) > d * remaining - d * (d - 1) // 2:
                return False
        return True

    def minus_rows(k: int, used: int) -> Iterator[int]:
        # Rows 0..used-1 are in use.  Each sign of k goes to an open row in
        # use or to the lowest unused row.  For each row of +k in turn, this
        # places +k there and yields the rows for -k; +k stays placed while
        # they are tried and is lifted before the next row of +k.
        open_rows = [i for i in range(used) if counts[i] < r]
        for p in open_rows + ([used] if used < m else []):
            counts[p] += 1
            sums[p] += k
            pos_row[k] = p
            yield from [i for i in open_rows if i != p]
            if max(used, p + 1) < m:
                yield max(used, p + 1)
            counts[p] -= 1
            sums[p] -= k

    # one frame per value k = n, n-1, ...: its row iterator and rows in use
    frames = [(minus_rows(n, 0), 0)] if viable(n) else []
    found = False
    while frames and not found:
        k = n + 1 - len(frames)
        candidates, used = frames[-1]
        for q in candidates:
            nodes += 1
            if nodes > budget:
                return SearchOutcome("cutoff", None, nodes)
            counts[q] += 1
            sums[q] -= k
            neg_row[k] = q
            if viable(k - 1):
                # at k = 1, viability at remaining = 0 forced full rows and zero sums
                found = k == 1
                if not found:
                    now_used = max(used, pos_row[k] + 1, q + 1)
                    frames.append((minus_rows(k - 1, now_used), now_used))
                break
            counts[q] -= 1
            sums[q] += k
        else:
            # k is exhausted; its iterator lifted its last +k, so undo the -(k+1)
            frames.pop()
            if frames:
                q = neg_row[k + 1]
                counts[q] -= 1
                sums[q] += k + 1
    if not found:
        return SearchOutcome("not_exists", None, nodes)

    cells: dict[tuple[int, int], int] = {}
    for k in range(1, n + 1):
        cells[pos_row[k] + 1, k] = k
        cells[neg_row[k] + 1, k] = -k
    witness = SignedArray(m, n, cells)
    report = verify_smr(witness, Params(m, n, r, 2))
    assert report.ok, f"search produced an invalid witness: {report}"
    return SearchOutcome("exists", witness, nodes)


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
