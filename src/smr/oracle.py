"""Independent exhaustive existence decider.

With two filled cells per column, every column of a valid array holds some
value k together with -k (a two-term zero sum), and relabeling columns so
that column k holds {k, -k} loses no generality.  The search therefore only
assigns, for each value k from n down to 1, the row receiving +k and the row
receiving -k.  Pruning tests each row exactly: can the magnitudes still
left complete it to r entries and a zero sum on its own?  Row-relabeling
symmetry is broken by touching new rows in index order, which also fixes
the global sign reflection.

The row test rests on a fact about integers.  d distinct magnitudes from
1..R, each signed freely, can sum to exactly t iff d = 0 and t = 0, or
1 <= d <= R and |t| <= top = dR - d(d-1)/2, with t = top (mod 2) when
d = R, and t != 0 when d <= 2.  Necessity: top is the sum of the d largest
magnitudes; d = R takes every magnitude, and flipping the sign of a changes
the sum by 2a, so the parity is that of 1 + ... + R = top; and a != 0,
a + b != 0 and a - b != 0 for distinct a, b.  Sufficiency: for d <= 2 this
is checked by hand (a + b runs over 3..2R-1, a - b over 1..R-1).  For
d >= 3, the d-sets have every sum from d(d+1)/2 to top (raise one member
by one at a time), which all-plus signs reach.  Flipping signs subtracts
twice a subset sum, and the subset sums of {1..d}, and for d < R of
{1..d-1, d+1}, fill every integer up to their totals.  That reaches every
smaller |t| of the parity of d(d+1)/2, and for d < R of the other one too.
With m = 1 or r <= 2, a row holding +n cannot be completed; with m = 2 and
r = 1, 2 (mod 4), n = r and each row must take all of 1..r, whose sum
r(r+1)/2 is odd.  So the root has no viable candidate at those points, and
the test refutes them in one node at any size (an odd mr takes none).

Rows are interchangeable, and the rows in use are exactly the rows holding a
value, so whether a partial assignment can be completed depends only on the
multiset of per-row (count, sum) pairs; the next value k follows from the
counts.  When a value runs out of candidates, that multiset is recorded as
failed, and a later candidate leading to a recorded multiset is skipped:
its subtree holds no witness, so statuses and witnesses are those of the
plain search and node counts can only fall.  A key is the tuple of the
sorted row codes ``count * (2nr + 1) + sum``, so it is exact at any size.
No frame holds a key: when a value runs out, the codes are back at the
state its frame started from, and the key is computed from them as they
stand, so the frames take memory by the depth, not by depth times m.  The
table is local to each call and stops growing at ``_TABLE_CAP_NUMERATOR``
// (8m + 75) entries, 737k at m = 2, 433k at m = 10 and 331k at m = 16.
The numerator is no byte budget: full, the table measured 86 to 117 MiB
there under tracemalloc (166 to 311 bytes an entry).  A full table only
skips less.

The search state is that list of row codes and nothing else: a row's count
and sum are decoded from its code.  The candidate enumerator of a value
only reads the codes; the main loop places +k in row p and -k in row q,
lifts both again on a table hit, and otherwise opens a frame that carries
(p, q), so that popping it lifts them and the witness is read off the
frames.  Those two rows are all a candidate changes, so each row is
tested three ways, as it stands, with +k and with -k; a candidate is
viable iff the rows failing as they stand lie in {p, q}, p passes with +k
and q with -k.  The lowest unused row is tested the same way, as the row
of code 0.

The three answers for a row depend only on k and its code: the code fixes
the row's count and sum, k fixes the magnitudes 1..k-1 left, and r is fixed
for the call.  So one call of ``_row_test`` computes all three as a flag,
and a memo local to each call keeps that flag per value and row code.
Sibling frames differ in two rows, so each distinct row code is tested once
per value, and most rows of a frame are a dict lookup.  Since a flag is a
function of (k, code), the memo changes no candidate, node count or
witness.  It stops growing at about ``_MEMO_BYTES`` = 16 MiB, about 100
bytes an entry, so near 168k entries; a full memo only tests again.

Most candidates are not viable, so they are counted in bulk, not visited:
the candidates of one value are a fixed sequence, row of +k first, so the
search steps only to the viable ones and adds the rejects in between to the
node count.  A row of +k that fails, or two failing rows besides it, rejects
its whole block of candidates at once.  The candidates, their order and
what each viable one leads to are those of a search that visits every
candidate, so node counts, statistics and witnesses are too, and a budget
that runs out among the rejects stops the search at node budget + 1 as
before.  ``SearchStats.pruned`` is the number of rejects, summed per step.

``decide`` answers existence by exhaustion and never guesses: a node budget
overrun is reported as a cutoff, not as a decision.  The module imports only
``core`` and ``criterion``, against which ``cross_check`` compares the
search: it shares no code with the constructions and loads none of them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .core import Params, SignedArray, _check_ints, verify_smr
from .criterion import feasibility

DEFAULT_BUDGET = 10**8
# the numerator of the failed-state table's entry cap: the table stops growing
# at this // (8m + 75) entries, which measured 86 to 117 MiB at m = 2, 10 and
# 16 (see the module docstring)
_TABLE_CAP_NUMERATOR = 64 << 20
# the row-test memo stops growing at about this many bytes, 100 an entry
_MEMO_BYTES = 16 << 20


class SearchStats(
    namedtuple(
        "SearchStats", "table_hits table_entries frames_pushed max_depth pruned", defaults=(0,) * 5
    )
):
    """A search's counts, in field order, each 0 by default: candidates skipped
    because their state had failed; failed states recorded; values whose
    candidates were opened, revisits too; the most values on the stack at
    once, n for a witness; candidates rejected by the viability check."""

    __slots__ = ()


class SearchOutcome(
    namedtuple("SearchOutcome", "status witness nodes stats", defaults=(SearchStats(),))
):
    """``status`` is "exists", "not_exists" or "cutoff", ``witness`` an array or
    None; ``stats``, ``SearchStats()`` by default, is left out of ==, != and hash."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self[:3] == other[:3] if type(other) is SearchOutcome else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])


def decide(m: int, r: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Search for an (m, mr/2; r, 2) rectangle by exhaustive backtracking.

    An odd m*r leaves no valid support set, so the answer is immediate.
    Values are assigned largest first; large values constrain row sums the
    most, so the row test prunes early.  ``m``, ``r`` and ``budget``
    must be ``int``s, ``budget`` >= 0; a search past node ``budget`` is a cutoff.
    """
    _check_ints(m=m, r=r)
    if type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    if m < 1 or r < 1 or (m * r) % 2:
        return SearchOutcome("not_exists", None, 0)
    n = (m * r) // 2

    # the whole search state: codes[i] = count * width + sum for row i, and
    # |sum| <= nr < width / 2, so (code + nr) // width is the count
    nr = n * r
    width = 2 * nr + 1
    codes = [0] * m
    failed: set[tuple[int, ...]] = set()  # exhausted states: tuple(sorted(codes))
    cap = _TABLE_CAP_NUMERATOR // (8 * m + 75)
    nodes = hits = pushed = depth = pruned = 0

    # memo[k][code]: _row_test's flags for a row of that code at value k, a
    # dict made on k's first frame; a full memo tests again instead of storing
    memo: dict[int, dict[int, int]] = {}
    room = _MEMO_BYTES // 100  # entries the memo may still take
    full = r * width  # the code of a full row: r entries, sum 0

    def candidates(k: int, used: int) -> Iterator[tuple[int, int, int]]:
        # Rows 0..used-1 are in use.  Each sign of k goes to an open row in
        # use or to the lowest unused row.  The candidates run over rows p of
        # +k and, for each, rows q of -k, both in row order.  This yields
        # (p, q, rejected) per viable candidate, rejected being the candidates
        # passed over since the previous yield, and last (-1, -1, rejected)
        # for any trailing rejects.  It reads codes once, here, and never
        # writes them.
        nonlocal room
        flags = memo.get(k)
        if flags is None:
            flags = memo[k] = {}
        # Placing +k in p and -k in q changes only those rows, so each row is
        # tested three ways, as it stands, with +k and with -k: one _row_test
        # per row code and value.  The lowest unused row, of code 0, is tested
        # last, as if open; -k in it is +k by symmetry.
        bad = []  # rows failing as they stand; p and q must hold them all
        ok_p = []  # (row, its index among the tested rows) for rows taking +k
        ok_q = []  # the same for rows taking -k
        n_open = 0
        for i in range(used + (used < m)):
            code = codes[i]
            if code == full:  # a full row passed with sum 0 and still does
                continue
            f = flags.get(code)
            if f is None:
                count = (code + nr) // width
                f = _row_test(r - count, k - 1, code - count * width, k)
                if room > 0:
                    flags[code] = f
                    room -= 1
            if f & 1:
                bad.append(i)
            if f & 2:
                ok_p.append((i, n_open))
            if f & 4:
                ok_q.append((i, n_open))
            n_open += 1
        if used < m:  # the last row tested was the unused one: not open
            n_open -= 1
            if f & 1:  # unused rows fail too
                bad += range(used + 1, m)
        nbad = len(bad)
        if nbad > 2:
            ok_p = []  # p and q cannot hold three failing rows
        # every open row of +k has a block of size candidates: the other open
        # rows, then the lowest unused row; the unused row of +k comes last,
        # with n_open open rows and the next unused row
        size = n_open - 1 + (used < m)
        total = n_open * size + (n_open + (used + 1 < m) if used < m else 0)
        b0 = bad[0] if bad else -1
        b1 = bad[1] if nbad > 1 else -1
        seen = 0  # candidates passed
        for p, ip in ok_p:
            # q must be the one failing row besides p, when there is one
            if nbad == 2 and p != b0 and p != b1:
                continue  # two failing rows besides p
            must = b1 if p == b0 else b0
            start = ip * size
            for q, j in ok_q:  # the lowest unused row comes last
                if q != p and (must < 0 or q == must):
                    i = start + j - (j > ip)
                    yield p, q, i - seen
                    seen = i + 1
            q = used + 1  # +k in the lowest unused row: -k in the next one
            if p == used and q < m and (must < 0 or q == must):
                i = start + n_open
                yield p, q, i - seen
                seen = i + 1
        if total > seen:
            yield -1, -1, total - seen

    # one frame per value k = n, n-1, ...: its candidates, the rows in use,
    # and the rows p and q of the +(k+1) and -(k+1) that opened it (-1 for
    # the root); codes are the state a frame starts from whenever it is on top
    frames: list[tuple[Iterator[tuple[int, int, int]], int, int, int]] = []
    if r <= n:  # else an empty row cannot take r distinct magnitudes
        frames.append((candidates(n, 0), 0, -1, -1))
        pushed = depth = 1
    status = "not_exists"
    while frames and status == "not_exists":
        k = n + 1 - len(frames)
        frame = frames[-1]
        used = frame[1]
        for p, q, rejected in frame[0]:
            # the rejects are nodes + 1 .. nodes + rejected, then (p, q) is a node
            end = nodes + rejected + (q >= 0)
            if end > budget:
                # node budget + 1 stops the search; rejects past it are not seen
                pruned += min(rejected, budget - nodes)
                nodes = budget + 1
                status = "cutoff"
                break
            nodes = end
            pruned += rejected
            if q < 0:
                continue
            if k == 1:
                # viability at remaining = 0 forced full rows and zero sums
                status = "exists"
                break
            codes[p] += width + k
            codes[q] += width - k
            if tuple(sorted(codes)) in failed:
                hits += 1
                codes[p] -= width + k
                codes[q] -= width - k
                continue
            now_used = used
            if q >= now_used:
                now_used = q + 1
            if p >= now_used:
                now_used = p + 1
            frames.append((candidates(k - 1, now_used), now_used, p, q))
            pushed += 1
            if len(frames) > depth:
                depth = len(frames)
            break
        else:
            # k is exhausted from the state codes hold: record it, then undo
            # the +(k+1) and -(k+1) that opened its frame
            _, _, p, q = frames.pop()
            if frames:
                if len(failed) < cap:
                    failed.add(tuple(sorted(codes)))
                codes[p] -= width + k + 1
                codes[q] -= width - k - 1
    stats = SearchStats(hits, len(failed), pushed, depth, pruned)
    if status != "exists":
        return SearchOutcome(status, None, nodes, stats)

    # the frames of values n-1 .. 1 hold the rows of n .. 2; (p, q) holds 1's
    rows = [frame[2:] for frame in frames[1:]] + [(p, q)]
    pairs = zip(range(n, 0, -1), rows)
    triples = sorted([t for k, (p, q) in pairs for t in ((p + 1, k, k), (q + 1, k, -k))])
    witness = SignedArray.from_cells(m, n, triples)  # row-major: the door needs no dict
    report = verify_smr(witness, Params(m, n, r, 2))
    if not report.ok:  # raised, not asserted: python -O must not skip it
        raise AssertionError(f"search produced an invalid witness: {report}")
    return SearchOutcome("exists", witness, nodes, stats)


def _row_test(d: int, R: int, s: int, k: int) -> int:
    """The row test of a row with d >= 1 entries to go and sum s, with the
    magnitudes 1..R left besides k: 1 if it fails as it stands, plus 2 if it
    passes with +k, plus 4 if it passes with -k.  A row passes iff distinct
    magnitudes from 1..R, one per entry to go, can sum to minus its sum, or
    to its sum (the lemma in the module docstring, for d and d - 1)."""
    e = d - 1  # entries to go once the row takes k
    if e > R:
        return 1
    top = e * R - e * (e - 1) // 2  # and top + R - e for d entries
    flags = 0
    if d > R:
        flags = 1
    else:
        t = top + R - e
        if s > t or s < -t or (d == R and (t - s) % 2) or (d <= 2 and not s):
            flags = 1
    a, b = s + k, s - k
    if not e:
        return flags | (not a) << 1 | (not b) << 2
    if e == R and (top - a) % 2:  # a and b have the same parity
        return flags
    if -top <= a <= top and (e > 2 or a):
        flags |= 2
    if -top <= b <= top and (e > 2 or b):
        flags |= 4
    return flags


class Disagreement(namedtuple("Disagreement", "m r search_status verdict")):
    __slots__ = ()


class CrossCheckReport(namedtuple("CrossCheckReport", "checked disagreements cutoffs")):
    __slots__ = ()

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
