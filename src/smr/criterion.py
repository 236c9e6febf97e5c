"""The existence criterion, the paper's theorem, as a total function.

An (m, n; r, 2) rectangle exists iff either m = 2 with n = r congruent to
0 or 3 mod 4, or m >= 3, r >= 3 and mr = 2n.  ``feasibility`` encodes that
criterion with machine-readable reason codes.  ``dispatch`` refuses what it
rules out and ``oracle`` checks its search against it, so it imports only
``core``: neither side loads the other to reach it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import _check_ints


class Verdict(NamedTuple):
    feasible: bool
    reason: str

    def __str__(self) -> str:
        return f"{'feasible' if self.feasible else 'infeasible'}: {self.reason}"


def feasibility(m: int, n: int, r: int) -> Verdict:
    """Total existence decision for (m, n; r, 2).

    Reason precedence for overlapping failures: nonpositive or too-small m
    (or nonpositive n, r) reports FAIL_SMALL; at m = 2 a count mismatch n != r
    reports FAIL_ARITH and a bad residue FAIL_M2_RESIDUE; for m >= 3, two odd
    degrees report FAIL_PARITY ahead of the count identity FAIL_ARITH, and a
    row degree below 3 reports FAIL_SMALL.  An m, n or r that is not an
    exact ``int`` (``bool`` included) raises ValueError.
    """
    if not type(m) is type(n) is type(r) is int:  # one test on the fast path
        _check_ints(m=m, n=n, r=r)
    if m < 2 or n < 1 or r < 1:
        return Verdict(False, "FAIL_SMALL")
    if m == 2:
        if n != r:
            return Verdict(False, "FAIL_ARITH")
        if r % 4 in (0, 3):
            return Verdict(True, "OK_M2")
        return Verdict(False, "FAIL_M2_RESIDUE")
    if m % 2 == 1 and r % 2 == 1:
        return Verdict(False, "FAIL_PARITY")
    if m * r != 2 * n:
        return Verdict(False, "FAIL_ARITH")
    if r < 3:
        return Verdict(False, "FAIL_SMALL")
    return Verdict(True, "OK_GENERAL")
