"""Every record is a ``collections.namedtuple`` subclass with ``__slots__ = ()``:
its fields, defaults, repr, equality, hashing, copies and pickles are pinned."""

from __future__ import annotations

import copy
import pickle

import pytest

import smr
from smr import SearchOutcome, SearchStats, TraceStep, Verdict, seed, three_column_block


def _records() -> dict[str, tuple[str, tuple]]:
    """name: (its pinned fields, a value for each, none of them a default)."""
    a, _ = seed("S_2x4")
    step = TraceStep("seed", (("id", "S_2x4"),))
    verdict = Verdict(False, "FAIL_M2_RESIDUE")
    violation = smr.Violation("row_sum", 2, "sums to 3")
    disagreement = smr.Disagreement(2, 5, "exists", verdict)
    return {
        "Params": ("m n r s", (3, 6, 4, 2)),
        "SignedArray": ("rows cols cells", (a.rows, a.cols, a.cells)),
        "CompactBlock": ("array kind", (three_column_block(4).array, "three")),
        "SupportSet": ("half includes_zero", (7, True)),
        "Violation": ("axiom index detail", violation),
        "VerificationReport": ("violations", ((violation,),)),
        "Verdict": ("feasible reason", (True, "OK_M2")),
        "TraceStep": ("op args", step),
        "RouteTrace": ("steps", ((step, TraceStep("inflate_horizontal", (("k", 2),))),)),
        "SearchStats": ("table_hits table_entries frames_pushed max_depth pruned", (1, 2, 3, 4, 5)),
        "SearchOutcome": ("status witness nodes stats", ("exists", a, 9, SearchStats(1, 2, 3))),
        "Disagreement": ("m r search_status verdict", disagreement),
        "CrossCheckReport": ("checked disagreements cutoffs", (6, (disagreement,), ((4, 4),))),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_slotted_named_tuples(name):
    fields, values = _records()[name]
    cls = getattr(smr, name)
    value = cls(*values)
    assert cls._fields == tuple(fields.split())
    assert vars(cls)["__slots__"] == () and not hasattr(value, "__dict__")
    # a field reads back what was passed: no class attribute hides it
    for field, v in zip(cls._fields, values):
        assert getattr(value, field) == v
    shown = ", ".join(f"{field}={v!r}" for field, v in zip(cls._fields, values))
    assert repr(value) == f"{name}({shown})"
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        assert tuple(copied) == tuple(value)


def test_record_defaults():
    assert TraceStep("seed").args == ()
    assert SearchStats() == (0, 0, 0, 0, 0)
    outcome = SearchOutcome("cutoff", None, 5)
    assert outcome.stats == SearchStats()
    # equality and hashing leave stats out
    counted = SearchOutcome("cutoff", None, 5, SearchStats(1, 2, 3, 4, 5))
    assert outcome == counted and not outcome != counted and hash(outcome) == hash(counted)
    assert outcome != outcome._replace(nodes=6)
