"""Arrays cannot change after they are built, whichever path built them."""

from __future__ import annotations

import copy
import pickle
from collections import defaultdict
from types import MappingProxyType

import pytest

from smr import (
    BlockError,
    CompactBlock,
    Params,
    SignedArray,
    construct,
    decide,
    five_column_block,
    from_csv,
    from_grid,
    from_json,
    inflate_diagonal,
    inflate_horizontal,
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

def _sources() -> dict[str, SignedArray]:
    a, p = seed("S_2x4")
    b, _ = seed("S_2x3")
    return {
        "SignedArray": SignedArray(1, 2, {(1, 1): 1, (1, 2): -1}),
        "from_cells": SignedArray.from_cells(1, 2, [(1, 1, 1), (1, 2, -1)]),
        "from_json": from_json(to_json(a, p))[0],
        "from_csv": from_csv(to_csv(a, p))[0],
        "from_grid": from_grid("1 -1\n")[0],
        "seed": a,
        "shift": shift(a, 3),
        "inflate_horizontal": inflate_horizontal(a, 2),
        "inflate_diagonal": inflate_diagonal(a, 2),
        "join_horizontal": join_horizontal(a, b),
        "join_diagonal": join_diagonal(a, a),
        "three_column_block": three_column_block(4).array,
        "five_column_block": five_column_block(6).array,
        "spread": spread(three_column_block(4)),
        "construct": construct(4, 10, 5)[0],
        "decide witness": decide(2, 4).witness,
    }


@pytest.mark.parametrize("source", sorted(_sources()))
def test_cells_reject_writes(source):
    a = _sources()[source]
    before = dict(a.cells)
    key = next(iter(before))
    with pytest.raises(TypeError):
        a.cells[key] = 99
    with pytest.raises(TypeError):
        a.cells[1, 1] = 99
    with pytest.raises(TypeError):
        del a.cells[key]
    assert dict(a.cells) == before


def test_seed_survives_attempted_write():
    a, p = seed("S_2x4")
    with pytest.raises(TypeError):
        a.cells[1, 1] = 99
    again, q = seed("S_2x4")
    assert again == from_grid(" 1 -2 -3  4\n-1  2  3 -4\n")[0]
    assert verify_smr(again, q).ok
    assert verify_smr(construct(2, 8, 8)[0], Params(2, 8, 8, 2)).ok


def test_input_dict_is_copied():
    cells = {(1, 1): 1, (1, 2): -1}
    a = SignedArray(1, 2, cells)
    cells[1, 1] = 5
    assert a.cells[1, 1] == 1
    # a defaultdict inserts on lookup; behind a read-only view it is copied too
    b = SignedArray(1, 3, MappingProxyType(defaultdict(int, cells)))
    with pytest.raises(KeyError):
        b.cells[1, 3]
    assert dict(b.cells) == cells


def test_array_built_from_cells_of_another():
    # the cells of another array are copied, and still checked
    a = construct(6, 15, 5)[0]
    assert SignedArray(a.rows, a.cols, a.cells) == a
    with pytest.raises(ValueError):
        SignedArray(a.rows, a.cols - 1, a.cells)


def test_equality_compares_shape_and_cells():
    a = SignedArray(1, 2, {(1, 1): 1, (1, 2): -1})
    assert a == SignedArray.from_cells(1, 2, [(1, 2, -1), (1, 1, 1)])
    assert a != SignedArray(1, 2, {(1, 1): -1, (1, 2): 1})
    assert a != SignedArray(1, 3, a.cells)
    assert a != {(1, 1): 1, (1, 2): -1}
    assert SignedArray(0, 0) == SignedArray(0, 0, {})


@pytest.mark.parametrize("source", ["seed", "inflate_diagonal", "spread", "decide witness"])
def test_pickle_and_deepcopy_round_trip(source):
    a = _sources()[source]
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a
        with pytest.raises(TypeError):
            b.cells[1, 1] = 99


def test_unpickling_bad_cells_raises():
    a = SignedArray(1, 2, {(1, 1): 77, (1, 2): -77})
    text = pickle.dumps(a, protocol=0)
    assert b"I77\n" in text
    for bad in (b"F77.5\n", b"I01\n"):  # a float entry; then a bool entry
        with pytest.raises(ValueError):
            pickle.loads(text.replace(b"I77\n", bad, 1))
    with pytest.raises(ValueError):  # a cell outside the 1 x 2 grid
        pickle.loads(text.replace(b"(I1\nI2\nt", b"(I1\nI3\nt", 1))


def test_block_requires_a_signed_array():
    class Mutable:
        def __init__(self, a: SignedArray) -> None:
            self.rows, self.cols, self.cells = a.rows, a.cols, dict(a.cells)

    with pytest.raises(TypeError):
        CompactBlock(Mutable(three_column_block(4).array), "three")


@pytest.mark.parametrize("source", sorted(_sources()))
def test_arrays_hash_like_their_equals(source):
    a = _sources()[source]
    b = copy.deepcopy(a)
    assert hash(a) == hash(b)
    assert a in {b} and len({a, b}) == 1
    # a different entry or shape gives a different set member
    other = SignedArray(a.rows + 1, a.cols, a.cells)
    assert other not in {a}


def test_blocks_and_search_outcomes_hash():
    block = three_column_block(4)
    assert hash(block) == hash(copy.deepcopy(block))
    outcome = decide(2, 4)
    assert outcome.witness is not None
    assert hash(outcome) == hash(decide(2, 4))
    assert len({outcome, decide(2, 4)}) == 1


def _bad_copies():
    """name: (value, field index, bad field value, exception).  A copy of the
    value with that field changed must fail the value's own check."""
    a = SignedArray(1, 2, {(1, 1): 1, (1, 2): -1})
    return {
        "Params": (Params(2, 4, 4, 2), 0, 0, ValueError),
        "SignedArray": (a, 1, 1, ValueError),
        "CompactBlock": (three_column_block(4), 0, a, BlockError),
    }


@pytest.mark.parametrize("name", sorted(_bad_copies()))
def test_one_checked_door_per_value_class(name):
    value, index, bad, error = _bad_copies()[name]
    field = value._fields[index]
    with pytest.raises(AttributeError):
        setattr(value, field, bad)
    with pytest.raises(AttributeError):
        value.other = 1
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
    with pytest.raises(error):
        value._replace(**{field: bad})
    fields = list(value)
    fields[index] = bad
    with pytest.raises(error):
        type(value)._make(fields)
    # copy and pickle rebuild a value by calling the class on its fields and
    # set no state after, at every protocol: the class is the one door
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
        rebuild, args, *state = value.__reduce_ex__(protocol)
        assert rebuild is type(value) and not any(state)
        args = list(args)
        args[index] = bad
        with pytest.raises(error):
            rebuild(*args)


def test_search_outcomes_ignore_stats():
    outcome = decide(2, 4)
    other = outcome._replace(stats=outcome.stats._replace(pruned=outcome.stats.pruned + 1))
    assert other.stats != outcome.stats
    assert outcome == other and not outcome != other
    assert hash(outcome) == hash(other)
    moved = outcome._replace(nodes=outcome.nodes + 1)
    assert outcome != moved and not outcome == moved
