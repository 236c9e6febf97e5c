"""Feasibility verdicts and the construction route table."""

from __future__ import annotations

import hashlib
import threading

import pytest

from smr import (
    SEED_IDS,
    CompactBlock,
    InfeasibleError,
    JoinMismatchError,
    NotShiftableError,
    Params,
    RouteTrace,
    SignedArray,
    TraceStep,
    construct,
    decide,
    feasibility,
    five_column_block,
    inflate_diagonal,
    inflate_horizontal,
    is_shiftable,
    join_diagonal,
    join_horizontal,
    replay,
    seed,
    spread,
    three_column_block,
    verify_smr,
)
from smr import transforms
from smr.dispatch import _OPS, _PIECE_ROWS, _PIECES, _apply, _piece, _seed_layout
from smr.transforms import Layout

from goldens import (
    GRID_2x11_CONSTRUCTED,
    GRID_2x12,
    GRID_7x14_CONSTRUCTED,
    GRID_8x12,
    by_line,
    golden,
)


@pytest.mark.parametrize(
    "m,n,r,feasible,reason",
    [
        (2, 5, 5, False, "FAIL_M2_RESIDUE"),
        (2, 6, 6, False, "FAIL_M2_RESIDUE"),
        (2, 11, 11, True, "OK_M2"),
        (2, 3, 3, True, "OK_M2"),
        (2, 4, 4, True, "OK_M2"),
        (2, 4, 8, False, "FAIL_ARITH"),
        (3, 3, 2, False, "FAIL_SMALL"),
        (5, 10, 4, True, "OK_GENERAL"),
        (3, 6, 4, True, "OK_GENERAL"),
        (5, 10, 5, False, "FAIL_PARITY"),
        (3, 5, 3, False, "FAIL_PARITY"),
        (4, 7, 3, False, "FAIL_ARITH"),
        (1, 2, 4, False, "FAIL_SMALL"),
        (0, 1, 1, False, "FAIL_SMALL"),
        (6, 9, 3, True, "OK_GENERAL"),
        (4, 2, 1, False, "FAIL_SMALL"),
    ],
)
def test_feasibility_verdicts(m, n, r, feasible, reason):
    v = feasibility(m, n, r)
    assert (v.feasible, v.reason) == (feasible, reason)


@pytest.mark.parametrize(
    "fn, args, bad",
    [
        (feasibility, (3.0, 6, 4), "m must be an int, got 3.0"),
        (feasibility, (3, 6.0, 4), "n must be an int, got 6.0"),
        (feasibility, (3, 6, True), "r must be an int, got True"),
        (construct, (2.0, 4, 4), "m must be an int, got 2.0"),
        (construct, (4, 10, 5.0), "r must be an int, got 5.0"),
        (decide, (3.0, 4), "m must be an int, got 3.0"),
        (decide, (2, False), "r must be an int, got False"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_parameters_must_be_exact_ints(fn, args, bad):
    with pytest.raises(ValueError, match=f"^{bad}$"):
        fn(*args)


def test_verdict_rendering():
    assert str(feasibility(2, 5, 5)) == "infeasible: FAIL_M2_RESIDUE"
    assert str(feasibility(2, 4, 4)) == "feasible: OK_M2"


def test_construct_rejects_infeasible_with_verdict():
    with pytest.raises(InfeasibleError) as err:
        construct(2, 5, 5)
    assert err.value.verdict.reason == "FAIL_M2_RESIDUE"
    with pytest.raises(InfeasibleError):
        construct(3, 5, 3)


@pytest.mark.parametrize(
    "m,n,r,grid",
    [
        (2, 12, 12, GRID_2x12),
        (2, 11, 11, GRID_2x11_CONSTRUCTED),
        (8, 12, 3, GRID_8x12),
        (7, 14, 4, GRID_7x14_CONSTRUCTED),
    ],
)
def test_construct_pinned_outputs(m, n, r, grid):
    array, _ = construct(m, n, r)
    assert array == golden(grid)


def test_construct_smallest_m2_points():
    a3, _ = construct(2, 3, 3)
    assert by_line(a3)[0][1] == {1: 1, 2: 2, 3: -3}
    a4, _ = construct(2, 4, 4)
    assert verify_smr(a4, Params(2, 4, 4, 2)).ok


def test_construct_unpinned_point_verifies():
    array, _ = construct(9, 63, 14)
    assert verify_smr(array, Params(9, 63, 14, 2)).ok


@pytest.mark.parametrize(
    "m,r",
    [
        (2, 8),  # rule 1
        (2, 7),  # rule 2
        (6, 3),  # rule 3
        (6, 5),  # rule 4
        (6, 8),  # rule 5
        (4, 6),  # rule 6, m = 0 mod 4
        (6, 6),  # rule 6, m = 6 exactly
        (10, 10),  # rule 6, m = 2 mod 4, m > 6
        (4, 9),  # rule 7
        (4, 7),  # rule 8
        (3, 4),  # rule 9, m = 3
        (5, 4),  # rule 9, m = 5
        (7, 8),  # rule 9, m = 3 mod 4
        (9, 4),  # rule 9, m = 1 mod 4
        (3, 6),  # rule 10, m = 3
        (5, 6),  # rule 10, m = 5
        (7, 6),  # rule 10, m = 3 mod 4
        (9, 10),  # rule 10, m = 1 mod 4
        (13, 6),  # rule 10, larger m = 1 mod 4
        (11, 14),  # rule 10, larger m = 3 mod 4
    ],
)
def test_every_route_verifies(m, r):
    n = r if m == 2 else (m * r) // 2
    array, trace = construct(m, n, r)
    assert verify_smr(array, Params(m, n, r, 2)).ok
    assert replay(trace) == array


@pytest.mark.parametrize(
    "m,r",
    [(2, 8), (6, 8), (4, 12), (6, 6), (10, 10), (3, 4), (9, 4), (3, 6), (9, 10)],
)
def test_shiftable_routes(m, r):
    # rules 1, 5, 6, 9 and 10 promise shiftable output
    n = r if m == 2 else (m * r) // 2
    array, _ = construct(m, n, r)
    assert is_shiftable(array)


def test_construct_is_deterministic():
    first = construct(9, 63, 14)
    second = construct(9, 63, 14)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_trace_replay_matches_everywhere():
    for m, r in [(2, 11), (6, 7), (8, 10), (5, 8), (7, 6), (12, 5)]:
        n = r if m == 2 else (m * r) // 2
        array, trace = construct(m, n, r)
        assert replay(trace) == array


def test_every_sweep_trace_pinned():
    # any added, dropped or reordered step on any route changes the digest
    digest = hashlib.sha256()
    points = 0
    for m in range(2, 41):
        for r in range(3, 41):
            n = r if m == 2 else (m * r) // 2
            if feasibility(m, n, r).feasible:
                _, trace = construct(m, n, r)
                digest.update(f"{m},{n},{r}\n{trace}\n".encode())
                points += 1
    assert points == 1103
    assert digest.hexdigest() == (
        "15eee29429ef191275a2f0282c1f4b37bdfb7b0cc4d36fd8e3229c1b634e812e"
    )


def test_sweep_outputs_validate_and_flags_hold():
    # construct skips validation on its intermediates and its layouts carry
    # their shiftability, so recheck both everywhere on the sweep grid; each
    # intermediate layout is materialized to be checked
    for m in range(2, 41):
        for r in range(3, 41):
            n = r if m == 2 else (m * r) // 2
            if not feasibility(m, n, r).feasible:
                continue
            a, trace = construct(m, n, r)
            assert a == SignedArray(a.rows, a.cols, dict(a.cells)), (m, r)
            stack: list = []
            for st in trace.steps:
                _apply(st, stack)
                top = stack[-1]
                array = top.array if isinstance(top, CompactBlock) else top.materialize()
                assert array == SignedArray(array.rows, array.cols, dict(array.cells))
                if isinstance(top, Layout):
                    assert top.shiftable == is_shiftable(array), (m, r, str(st))


def test_seed_layouts_are_built_once_with_their_flag():
    for sid in SEED_IDS:
        layout = _seed_layout(sid)
        assert _seed_layout(sid) is layout
        assert layout.shiftable == is_shiftable(seed(sid)[0]), sid


def test_construct_scans_no_operand_for_shiftability(monkeypatch):
    # every operand that an inflation or a join's first place needs shiftable
    # is a seed, an inflation or a join whose fixed operand is a shiftable
    # seed, so its layout already knows: no route rescans an array.  Each
    # seed's layout is scanned once, when first built, so build them all
    # first; construct's kept pieces are cleared, so that each is built again
    for sid in SEED_IDS:
        _seed_layout(sid)
    _piece.cache_clear()
    scans = []
    monkeypatch.setattr(transforms, "is_shiftable", lambda a: scans.append(a) or is_shiftable(a))
    for m in range(2, 13):
        for r in range(3, 15):
            n = r if m == 2 else (m * r) // 2
            if feasibility(m, n, r).feasible:
                construct(m, n, r)
    assert scans == []


def _sweep_points() -> list[tuple[int, int, int]]:
    points = [(m, r if m == 2 else m * r // 2, r) for m in range(2, 41) for r in range(3, 41)]
    return [point for point in points if feasibility(*point).feasible]


def _rows_and_items(a: SignedArray) -> tuple:
    return a.rows, a.cols, list(a.cells.items())


def test_kept_pieces_build_what_replay_builds():
    # row-major items and shape at every feasible sweep point: first as each
    # piece is built, then from the pieces kept
    points = _sweep_points()
    assert len(points) == 1103
    _piece.cache_clear()
    for warm in (False, True):
        for m, n, r in points:
            a, trace = construct(m, n, r)
            assert _rows_and_items(a) == _rows_and_items(replay(trace)), (m, r, warm)
    assert _piece.cache_info().currsize == 116


def test_a_point_above_the_row_bound_keeps_nothing():
    _piece.cache_clear()
    m = _PIECE_ROWS + 2  # even: every rule with a tail applies
    for r in (4, 5, 6, 7, 9):
        a, trace = construct(m, m * r // 2, r)
        assert a == replay(trace)
    assert _piece.cache_info().currsize == 0
    construct(_PIECE_ROWS, _PIECE_ROWS * 3, 6)
    assert _piece.cache_info().currsize == 2  # the width-4 base and the degree-6 tail


def test_kept_pieces_never_pass_the_cap():
    # each m up to the row bound has two pieces (m = 2 and odd m) or four
    # (even m > 2), more than the cap holds in all
    _piece.cache_clear()
    for m in range(2, _PIECE_ROWS + 1):
        for r in (4, 7) if m == 2 else (4, 6, 7, 9) if m % 2 == 0 else (4, 6):
            construct(m, r if m == 2 else m * r // 2, r)
            assert _piece.cache_info().currsize <= _PIECES, (m, r)
    assert _piece.cache_info().currsize == _PIECES


def test_threads_building_pieces_at_once_get_the_serial_arrays():
    points = _sweep_points()
    serial = [_rows_and_items(construct(*point)[0]) for point in points]
    _piece.cache_clear()
    start = threading.Barrier(2)
    results: list[list] = [[], []]

    def build(out: list) -> None:
        start.wait()
        out.extend(_rows_and_items(construct(*point)[0]) for point in points)

    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results[0] == serial
    assert results[1] == serial


def _st(op: str, **args: object) -> TraceStep:
    return TraceStep(op, tuple(args.items()))


S_2x4 = _st("seed", id="S_2x4")

_PUBLIC_OPS = {
    "seed": lambda seed_id: seed(seed_id)[0],
    "inflate_horizontal": inflate_horizontal,
    "inflate_diagonal": inflate_diagonal,
    "join_horizontal": join_horizontal,
    "join_diagonal": join_diagonal,
    "three_column_block": three_column_block,
    "five_column_block": five_column_block,
    "spread": spread,
}


def _chain(trace: RouteTrace) -> SignedArray:
    """Run a trace one public operator at a time, each output materialized."""
    stack: list = []
    for st in trace.steps:
        pops = len(_OPS[st.op][1])  # the step's operand count
        operands = stack[len(stack) - pops :]
        del stack[len(stack) - pops :]
        stack.append(_PUBLIC_OPS[st.op](*operands, *dict(st.args).values()))
    (a,) = stack
    return a


def _assert_replay_is_chain(trace: RouteTrace) -> SignedArray:
    lazy, chain = replay(trace), _chain(trace)
    assert (lazy.rows, lazy.cols) == (chain.rows, chain.cols), str(trace)
    assert list(lazy.cells.items()) == list(chain.cells.items()), str(trace)
    return lazy


def test_replay_equals_operator_chain_on_sweep_grid():
    # cells in row-major order and shape, at every feasible point; the
    # digest pins them as the array-per-step operators made them
    digest = hashlib.sha256()
    for m in range(2, 41):
        for r in range(3, 41):
            n = r if m == 2 else (m * r) // 2
            if feasibility(m, n, r).feasible:
                a = _assert_replay_is_chain(construct(m, n, r)[1])
                line = f"{m},{r} {a.rows}x{a.cols} {list(a.cells.items())}\n"
                digest.update(line.encode())
    assert digest.hexdigest() == (
        "c22a7f27803b06f3d8f3dc61ffef36e7dfe82f2f0ee0c85450afe1f82b014818"
    )


@pytest.mark.parametrize(
    "m,r",
    [(2, 8), (2, 7), (4, 3), (4, 5), (4, 8), (4, 6), (6, 6), (4, 9), (6, 9), (4, 7),
     (3, 4), (5, 4), (3, 6), (5, 6)],
)
def test_replay_equals_operator_chain_per_route_rule(m, r):
    # rules 1-10 in order, at their smallest row counts
    n = r if m == 2 else (m * r) // 2
    _assert_replay_is_chain(construct(m, n, r)[1])


@pytest.mark.parametrize(
    "steps",
    [
        # joins with an empty operand, on either side
        [S_2x4, S_2x4, _st("inflate_horizontal", k=0), _st("join_horizontal")],
        [S_2x4, _st("inflate_horizontal", k=0), _st("seed", id="S_2x3"), _st("join_horizontal")],
        [S_2x4, S_2x4, _st("inflate_diagonal", k=0), _st("join_diagonal")],
        [S_2x4, _st("inflate_diagonal", k=0), _st("seed", id="S_3x6"), _st("join_diagonal")],
        # an empty shiftable operand that still adds rows
        [S_2x4, _st("inflate_horizontal", k=0), S_2x4, _st("join_diagonal")],
        # an operand whose flag is unknown until it is computed
        [S_2x4, S_2x4, _st("join_horizontal"), _st("inflate_horizontal", k=2)],
        [S_2x4, S_2x4, _st("join_horizontal"), _st("inflate_diagonal", k=1)],
        # joins of joins and inflations of inflations
        [S_2x4, _st("inflate_diagonal", k=2), _st("inflate_horizontal", k=3),
         S_2x4, _st("inflate_diagonal", k=2), _st("join_horizontal"),
         _st("seed", id="S_3x6"), _st("inflate_horizontal", k=2),
         _st("inflate_horizontal", k=2), _st("join_diagonal")],
    ],
)
def test_replay_equals_operator_chain_on_edge_traces(steps):
    _assert_replay_is_chain(RouteTrace(tuple(steps)))


@pytest.mark.parametrize(
    "steps,error,message",
    [
        ([S_2x4, _st("rotate")], ValueError, r"step 2 \(rotate\): unknown trace op"),
        ([_st("seed", id="S_9x9")], ValueError, r"step 1 \(seed id=S_9x9\): unknown seed id"),
        ([_st("join_horizontal")], ValueError, r"step 1 \(join_horizontal\): needs 2"),
        ([S_2x4, _st("join_diagonal")], ValueError, r"step 2 .*needs 2 .*the stack holds 1"),
        ([_st("inflate_horizontal", k=2)], ValueError, r"step 1 .*needs 1"),
        ([_st("spread")], ValueError, r"step 1 \(spread\): needs 1"),
        ([S_2x4, _st("inflate_horizontal")], ValueError, r"step 2 .*missing argument 'k'"),
        ([_st("seed")], ValueError, r"step 1 \(seed\): missing argument 'id'"),
        ([S_2x4, _st("inflate_diagonal", k="two")], ValueError, r"step 2 .*bad argument k='two'"),
        ([S_2x4, _st("spread")], ValueError, r"step 2 .*expects CompactBlock, found SignedArray"),
        (
            [_st("seed", id="S_2x3"), _st("inflate_horizontal", k=2)],
            NotShiftableError,
            r"step 2 .*requires a shiftable array",
        ),
        (
            [S_2x4, _st("seed", id="S_3x6"), _st("join_horizontal")],
            JoinMismatchError,
            r"step 3 .*row counts differ: 2 vs 3",
        ),
        ([S_2x4, _st("inflate_horizontal", k=-1)], ValueError, r"step 2 .*nonnegative"),
        ([_st("three_column_block", m=3)], ValueError, r"step 1 .*even"),
        ([S_2x4, _st("seed", id="S_2x3")], ValueError, "trace left 2 operands"),
        ([], ValueError, "trace left 0 operands"),
        ([_st("three_column_block", m=4)], ValueError, "ends with a CompactBlock"),
        # no coercion of arguments: 2.7 is not run as 2
        ([S_2x4, _st("inflate_horizontal", k=2.7)], ValueError, r"step 2 .*bad argument k=2\.7"),
        ([S_2x4, _st("inflate_horizontal", k="3")], ValueError, r"step 2 .*bad argument k='3'"),
        ([S_2x4, _st("inflate_diagonal", k=True)], ValueError, r"step 2 .*bad argument k=True"),
        ([_st("three_column_block", m=4.0)], ValueError, r"step 1 .*bad argument m=4\.0"),
        ([_st("seed", id=7)], ValueError, r"step 1 \(seed id=7\): bad argument id=7"),
        # the operand of these steps is a layout not yet written
        (
            [S_2x4, _st("inflate_horizontal", k=2), _st("spread")],
            ValueError,
            r"step 3 .*expects CompactBlock, found SignedArray",
        ),
        (
            [S_2x4, _st("seed", id="S_2x3"), _st("join_horizontal"), _st("inflate_horizontal", k=2)],
            NotShiftableError,
            r"step 4 .*horizontal inflation requires a shiftable array",
        ),
        (
            [S_2x4, _st("inflate_diagonal", k=2), _st("seed", id="S_3x9"), _st("join_diagonal")],
            JoinMismatchError,
            r"step 4 .*row degrees differ: 4 vs 6",
        ),
        (
            [_st("three_column_block", m=4), _st("inflate_horizontal", k=2)],
            ValueError,
            r"step 2 .*expects SignedArray, found CompactBlock",
        ),
        # an empty 3x0 operand keeps its row count in a horizontal join
        (
            [_st("seed", id="S_3x6"), _st("inflate_horizontal", k=0), S_2x4,
             _st("join_horizontal")],
            JoinMismatchError,
            r"step 4 .*row counts differ: 3 vs 2",
        ),
        # a step of the wrong shape is named by its repr, which cannot fail
        ([TraceStep("seed", 5)], ValueError, r"step 1 \(TraceStep\(op='seed', args=5\)\): not a TraceStep"),
        ([TraceStep(["seed"], ())], ValueError, r"step 1 \(TraceStep\(op=\['seed'\], args=\(\)\)\): not a"),
        ([5], ValueError, r"step 1 \(5\): not a TraceStep of an op name and \(name, value\) pairs"),
        ([S_2x4, ("seed", ())], ValueError, r"step 2 \(\('seed', \(\)\)\): not a TraceStep"),
        (
            [TraceStep("seed", (("id", "S_2x4", 3),))],
            ValueError,
            r"step 1 \(TraceStep\(op='seed', args=\(\('id', 'S_2x4', 3\),\)\)\): not a TraceStep",
        ),
        ([TraceStep("seed", ((7, "S_2x4"),))], ValueError, r"step 1 \(TraceStep\(op='seed', args=\(\(7, "),
        ([TraceStep("seed", [("id", "S_2x4")])], ValueError, r"step 1 \(TraceStep\(op='seed', args=\["),
    ],
)
def test_replay_rejects_bad_traces(steps, error, message):
    # transform outputs skip validation, so these checks are what stop a
    # malformed user trace
    with pytest.raises(error, match=message):
        replay(RouteTrace(tuple(steps)))


@pytest.mark.parametrize(
    "trace, shown",
    [
        (RouteTrace(5), r"RouteTrace\(steps=5\)"),
        (RouteTrace(None), r"RouteTrace\(steps=None\)"),
        (5, "5"),
        # steps in a list, not a tuple, are refused like list args
        (RouteTrace([S_2x4]), r"RouteTrace\(steps=\[TraceStep\(op='seed'"),
    ],
)
def test_replay_rejects_a_malformed_trace(trace, shown):
    with pytest.raises(ValueError, match=f"^not a RouteTrace of a tuple of steps: {shown}"):
        replay(trace)


def test_trace_is_readable():
    _, trace = construct(2, 12, 12)
    assert str(trace) == "seed id=S_2x4\ninflate_horizontal k=3"


def test_small_sweep_all_points():
    for m in range(2, 13):
        for r in range(3, 13):
            n = r if m == 2 else (m * r) // 2
            v = feasibility(m, n, r)
            if v.feasible:
                array, _ = construct(m, n, r)
                assert verify_smr(array, Params(m, n, r, 2)).ok, (m, n, r)
            else:
                with pytest.raises(InfeasibleError):
                    construct(m, n, r)
