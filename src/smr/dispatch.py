"""Deterministic construction routing.

``construct`` routes every point that ``criterion.feasibility`` admits
through a fixed pipeline of seeds, inflations, joins and direct blocks,
recording the applied operator sequence so a result can be replayed exactly.

``replay`` runs a trace on ``transforms.Layout`` values: seeds and spread
blocks enter as one-copy runs, an inflation is one run of copies and a join
moves runs, and the array is written once, when the last step's layout is
materialized.  ``construct`` builds the two pieces a point is made of, its
width-4 base and its degree-c tail, through the same steps, then calls its
own inflation and join on them directly.  The pieces depend only on m and
r mod 4, so that every r at one m builds them once: a piece is kept as the
one-copy layout of its array, keyed by the sub-trace that builds it, for
points of at most 170 rows and at most 256 pieces (``construct`` gives
their memory); kept arrays are shared between calls, as arrays are
immutable.  The sub-traces themselves, the steps of a point's base and
tail, are built once per m and kept under the same bound of 256.
``replay`` keeps nothing of the traces it is given.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache, lru_cache

from .core import SignedArray
from .criterion import Verdict, feasibility
from .direct import CompactBlock, five_column_block, spread, three_column_block
from .seeds import seed
from .transforms import Layout


class InfeasibleError(ValueError):
    """Construction requested for parameters ruled out by the existence criterion."""

    def __init__(self, m: int, n: int, r: int, verdict: Verdict):
        super().__init__(f"no ({m}, {n}; {r}, 2) rectangle exists ({verdict.reason})")
        self.verdict = verdict


class TraceStep(namedtuple("TraceStep", "op args", defaults=((),))):
    __slots__ = ()

    def __str__(self) -> str:
        rendered = " ".join(f"{k}={v}" for k, v in self.args)
        return f"{self.op} {rendered}".rstrip()


class RouteTrace(namedtuple("RouteTrace", "steps")):
    """Ordered operator sequence; replaying it reproduces the array exactly.

    Steps form a postfix program over a stack: seed and block steps push,
    inflations and spread rewrite the top, joins pop the fixed operand then
    the shiftable operand.  ``steps`` is the tuple of ``TraceStep``s.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return "\n".join(str(s) for s in self.steps)


def _step(op: str, **kwargs: object) -> TraceStep:
    return TraceStep(op, tuple(sorted(kwargs.items())))


@cache  # the catalog is fixed and a layout immutable: one flag scan per seed
def _seed_layout(seed_id: str) -> Layout:
    return Layout.of(seed(seed_id)[0])


def _spread_layout(block: CompactBlock) -> Layout:
    a = spread(block)  # not shiftable: each row holds 3 or 5 cells, which cannot balance
    return Layout(a.rows, a.cols, len(a.cells), False, ((a, 1, 0, 0, 0, 0),))


# Trace ops: the function, the kinds of the operands it pops (a join's fixed
# operand last, as it is pushed last), and its arguments with their types.
# An array operand is a Layout on the stack.
_OPS: dict[str, tuple[Callable, tuple[type, ...], tuple[tuple[str, type], ...]]] = {
    "seed": (_seed_layout, (), (("id", str),)),
    "inflate_horizontal": (Layout.inflate_horizontal, (Layout,), (("k", int),)),
    "inflate_diagonal": (Layout.inflate_diagonal, (Layout,), (("k", int),)),
    "join_horizontal": (Layout.join_horizontal, (Layout, Layout), ()),
    "join_diagonal": (Layout.join_diagonal, (Layout, Layout), ()),
    "three_column_block": (three_column_block, (), (("m", int),)),
    "five_column_block": (five_column_block, (), (("m", int),)),
    "spread": (_spread_layout, (CompactBlock,), ()),
}


def _kind(kind: type) -> str:
    """An operand kind as traces name it: a Layout is an array."""
    return "SignedArray" if kind is Layout else kind.__name__


def replay(trace: RouteTrace) -> SignedArray:
    """Execute a trace and return the resulting array.

    A malformed trace raises ValueError: one that is not a RouteTrace of a
    tuple of steps, or one with a failing step, which the message names: a
    step that is not a TraceStep of a str op and (str, value) argument
    pairs, an unknown op or seed id, a missing argument or one not of the
    exact type (no coercion, so k=2.7, k="3" and k=True fail), too few
    operands or one of the wrong kind, or a failed precondition of the
    operator (raised as the operator's own ValueError subclass).  Operands
    left over at the end raise ValueError too.  Array operands stay layouts
    until the end, and the result equals that of the public operators
    applied one by one: the same cells, read row-major.
    """
    if not isinstance(trace, RouteTrace) or type(trace.steps) is not tuple:
        raise ValueError(f"not a RouteTrace of a tuple of steps: {trace!r:.80}")
    return _run(trace.steps).materialize()


def _run(steps: tuple[TraceStep, ...]) -> Layout:
    """The layout that ``steps`` leave: replay's loop, with the errors it lists."""
    stack: list[Layout | CompactBlock] = []
    for number, st in enumerate(steps, start=1):
        try:
            _apply(st, stack)
        except KeyError as exc:  # unknown seed id
            raise ValueError(f"trace step {number} ({_label(st)}): {exc.args[0]}") from exc
        except ValueError as exc:
            raise type(exc)(f"trace step {number} ({_label(st)}): {exc}") from exc
    if len(stack) != 1:
        raise ValueError(f"trace left {len(stack)} operands on the stack")
    if not isinstance(stack[0], Layout):
        raise ValueError(f"trace ends with a {type(stack[0]).__name__}, not an array")
    return stack[0]


def _well_formed(st: object) -> bool:
    """Whether st is a TraceStep of a str op and a tuple of (str, value) pairs."""
    if not isinstance(st, TraceStep) or type(st.op) is not str or type(st.args) is not tuple:
        return False
    for pair in st.args:  # a loop, not all(): every step of every construct runs it
        if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not str:
            return False
    return True


def _label(st: object) -> str:
    """A step as messages show it: its trace line, or its repr when it is
    malformed, whose trace line could fail to render."""
    return str(st) if _well_formed(st) else repr(st)


def _apply(st: TraceStep, stack: list[Layout | CompactBlock]) -> None:
    """Pop the operands of one step and push its result."""
    if not _well_formed(st):
        raise ValueError("not a TraceStep of an op name and (name, value) pairs")
    if st.op not in _OPS:
        raise ValueError(f"unknown trace op {st.op!r}")
    fn, kinds, params = _OPS[st.op]
    args = dict(st.args)
    values = []
    for name, kind in params:
        if name not in args:
            raise ValueError(f"missing argument {name!r}")
        if type(args[name]) is not kind:  # no coercion: 2.7, "3" and True are errors
            raise ValueError(f"bad argument {name}={args[name]!r}")
        values.append(args[name])
    if len(stack) < len(kinds):
        raise ValueError(f"needs {len(kinds)} operand(s), the stack holds {len(stack)}")
    operands = stack[len(stack) - len(kinds) :]
    for operand, kind in zip(operands, kinds):
        if not isinstance(operand, kind):
            raise ValueError(f"expects {_kind(kind)}, found {_kind(type(operand))}")
    del stack[len(stack) - len(kinds) :]
    stack.append(fn(*operands, *values))


# construct keeps the pieces of points with at most _PIECE_ROWS rows, and
# at most _PIECES pieces; a piece holds at most 6 cells a row.
_PIECE_ROWS = 170
_PIECES = 256


@lru_cache(maxsize=_PIECES)
def _piece(steps: tuple[TraceStep, ...]) -> Layout:
    """The one-copy layout of a sub-trace of construct's, kept: its steps run
    through ``_run`` as replay runs them, its array materialized once, and
    its own shiftability flag, so nothing is rescanned.  The steps are the
    key: they fix the piece exactly.  Two threads may build one piece at
    once; they build equal arrays, and the cache keeps one."""
    top = _run(steps)
    leaf = top.materialize()
    return Layout(top.rows, top.cols, top.size, top.shiftable, ((leaf, 1, 0, 0, 0, 0),))


def construct(m: int, n: int, r: int) -> tuple[SignedArray, RouteTrace]:
    """Build an (m, n; r, 2) rectangle, or raise InfeasibleError.

    Routing is deterministic (first matching rule), so identical inputs give
    identical arrays and traces:

      1. m = 2, r = 0 mod 4: inflate the 2x4 seed horizontally.
      2. m = 2, r = 3 mod 4: rule-1 width for r-3, joined after the 2x3 seed.
      3. m even, r = 3: spread three-column block.
      4. m even, r = 5: spread five-column block.
      5. m even, r = 0 mod 4: width-4 base (2x4 seed inflated diagonally to
         m rows) inflated horizontally to degree r.
      6. m even, r = 2 mod 4: degree-6 base joined after the rule-5 width
         for r-6 (empty at r = 6).
      7. m even, r = 1 mod 4, r >= 9: spread five-column block joined after
         the rule-5 width for r-5.
      8. m even, r = 3 mod 4, r >= 7: spread three-column block joined after
         the rule-5 width for r-3.
      9. m odd, r = 0 mod 4: odd-row width-4 base inflated horizontally.
     10. m odd, r = 2 mod 4: odd-row degree-6 base joined after the rule-9
         width for r-6 (empty at r = 6).

    Every rule but 3 and 4 is one formula: the width-4 base for m, inflated
    horizontally to degree r - c, joined after the degree-c tail for r mod 4
    (c = 0, 5, 6, 3; no tail and no join when c = 0).  Rules 3 and 4 are the
    tail alone.  The width-4 and degree-6 bases are one rule too: copies of
    the S_2x4 or S_4x12 seed along the diagonal, joined after a cap seed
    chosen by m mod 4 when the seed's row count does not divide m.

    The base and the tail are kept.  Their route steps, at most four
    steps each, are built once per m (and r mod 4 for the tail) at every
    m, and kept under the pieces' bound of 256, so a call builds only its
    inflation and join steps.  At m <= 170 rows, each piece is built once
    per process from its own sub-trace, which is also its key, and kept as
    a one-copy layout of its array with its own shiftability flag: at most
    256 pieces, the least recently used dropped first.  construct then
    calls ``Layout.inflate_horizontal`` and ``Layout.join_horizontal``, the
    operators that ``replay`` runs for those two steps of the trace, so it
    returns ``replay(trace)``'s array.  A piece holds at most 6m cells at
    about 24 bytes a cell, so the pieces hold at most 256 x 6 x 170 x 24 B,
    about 6 MiB (3.98 MiB for the 256 largest), and after the sweep of every
    m, r <= 40 the 116 kept pieces hold 419 KiB under tracemalloc.  A kept
    array is shared between calls, and may itself be the array returned
    (rules 3 and 4, or one copy and no tail); that is safe because arrays
    are immutable.  A taller point runs the same lines, each piece built by
    ``_run`` for it alone, and keeps nothing.

    A feasible point with n >= 2^63 raises ``OverflowError`` before anything
    is built: its column index n and entry -n do not fit the store's
    64-bit slots, and no index or entry of the array exceeds n.
    """
    verdict = feasibility(m, n, r)
    if not verdict.feasible:
        raise InfeasibleError(m, n, r, verdict)
    if n >= 1 << 63:
        raise OverflowError(f"n = {n} is past 2^63 - 1, the largest index or entry a cell holds")

    tail = _tail(m, r % 4)
    piece = _piece if m <= _PIECE_ROWS else _run  # a taller piece is built for its point alone
    if m > 2 and r in (3, 5):  # rules 3 and 4, the tail alone; m is even, since r is odd
        return piece(tail).materialize(), RouteTrace(tail)
    base = _width4(m)
    k = (r - _TAIL_DEGREE[r % 4]) // 4
    layout = piece(base).inflate_horizontal(k)
    steps = base + (_step("inflate_horizontal", k=k),)
    if tail:
        layout = layout.join_horizontal(piece(tail))
        steps += tail + (_step("join_horizontal"),)
    return layout.materialize(), RouteTrace(steps)


# Row degree c of the tail that completes degree r, indexed by r mod 4.
_TAIL_DEGREE = (0, 5, 6, 3)


@lru_cache(maxsize=_PIECES)  # a point's steps, built once per m, under the pieces' bound
def _width4(m: int) -> tuple[TraceStep, ...]:
    """Shiftable (m, 2m; 4, 2) for any m >= 2."""
    if m == 2:  # rules 1 and 2 use the bare seed, not its one-copy inflation
        return (_step("seed", id="S_2x4"),)
    return _diagonal(m, 4)


@lru_cache(maxsize=_PIECES)
def _tail(m: int, residue: int) -> tuple[TraceStep, ...]:
    """Steps for the (m, ·; c, 2) tail, c = _TAIL_DEGREE[residue]; none at c = 0."""
    if residue == 0:
        return ()
    if m == 2:
        return (_step("seed", id="S_2x3"),)
    if residue == 2:
        return _diagonal(m, 6)
    block = "five_column_block" if residue == 1 else "three_column_block"
    return (_step(block, m=m), _step("spread"))


# Diagonal bases by row degree c: (base seed, {m mod 4: cap seed}).  The cap
# fills the rows that copies of the base cannot; the copies follow it.
_DIAGONAL = {
    4: ("S_2x4", {1: "S_5x10", 3: "S_3x6"}),
    6: ("S_4x12", {1: "S_5x15", 2: "S_6x18", 3: "S_3x9"}),
}


def _rows(seed_id: str) -> int:
    return seed(seed_id)[1].m


def _diagonal(m: int, c: int) -> tuple[TraceStep, ...]:
    """Shiftable (m, cm/2; c, 2), c = 4 or 6: the base seed inflated
    diagonally, joined after the cap seed for m mod 4 when there is one."""
    base, caps = _DIAGONAL[c]
    cap = caps.get(m % 4)
    if cap is None:
        return (_step("seed", id=base), _step("inflate_diagonal", k=m // _rows(base)))
    if m == _rows(cap) and m % 2:  # odd m = 3, 5 is the cap alone
        return (_step("seed", id=cap),)
    # at even m = 6 the inflation has k = 0 and is still recorded
    k = (m - _rows(cap)) // _rows(base)
    return (
        _step("seed", id=base),
        _step("inflate_diagonal", k=k),
        _step("seed", id=cap),
        _step("join_diagonal"),
    )
