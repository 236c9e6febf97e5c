"""The four workloads: inputs made from the seed, the operations of one pass,
and the checks on every output.

Every call into smr goes through ``t.call(span_name, fn, *args)``, which is a
plain call when tracing is off.  Work that only the traced run does (stepping
through route traces, re-validating outputs, in-process CLI runs) sits under
``if t.enabled``.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from smr import (
    InfeasibleError,
    Params,
    SignedArray,
    construct,
    decide,
    feasibility,
    from_csv,
    from_json,
    is_shiftable,
    seed,
    to_csv,
    to_grid,
    to_json,
    verify_smr,
)
from smr import cli, direct, transforms
from tracing import NullTracer

YES = "yes"  # the correct answer is an array: built, found or accepted
NO = "no"  # the correct answer is a rejection: infeasible, not_exists, bad input
BUDGETED = "budgeted"  # a budgeted search: a cutoff is a correct answer
MIXED = "mixed"  # several decisions, some of each answer

CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    label: str
    answer: str
    run: Callable  # run(tracer) -> filled cells the operation output or read
    probe: bool = False  # known-defect probe: reported apart from the checked operations


@dataclass
class Workload:
    ops: list[Op]
    nominal_pass_s: float  # pass time at the parent commit; sets the pass count
    # Checks made once while the inputs are made, and those that failed.
    prepared: int = 0
    prepare_failures: list = field(default_factory=list)
    startup_costs: Callable | None = None  # traced run only: extra per-layer metrics


@dataclass
class Context:
    work_dir: str
    env: dict


def criterion(m: int, n: int, r: int) -> tuple[bool, str]:
    """The (m, n; r, 2) existence criterion with the reason precedence that
    ``smr.feasibility`` documents; the reference the sweep is checked against."""
    if m < 2 or n < 1 or r < 1:
        return False, "FAIL_SMALL"
    if m == 2:
        if n != r:
            return False, "FAIL_ARITH"
        return (True, "OK_M2") if r % 4 in (0, 3) else (False, "FAIL_M2_RESIDUE")
    if m % 2 == 1 and r % 2 == 1:
        return False, "FAIL_PARITY"
    if m * r != 2 * n:
        return False, "FAIL_ARITH"
    if r < 3:
        return False, "FAIL_SMALL"
    return True, "OK_GENERAL"


# --- shared steps -----------------------------------------------------------

def _cells(a: SignedArray) -> dict:
    return {"cells": len(a.cells)}


def _cells_out(a: SignedArray) -> dict:
    return {"cells_out": len(a.cells)}


def _nbytes(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _verify(t, a: SignedArray, p: Params, what: str) -> None:
    report = t.call("core.verify_smr", verify_smr, a, p, measure=lambda _: _cells(a))
    if not report.ok:
        raise CheckFailed(f"{what} fails verify_smr: {str(report).splitlines()[0]}")


def _check_parsed(parsed, a: SignedArray, p: Params, fmt: str) -> SignedArray:
    a2, p2 = parsed
    if p2 != p or a2 != a:
        raise CheckFailed(f"{fmt} round trip changed the array or its parameters")
    if any(type(e) is not int for e in a2.cells.values()):
        raise CheckFailed(f"{fmt} round trip produced non-int entries")
    return a2


_STEPS = {
    "inflate_horizontal": transforms.inflate_horizontal,
    "inflate_diagonal": transforms.inflate_diagonal,
    "join_horizontal": transforms.join_horizontal,
    "join_diagonal": transforms.join_diagonal,
    "three_column_block": direct.three_column_block,
    "five_column_block": direct.five_column_block,
    "spread": direct.spread,
}


def _replay(t, trace) -> SignedArray:
    """Execute a RouteTrace one public operator at a time, a span per step."""
    stack: list = []
    for step in trace.steps:
        args = dict(step.args)
        op = step.op
        if op == "seed":
            stack.append(t.call("seeds.seed", seed, str(args["id"]))[0])
        elif op.startswith("inflate_"):
            stack.append(t.call(f"transforms.{op}", _STEPS[op], stack.pop(), int(args["k"]), measure=_cells_out))
        elif op.startswith("join_"):
            b = stack.pop()
            stack.append(t.call(f"transforms.{op}", _STEPS[op], stack.pop(), b, measure=_cells_out))
        elif op.endswith("_column_block"):
            stack.append(t.call(f"direct.{op}", _STEPS[op], int(args["m"]),
                                measure=lambda blk: _cells_out(blk.array)))
        elif op == "spread":
            stack.append(t.call("direct.spread", direct.spread, stack.pop(), measure=_cells_out))
        else:
            raise CheckFailed(f"route trace has unknown step {op!r}")
    if len(stack) != 1:
        raise CheckFailed(f"route trace left {len(stack)} operands")
    return stack[0]


def _construct(t, m: int, n: int, r: int) -> SignedArray:
    """construct, plus in traced runs the step-by-step replay of its trace and
    the cost of re-validating the output and testing its shiftability."""
    a, trace = t.call("dispatch.construct", construct, m, n, r, measure=lambda res: _cells(res[0]))
    if t.enabled:
        if t.call("bench.replay", _replay, t, trace) != a:
            raise CheckFailed(f"replaying the route trace of ({m},{n},{r}) gives another array")
        _output_costs(t, a)
    return a


def _output_costs(t, a: SignedArray) -> None:
    again = t.call("core.SignedArray", SignedArray, a.rows, a.cols, a.cells, measure=lambda _: _cells(a))
    if again != a:
        raise CheckFailed("re-validating an output changed it")
    t.call("core.is_shiftable", is_shiftable, a, measure=lambda _: _cells(a))


# --- build-large ------------------------------------------------------------

BUILD_CELLS = 30_000


def _r_near(m: int, residue: int) -> int:
    """r = residue (mod 4) with m * r closest to BUILD_CELLS."""
    return 4 * round((BUILD_CELLS / m - residue) / 4) + residue


def build_large_shapes(rng) -> list[tuple[int, int, int, int]]:
    """(rule, m, n, r) for route rules 1-10 of construct at about BUILD_CELLS
    cells.  Rules 1-4 fix the shape; for 5-10 the seed picks m."""
    shapes = [
        (1, 2, _r_near(2, 0)),
        (2, 2, _r_near(2, 3)),
        (3, 2 * round(BUILD_CELLS / 6), 3),
        (4, 2 * round(BUILD_CELLS / 10), 5),
    ]
    for rule, parity, residue in ((5, 0, 0), (6, 0, 2), (7, 0, 1), (8, 0, 3), (9, 1, 0), (10, 1, 2)):
        m = rng.randrange(16, 97, 2) + parity
        shapes.append((rule, m, _r_near(m, residue)))
    return [(rule, m, r if m == 2 else m * r // 2, r) for rule, m, r in shapes]


def _pipeline(rule: int, m: int, n: int, r: int) -> Op:
    p = Params(m, n, r, 2)

    def run(t) -> int:
        a = _construct(t, m, n, r)
        _verify(t, a, p, "constructed array")
        text = t.call("formats.to_json", to_json, a, p, measure=_nbytes)
        parsed = _check_parsed(t.call("formats.from_json", from_json, text, measure=lambda _: _nbytes(text)), a, p, "JSON")
        _verify(t, parsed, p, "parsed JSON")
        text = t.call("formats.to_csv", to_csv, a, p, measure=_nbytes)
        _check_parsed(t.call("formats.from_csv", from_csv, text, measure=lambda _: _nbytes(text)), a, p, "CSV")
        return len(a.cells)

    return Op(f"rule {rule} ({m},{n},{r})", YES, run)


def _tampered_json(a: SignedArray, p: Params, value) -> str:
    """Canonical JSON of ``a`` with the entry 1 replaced by ``value``."""
    obj = json.loads(to_json(a, p))
    cell = next(c for c in obj["cells"] if c[2] == 1)
    cell[2] = value
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _rejects_json(text: str, what: str) -> Op:
    def run(t) -> int:
        try:
            t.call("formats.from_json", from_json, text, measure=lambda _: _nbytes(text))
        except ValueError:  # ParseError is a ValueError
            return 0
        raise CheckFailed(f"from_json accepted a cell entry of {what}")

    return Op(f"tampered JSON, entry {what}", NO, run, probe=True)


def build_large(rng, ctx: Context) -> Workload:
    shapes = build_large_shapes(rng)
    ops = [_pipeline(*shape) for shape in shapes]
    _, m, n, r = shapes[0]  # rule 1: the same shape for every seed
    a, _ = construct(m, n, r)
    p = Params(m, n, r, 2)
    # Known defect: from_json coerces cells with int(), so these parse today.
    ops += [_rejects_json(_tampered_json(a, p, 1.9), "1.9"), _rejects_json(_tampered_json(a, p, True), "true")]
    rng.shuffle(ops)
    return Workload(ops, nominal_pass_s=2.2)


# --- sweep ------------------------------------------------------------------

SWEEP_MAX_M = 40
SWEEP_MAX_R = 40


def _sweep_point(m: int, n: int, r: int) -> Op:
    feasible, reason = criterion(m, n, r)

    def run(t) -> int:
        verdict = t.call("dispatch.feasibility", feasibility, m, n, r)
        if (verdict.feasible, verdict.reason) != (feasible, reason):
            raise CheckFailed(f"feasibility says {verdict}, expected {reason}")
        if feasible:
            a = _construct(t, m, n, r)
            _verify(t, a, Params(m, n, r, 2), "constructed array")
            return len(a.cells)
        try:
            t.call("dispatch.construct", construct, m, n, r)
        except InfeasibleError as exc:
            if exc.verdict.reason != reason:
                raise CheckFailed(f"rejected with {exc.verdict.reason}, expected {reason}") from None
            return 0
        raise CheckFailed("construct succeeded on infeasible parameters")

    return Op(f"sweep ({m},{n},{r})", YES if feasible else NO, run)


def sweep(rng, ctx: Context) -> Workload:
    """The `smr sweep` semantics: n = r at m = 2, else n = floor(m r / 2)."""
    ops = [
        _sweep_point(m, r if m == 2 else m * r // 2, r)
        for m in range(2, SWEEP_MAX_M + 1)
        for r in range(3, SWEEP_MAX_R + 1)
    ]
    rng.shuffle(ops)
    return Workload(ops, nominal_pass_s=0.9)


# --- search -----------------------------------------------------------------

SEARCH_GRID = (6, 8)  # the cross_check grid: every (m, r) up to these
# (m, r, budget): witnesses found, refutations and budget cutoffs.  Each takes
# well under a second, so that a run holds many passes: on a shared machine,
# a few long searches give timings that vary too much between runs.
SEARCH_HARD = (
    (8, 3, None), (4, 15, None), (4, 17, None), (3, 20, None), (6, 9, None), (7, 10, None), (4, 19, None),
    (2, 17, None), (2, 18, None), (2, 21, None),
    (8, 5, 100_000), (10, 5, 100_000),
)
# Known defect: decide(2, n) with n past the recursion limit raises RecursionError.
SEARCH_PROBE = (2, 1202, 20_000)


def _decide_checked(t, m: int, r: int, budget: int | None, seen_nodes: dict) -> int:
    """One decision, checked against feasibility; returns the witness cells."""
    n = (m * r) // 2
    args = (m, r) if budget is None else (m, r, budget)
    outcome = t.call("oracle.decide", decide, *args,
                     measure=lambda o: {"nodes": o.nodes, "cutoffs": int(o.status == "cutoff")})
    if seen_nodes.setdefault((m, r), outcome.nodes) != outcome.nodes:
        raise CheckFailed(f"decide({m},{r}) took {outcome.nodes} nodes, before {seen_nodes[m, r]}")
    verdict = t.call("dispatch.feasibility", feasibility, m, n, r)
    if outcome.status == "cutoff":
        if budget is None:
            raise CheckFailed(f"decide({m},{r}) cut off under the default budget")
        return 0
    if (outcome.status == "exists") != verdict.feasible:
        raise CheckFailed(f"decide({m},{r}) says {outcome.status}, feasibility says {verdict}")
    if outcome.status != "exists":
        return 0
    w = outcome.witness
    _verify(t, w, Params(m, n, r, 2), f"witness of ({m},{r})")
    if t.enabled:
        _output_costs(t, w)
    return len(w.cells)


def _decision(m: int, r: int, budget: int | None, probe: bool = False) -> Op:
    answer = BUDGETED if budget is not None else (YES if criterion(m, (m * r) // 2, r)[0] else NO)
    seen_nodes: dict = {}
    label = f"decide({m},{r})" + (f" budget {budget}" if budget else "")
    return Op(label, answer, lambda t: _decide_checked(t, m, r, budget, seen_nodes), probe=probe)


def _grid(points: list[tuple[int, int]]) -> Op:
    """The whole cross_check-style grid as one operation: most of its points
    take microseconds, too short to time one by one on a shared machine."""
    seen_nodes: dict = {}

    def run(t) -> int:
        return sum(_decide_checked(t, m, r, None, seen_nodes) for m, r in points)

    return Op(f"decide over the {SEARCH_GRID[0]}x{SEARCH_GRID[1]} grid", MIXED, run)


def search(rng, ctx: Context) -> Workload:
    max_m, max_r = SEARCH_GRID
    points = [(m, r) for m in range(1, max_m + 1) for r in range(1, max_r + 1)]
    rng.shuffle(points)
    ops = [_grid(points)] + [_decision(*point) for point in SEARCH_HARD]
    ops.append(_decision(*SEARCH_PROBE, probe=True))
    rng.shuffle(ops)
    return Workload(ops, nominal_pass_s=1.1)


# --- cli --------------------------------------------------------------------

# (m, n, r, format).  The grid ones are tall, where to_grid is quadratic;
# 1000 6000 12 is the ROADMAP baseline shape.
CLI_GEN = (
    (2, 12, 12, "grid"),
    (9, 63, 14, "json"),
    (10, 35, 7, "csv"),
    (1000, 6000, 12, "grid"),
    (400, 2400, 12, "grid"),
    (401, 2406, 12, "grid"),
    (402, 2814, 14, "grid"),
    (400, 2600, 13, "grid"),
)
# (argv, documented exit code, answer)
CLI_OTHER = (
    (["decide", "7", "14", "4"], 0, YES),
    (["decide", "2", "5", "5"], 2, NO),
    (["oracle", "4", "5", "--witness"], 0, YES),
    (["oracle", "2", "5"], 2, NO),
    (["crosscheck", "--max-m", "4", "--max-r", "6"], 0, YES),
    (["sweep", "--max-m", "10", "--max-r", "10"], 0, YES),
    (["gen", "2", "x", "12"], 64, NO),  # usage error
    (["gen", "2", "5", "5"], 2, NO),  # infeasible request
)
_RENDER = {"grid": lambda a, p: to_grid(a), "json": to_json, "csv": to_csv}
_PARSE = {"json": from_json, "csv": from_csv}


def _spawn(ctx: Context, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "smr", *argv], cwd=ctx.work_dir, env=ctx.env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False,
    )


def _in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(argv: list[str], code: int, answer: str, expected: str, cells: int, render: Callable | None) -> Op:
    def run(t) -> int:
        got_code, got = t.call("cli.main", _in_process, argv)
        if got_code != code:
            raise CheckFailed(f"exit {got_code}, documented {code}")
        if got != expected:
            raise CheckFailed("stdout differs from the python -m smr subprocess")
        if t.enabled and render is not None and render(t) != expected:
            raise CheckFailed("in-process rendering differs from smr.cli.main")
        return cells

    return Op("smr " + " ".join(argv), answer, run)


def _gen_render(m: int, n: int, r: int, fmt: str) -> Callable:
    p = Params(m, n, r, 2)

    def render(t) -> str:
        a = _construct(t, m, n, r)
        _verify(t, a, p, "constructed array")
        return t.call(f"formats.to_{fmt}", _RENDER[fmt], a, p, measure=_nbytes)

    return render


def _seed_render(seed_id: str, fmt: str) -> Callable:
    def render(t) -> str:
        a, p = t.call("seeds.seed", seed, seed_id)
        return t.call(f"formats.to_{fmt}", _RENDER[fmt], a, p, measure=_nbytes)

    return render


def _verify_render(path: str, fmt: str) -> Callable:
    def render(t) -> str:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        a, p = t.call(f"formats.from_{fmt}", _PARSE[fmt], text, measure=lambda _: _nbytes(text))
        report = t.call("core.verify_smr", verify_smr, a, p, measure=lambda _: _cells(a))
        return f"{report}\n"

    return render


def _median_wall_ms(ctx: Context, code: str, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ctx.work_dir, env=ctx.env,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def cli_workload(rng, ctx: Context) -> Workload:
    """Every command through smr.cli.main in this process.  Each command also
    runs once as a `python -m smr` subprocess while the inputs are made; the
    subprocess must exit with the documented code and print what the
    in-process rendering prints, byte for byte.  Interpreter start and import
    are timed apart, in the traced run, because on a shared machine the
    subprocess times vary too much between runs to bound."""
    null = NullTracer()
    cmds = []  # (argv, documented exit code, answer, cells, in-process rendering)
    for m, n, r, fmt in CLI_GEN:
        render = _gen_render(m, n, r, fmt)
        cmds.append((["gen", str(m), str(n), str(r), f"--{fmt}"], 0, YES, m * r, render))
        if fmt != "grid":  # `smr verify` reads back a file the benchmark wrote
            path = os.path.join(ctx.work_dir, f"array.{fmt}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render(null))
            cmds.append((["verify", path], 0, YES, m * r, _verify_render(path, fmt)))
    cmds.append((["seed", "S_4x12", "--csv"], 0, YES, 24, _seed_render("S_4x12", "csv")))
    cmds += [(argv, code, answer, 20 if "--witness" in argv else 0, None) for argv, code, answer in CLI_OTHER]
    ops, failures = [], []
    for argv, code, answer, cells, render in cmds:
        proc = _spawn(ctx, argv)
        stdout = proc.stdout.decode("utf-8", "replace")
        expected = stdout if render is None else render(null)
        if proc.returncode != code:
            tail = " ".join(proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:])
            failures.append((f"python -m smr {' '.join(argv)}", f"exit {proc.returncode}, documented {code}: {tail}"))
        elif stdout != expected:
            failures.append((f"python -m smr {' '.join(argv)}", "stdout differs from the in-process rendering"))
        ops.append(_cli_op(argv, code, answer, expected, cells, render))
    rng.shuffle(ops)

    def startup_costs() -> dict:
        interpreter = _median_wall_ms(ctx, "pass")
        return {"cli.interpreter_ms": interpreter,
                "cli.import_ms": _median_wall_ms(ctx, "import smr.cli") - interpreter}

    return Workload(ops, nominal_pass_s=2.8, startup_costs=startup_costs,
                    prepared=len(cmds), prepare_failures=failures)


WORKLOADS = {"build-large": build_large, "sweep": sweep, "search": search, "cli": cli_workload}
