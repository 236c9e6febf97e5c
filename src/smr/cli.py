"""Command-line surface: generate, verify, decide, seed, oracle, crosscheck, sweep.

Exit codes: 0 success, 1 internal error, parse failure or output that cannot
be written, 2 infeasible parameters, 3 verification failure or cross-check
disagreement, 4 search budget cutoff, 64 bad usage.  Output is deterministic:
no timestamps, no randomness, no environment variables; stdout is
byte-identical across runs for fixed arguments.  oracle --stats adds
timings on stderr, which vary.
"""

# The docstring above is also the description `smr --help` prints.  Opt-in
# diagnostics (gen --trace, oracle --stats) go to stderr, so stdout is the
# same with or without them.  `main` builds its parser once per process, on
# its first call (see `build_parser`), runs the handler each subparser sets
# as `run`, and returns 0 from the `SystemExit` with which argparse ends --help.
# A request too large for memory (a huge shape, or the state of a search
# over a huge m) ends in one stderr line and exit 1, not a traceback, and so
# does one whose size does not even fit an index (past 2^63); a grid that
# `gen` or `oracle --witness` can size up front as too large is a usage
# error.  A standard stream that is None is stood in for while `main` runs:
# stdout refuses every write, as a closed pipe does, so the command exits 1,
# and stderr drops what is written to it.  Each command imports the modules
# it runs, so `verify` loads no construction or search.

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections.abc import Sequence

from . import formats
from .core import Params, verify_smr

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_CUTOFF = 4
EXIT_USAGE = 64

# the largest grid `gen` or `oracle --witness` writes; a larger one is refused
_GRID_BYTES = 1 << 30


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the taxonomy here wants 64
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    # argparse's own print_help drops a failed write; this lets it reach `main`
    def print_help(self, file=None) -> None:
        print(self.format_help(), end="", file=file)


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.set_defaults(format="grid")
    for name, doc in (("grid", "a grid (the default)"), ("json", "JSON"), ("csv", "CSV")):
        text = f"print the array as {doc}"
        p.add_argument(f"--{name}", action="store_const", const=name, dest="format", help=text)


def _write(a, p: Params, fmt: str) -> None:
    """Write the array to stdout: JSON and CSV piece by piece as the writer
    yields them, the grid as one string.  Only ``write`` is called, which
    every stand-in stdout has."""
    if fmt == "json":
        pieces = formats._json_pieces(a, p)
    elif fmt == "csv":
        pieces = formats._csv_pieces(a, p)
    else:
        pieces = (formats.to_grid(a),)
    for piece in pieces:
        sys.stdout.write(piece)


def _budget(args: argparse.Namespace) -> int:
    """The node budget asked for, or the search's own default."""
    if args.budget is None:
        from .oracle import DEFAULT_BUDGET

        return DEFAULT_BUDGET
    if args.budget < 0:
        raise _UsageError(f"--budget must be >= 0, got {args.budget}")
    return args.budget


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `smr` parser, built on the first call and shared by every later
    one (building it costs far more than a small command): callers must not
    change it."""
    parser = _Parser(prog="smr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="construct an (m, n; r, 2) rectangle")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("m", type=int)
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("r", type=int)
    _add_format_flags(p_gen)
    p_gen.add_argument(
        "--trace", action="store_true", help="write the applied operator sequence on stderr"
    )

    p_verify = sub.add_parser("verify", help="check a serialized array against the axioms")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("path")

    p_decide = sub.add_parser("decide", help="print the feasibility verdict")
    p_decide.set_defaults(run=_cmd_decide)
    p_decide.add_argument("m", type=int)
    p_decide.add_argument("n", type=int)
    p_decide.add_argument("r", type=int)

    p_seed = sub.add_parser("seed", help="print a catalog seed")
    p_seed.set_defaults(run=_cmd_seed)
    p_seed.add_argument("id", metavar="id")
    _add_format_flags(p_seed)

    p_oracle = sub.add_parser("oracle", help="decide existence by exhaustive search")
    p_oracle.set_defaults(run=_cmd_oracle)
    p_oracle.add_argument("m", type=int)
    p_oracle.add_argument("r", type=int)
    p_oracle.add_argument("--budget", type=int)
    p_oracle.add_argument("--witness", action="store_true")
    p_oracle.add_argument(
        "--stats", action="store_true",
        help="write the search's counters and speed as one JSON line on stderr",
    )
    _add_format_flags(p_oracle)

    p_cross = sub.add_parser(
        "crosscheck", help="compare exhaustive search against the existence criterion"
    )
    p_cross.set_defaults(run=_cmd_crosscheck)
    p_cross.add_argument("--max-m", type=int, required=True)
    p_cross.add_argument("--max-r", type=int, required=True)
    p_cross.add_argument("--budget", type=int)

    p_sweep = sub.add_parser(
        "sweep", help="construct and verify every feasible point in a parameter grid"
    )
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("--max-m", type=int, required=True)
    p_sweep.add_argument("--max-r", type=int, required=True)

    return parser


def _grid_bytes(m: int, n: int) -> int:
    """The length of `to_grid`'s text for a constructed (m, n; r, 2) array:
    m rows of n fields, each as wide as its longest entry, -n (it holds
    +-1..+-n), plus a separator."""
    return m * n * (len(str(-n)) + 1)


def _check_grid(m: int, n: int, fmt: str) -> None:
    """Refuse, as bad usage, to write a built (m, n; r, 2) array as a grid
    over `_GRID_BYTES`."""
    size = _grid_bytes(m, n) if fmt == "grid" else 0
    if size > _GRID_BYTES:
        raise _UsageError(f"the grid would take {size} bytes, over 1 GiB: use --json or --csv")


def _cmd_gen(args: argparse.Namespace) -> int:
    from .criterion import feasibility
    from .dispatch import construct

    verdict = feasibility(args.m, args.n, args.r)
    if not verdict.feasible:
        print(verdict, file=sys.stderr)
        return EXIT_INFEASIBLE
    _check_grid(args.m, args.n, args.format)
    array, trace = construct(args.m, args.n, args.r)
    params = Params(args.m, args.n, args.r, 2)
    _write(array, params, args.format)
    if args.trace:
        sys.stdout.flush()  # so that 2>&1 still puts the trace after the array
        sys.stderr.write("".join(f"# trace: {step}\n" for step in trace.steps))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is skipped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        array, params = formats.read(text)
        del text  # so that the text and verify_smr's tallies are never held at once
    except ValueError as exc:  # formats.ParseError among them
        print(f"parse failure in {args.path}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report = verify_smr(array, params)
    print(report)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_decide(args: argparse.Namespace) -> int:
    from .criterion import feasibility

    verdict = feasibility(args.m, args.n, args.r)
    print(verdict)
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def _cmd_seed(args: argparse.Namespace) -> int:
    from .seeds import seed

    try:
        array, params = seed(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    _write(array, params, args.format)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import decide

    budget = _budget(args)
    start = time.perf_counter()
    outcome = decide(args.m, args.r, budget)
    elapsed = time.perf_counter() - start
    witness = outcome.witness if args.witness else None  # None unless it exists
    if witness is not None:
        _check_grid(witness.rows, witness.cols, args.format)
    if args.stats:
        import json

        stats = {"nodes": outcome.nodes, **outcome.stats._asdict()}
        stats["elapsed_s"] = round(elapsed, 6)
        stats["nodes_per_s"] = round(outcome.nodes / elapsed) if elapsed > 0 else 0
        stats["pruned"] = stats.pop("pruned")  # last, after the keys of earlier releases
        print(json.dumps(stats), file=sys.stderr)
    print(f"{outcome.status} (nodes: {outcome.nodes})")
    if witness is not None:
        params = Params(witness.rows, witness.cols, args.r, 2)
        _write(witness, params, args.format)
    if outcome.status == "cutoff":
        return EXIT_CUTOFF
    return EXIT_OK if outcome.status == "exists" else EXIT_INFEASIBLE


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    from .oracle import cross_check

    report = cross_check(args.max_m, args.max_r, _budget(args))
    print(report)
    if report.disagreements:
        return EXIT_VERIFY_FAILED
    if report.cutoffs:
        return EXIT_CUTOFF
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .dispatch import InfeasibleError, construct

    built = 0
    rejected = 0
    failures: list[str] = []
    for m in range(2, args.max_m + 1):
        for r in range(3, args.max_r + 1):
            n = (m * r) // 2
            try:
                array, _ = construct(m, n, r)
                report = verify_smr(array, Params(m, n, r, 2))
            except InfeasibleError:
                rejected += 1
                continue
            except Exception as exc:  # a feasible point must never fail
                failures.append(f"construct({m},{n},{r}) raised {exc!r}")
                continue
            if report.ok:
                built += 1
            else:
                failures.append(f"construct({m},{n},{r}) fails verification: {report}")
    print(
        f"sweep m=2..{args.max_m} r=3..{args.max_r}: "
        f"{built} constructed and verified, {rejected} infeasible rejected"
    )
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return EXIT_INTERNAL
    print("all pass")
    return EXIT_OK


def _drop_stdout() -> None:
    """Point the stdout file descriptor at the null device, so that the
    interpreter's own flush at exit drops what could not be written instead
    of failing a second time.  Not a file: nothing flushes it at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


class _Missing:
    """Stands in for a standard stream that is None, as it is when a program
    runs without one.  A write to a missing stdout fails as one to a closed
    pipe does; a write to a missing stderr is dropped."""

    def __init__(self, refuse: bool):
        self.refuse = refuse

    def write(self, text: str) -> int:
        if self.refuse:
            raise OSError("standard output is missing")
        return len(text)

    def flush(self) -> None:
        pass


def main(argv: Sequence[str] | None = None) -> int:
    missing = sys.stdout is None, sys.stderr is None
    if missing[0]:
        sys.stdout = _Missing(refuse=True)
    if missing[1]:
        sys.stderr = _Missing(refuse=False)
    try:
        return _main(argv)
    finally:
        if missing[0]:
            sys.stdout = None
        if missing[1]:
            sys.stderr = None


def _main(argv: Sequence[str] | None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse's exit after --help printed its text
            code = exc.code
        else:
            code = args.run(args)
        sys.stdout.flush()  # a write that fails fails here, not at exit
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # stdout refused the output: a closed pipe, a full disk
        _drop_stdout()
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("out of memory: the request needs more memory than is available", file=sys.stderr)
        return EXIT_INTERNAL
    except OverflowError as exc:  # a size past what a list or an index can hold
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
