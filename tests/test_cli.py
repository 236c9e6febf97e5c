"""Command-line behavior: formats, exit codes, file round-trips, determinism."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr import SEED_IDS, Params, construct, from_csv, from_json, seed, to_csv, to_grid, to_json
from smr.cli import _grid_bytes, build_parser, main
from smr.oracle import DEFAULT_BUDGET

from goldens import GRID_2x12, golden


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_grid_pinned(capsys):
    code, out, _ = run_cli(capsys, "gen", 2, 12, 12, "--grid")
    assert code == 0
    assert out == to_grid(golden(GRID_2x12))


def test_gen_default_format_is_grid(capsys):
    code, out, _ = run_cli(capsys, "gen", 2, 12, 12)
    assert code == 0
    assert out == to_grid(golden(GRID_2x12))


def test_gen_json_parses_back(capsys):
    from smr import from_json

    code, out, _ = run_cli(capsys, "gen", 3, 6, 4, "--json")
    assert code == 0
    array, params = from_json(out)
    assert params == Params(3, 6, 4, 2)


def test_gen_infeasible_exit_2(capsys):
    code, out, err = run_cli(capsys, "gen", 2, 5, 5)
    assert code == 2
    assert out == ""
    assert "FAIL_M2_RESIDUE" in err


def test_gen_trace_appended(capsys):
    code, out, err = run_cli(capsys, "gen", 2, 12, 12, "--trace")
    assert code == 0
    assert out == to_grid(golden(GRID_2x12))
    assert err == "# trace: seed id=S_2x4\n# trace: inflate_horizontal k=3\n"


def test_decide_feasible(capsys):
    code, out, _ = run_cli(capsys, "decide", 2, 11, 11)
    assert code == 0
    assert out == "feasible: OK_M2\n"


def test_decide_infeasible(capsys):
    code, out, _ = run_cli(capsys, "decide", 2, 5, 5)
    assert code == 2
    assert out == "infeasible: FAIL_M2_RESIDUE\n"


def test_seed_subcommand(capsys):
    code, out, _ = run_cli(capsys, "seed", "S_2x4")
    assert code == 0
    assert out == " 1 -2 -3  4\n-1  2  3 -4\n"


def test_seed_csv_format(capsys):
    a, p = seed("S_2x3")
    code, out, _ = run_cli(capsys, "seed", "S_2x3", "--csv")
    assert code == 0
    assert out == to_csv(a, p)


def test_seed_unknown_id_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "seed", "S_9x9")
    assert code == 64
    assert "unknown seed id" in err


def test_bad_arguments_exit_64(capsys):
    code, _, err = run_cli(capsys, "gen", "two", 4, 4)
    assert code == 64
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 64


@pytest.mark.parametrize("argv", [("--help",), ("gen", "--help")])
def test_help_returns_0(capsys, monkeypatch, argv):
    """In process, --help prints what `python -m smr --help` prints and returns 0."""
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(("usage: smr", *argv[:-1], "[-h]")))
    env = {**os.environ, "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-m", "smr", *argv], capture_output=True, env=env, check=False
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")


def test_one_process_many_calls(capsys):
    """One parser serves every call, and no option of a call carries over."""
    build_parser.cache_clear()
    grid = to_grid(golden(GRID_2x12))
    json_text = to_json(golden(GRID_2x12), Params(2, 12, 12, 2))
    assert run_cli(capsys, "gen", 2, 12, 12, "--json")[:2] == (0, json_text)
    assert run_cli(capsys, "gen", 2, 12, 12) == (0, grid, "")
    code, out, _ = run_cli(capsys, "oracle", 4, 5, "--witness", "--csv")
    first, witness = out.split("\n", 1)
    assert code == 0 and witness.startswith("# m=4 n=10 r=5 s=2\n")
    assert run_cli(capsys, "oracle", 4, 5) == (0, first + "\n", "")
    code, out, err = run_cli(capsys, "gen", 2, 12, 12, "--trace")
    assert (code, out) == (0, grid) and err.startswith("# trace: ")
    assert run_cli(capsys, "gen", 2, 12, 12) == (0, grid, "")
    assert run_cli(capsys, "gen", "two", 12, 12)[:2] == (64, "")
    assert run_cli(capsys, "decide", 2, 11, 11) == (0, "feasible: OK_M2\n", "")
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "seed", "S_2x4") == (0, " 1 -2 -3  4\n-1  2  3 -4\n", "")
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def test_verify_round_trip_json(tmp_path, capsys):
    a, p = seed("S_2x4")
    path = tmp_path / "a.json"
    path.write_text(to_json(a, p), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    assert out == "pass\n"


def test_verify_generated_file_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", 9, 63, 14, "--csv")
    assert code == 0
    path = tmp_path / "a.csv"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0


def test_verify_tampered_file_exit_3(tmp_path, capsys):
    a, p = seed("S_2x4")
    text = to_csv(a, p)
    lines = text.splitlines()
    del lines[2]  # drop one cell: row count and support both break
    path = tmp_path / "broken.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 3
    assert "row_count" in out and "support" in out


def test_verify_parse_failure_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 2, broken', encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "parse failure" in err
    # a float entry is a parse failure, not an entry int() would read as 1
    a, p = seed("S_2x3")
    path.write_text(to_json(a, p).replace("[1, 1, 1]", "[1, 1, 1.9]"), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "parse failure" in err
    # a file that is not UTF-8 is unreadable
    path.write_bytes(b"row,col,value\n1,1,\xff\n")
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "cannot read" in err
    # inferred parameters from a 0 index; out-of-grid and duplicate cells;
    # JSON nested past the interpreter's recursion limit
    for text in (
        "row,col,value\n0,1,1\n0,2,-1\n",
        "# m=2 n=3 r=3 s=2\nrow,col,value\n3,1,1\n",
        "# m=2 n=3 r=3 s=2\nrow,col,value\n1,1,1\n1,1,-1\n",
        '{"m": ' + "[" * 100_000 + "]" * 100_000 + "}",
        # a cells value that is not an array once read as no cells (exit 3)
        '{"m": 2, "n": 3, "r": 3, "s": 2, "cells": ""}',
    ):
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 1
        assert "parse failure" in err


def test_verify_reads_the_grid_gen_writes(tmp_path, capsys):
    # the grid is gen's default format; verify tells it from JSON and CSV
    path = tmp_path / "a.txt"
    for argv in (("gen", 3, 6, 4), ("gen", 2, 12, 12)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path.write_text(out, encoding="utf-8")
        assert run_cli(capsys, "verify", path) == (0, "pass\n", "")


@pytest.mark.parametrize("fmt", ["--json", "--csv", "--grid"])
def test_verify_skips_a_leading_byte_order_mark(tmp_path, capsys, fmt):
    _, out, _ = run_cli(capsys, "gen", 3, 6, 4, fmt)
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + out.encode())
    assert run_cli(capsys, "verify", path) == (0, "pass\n", "")


def test_verify_grid_with_one_sign_flipped_exit_3(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", 3, 6, 4)
    entry = re.search(r"-?[1-9]\d*", out)
    flipped = str(-int(entry.group()))
    path = tmp_path / "flipped.txt"
    path.write_text(out[: entry.start()] + flipped + out[entry.end() :], encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 3
    assert out.startswith("fail") and "row_sum" in out


def test_verify_text_in_no_format_exit_1(tmp_path, capsys):
    # neither JSON nor CSV, so it is read as a grid, and its token is no integer
    path = tmp_path / "hello.txt"
    path.write_text("hello\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", path)
    assert (code, out) == (1, "")
    assert err == f"parse failure in {path}: bad grid token 'hello'\n"


def test_verify_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "/no/such/file.json")
    assert code == 1


def test_oracle_exists(capsys):
    code, out, _ = run_cli(capsys, "oracle", 2, 4, "--witness")
    assert code == 0
    assert out.startswith("exists (nodes: ")
    # a witness 1200 values deep, past the interpreter's recursion limit
    code, out, _ = run_cli(capsys, "oracle", 2, 1200, "--budget", 100000)
    assert (code, out) == (0, "exists (nodes: 2048)\n")


def test_oracle_not_exists(capsys):
    code, out, _ = run_cli(capsys, "oracle", 2, 5)
    assert code == 2
    assert out.startswith("not_exists")


def test_oracle_refutes_deep_m2_at_the_root(capsys):
    # a row of 1202 distinct magnitudes from 1..1201 is impossible: no search
    code, out, _ = run_cli(capsys, "oracle", 2, 1202, "--budget", 100000)
    assert (code, out) == (2, "not_exists (nodes: 1)\n")


def test_oracle_cutoff_exit_4(capsys):
    code, out, _ = run_cli(capsys, "oracle", 6, 8, "--budget", 5)
    assert code == 4
    assert out.startswith("cutoff")
    # 1177 values deep when it stops, past the interpreter's recursion limit
    code, out, _ = run_cli(capsys, "oracle", 2, 1200, "--budget", 2000)
    assert (code, out) == (4, "cutoff (nodes: 2001)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", 4, 5, "--witness", "--json"),  # exists
        ("oracle", 2, 21),  # not_exists
        ("oracle", 3, 3),  # odd m*r, no search
        ("oracle", 8, 5, "--budget", 1000),  # cutoff
    ],
)
def test_oracle_stats_leave_stdout_alone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    stats_code, stats_out, stats_err = run_cli(capsys, *argv, "--stats")
    assert (stats_code, stats_out) == (code, out)
    lines = stats_err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert list(stats) == [
        "nodes", "table_hits", "table_entries", "frames_pushed", "max_depth",
        "elapsed_s", "nodes_per_s", "pruned",
    ]
    assert f"(nodes: {stats['nodes']})" in out
    assert stats["elapsed_s"] >= 0 and stats["nodes_per_s"] >= 0


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", 4, 5, "--budget", -1),
        ("oracle", 3, 3, "--budget", -3),  # odd m*r: no search, still checked
        ("crosscheck", "--max-m", 3, "--max-r", 3, "--budget", -2),
    ],
)
def test_negative_budget_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (64, "")
    assert "--budget must be >= 0" in err


def test_zero_budget_cuts_off_at_the_first_node(capsys):
    assert run_cli(capsys, "oracle", 4, 5, "--budget", 0)[:2] == (4, "cutoff (nodes: 1)\n")


def test_crosscheck_clean(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--max-m", 4, "--max-r", 6)
    assert code == 0
    assert "0 disagreements, 0 cutoffs" in out


def test_crosscheck_cutoff_exit_4(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--max-m", 6, "--max-r", 8, "--budget", 3)
    assert code == 4


_DISAGREEMENTS_2x4 = """\
checked 8 parameter points: 8 disagreements, 0 cutoffs
  disagree at m=1 r=1: search says not_exists, criterion says feasible: FAIL_SMALL
  disagree at m=1 r=2: search says not_exists, criterion says feasible: FAIL_SMALL
  disagree at m=1 r=3: search says not_exists, criterion says feasible: FAIL_SMALL
  disagree at m=1 r=4: search says not_exists, criterion says feasible: FAIL_SMALL
  disagree at m=2 r=1: search says not_exists, criterion says feasible: FAIL_M2_RESIDUE
  disagree at m=2 r=2: search says not_exists, criterion says feasible: FAIL_M2_RESIDUE
  disagree at m=2 r=3: search says exists, criterion says infeasible: OK_M2
  disagree at m=2 r=4: search says exists, criterion says infeasible: OK_M2"""


def test_crosscheck_disagreements_exit_3(capsys, monkeypatch):
    """A criterion that inverts every verdict disagrees with the search at
    every point: the report lists each one, and the command exits 3."""
    from smr import oracle

    def inverted(m, n, r):
        verdict = real(m, n, r)
        return verdict._replace(feasible=not verdict.feasible)

    real = oracle.feasibility
    monkeypatch.setattr(oracle, "feasibility", inverted)
    report = oracle.cross_check(2, 4)
    assert report.ok is False
    assert str(report) == _DISAGREEMENTS_2x4
    code, out, err = run_cli(capsys, "crosscheck", "--max-m", 2, "--max-r", 4)
    assert (code, out, err) == (3, _DISAGREEMENTS_2x4 + "\n", "")


def test_sweep_small(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-m", 8, "--max-r", 8)
    assert code == 0
    assert out.endswith("all pass\n")


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "smr", *argv],
        capture_output=True,
        check=False,
    )


# what `smr gen 7 14 4 --trace` writes on stderr
_TRACE_7_14_4 = (
    b"# trace: seed id=S_2x4\n# trace: inflate_diagonal k=2\n# trace: seed id=S_3x6\n"
    b"# trace: join_diagonal\n# trace: inflate_horizontal k=1\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "2", "12", "12", "--grid"),
        ("gen", "7", "14", "4", "--json", "--trace"),
        ("sweep", "--max-m", "10", "--max-r", "10"),
    ],
)
def test_output_bytes_identical_across_runs(argv):
    first = _run_module(*argv)
    second = _run_module(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == (_TRACE_7_14_4 if "--trace" in argv else b"")


def test_import_loads_no_dataclasses():
    """Every record is a named tuple, so no smr process imports dataclasses."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import smr, smr.cli, sys; assert 'dataclasses' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=False,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stderr) == (0, b"")


def test_gen_trace_follows_the_array_in_a_merged_stream():
    """2>&1 gives the array, then the trace, as when both went to stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "smr", "gen", "7", "14", "4", "--json", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False,
        env={**os.environ, "PYTHONUNBUFFERED": ""},  # a buffered stdout would write last
    )
    a = construct(7, 14, 4)[0]
    assert done.returncode == 0
    assert done.stdout == to_json(a, Params(7, 14, 4, 2)).encode() + _TRACE_7_14_4


def test_gen_trace_follows_a_streamed_array_in_a_merged_stream():
    """10,000 cells are written in three pieces; on 2>&1 the trace still
    follows the whole array."""
    done = subprocess.run(
        [sys.executable, "-m", "smr", "gen", "100", "5000", "100", "--csv", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},  # each piece is written as it comes
    )
    a, trace = construct(100, 5000, 100)
    steps = "".join(f"# trace: {step}\n" for step in trace.steps)
    assert done.returncode == 0
    assert done.stdout == (to_csv(a, Params(100, 5000, 100, 2)) + steps).encode()


class _WriteOnly:
    """A stdout with write and flush and nothing else, such as no writelines."""

    def __init__(self):
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt,write", [("--json", to_json), ("--csv", to_csv)])
def test_write_only_stdout_gets_the_whole_text_in_pieces(fmt, write):
    out, err = _WriteOnly(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen", "100", "5000", "100", fmt])
    assert (code, err.getvalue()) == (0, "")
    assert len(out.pieces) == 5  # the head, three pieces of cells, the tail
    assert "".join(out.pieces) == write(construct(100, 5000, 100)[0], Params(100, 5000, 100, 2))


class _FailsSecond:
    """A stdout with write alone, which fails on its second call."""

    def __init__(self):
        self.calls = 0

    def write(self, text: str) -> int:
        self.calls += 1
        if self.calls == 2:
            raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [("gen", 3, 6, 4, "--json"), ("gen", 100, 5000, 100, "--csv"), ("seed", "S_2x4", "--json")],
)
def test_write_failing_part_way_exits_1_with_one_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailsSecond()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 1
    pipe = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    assert err.getvalue() == f"cannot write output: {pipe}\n"


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [("gen", 2, 4, 4, "--json"), ("decide", 2, 4, 4), ("--help",)])
def test_unwritable_stdout_exits_1(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullDisk()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 1
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert err.getvalue() == f"cannot write output: {full}\n"


# buffered, stdout fails at main's flush; unbuffered, at the command's write.
# Either way nothing may be left for the interpreter's flush at exit to fail
# on: that prints "Exception ignored" and exits 120.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv", [("gen", "2", "4", "4", "--json"), ("decide", "2", "4", "4"), ("--help",)]
)
def test_full_disk_exits_1_with_one_line(argv, unbuffered):
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "smr", *argv], stdout=full, stderr=subprocess.PIPE,
            env=env, check=False,
        )
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 1, lines
    assert len(lines) == 1 and lines[0].startswith("cannot write output: "), lines


def test_out_of_memory_exits_1_with_one_line():
    """smr gen 2 10^12 10^12 builds its array until a 256 MiB address-space
    limit stops it; main reports it in one line, not a traceback."""
    resource = pytest.importorskip("resource")  # POSIX only
    limit = 256 << 20

    def cap_memory() -> None:  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    big = str(10**12)
    done = subprocess.run(
        [sys.executable, "-m", "smr", "gen", "2", big, big, "--json"],
        capture_output=True, preexec_fn=cap_memory, check=False,
    )
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 1, lines
    assert len(lines) == 1 and lines[0].startswith("out of memory"), lines
    assert b"Traceback" not in done.stderr


def test_declared_shape_gets_a_capped_report(tmp_path):
    """A file that declares m = n = 10^12 and holds no cells is tallied by its
    cells, not its shape: under a 2 GiB address-space limit it exits 3 with
    the first 1000 violations of each count axiom and a count of the rest."""
    resource = pytest.importorskip("resource")  # POSIX only
    limit = 2 << 30
    path = tmp_path / "huge.json"
    big = 10**12
    path.write_text(f'{{"m": {big}, "n": {big}, "r": 1, "s": 1, "cells": []}}', encoding="utf-8")

    def cap_memory() -> None:  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "smr", "verify", str(path)],
        capture_output=True, preexec_fn=cap_memory, check=False, text=True,
    )
    assert (done.returncode, done.stderr) == (3, "")
    lines = done.stdout.splitlines()
    assert lines[0] == f"fail ({2 * big + 1} violations)"
    assert lines[1] == "  - row_count at row 1: 0 filled cells, expected 1"
    assert lines[1001] == "  - col_count at col 1: 0 filled cells, expected 1"
    assert lines[2001] == (
        "  - support: missing [-500000000000, -499999999999, -499999999998, -499999999997, "
        "-499999999996, -499999999995, -499999999994, -499999999993, ... (999999999992 more)], "
        "unexpected nothing"
    )
    assert lines[2002:] == [
        f"  ... and {big - 1000} more row_count violations",
        f"  ... and {big - 1000} more col_count violations",
    ]


def test_size_past_an_index_exits_1_with_one_line(tmp_path, capsys):
    """A shape past 2^63 cannot even size a list: verify_smr's tallies raise
    OverflowError before anything is allocated, and main reports it in one
    line, not a traceback.  construct refuses an n past 2^63 the same way
    before it builds anything; that case runs in a child under a 2 GiB
    address-space limit, so that a construct which tried would fail there.
    The search keeps state only for the rows it opens, so at such an m it
    refutes r = 2 at the root."""
    big = 10**22
    path = tmp_path / "big.json"
    path.write_text(f'{{"m": {big}, "n": 1, "r": 1, "s": {big}, "cells": []}}', encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", path)
    assert (code, out) == (1, "")
    assert err == "too large: cannot fit 'int' into an index-sized integer\n"
    assert run_cli(capsys, "oracle", big, 2, "--budget", 5) == (2, "not_exists (nodes: 1)\n", "")
    resource = pytest.importorskip("resource")  # POSIX only
    limit = 2 << 30

    def cap_memory() -> None:  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for n in (big, 1 << 63):
        done = subprocess.run(
            [sys.executable, "-m", "smr", "gen", "2", str(n), str(n), "--json"],
            capture_output=True, preexec_fn=cap_memory, check=False,
        )
        assert (done.returncode, done.stdout) == (1, b""), done.stderr
        assert done.stderr == (
            f"too large: n = {n} is past 2^63 - 1, the largest index or entry a cell holds\n"
        ).encode()


# negative budgets drawn as often as the others: they are the ones to reject
_budget_flag = st.tuples(st.just("--budget"), st.one_of(st.integers(-3, -1), st.integers(0, 300)))
_oracle_argv = st.tuples(
    st.just(("oracle",)),
    st.tuples(st.integers(-2, 6), st.integers(-2, 8)),
    _budget_flag,
    st.lists(st.sampled_from(["--witness", "--stats", "--json", "--csv"]), unique=True),
)
_crosscheck_argv = st.tuples(
    st.just(("crosscheck",)),
    st.tuples(st.just("--max-m"), st.integers(-2, 4), st.just("--max-r"), st.integers(-2, 6)),
    _budget_flag,
)
_decide_argv = st.tuples(
    st.just(("decide",)), st.tuples(st.integers(-2, 6), st.integers(-2, 24), st.integers(-2, 8))
)
_gen_argv = st.tuples(
    st.just(("gen",)),
    st.tuples(st.integers(-2, 12), st.integers(-2, 12), st.integers(-2, 12)),
    st.lists(st.sampled_from(["--json", "--csv", "--trace"]), unique=True),
)
_seed_argv = st.tuples(
    st.just(("seed",)),
    st.tuples(st.one_of(st.sampled_from(SEED_IDS), st.text("S_x0123456789 ", max_size=7))),
    st.lists(st.sampled_from(["--json", "--csv"]), unique=True),
)
_sweep_argv = st.tuples(
    st.just(("sweep",)),
    st.tuples(st.just("--max-m"), st.integers(-2, 8), st.just("--max-r"), st.integers(-2, 8)),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_oracle_argv, _crosscheck_argv, _decide_argv, _gen_argv, _seed_argv, _sweep_argv))
def test_small_and_negative_arguments_end_in_a_documented_exit(parts):
    argv = [str(a) for part in parts for a in part]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 64), argv
    for nodes in re.findall(r"\(nodes: (-?\d+)\)", out.getvalue()):
        assert int(nodes) >= 0, argv
    if "--stats" in argv and code != 64:
        assert json.loads(err.getvalue())["nodes"] >= 0, argv


# `smr verify` on the JSON or CSV of a small constructed array, mutated once
_VERIFY_POINTS = [(2, 4, 4), (2, 7, 7), (3, 6, 4), (4, 6, 3), (5, 10, 4), (6, 9, 3)]
_CELL = {
    "json": re.compile(r"\[(-?\d+), (-?\d+), (-?\d+)\]"),
    "csv": re.compile(r"^(-?\d+),(-?\d+),(-?\d+)$", re.MULTILINE),
}
_HUGE = "1" + "0" * 4999  # past the digit limit of int() and json.loads
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@st.composite
def _mutated_files(draw):
    """(format, array, params, text, mutation, the exit codes it may give)."""
    m, n, r = draw(st.sampled_from(_VERIFY_POINTS))
    fmt = draw(st.sampled_from(["json", "csv"]))
    a, p = construct(m, n, r)[0], Params(m, n, r, 2)
    text = to_json(a, p) if fmt == "json" else to_csv(a, p)
    cells = list(_CELL[fmt].finditer(text))
    cell = draw(st.sampled_from(cells))
    sep = ", " if fmt == "json" else "\n"
    kind = draw(st.sampled_from(["none", "truncate", "replace", "delete", "duplicate", "off grid"]))
    if kind == "none":
        return fmt, a, p, text, kind, {0}
    if kind == "truncate":
        return fmt, a, p, text[: draw(st.integers(0, len(text) - 1))], kind, {0, 1, 3}
    if kind == "replace":
        number = draw(st.sampled_from(list(re.finditer(r"-?\d+", text))))
        junk = draw(st.sampled_from(["1.9", "true", '"1"', "null", _HUGE]))
        codes = {1} if junk != _HUGE or 0 < _DIGIT_LIMIT < len(_HUGE) else {1, 3}
        return fmt, a, p, text[: number.start()] + junk + text[number.end() :], kind, codes
    if kind == "delete":
        # the cell and one separator: the one after it, or the one before the last
        start, end = cell.span()
        if text.startswith(sep, end):
            end += len(sep)
        else:
            start -= len(sep)
        return fmt, a, p, text[:start] + text[end:], kind, {3}
    if kind == "duplicate":
        end = cell.end()
        return fmt, a, p, text[:end] + sep + cell.group() + text[end:], kind, {1}
    group, value = draw(st.sampled_from([(1, 0), (1, m + 1), (2, 0), (2, n + 1)]))
    off = text[: cell.start(group)] + str(value) + text[cell.end(group) :]
    return fmt, a, p, off, kind, {1}


@settings(max_examples=300, deadline=None)
@given(_mutated_files())
def test_verify_survives_one_mutation(tmp_path_factory, case):
    fmt, a, p, text, kind, codes = case
    path = tmp_path_factory.getbasetemp() / f"mutated.{fmt}"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in codes, (kind, text[:200], err.getvalue()[:200])
    if kind == "none":
        assert out.getvalue() == "pass\n"
        assert (from_json if fmt == "json" else from_csv)(text) == (a, p)


def test_budget_default_is_the_oracle_default():
    for argv in (["oracle", "2", "5"], ["crosscheck", "--max-m", "2", "--max-r", "2"]):
        assert build_parser().parse_args(argv).budget == DEFAULT_BUDGET


@pytest.mark.parametrize("m,n,r", [(2, 4, 4), (2, 12, 12), (3, 6, 4), (7, 14, 4), (9, 63, 14), (40, 100, 5)])
def test_grid_bytes_is_the_grid_length(m, n, r):
    assert _grid_bytes(m, n) == len(to_grid(construct(m, n, r)[0]))


def test_oversize_grid_is_refused_before_it_is_built():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "smr", "gen", "2000", "1001000", "1001"], capture_output=True,
        check=False,
    )
    elapsed = time.perf_counter() - start
    lines = done.stderr.decode().splitlines()
    assert (done.returncode, done.stdout, len(lines)) == (64, b"", 1), lines
    assert lines[0] == (
        "usage error: the grid would take 18018000000 bytes, over 1 GiB: use --json or --csv"
    )
    assert elapsed < 1
    # an infeasible request of that size is still infeasible, not a usage error
    done = subprocess.run(
        [sys.executable, "-m", "smr", "gen", "2000", "1001001", "1001"], capture_output=True,
        check=False,
    )
    assert (done.returncode, done.stdout) == (2, b"")


def test_oversize_witness_grid_is_refused_before_it_is_printed(capsys, monkeypatch):
    # oracle --witness takes gen's cap: the witness of (4, 5) is a 160-byte grid
    from smr import cli

    monkeypatch.setattr(cli, "_GRID_BYTES", _grid_bytes(4, 10) - 1)
    refused = "usage error: the grid would take 160 bytes, over 1 GiB: use --json or --csv\n"
    for extra in ((), ("--stats",)):
        assert run_cli(capsys, "oracle", 4, 5, "--witness", *extra) == (64, "", refused)
    code, out, _ = run_cli(capsys, "oracle", 4, 5, "--witness", "--json")
    assert code == 0 and out.startswith("exists (nodes: 63)\n{")
    assert run_cli(capsys, "oracle", 2, 5, "--witness") == (2, "not_exists (nodes: 1)\n", "")
    monkeypatch.setattr(cli, "_GRID_BYTES", _grid_bytes(4, 10))  # at the cap: printed
    code, out, _ = run_cli(capsys, "oracle", 4, 5, "--witness")
    assert code == 0 and len(out) == len("exists (nodes: 63)\n") + 160


@pytest.mark.parametrize("argv", [["--help"], ["seed", "S_2x4"], ["gen", "3", "6", "4", "--json"]])
@pytest.mark.parametrize("stderr_too", [False, True])
def test_missing_stdout_exits_1(argv, stderr_too, monkeypatch):
    # a stdout that is None refuses every write, as a closed pipe does: one
    # line on stderr when there is one, and exit 1 either way, no traceback
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", None if stderr_too else err)
    assert main(argv) == 1
    assert sys.stdout is None and sys.stderr is (None if stderr_too else err)
    assert err.getvalue() == ("" if stderr_too else "cannot write output: standard output is missing\n")
