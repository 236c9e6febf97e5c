"""Benchmark for smr: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

The seed makes the inputs; smr receives only the generated inputs.  A run
times the set-up (import smr and validate the seed catalog) in fresh
interpreters, generates the inputs, then runs a fixed number of passes over
the workload's operations: --seconds divided by the workload's nominal pass
time, so that two commits run the same work.  Every output is checked.
Times are reported at a reference machine speed (see Speed).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, reports the per-layer metrics from the spans of the traced
passes, and the difference of the two pass times as bench.trace_overhead_s.
Spans are written to .bench_out/ at the repository root.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  attempted and failed count the checked operations.
Known-defect probes (inputs smr mishandles today, ROADMAP item 4) run in
every pass too.  They are reported on their own line and in error_rate, and
not in failed, so that a defect known at the parent commit does not mark
every run as incorrect.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 11
LOOP_REFERENCE_S = 0.006  # median of _loop on a 2.1 GHz x86-64 vCPU, Python 3.11
START_REFERENCE_S = 0.05  # median bare interpreter start on the same machine
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import smr\n"
    "for seed_id in smr.SEED_IDS:\n"
    "    smr.seed(seed_id)\n"
    "print(time.perf_counter() - start)\n"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SMR_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, cwd: str) -> float:
    """Median set-up time over fresh interpreters, at the reference speed.
    The first run fills the bytecode cache and is not counted."""
    def bare_start() -> None:
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, timeout=120, check=True)

    samples, speed = [], Speed(bare_start, START_REFERENCE_S)
    for i in range(SETUP_RUNS + 1):
        speed.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples) * speed.factor()


def run_pass(workload, tracer, pass_no: int, tally: dict, speed: "Speed") -> dict:
    """One pass over the operations; returns its start and end, each
    operation's time and the filled cells the operations output."""
    op_at, op_ns, cells = [], [], 0
    if tracer.enabled:
        tracer.pass_no = pass_no
    speed.sample(runs=3)
    start = time.perf_counter_ns()
    for index, op in enumerate(workload.ops):
        began = time.perf_counter_ns()
        try:
            if tracer.enabled:
                tracer.op_id = index
                cells += tracer.call("op", op.run, tracer)
            else:
                cells += op.run(tracer)
            error = None
        except Exception as exc:  # record and carry on: a failure is a result
            error = f"{type(exc).__name__}: {exc}"[:200]
        op_at.append(began)
        op_ns.append(time.perf_counter_ns() - began)
        key = "probes" if op.probe else "checked"
        tally[key] += 1
        if error is not None:
            tally[key + "_failed"] += 1
            tally["failures"][op.label, error] = tally["failures"].get((op.label, error), 0) + 1
        if speed.due():
            speed.sample()
    end = time.perf_counter_ns()
    speed.sample(runs=3)
    return {"start_ns": start, "end_ns": end, "op_at": op_at, "op_ns": op_ns, "cells": cells}


def end_to_end(workload, passes: list[dict], speed: "Speed") -> tuple[dict, list[str]]:
    """Each operation's time is its median over the passes, each run scaled
    to the reference speed of the moments around it."""
    count = len(passes)
    op_s = [
        statistics.median(p["op_ns"][i] * speed.factor(p["op_at"][i], p["op_at"][i] + p["op_ns"][i]) / 1e9
                          for p in passes)
        for i in range(len(workload.ops))
    ]
    wall = sum(op_s)
    # Each operation stands for its `count` runs.  The tail is the slowest
    # operation time with at least ten runs of slower operations beyond it.
    slower = min(len(op_s) - 1, -(-10 // count))
    values = {
        "wall_s": wall,
        "ops_per_s": len(op_s) / wall,
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": sorted(op_s, reverse=True)[slower] * 1e3,
        "cells_per_s": statistics.median(p["cells"] for p in passes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "witness_s": sum(t for t, op in zip(op_s, workload.ops) if op.answer == "yes"),
        "refute_s": sum(t for t, op in zip(op_s, workload.ops) if op.answer == "no"),
    }
    notes = [
        f"times are per pass: each operation's median over {count} passes",
        f"op_tail_ms is p{100 * (1 - slower / len(op_s)):.2f} of {len(op_s) * count} operation runs",
        f"median pass wall time as measured {statistics.median(p['end_ns'] - p['start_ns'] for p in passes) / 1e9:.6f} s",
        f"setup_s is the median of {SETUP_RUNS} fresh interpreters",
    ]
    return values, notes


def per_layer(summary: dict, extra: dict) -> dict:
    def get(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0.0)

    replay_steps_ns = get("bench.replay", "busy_ns") - get("bench.replay", "self_ns")
    decide_s = get("oracle.decide", "busy_ns") / 1e9
    special = {
        "dispatch.self_s": (get("dispatch.construct", "busy_ns") - replay_steps_ns) / 1e9,
        "oracle.nodes_per_s": get("oracle.decide", "nodes") / decide_s if decide_s else 0.0,
        **extra,
    }
    values = {}
    for name, _ in spec.PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        span, quantity = name.rsplit(".", 1)
        if quantity == "busy_s":
            values[name] = get(span, "busy_ns") / 1e9
        elif quantity == "ns_per_cell":
            cells = get(span, "cells")
            values[name] = get(span, "busy_ns") / cells if cells else 0.0
        else:
            values[name] = get(span, quantity)
    return values


class Speed:
    """The machine's speed, from the time of a fixed reference task.

    Other tenants of a shared machine slow every process on it by a factor
    that changes within a second or two.  The reference is timed at every
    pass boundary and at least every `every_s` during a pass, and a time
    measured from t0 to t1 is scaled to the speed at which the median run of
    the reference that ended between t0 - window_s and t1 + window_s takes
    `reference_s`.  The reference does not touch smr and is the same kind of
    work as what it scales: a pure-Python loop for the operations, which run
    in this process, and a bare interpreter start for the set-up, which runs
    in fresh interpreters.
    """

    def __init__(self, reference, reference_s: float, every_s: float = 0.25, window_s: float = 1.0) -> None:
        self.reference = reference
        self.reference_s = reference_s
        self.every_ns = every_s * 1e9
        self.window_ns = window_s * 1e9
        self.ends: list[int] = []
        self.durations: list[int] = []

    def sample(self, runs: int = 1) -> None:
        gc.disable()  # so that the program's live objects cannot slow the loop
        try:
            for _ in range(runs):
                start = time.perf_counter_ns()
                self.reference()
                end = time.perf_counter_ns()
                self.ends.append(end)
                self.durations.append(end - start)
        finally:
            gc.enable()

    def due(self) -> bool:
        return time.perf_counter_ns() - self.ends[-1] >= self.every_ns

    def factor(self, t0: float = 0, t1: float = float("inf")) -> float:
        """Multiplier from time measured between t0 and t1 to time at the
        reference speed."""
        lo = bisect.bisect_left(self.ends, t0 - self.window_ns)
        hi = bisect.bisect_right(self.ends, t1 + self.window_ns)
        return self.reference_s / (statistics.median(self.durations[lo:hi] or self.durations) / 1e9)


def _loop() -> int:
    cells = {}
    for i in range(20_000):
        cells[i & 255, i >> 8] = i + 1 if i & 1 else -i
    total = 0
    for (row, col), value in cells.items():
        total += value if row < col else -value
    return total


def at_reference_speed(values: dict, units: dict, factor: float) -> dict:
    return {
        name: value * factor if units[name] in ("s", "ms", "ns")
        else value / factor if units[name] in ("1/s", "cells/s")
        else value
        for name, value in values.items()
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "smr" / "__init__.py").is_file():
        print(f"perfbench: no smr package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SMR_BUDGET", None)
    work_dir = OUT / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        setup = measure_setup(env, str(work_dir))
        sys.path.insert(0, str(SRC))
        import workloads

        workload = workloads.WORKLOADS[name](random.Random(seed), workloads.Context(str(work_dir), env))
        # The inputs and the benchmark's own objects live for the whole run;
        # keep them out of the garbage collections that the operations pay for.
        gc.collect()
        gc.freeze()
        speed = Speed(_loop, LOOP_REFERENCE_S)
        count = max(1, round(seconds / workload.nominal_pass_s))
        tally = {"checked": workload.prepared, "checked_failed": len(workload.prepare_failures),
                 "probes": 0, "probes_failed": 0,
                 "failures": {failure: 1 for failure in workload.prepare_failures}}
        if trace:
            tracer = Tracer()
            plain, traced = [], []
            for i in range(max(1, round(count / 3))):
                plain.append(run_pass(workload, NullTracer(), i, tally, speed))
                traced.append(run_pass(workload, tracer, i, tally, speed))
            overhead_ns = (statistics.median(p["end_ns"] - p["start_ns"] for p in traced)
                           - statistics.median(p["end_ns"] - p["start_ns"] for p in plain))
            extra = {"bench.trace_overhead_s": overhead_ns / 1e9}
            if workload.startup_costs is not None:
                extra.update(workload.startup_costs())
            summary = tracer.summary(list(range(len(traced))))
            units = {n: spec.unit_of(n)[0] for n, _ in spec.PER_LAYER}
            factor = speed.factor()
            metrics = at_reference_speed(per_layer(summary, extra), units, factor)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            notes = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
                     "self time per traced pass, as measured:"]
            notes += [f"  {span:<32} {agg['self_ns'] / 1e9:.6f} s in {agg['calls']:.0f} calls"
                      for span, agg in sorted(summary.items(), key=lambda kv: -kv[1]["self_ns"])]
            passes = len(plain) + len(traced)
        else:
            runs = [run_pass(workload, NullTracer(), i, tally, speed) for i in range(count)]
            units = {n: u for n, u, _, _ in spec.END_TO_END}
            values, notes = end_to_end(workload, runs, speed)
            metrics = {"setup_s": setup, **values}
            factor = speed.factor()
            passes = count
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = tally["checked"] + tally["probes"]
    failed_all = tally["checked_failed"] + tally["probes_failed"]
    print(f"perfbench {name} seed={seed} trace={int(trace)} passes={passes} ops/pass={len(workload.ops)}")
    print(f"  times are at the reference speed: measured times scaled by {factor:.4f} "
          f"(reference median {speed.reference_s / factor * 1e3:.3f} ms, at reference speed "
          f"{speed.reference_s * 1e3:g} ms)")
    for metric, value in metrics.items():
        print(f"  {metric:<36} {value:>16.6f} {units[metric]}")
    print(f"  {'error_rate':<36} {failed_all / attempted:>16.6f} ({failed_all} failed of {attempted} attempted, probes included)")
    print(f"  known-defect probes: {tally['probes']} run, {tally['probes_failed']} failing")
    for (label, error), times in sorted(tally["failures"].items()):
        print(f"    FAIL x{times} {label}: {error}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": tally["checked_failed"] == 0,
        "attempted": tally["checked"],
        "failed": tally["checked_failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        spec.write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
