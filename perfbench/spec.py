"""What the benchmark measures: workloads, metrics, bounds, and which
end-to-end metric each per-layer metric is expected to move.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 perfbench/run.py --write-manifest``.  Its keys are fixed, so the
expected effect of each per-layer metric (``moves`` and ``holds``) is kept
here only.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20

# Why each workload exists; one line each.
WORKLOADS = {
    "build-large": "one ~30k-cell array per route rule 1-10 through construct, verify and the JSON and CSV round trips: per-cell work and bytes per cell",
    "sweep": "every point of the m=2..40, r=3..40 grid built and verified or rejected: fixed per-call costs of dispatch, seeds, transforms and validation",
    "search": "oracle.decide on a 6x8 grid plus witness, refutation and budget-cutoff points: almost all exhaustive-search time, exact node counts",
    "cli": "every smr command through smr.cli.main in process, byte-checked against python -m smr: argparse, commands, and to_grid on tall arrays",
}

# (name, unit, better, bound)
# Bounds are wide because on a shared 2-vCPU x86-64 machine, run-to-run
# spreads of 2-13% were seen even at the reference speed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("cells_per_s", "cells/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("witness_s", "s", "lower", 0.2),
    ("refute_s", "s", "lower", 0.25),
]

# Expected effects of a change to each layer: the end-to-end metrics and
# workloads it should move, and the workloads where it should not.
_CONSTRUCTION = {
    "moves": [("op_p50_ms", "sweep"), ("ops_per_s", "sweep"), ("cells_per_s", "build-large")],
    "holds": ["search"],
}
_VERIFY = {"moves": [("cells_per_s", "build-large"), ("cells_per_s", "sweep")], "holds": ["search"]}
_SERIALIZE = {"moves": [("wall_s", "build-large"), ("cells_per_s", "build-large")], "holds": ["sweep", "search"]}
_GRID = {"moves": [("wall_s", "cli"), ("op_tail_ms", "cli")], "holds": ["build-large", "sweep"]}
_ORACLE = {"moves": [("witness_s", "search"), ("refute_s", "search"), ("wall_s", "search")], "holds": ["build-large", "sweep"]}
_IMPORT = {"moves": [("setup_s", w) for w in WORKLOADS], "holds": []}
_INTERPRETER = {"moves": [], "holds": list(WORKLOADS)}  # Python itself, not smr
_CLI_MAIN = {"moves": [("wall_s", "cli")], "holds": ["build-large", "sweep", "search"]}
_OVERHEAD = {"moves": [], "holds": list(WORKLOADS)}

_QUANTITY_UNITS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "cells": ("count", "lower"),
    "cells_out": ("count", "lower"),
    "bytes": ("bytes", "lower"),
    "ns_per_cell": ("ns", "lower"),
    "nodes": ("count", "lower"),
    "cutoffs": ("count", "lower"),
    "nodes_per_s": ("1/s", "higher"),
    "interpreter_ms": ("ms", "lower"),
    "import_ms": ("ms", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def _layer(effect, *names):
    return [(name, effect) for name in names]


def _each(spans, quantities):
    return [f"{span}.{q}" for span in spans for q in quantities]


# (name, effect); unit and direction follow from the last name component.
PER_LAYER = (
    _layer(_CONSTRUCTION, "dispatch.feasibility.calls", "dispatch.feasibility.busy_s",
           "dispatch.construct.calls", "dispatch.construct.busy_s", "dispatch.construct.cells",
           "dispatch.self_s", "seeds.seed.calls", "seeds.seed.busy_s")
    + _layer(_CONSTRUCTION, *_each(
        ["transforms.inflate_horizontal", "transforms.inflate_diagonal",
         "transforms.join_horizontal", "transforms.join_diagonal",
         "direct.three_column_block", "direct.five_column_block", "direct.spread"],
        ["calls", "busy_s", "cells_out"]))
    + _layer(_VERIFY, "core.verify_smr.calls", "core.verify_smr.busy_s", "core.verify_smr.ns_per_cell")
    + _layer(_CONSTRUCTION, "core.SignedArray.ns_per_cell", "core.is_shiftable.ns_per_cell")
    + _layer(_SERIALIZE, *_each(["formats.to_json", "formats.from_json", "formats.to_csv", "formats.from_csv"],
                                ["calls", "busy_s", "bytes"]))
    + _layer(_GRID, *_each(["formats.to_grid"], ["calls", "busy_s", "bytes"]))
    + _layer(_ORACLE, "oracle.decide.calls", "oracle.decide.busy_s", "oracle.decide.nodes",
             "oracle.decide.cutoffs", "oracle.nodes_per_s")
    + _layer(_INTERPRETER, "cli.interpreter_ms")
    + _layer(_IMPORT, "cli.import_ms")
    + _layer(_CLI_MAIN, "cli.main.busy_s")
    + _layer(_OVERHEAD, "bench.trace_overhead_s")
)


def unit_of(name: str) -> tuple[str, str]:
    return _QUANTITY_UNITS[name.rsplit(".", 1)[1]]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit_of(name)[0], "better": unit_of(name)[1]}
            for name, _ in PER_LAYER
        ],
    }


def write_manifest(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest(), indent=2) + "\n")
