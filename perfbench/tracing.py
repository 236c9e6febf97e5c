"""In-memory spans around the benchmark's calls into smr's public functions.

A span is (id, parent id, operation id, pass number, name, start ns, end ns,
attributes).  Spans are kept in memory and written out as JSON lines when the
run ends.  A span's self time is its duration minus the durations of its
direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter_ns


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name: str, fn: Callable, *args: Any, measure: Callable | None = None) -> Any:
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id = 0
        self.pass_no = 0

    def call(self, name: str, fn: Callable, *args: Any, measure: Callable | None = None) -> Any:
        """Run ``fn(*args)`` inside a span.  ``measure(result)`` returns the
        span's attributes; it runs after the span has ended."""
        sid = len(self.spans)
        span = [sid, self._open[-1] if self._open else None, self.op_id, self.pass_no, name, 0, 0, {}]
        self.spans.append(span)
        self._open.append(sid)
        span[5] = _now()
        try:
            result = fn(*args)
            span[6] = _now()
        except Exception as exc:
            span[6] = _now()
            span[7]["error"] = type(exc).__name__
            raise
        finally:
            self._open.pop()
        if measure is not None:
            span[7].update(measure(result))
        return result

    def summary(self, passes: list[int]) -> dict[str, dict[str, float]]:
        """Per span name: the median over ``passes`` of calls, busy ns, self ns
        and each summed attribute."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        per_pass: dict[int, dict[str, dict[str, float]]] = {p: defaultdict(lambda: defaultdict(float)) for p in passes}
        for sid, _, _, pass_no, name, start, end, attrs in self.spans:
            if pass_no not in per_pass:
                continue
            agg = per_pass[pass_no][name]
            agg["calls"] += 1
            agg["busy_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[sid]
            for key, value in attrs.items():
                if key != "error":
                    agg[key] += value
        names = {name for p in per_pass.values() for name in p}
        out: dict[str, dict[str, float]] = {}
        for name in sorted(names):
            keys = {k for p in per_pass.values() for k in p.get(name, {})}
            out[name] = {
                k: statistics.median(p[name][k] if name in p else 0.0 for p in per_pass.values())
                for k in sorted(keys)
            }
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, pass_no, name, start, end, attrs in self.spans:
                record = {"id": sid, "parent": parent, "op": op_id, "pass": pass_no,
                          "name": name, "start_ns": start, "end_ns": end, **attrs}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
