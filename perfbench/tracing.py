"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end and a parent, plus its CPU time and
any counts the caller attaches. With ``measure_alloc`` each span also
records its peak traced allocation above the level at its start
(tracemalloc must already be tracing). Spans stay in
memory until the benchmark writes them out, grouped by pass.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self, measure_alloc: bool = False):
        self.spans: list[dict] = []
        self.measure_alloc = measure_alloc
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "counts": dict(counts),
        }
        if self.measure_alloc:
            peak = tracemalloc.get_traced_memory()[1]
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(rec)
        self._open.append(rec)
        rec["cpu0"] = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - rec.pop("cpu0")
            self._open.pop()
            if self.measure_alloc:
                peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["alloc"] = peak - rec.pop("_base")
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], peak)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: summed self time, wall, CPU and counts, the number of
    spans, and the largest allocation peak."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(
            s["name"], {"self": 0.0, "wall": 0.0, "cpu": 0.0, "n": 0, "alloc": 0, "counts": {}}
        )
        agg["self"] += own[s["id"]]
        agg["wall"] += s["end"] - s["start"]
        agg["cpu"] += s["cpu"]
        agg["n"] += 1
        agg["alloc"] = max(agg["alloc"], s.get("alloc", 0))
        for key, value in s["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out
