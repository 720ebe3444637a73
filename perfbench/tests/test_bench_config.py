"""BENCHMARK.json agrees with the metrics the benchmark prints."""

import json
from pathlib import Path

import worker

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_traced_run():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    produced = [(n, u, b) for n, u, b, *_ in worker.LAYER_METRICS]
    assert listed == produced + [("trace.overhead_ratio", "ratio", "lower")]


def test_end_to_end_metrics_and_bounds():
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert names == ["setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb", "contraction_gap"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in BENCH["workloads"]] == ["golden", "sampling", "design", "cli"]
