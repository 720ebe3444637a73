"""Run one workload in this process and write its timings and outputs as JSON.

run.py starts this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload golden --seed 1 --seconds 15 \\
        --mode timed --src src --out-dir perfbench/out --result result.json

Modes:
- ``setup``: import chcalc and build the first pass's inputs, then stop.
- ``timed``: passes one after another, tracing off, for ``--seconds``.
- ``traced``: whole rounds for ``--seconds``; each round runs the workload
  untraced and traced (the tracing overhead), one traced pass of every other
  workload, the CLI probes, and passes under tracemalloc, so every per-layer
  metric is measured in every traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import inputs
import tracing

MIN_PASSES = 3
MAX_PASSES = 39

# Workloads whose passes, under tracemalloc, cover all six experiment kinds.
ALLOC_WORKLOADS = {
    "golden": ("golden",),
    "sampling": ("sampling", "golden"),
    "design": ("golden",),
    "cli": ("golden",),
}


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children, at
    microsecond resolution (os.times counts whole clock ticks)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _no_span(name, **counts):
    return contextlib.nullcontext(counts)


def run_pass(workload: str, index: int, ops: list, mode: str, tracer=None, threads=None) -> dict:
    """Run ``ops`` in order; time the whole pass, then record each result."""
    os.environ["CH_THREADS"] = str(threads or inputs.THREADS[workload])
    span = tracer.span if tracer else _no_span
    results = []
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    for op in ops:
        try:
            results.append((op, op.run(span), None))
        except Exception:  # one failed operation must not end the run
            results.append((op, None, traceback.format_exc(limit=-3)))
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    records = []
    for op, result, error in results:
        rec = {"op": op.name, "workload": workload, "index": index, "ok": error is None, "error": error}
        if error is None:
            try:
                rec.update(op.record(result))
            except Exception:
                rec.update(ok=False, error=traceback.format_exc(limit=-3))
        records.append(rec)
    out = {"workload": workload, "index": index, "mode": mode, "wall": wall, "cpu": cpu, "records": records}
    if tracer is not None:
        out["agg"] = tracing.aggregate(tracer.spans)
        out["spans"] = tracer.spans
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run


def _ms(a, pa):
    return a["self"] * 1e3


def _per_call(scale):
    return lambda a, pa: a["self"] / a["n"] * scale


def _rate(count):
    return lambda a, pa: a["counts"][count] / a["self"]


def _count(count):
    return lambda a, pa: a["counts"][count] / a["n"]


def _alloc_mb(a, pa):
    return a["alloc"] / 2**20


def _cpu_per_wall(a, pa):
    kinds = [pa[k] for k in pa if k.startswith("experiments.") and k[12:] in KINDS]
    return sum(k["cpu"] for k in kinds) / sum(k["wall"] for k in kinds)


def _stdout_bytes(a, pa):
    return sum(v["counts"].get("stdout_bytes", 0) for k, v in pa.items() if k.startswith("cli."))


KINDS = ("decay", "width", "inspection", "horizon", "mismatch", "oracle")
RATES = {
    "width": "width_outcomes_per_s",
    "inspection": "inspection_bits_per_s",
    "horizon": "horizon_obs_per_s",
    "mismatch": "mismatch_steps_per_s",
}
CLI_SUBCOMMANDS = [name for name, expect in inputs.CLI_OPS if expect == "ok"]

# (metric, unit, better, pass mode, span that selects the passes, value)
LAYER_METRICS = [
    ("experiments.validate_ms", "ms", "lower", "traced", "experiments.validate", _ms),
    *[(f"experiments.{k}_ms", "ms", "lower", "traced", f"experiments.{k}", _ms) for k in KINDS],
    *[(f"experiments.{r}", "1/s", "higher", "traced", f"experiments.{k}", _rate("work")) for k, r in RATES.items()],
    *[(f"experiments.{k}_alloc_mb", "MB", "lower", "alloc", f"experiments.{k}", _alloc_mb) for k in KINDS],
    ("experiments.cpu_per_wall", "ratio", "higher", "traced", "experiments.validate", _cpu_per_wall),
    ("experiments.emit_ms", "ms", "lower", "traced", "experiments.emit", _ms),
    ("experiments.emit_bytes", "B", "lower", "traced", "experiments.emit", lambda a, pa: a["counts"]["bytes"]),
    ("divergence.decay_curve_ms", "ms", "lower", "traced", "divergence.decay_curve", _ms),
    ("markov.propagations_per_s", "1/s", "higher", "traced", "divergence.decay_curve", _rate("propagations")),
    *[(f"contraction.report_{k}_ms", "ms", "lower", "traced", f"contraction.report_{k}", _ms)
      for k in inputs.CONTRACTION_KERNELS],
    ("contraction.bounds_ms", "ms", "lower", "traced", "contraction.bounds", _ms),
    *[(f"contraction.gap_{k}", "ratio", "lower", "traced", f"contraction.report_{k}", _count("gap"))
      for k in inputs.CONTRACTION_KERNELS],
    *[(f"inspection.{p}_ms", "ms", "lower", "traced", f"inspection.{p}", _ms)
      for p in ("plan_homog_1e3", "plan_homog_1e5", "plan_hetero_1e3", "plan_hetero_1e5",
                "greedy_1e5", "budget_scan_1e5")],
    ("inspection.small_plan_us", "us", "lower", "traced", "inspection.small_plans",
     lambda a, pa: a["self"] / a["counts"]["plans"] * 1e6),
    ("inspection.greedy_steps_per_s", "1/s", "higher", "traced", "inspection.greedy_1e5", _rate("steps")),
    ("cli.import_ms", "ms", "lower", "cli_probe", "cli.import", _ms),
    ("cli.parse_us", "us", "lower", "cli_probe", "cli.parse", _per_call(1e6)),
    ("cli.inproc_ms", "ms", "lower", "cli_probe", "cli.inproc", _ms),
    *[(f"cli.{s}_ms", "ms", "lower", "traced", f"cli.{s}", _ms) for s in CLI_SUBCOMMANDS],
    ("cli.refusal_ms", "ms", "lower", "traced", "cli.refusal", _per_call(1e3)),
    ("cli.stdout_bytes", "B", "lower", "traced", "cli.calc_horizon", _stdout_bytes),
]


def layer_metrics(passes: list[dict], workload: str) -> dict:
    """Median per pass of each metric, from this workload's passes where
    they reach the layer, else from the other workloads' passes."""
    order = [workload] + [w for w in inputs.WORKLOADS if w != workload]
    out = {}
    for name, unit, _better, mode, span, fn in LAYER_METRICS:
        for w in order:
            values = [
                fn(p["agg"][span], p["agg"])
                for p in passes
                if p["workload"] == w and p["mode"] == mode and span in p["agg"]
            ]
            if values:
                out[name] = {"value": statistics.median(values), "unit": unit}
                break
    own = lambda mode: statistics.median(  # noqa: E731
        p["wall"] for p in passes if p["workload"] == workload and p["mode"] == mode
    )
    out["trace.overhead_ratio"] = {"value": own("traced") / own("untraced"), "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import chcalc

    src = Path(args.src).resolve()
    if src not in Path(chcalc.__file__).resolve().parents:
        print(f"chcalc imported from {chcalc.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    scratch = Path(args.out_dir) / f"scratch-{os.getpid()}"
    try:
        return _run(args, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workloads, scratch: Path) -> int:
    w, seed = args.workload, args.seed
    next_index = {name: 0 for name in inputs.WORKLOADS}

    def build(name, make=None):
        index = next_index[name]
        next_index[name] += 1
        # one folder per pass: a round builds several passes before it runs them
        folder = scratch / f"{name}-{index}"
        folder.mkdir(parents=True)
        return index, (make or workloads.OPS[name])(seed, index, folder)

    first = build(w)
    result: dict = {"t_ready": time.time()}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    start = time.perf_counter()
    passes = []
    if args.mode == "timed":
        while True:
            index, ops = first if not passes else build(w)
            passes.append(run_pass(w, index, ops, "timed"))
            done = time.perf_counter() - start >= args.seconds
            if len(passes) >= MAX_PASSES or (len(passes) >= MIN_PASSES and done):
                break
        who = resource.RUSAGE_CHILDREN if w == "cli" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        if w == "sampling":
            # Pass 0 again at one thread, outside the timing: its CSVs must
            # match the two-thread ones byte for byte.
            folder = scratch / "one_thread"
            folder.mkdir(parents=True, exist_ok=True)
            ref_ops = workloads.sampling_ops(seed, passes[0]["index"], folder)
            result["thread_reference"] = run_pass(w, passes[0]["index"], ref_ops, "reference", threads=1)
        if w in ("golden", "sampling"):
            result["contraction_probe"] = run_pass(w, -1, [workloads.probe_op(seed, w)], "contraction_probe")
    else:
        rounds = 0
        while True:
            # alternate which of the pair goes first, so drift between the
            # two passes does not read as tracing overhead
            pair = [(first if not passes else build(w)) + ("untraced",),
                    build(w) + ("traced", tracing.Tracer())]
            for args_ in pair[:: 1 if rounds % 2 == 0 else -1]:
                passes.append(run_pass(w, *args_))
            rounds += 1
            for other in inputs.WORKLOADS:
                if other != w:
                    passes.append(run_pass(other, *build(other), "traced", tracing.Tracer()))
            passes.append(run_pass("cli", *build("cli", workloads.cli_probe_ops), "cli_probe", tracing.Tracer()))
            for name in ALLOC_WORKLOADS[w]:
                tracemalloc.start()
                try:
                    passes.append(run_pass(name, *build(name), "alloc", tracing.Tracer(measure_alloc=True)))
                finally:
                    tracemalloc.stop()
            if time.perf_counter() - start >= args.seconds:
                break
        result["layers"] = layer_metrics(passes, w)
        spans = [{"workload": p["workload"], "index": p["index"], "mode": p["mode"], "spans": p.pop("spans")}
                 for p in passes if p.pop("agg", None) is not None]
        trace_file = Path(args.out_dir) / f"trace-{w}-{seed}.json"
        trace_file.write_text(json.dumps(spans))
    result["passes"] = passes
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
