"""chcalc benchmark: one workload, checked outputs, metrics as one JSON line.

    python3 perfbench/run.py --workload {golden,sampling,design,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; chcalc is imported from its ``src``.
With ``--trace 0`` the workload runs in a fresh worker process with tracing
off and the end-to-end metrics are printed; ``--trace 1`` runs the traced
rounds and prints the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. Details of the run
(failures, problems, environment) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up is sampled this many times per timed run; the median is reported
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _worker(args, mode: str, result: Path, deadline: float) -> dict:
    """Run one worker process to its end and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--src", str(ROOT / "src"), "--out-dir", str(OUT), "--result", str(result),
    ]
    spawned = time.time()
    # A process group of its own, so a timeout also ends the CLI processes it started.
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(OUT / f"scratch-{proc.pid}", ignore_errors=True)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{stderr[-3000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    data["setup_s"] = data["t_ready"] - spawned
    return data


def _environment(inputs) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "ch_threads": inputs.THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("golden", "sampling", "design", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chcalc" / "__init__.py").is_file():
        print(f"no chcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks
    import inputs

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            main_run = _worker(args, "traced", OUT / f"worker-{tag}.json", deadline)
            setups = []
        else:
            setups = [
                _worker(args, "setup", OUT / f"setup-{tag}.json", deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            main_run = _worker(args, "timed", OUT / f"worker-{tag}.json", deadline)
            setups.append(main_run["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    verdict = checks.check_run(main_run, args.seed)
    if args.trace:
        metrics = main_run["layers"]
    else:
        walls = [p["wall"] for p in main_run["passes"]]
        cpus = [p["cpu"] for p in main_run["passes"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(walls), "unit": "s"},
            "pass_cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_kb"] / 1024, "unit": "MB"},
            "contraction_gap": {"value": checks.contraction_gap(main_run), "unit": "ratio"},
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len([p for p in main_run["passes"] if p["mode"] in ("timed", "untraced")]),
        "environment": _environment(inputs),
        "setup_samples_s": setups,
        "pass_walls_s": [p["wall"] for p in main_run["passes"]],
        "pass_cpus_s": [p["cpu"] for p in main_run["passes"]],
        "metrics": metrics,
        **verdict,
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    for line in verdict["failures"] + verdict["problems"]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
