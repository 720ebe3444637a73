"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload golden --seeds 1-10 --seconds 20

Runs ``run.py --trace 0`` once per seed, one after another, prints each
run's result line with its duration, and then per metric the median and
the quartile spread (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``. The bounds in
BENCHMARK.json are judged against this spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    runs = []
    for seed in _seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(line)
        print(json.dumps({"seed": seed, "run_s": round(time.monotonic() - start, 1), **line}), flush=True)

    share = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in every run: {all(r['correct'] for r in runs)}; failed share(s): {sorted(share)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:16s} median {med:.6g}  spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
