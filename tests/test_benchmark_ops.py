"""One pass of each in-process benchmark workload, checked by the benchmark's
own checker: an operation that a change breaks fails here, not only in a
timed ``perfbench/run.py`` run."""

import sys
from pathlib import Path

import pytest

# The benchmark's modules import each other as top-level names.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("workload", ["golden", "sampling", "design"])
def test_one_pass_runs_and_passes_the_checks(workload, tmp_path, monkeypatch):
    # run_pass sets CH_THREADS; monkeypatch restores what was there before
    monkeypatch.setenv("CH_THREADS", "1")
    ops = workloads.OPS[workload](SEED, 0, tmp_path)
    result = {"passes": [worker.run_pass(workload, 0, ops, "timed")]}
    report = checks.check_run(result, SEED)
    assert report["attempted"] == len(ops)
    assert (report["failed"], report["failures"], report["problems"]) == (0, [], [])
