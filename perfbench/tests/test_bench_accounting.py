"""Per-operation pass/fail accounting and the false-alarm budget."""

import json

import checks
import inputs


def _cli(name, rc, stdout="", stderr=""):
    return {"op": f"cli.{name}", "ok": True, "error": None, "rc": rc, "stdout": stdout, "stderr": stderr}


def test_failure_classification():
    assert checks.failure(_cli("calc_gamma", 0, '{"gamma": 1.0}')) is None
    assert checks.failure(_cli("calc_gamma", 1, "", "error: x")) == "exit 1, expected 0"
    assert checks.failure(_cli("refuse_bad_width", 1, "", "error: W must be positive\n")) is None
    assert "without an `error:` line" in checks.failure(_cli("refuse_bad_width", 1, "", "boom"))
    traced = _cli("refuse_decay_float_h", 1, "", "Traceback (most recent call last):\n  ...\nTypeError: no\n")
    assert checks.failure(traced).endswith("TypeError: no")
    assert "expected a refusal" in checks.failure(_cli("refuse_float_replicates", 0, "wrote x"))
    reason = json.dumps({"infeasible": True, "reason": "r", "step": None})
    assert checks.failure(_cli("refuse_infeasible_plan", 2, reason)) is None
    assert "JSON reason" in checks.failure(_cli("refuse_infeasible_plan", 2, "not json"))
    assert checks.failure({"op": "inspection.greedy_1e5", "ok": False, "error": "Traceback\nKeyError: 'x'\n"}) == "KeyError: 'x'"
    assert checks.failure({"op": "cli.import_probe", "ok": True, "error": None}) is None


def test_check_run_counts_attempted_and_failed():
    records = [
        {**_cli("refuse_bad_width", 1, "", "error: W must be a positive integer\n"), "workload": "cli", "index": 0},
        {**_cli("refuse_float_replicates", 0, "wrote"), "workload": "cli", "index": 0},
        {"op": "cli.parse_probe", "ok": True, "error": None, "workload": "cli", "index": 0},
        {"op": "cli.inproc_probe", "ok": False, "error": "RuntimeError: codes", "workload": "cli", "index": 0},
    ]
    result = {"passes": [{"workload": "cli", "index": 0, "mode": "timed", "records": records}]}
    verdict = checks.check_run(result, seed=1)
    assert verdict["attempted"] == 4
    assert verdict["failed"] == 2
    assert verdict["problems"] == []


def test_known_refusal_faults_are_fixed_inputs():
    a, b = inputs.cli_inputs(1, 0)["refusals"], inputs.cli_inputs(99, 5)["refusals"]
    assert a == b
    assert sum(expect != "ok" for _, expect in inputs.CLI_OPS) == 6


def test_band_budget_is_split_over_events():
    c = checks.Checker()
    seen = []
    c.band(3, lambda alpha: seen.append(alpha))
    c.band(1, lambda alpha: "outside" if alpha else None)
    assert c.finish() == [": outside"]
    assert seen == [checks.FAMILY_ALPHA / 4]
