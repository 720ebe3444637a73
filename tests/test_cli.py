"""End-to-end tests for every CLI surface, pinned to the documented examples."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcalc
from chcalc import contraction
from chcalc.cli import main
from chcalc.experiments import GOLDEN_DECAY
from chcalc.markov import Kernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCalcHorizon:
    def test_practice_example(self, capsys):
        payload = run_json(
            capsys,
            "calc", "horizon", "--eta", "0.9", "--delta2", "0.1",
            "--n", "1000000", "--epsilon", "0.1",
        )
        simplified = payload["h_crit_simplified"]
        assert simplified == pytest.approx(math.log(1e5) / math.log(1 / 0.9), rel=1e-12)
        assert float(f"{simplified:.2g}") == 110  # quoted at two significant figures
        assert payload["h_crit"] > simplified
        assert payload["sample_lb_at"]["floor_h_crit"]["bound"] <= 1e6

    def test_strong_contraction_example(self, capsys):
        payload = run_json(
            capsys,
            "calc", "horizon", "--eta", "0.7", "--delta2", "0.1",
            "--n", "1000000", "--epsilon", "0.1",
        )
        assert payload["h_crit_simplified"] == pytest.approx(32.28, abs=0.5)

    def test_noisy_outcome_flag(self, capsys):
        payload = run_json(
            capsys,
            "calc", "horizon", "--eta", "0.9", "--delta2", "0.1",
            "--n", "1000000", "--epsilon", "0.1", "--eta-g", "0.5",
        )
        shrink = payload["h_crit"] - payload["h_crit_noisy_outcome"]
        assert shrink == pytest.approx(math.log(2) / math.log(1 / 0.9), rel=1e-9)

    def test_validation_error_names_precondition(self, capsys):
        code, out, err = run_cli(
            capsys,
            "calc", "horizon", "--eta", "1.5", "--delta2", "0.1",
            "--n", "100", "--epsilon", "0.1",
        )
        assert code == 1
        assert "eta must lie in (0,1)" in err

    def test_negative_gap_refused(self, capsys):
        code, out, err = run_cli(
            capsys,
            "calc", "horizon", "--eta", "0.9", "--delta2", "0.1",
            "--n", "1000000", "--epsilon", "0.1", "--gap", "-3",
        )
        assert code == 1
        assert out == ""
        assert "gap must be at least 0" in err

    def test_infinite_delta2_refused(self, capsys):
        code, out, err = run_cli(
            capsys,
            "calc", "horizon", "--eta", "0.9", "--delta2", "inf", "--n", "20", "--epsilon", "0.1",
        )
        assert (code, out) == (1, "")
        assert err == "error: delta2 must be finite, got inf\n"


class TestCalcWidth:
    def test_payload(self, capsys):
        payload = run_json(capsys, "calc", "width", "--W", "10", "--rho", "0.2")
        assert payload["w_eff"] == pytest.approx(10 / 2.8)
        assert payload["saturation_cap"] == pytest.approx(5.0)
        assert payload["variance"] == pytest.approx(0.25 * 2.8 / 10)

    def test_rho_zero_cap_is_inf(self, capsys):
        payload = run_json(capsys, "calc", "width", "--W", "4", "--rho", "0")
        assert payload["saturation_cap"] == "inf"

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_deterministic_outcomes_accepted(self, capsys, value):
        payload = run_json(capsys, "calc", "width", "--W", "4", "--rho", "0.2", "--value", value)
        assert payload["variance"] == 0.0


class TestCalcContraction:
    def test_manufacturing_kernel(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(
            json.dumps(
                {"states": 3, "rows": [[0.85, 0.14, 0.01], [0.55, 0.35, 0.10], [0.20, 0.30, 0.50]]}
            )
        )
        payload = run_json(
            capsys, "calc", "contraction", "--kernel-file", str(path), "--trials", "200"
        )
        assert payload["dobrushin_alpha"] == pytest.approx(0.35)
        assert payload["dobrushin_bound"] == pytest.approx(0.65)
        assert payload["empirical_lower"] <= 0.65 + 1e-9
        assert payload["smoothing"] == 1e-6

    def test_omitted_options_take_library_defaults(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"rows": [[0.9, 0.1], [0.3, 0.7]]}))
        payload = run_json(capsys, "calc", "contraction", "--kernel-file", str(path))
        report = contraction.contraction_report(Kernel([[0.9, 0.1], [0.3, 0.7]]))
        assert payload == json.loads(json.dumps(report.to_json_dict()))

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "calc", "contraction", "--kernel-file", "/nope.json")
        assert code == 1
        assert "not found" in err

    def test_negative_seed_refused(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"rows": [[0.9, 0.1], [0.3, 0.7]]}))
        code, out, err = run_cli(
            capsys, "calc", "contraction", "--kernel-file", str(path), "--seed", "-1"
        )
        assert (code, out) == (1, "")
        assert err == "error: seed must be at least 0, got -1\n"


class TestCalcObjectives:
    def test_payload(self, capsys):
        payload = run_json(
            capsys,
            "calc", "objectives", "--p", "0.99", "--H", "100",
            "--lambda", "0.5", "--threshold", "0.8",
        )
        assert payload["j_add"] == 99.0
        assert payload["j_mult"] == pytest.approx(0.3660, abs=5e-5)
        assert payload["grad_attenuation"] == pytest.approx(0.99**99)
        assert payload["j_interp"]["value"] == pytest.approx(0.5 * 99 + 0.5 * 0.99**100)
        assert payload["mostly_correct_but_wrong"] == pytest.approx(0.63397, abs=1e-4)


class TestCalcGamma:
    def test_service_value(self, capsys):
        payload = run_json(
            capsys, "calc", "gamma", "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1"
        )
        assert payload["gamma"] == pytest.approx(5.9145, abs=5e-5)


class TestScheduleUniform:
    def test_midpoint(self, capsys):
        payload = run_json(capsys, "schedule", "uniform", "--H", "50", "--m", "1")
        assert payload == {"times": [25], "max_gap": 25}

    def test_with_rates_reports_segments(self, capsys):
        payload = run_json(
            capsys,
            "schedule", "uniform", "--H", "20", "--m", "3",
            "--eta", "0.9", "--delta2", "9", "--epsilon", "0.1", "--n", "1000",
        )
        assert payload["times"] == [5, 10, 15]
        assert len(payload["segments"]) == 4
        assert payload["feasible"] is True

    def test_m_too_large(self, capsys):
        code, _, err = run_cli(capsys, "schedule", "uniform", "--H", "5", "--m", "7")
        assert code == 1
        assert "interior slots" in err


class TestScheduleGreedy:
    def _etas_file(self, tmp_path, etas):
        path = tmp_path / "etas.json"
        path.write_text(json.dumps({"etas": etas}))
        return str(path)

    def test_service_journey(self, capsys, tmp_path):
        path = self._etas_file(tmp_path, [0.6] * 11 + [0.95] * 39)
        payload = run_json(
            capsys,
            "schedule", "greedy", "--etas-file", path,
            "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1",
        )
        assert payload["times"] == [16]
        assert 5.90 <= payload["gamma"] <= 5.92
        assert [seg["start"] for seg in payload["segments"]] == [0, 16]

    def test_service_journey_output_pinned(self, capsys, tmp_path):
        path = self._etas_file(tmp_path, [0.6] * 11 + [0.95] * 39)
        payload = run_json(
            capsys,
            "schedule", "greedy", "--etas-file", path,
            "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1",
        )
        assert payload == {
            "feasible": True,
            "gamma": 5.914503505971854,
            "max_gap": 34,
            "segments": [
                {
                    "attenuation": 0.0028072544611392088,
                    "end": 16,
                    "info_distance": 5.875548333363647,
                    "length": 16,
                    "sample_lb": 961.7938228885442,
                    "start": 0,
                },
                {
                    "attenuation": 0.1748246147237996,
                    "end": 50,
                    "info_distance": 1.743972009176705,
                    "length": 34,
                    "sample_lb": 15.444049479334774,
                    "start": 16,
                },
            ],
            "times": [16],
            "worst_sample_lb": 961.7938228885442,
        }

    def test_infeasible_exit_code_2(self, capsys, tmp_path):
        path = self._etas_file(tmp_path, [0.9, 1e-8, 0.9])
        code, out, err = run_cli(
            capsys,
            "schedule", "greedy", "--etas-file", path,
            "--n", "10", "--delta2", "0.3", "--epsilon", "0.1",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["infeasible"] is True
        assert payload["step"] == 1

    def test_nonpositive_gamma_exit_code_2_like_plan(self, capsys, tmp_path):
        etas = [0.6] * 11 + [0.95] * 39
        code, out, err = run_cli(
            capsys,
            "schedule", "greedy", "--etas-file", self._etas_file(tmp_path, etas),
            "--n", "1", "--delta2", "0.5", "--epsilon", "0.1",
        )
        assert code == 2, err
        payload = json.loads(out)
        assert payload["infeasible"] is True
        assert payload["step"] is None
        assert "Gamma" in payload["reason"]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"etas": etas, "H": 50, "n": 1, "delta2": 0.5, "epsilon": 0.1}))
        assert run_cli(capsys, "schedule", "plan", "--config", str(plan)) == (2, out, "")

    def test_fidelity_penalty(self, capsys, tmp_path):
        path = self._etas_file(tmp_path, [0.85] * 20)
        loose = run_json(
            capsys,
            "schedule", "greedy", "--etas-file", path,
            "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1",
        )
        tight = run_json(
            capsys,
            "schedule", "greedy", "--etas-file", path,
            "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1", "--eta-g", "0.5",
        )
        assert len(tight["times"]) >= len(loose["times"])
        assert tight["effective_gamma"] < tight["gamma"]


class TestSchedulePlan:
    def test_semiconductor(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "eta": 0.85, "H": 50, "n": 10000, "delta2": 0.2, "epsilon": 0.1,
                    "budget": {"c_out": 10, "c_insp": 50},
                }
            )
        )
        payload = run_json(capsys, "schedule", "plan", "--config", str(path))
        assert payload["gamma"] == pytest.approx(7.8116, abs=5e-5)
        assert payload["h_crit"] == pytest.approx(48.066, abs=5e-4)
        assert payload["m_necessary"] == 1
        assert payload["times"] == [25]
        assert payload["budget_required"] == pytest.approx(1.413e4, rel=0.001)
        assert payload["feasible"] is True

    def test_readme_plan_output_pinned(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"eta": 0.85, "H": 50, "n": 10000, "delta2": 0.2, "epsilon": 0.1,\n'
            ' "budget": {"c_out": 10, "c_insp": 50}}'
        )
        segment = {
            "attenuation": 0.01719780985220789,
            "info_distance": 4.062973237444374,
            "length": 25,
            "sample_lb": 235.49510285346327,
        }
        payload = run_json(capsys, "schedule", "plan", "--config", str(path))
        assert payload == {
            "budget_required": 14129.706171207796,
            "delta2": 0.2,
            "epsilon": 0.1,
            "feasible": True,
            "gamma": 7.811623490857736,
            "h_crit": 48.065930011953995,
            "horizon": 50,
            "m_necessary": 1,
            "m_sufficient": 1,
            "max_gap": 25,
            "mode": "homogeneous",
            "n": 10000,
            "per_trajectory_cost": 60.0,
            "planned_cost": 600000.0,
            "segments": [
                {**segment, "start": 0, "end": 25},
                {**segment, "start": 25, "end": 50},
            ],
            "times": [25],
            "worst_sample_lb": 235.49510285346327,
            "worst_step": 0,
        }

    def test_fidelity_applies_to_homogeneous_plan(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        plan = {"eta": 0.9, "H": 100, "n": 1000, "delta2": 0.3, "epsilon": 0.1}
        path.write_text(json.dumps(plan))
        perfect = run_json(capsys, "schedule", "plan", "--config", str(path))
        path.write_text(json.dumps({**plan, "inspection_fidelity": 0.5}))
        noisy = run_json(capsys, "schedule", "plan", "--config", str(path))
        assert perfect["times"] == [50]
        assert noisy["times"] == [33, 66]
        horizon = run_json(
            capsys,
            "calc", "horizon", "--eta", "0.9", "--delta2", "0.3", "--n", "1000",
            "--epsilon", "0.1", "--eta-g", "0.5",
        )
        assert noisy["h_crit"] == horizon["h_crit_noisy_outcome"]

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"eta": 0.85, "H": 50, "n": 100, "delta2": 0.2, "epsilon": 0.1, "zzz": 1}))
        code, _, err = run_cli(capsys, "schedule", "plan", "--config", str(path))
        assert code == 1
        assert "unknown plan config fields" in err

    def test_subunit_critical_horizon_exits_2_without_hanging(self, tmp_path):
        # h_crit = 0.79: not even the adjacent step is testable.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"eta": 0.1, "H": 20, "n": 10, "delta2": 0.5, "epsilon": 0.1}))
        env = {**os.environ, "PYTHONPATH": str(Path(chcalc.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "chcalc", "schedule", "plan", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["infeasible"] is True


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["calc", "horizon", "--n", "20.5", "--eta", "0.9", "--delta2", "0.1", "--epsilon", "0.1"],
                "chcalc calc horizon: argument --n: invalid int value: '20.5'",
            ),
            (
                ["calc", "horizon", "--eta", "0.9", "--delta2", "0.1", "--epsilon", "0.1"],
                "chcalc calc horizon: the following arguments are required: --n",
            ),
            (
                ["calc", "gamma", "--n", "5", "--delta2", "0.3", "--epsilon", "0.1", "--bogus"],
                "chcalc: unrecognized arguments: --bogus",
            ),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_exit_1_with_error_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["calc", "gamma", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: chcalc calc gamma")


class TestExperimentRun:
    def test_decay_csv_and_sidecar(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(GOLDEN_DECAY))
        out_path = tmp_path / "table.csv"
        code, out, err = run_cli(
            capsys,
            "experiment", "run", "--config", str(cfg_path),
            "--out", str(out_path), "--seed", "99",
        )
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "step,distance_to_end,eta,chi2_measured,chi2_theory"
        assert len(lines) == 1 + 4 * 41
        meta = json.loads((tmp_path / "table.meta.json").read_text())
        assert meta["master_seed"] == 99
        assert meta["kind"] == "decay"
        assert meta["config"]["params"]["states"] == 10

    def test_seed_flag_changes_sampled_output(self, capsys, tmp_path):
        cfg = {
            "kind": "mismatch",
            "master_seed": 1,
            "replicates": 1,
            "params": {"p": 0.9, "H": 20, "threshold": 0.5, "chains": 2000},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        assert run_cli(capsys, "experiment", "run", "--config", str(cfg_path), "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "experiment", "run", "--config", str(cfg_path), "--out", str(out_b))[0] == 0
        assert (
            run_cli(
                capsys, "experiment", "run", "--config", str(cfg_path),
                "--out", str(out_c), "--seed", "2",
            )[0]
            == 0
        )
        assert out_a.read_text() == out_b.read_text()
        assert out_a.read_text() != out_c.read_text()

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_width_value_without_variance_exit_1(self, capsys, tmp_path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "width", "params": {"value": value, "widths": [4]}}))
        code, out, err = run_cli(
            capsys, "experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: value")

    def test_width_constant_group_means_report_inf(self, capsys, tmp_path):
        # two strongly correlated groups often agree outcome for outcome
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"kind": "width", "master_seed": 0, "params": {"rho": 0.99, "widths": [4], "groups": 2}})
        )
        w_effs = []
        for seed in range(20):
            out_path = tmp_path / f"w{seed}.csv"
            code, _, err = run_cli(
                capsys, "experiment", "run", "--config", str(cfg_path),
                "--out", str(out_path), "--seed", str(seed),
            )
            assert code == 0, err
            header, row = out_path.read_text().splitlines()
            w_effs.append(dict(zip(header.split(","), row.split(",")))["w_eff_empirical"])
        assert "inf" in w_effs

    def test_invalid_config_exit_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "decay", "params": {"etas": [2.0]}}))
        code, _, err = run_cli(
            capsys, "experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "etas" in err


PLAN = {"eta": 0.9, "H": 50, "n": 10000, "delta2": 0.2, "epsilon": 0.1}
ETAS_ARGS = ("--n", "1000", "--delta2", "0.3", "--epsilon", "0.1")

# (command, file contents, extra arguments, field the error must name)
REFUSALS = [
    ("experiment", {"kind": "decay", "params": {"H": 20.5}}, (), "H"),
    ("experiment", {"kind": "decay", "params": {"H": True}}, (), "H"),
    ("experiment", {"kind": "width", "params": {"groups": "100"}}, (), "groups"),
    ("experiment", {"kind": "width", "params": {"widths": [1.5]}}, (), "widths"),
    ("experiment", {"kind": "oracle", "params": {"max_H": 12.5}}, (), "max_H"),
    ("experiment", {"kind": "mismatch", "params": {"chains": 100.5}}, (), "chains"),
    ("experiment", {"kind": "inspection", "params": {"schedules": [[5.5]]}}, (), "schedules"),
    ("experiment", {"kind": "decay", "params": [1]}, (), "params"),
    ("experiment", {"kind": "decay", "replicates": 1.7}, (), "replicates"),
    ("experiment", {"kind": "decay", "master_seed": "7"}, (), "master_seed"),
    ("plan", {**PLAN, "eta": "0.9"}, (), "eta"),
    ("plan", {**{k: v for k, v in PLAN.items() if k != "eta"}, "etas": "abc"}, (), "etas"),
    ("plan", {**PLAN, "H": 50.9}, (), "H"),
    ("plan", {**PLAN, "n": 10000.5}, (), "n"),
    ("plan", {**PLAN, "budget": 5}, (), "budget"),
    ("plan", {**PLAN, "budget": {"c_insp": 50}}, (), "c_out"),
    ("greedy", {"etas": [0.9, "x", 0.8]}, ETAS_ARGS, "etas[1]"),
    ("greedy", {"etas": 5}, ETAS_ARGS, "etas"),
    ("contraction", {"states": 3}, (), "rows"),
    ("contraction", {"rows": [[0.5, 0.5], [1.0]]}, (), "rows"),
    ("contraction", {"rows": "ab"}, (), "rows"),
    ("contraction", {"states": "two", "rows": [[1.0, 0.0], [0.0, 1.0]]}, (), "states"),
    ("contraction", [[1.0, 0.0], [0.0, 1.0]], (), "kernel file"),
    ("plan", {**PLAN, "delta2": math.inf}, (), "delta2"),
    ("contraction", {"rows": [[math.nan, 1.0], [0.5, 0.5]]}, (), "rows[0][0]"),
]


@pytest.mark.parametrize("command,data,extra,field", REFUSALS)
def test_malformed_json_input_is_refused(capsys, tmp_path, command, data, extra, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {
        "experiment": ["experiment", "run", "--config", str(path), "--out", str(tmp_path / "x.csv")],
        "plan": ["schedule", "plan", "--config", str(path)],
        "greedy": ["schedule", "greedy", "--etas-file", str(path)],
        "contraction": ["calc", "contraction", "--kernel-file", str(path)],
    }[command]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err and "Traceback" not in err


# The closed-form commands need only math. Each case runs in a fresh
# interpreter; a dict argument is written to a JSON file first.
START_UP_CASES = [
    (["calc", "horizon", "--eta", "0.9", "--delta2", "0.1", "--n", "1000000",
      "--epsilon", "0.1", "--eta-g", "0.95", "--gap", "20"], 0, False),
    (["calc", "width", "--W", "256", "--rho", "0.15"], 0, False),
    (["calc", "objectives", "--p", "0.99", "--H", "100", "--threshold", "0.8"], 0, False),
    (["calc", "gamma", "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1"], 0, False),
    (["schedule", "uniform", "--H", "50", "--m", "1", "--eta", "0.9", "--delta2", "0.3",
      "--epsilon", "0.1", "--n", "1000"], 0, False),
    (["schedule", "plan", "--config", {**PLAN, "budget": {"c_out": 10, "c_insp": 50}}], 0, False),
    (["schedule", "plan", "--config", {**PLAN, "n": 1}], 2, False),
    (["calc", "width", "--W", "0", "--rho", "0.15"], 1, False),
    # control: the probe does see numpy when a command needs it
    (["calc", "contraction", "--kernel-file", {"rows": [[0.9, 0.1], [0.2, 0.8]]}], 0, True),
]


@pytest.mark.parametrize(
    "argv,code,uses_numpy", START_UP_CASES,
    ids=[f"{argv[0]}-{argv[1]}-exit{code}" for argv, code, _ in START_UP_CASES],
)
def test_closed_form_commands_start_without_numpy(tmp_path, argv, code, uses_numpy):
    path = tmp_path / "input.json"
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
    argv = [str(path) if isinstance(arg, dict) else arg for arg in argv]
    probe = (
        "import sys\nfrom chcalc.cli import main\ncode = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(chcalc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{code} {uses_numpy}"
