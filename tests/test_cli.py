"""End-to-end tests for every CLI surface.

The bytes of the documented examples' output are pinned once, by the
fixtures under ``tests/golden/``.
"""

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import chcalc
from chcalc import contraction, experiments
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


MANUFACTURING = {"states": 3, "rows": [[0.85, 0.14, 0.01], [0.55, 0.35, 0.10], [0.20, 0.30, 0.50]]}


class TestCalcContraction:
    def test_manufacturing_kernel(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(MANUFACTURING))
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

    def test_trials_above_limit_refused(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(MANUFACTURING))
        code, out, err = run_cli(
            capsys, "calc", "contraction", "--kernel-file", str(path), "--trials", "4294967297"
        )
        assert (code, out) == (1, "")
        assert err == "error: trials must be at most 4294967296, got 4294967297\n"

    @pytest.mark.filterwarnings("error")  # a numpy warning would print more stderr lines
    @pytest.mark.parametrize(
        "data,message",
        [
            ({"rows": [[1.1, -0.1], [0.5, 0.5]]}, "kernel entries must be nonnegative"),
            ({"rows": [[0.6, 0.5], [0.5, 0.5]]},
             "kernel rows must sum to 1 within 1e-12 (worst deviation 0.1)"),
            ({"rows": [[1e308, 1e308], [0.5, 0.5]]},
             "kernel rows must sum to 1 within 1e-12 (worst deviation inf)"),
            ({"rows": [[0.5, 0.5]]}, "kernel rows must form a nonempty square matrix"),
            ({"rows": [[1.0], [0.5, 0.5]]}, "kernel rows must form a nonempty square matrix"),
            ({"states": 3, "rows": [[0.5, 0.5], [0.5, 0.5]]},
             "kernel 'states' field (3) does not match matrix size (2)"),
        ],
        ids=["negative", "sum-1.1", "sum-overflows", "not-square", "ragged", "states-mismatch"],
    )
    def test_kernel_refusals_verbatim(self, capsys, tmp_path, data, message):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "calc", "contraction", "--kernel-file", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


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


# schedule uniform's optional flags: the first three report the segments, and
# --n judges feasibility
RATE_FLAGS = {"--eta": "0.9", "--delta2": "0.3", "--epsilon": "0.1", "--n": "5"}


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

    def test_no_decay_prints_a_positive_zero_distance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "schedule", "uniform", "--H", "4", "--m", "1",
            "--eta", "1", "--delta2", "0.1", "--epsilon", "0.1",
        )
        assert code == 0
        assert out.count('"info_distance": 0.0,') == 2 and "-0.0" not in out

    def test_m_too_large(self, capsys):
        code, _, err = run_cli(capsys, "schedule", "uniform", "--H", "5", "--m", "7")
        assert code == 1
        assert "interior slots" in err

    @pytest.mark.parametrize(
        "given",
        [
            flags
            for size in range(len(RATE_FLAGS) + 1)
            for flags in itertools.combinations(RATE_FLAGS, size)
        ],
        ids=lambda flags: "+".join(flag.lstrip("-") for flag in flags) or "none",
    )
    def test_rate_flags_come_together(self, capsys, given):
        argv = [arg for flag in given for arg in (flag, RATE_FLAGS[flag])]
        code, out, err = run_cli(capsys, "schedule", "uniform", "--H", "10", "--m", "2", *argv)
        missing = [flag for flag in ("--eta", "--delta2", "--epsilon") if flag not in given]
        if given in ((), ("--eta", "--delta2", "--epsilon"), tuple(RATE_FLAGS)):
            assert code == 0, err
            assert ("segments" in json.loads(out)) == bool(given)
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.rstrip().endswith(f"missing {', '.join(missing)}")


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

    @pytest.mark.parametrize("etas", [[1.0, 0.9, 1.0], [1.0, 1.0, 1.0]])
    def test_no_decay_prints_no_negative_zero(self, capsys, tmp_path, etas):
        path = self._etas_file(tmp_path, etas)
        code, out, _ = run_cli(
            capsys,
            "schedule", "greedy", "--etas-file", path,
            "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1", "--eta-g", "1",
        )
        assert code == 0 and "-0.0" not in out
        assert ('"info_distance": 0.0,' in out) == (0.9 not in etas)

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

    def test_eta_g_refused_as_calc_horizon_refuses_it(self, capsys, tmp_path):
        path = self._etas_file(tmp_path, [0.9, 0.8, 0.95])
        greedy = ["schedule", "greedy", "--etas-file", path, "--delta2", "0.3", "--epsilon", "0.1"]
        horizon = ["calc", "horizon", "--eta", "0.9", "--delta2", "0.3", "--n", "1000",
                   "--epsilon", "0.1"]
        message = "error: eta_g must lie in (0,1], got 7.0\n"
        assert run_cli(capsys, *horizon, "--eta-g", "7") == (1, "", message)
        assert run_cli(capsys, *greedy, "--n", "1000", "--eta-g", "7") == (1, "", message)
        # the plan's fields are still refused first, in their declared order
        assert run_cli(capsys, *greedy, "--n", "0", "--eta-g", "7") == (
            1, "", "error: n must be at least 1, got 0\n"
        )


class TestOneSampleBound:
    # 1 - 2^-53, where ln(1/eta) and -ln(eta) differ the most
    @pytest.mark.parametrize("eta", ["0.9", repr(1 - 2**-53)])
    def test_calc_horizon_gap_matches_uniform_segment(self, capsys, eta):
        horizon = run_json(
            capsys,
            "calc", "horizon", "--eta", eta, "--delta2", "0.1",
            "--n", "1000000", "--epsilon", "0.1", "--gap", "7",
        )
        uniform = run_json(
            capsys,
            "schedule", "uniform", "--H", "7", "--m", "0",
            "--eta", eta, "--delta2", "0.1", "--epsilon", "0.1",
        )
        assert horizon["sample_lb_at"]["requested_gap"]["bound"] == uniform["segments"][0]["sample_lb"]


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
                ["calc", "horizon", "--eta", "0.9", "--delta2", "0.1", "--n", "20.5", "--epsilon", "0.1"],
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

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unusable_out_refused_before_the_run(self, capsys, tmp_path, monkeypatch, out):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(GOLDEN_DECAY))
        monkeypatch.setattr(experiments, "run_experiment", lambda cfg: pytest.fail("the run started"))
        out_path = tmp_path / out
        code, stdout, err = run_cli(
            capsys, "experiment", "run", "--config", str(cfg_path), "--out", str(out_path)
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: --out must name a file in an existing directory, got {out_path}\n"


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
    ("plan", {**{k: v for k, v in PLAN.items() if k != "eta"}, "etas": [0.9] * 49}, (), "etas length"),
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


# An invalid field is refused, naming it, even where the sample budget n=1
# leaves no positive Gamma: (command, file contents, extra arguments, field).
FIELDS_BEFORE_GAMMA = {
    "plan-H": ("plan", {"eta": 0.9, "H": -5, "n": 1}, (), "H"),
    "plan-H-large-n": ("plan", {"eta": 0.9, "H": -5, "n": 1000}, (), "H"),
    "plan-eta": ("plan", {"eta": 1.5, "H": 5, "n": 1}, (), "eta"),
    "plan-etas": ("plan", {"etas": [1.5, 0.3], "H": 3, "n": 1}, (), "etas"),
    "plan-fidelity": ("plan", {"eta": 0.9, "H": 5, "n": 1, "inspection_fidelity": 7}, (),
                      "inspection_fidelity"),
    "greedy-etas": ("greedy", {"etas": [1.5, 0.8, 0.95]}, (), "etas[0]"),
    "greedy-eta-g": ("greedy", {"etas": [0.9, 0.8, 0.95]}, ("--eta-g", "7"), "eta_g"),
}


@pytest.mark.parametrize(
    "command,data,extra,field", list(FIELDS_BEFORE_GAMMA.values()), ids=list(FIELDS_BEFORE_GAMMA)
)
def test_plan_fields_are_checked_before_gamma(capsys, tmp_path, command, data, extra, field):
    path = tmp_path / "input.json"
    if command == "plan":
        data = {**data, "delta2": 0.3, "epsilon": 0.1}
    path.write_text(json.dumps(data))
    argv = {
        "plan": ["schedule", "plan", "--config", str(path)],
        "greedy": ["schedule", "greedy", "--etas-file", str(path),
                   "--n", "1", "--delta2", "0.3", "--epsilon", "0.1"],
    }[command]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field} ")


BIG = str(10**400)  # an integer beyond float range

# Inputs that once ended in a traceback, and output paths that cannot be
# written: (argv, contents of the file that a Path("input") argument names).
# A Path argument names a file in the test's directory.
UNUSABLE_INPUTS = {
    "kernel-file-is-a-directory": (["calc", "contraction", "--kernel-file", Path(".")], None),
    "plan-config-is-a-directory": (["schedule", "plan", "--config", Path(".")], None),
    "kernel-file-not-utf8": (["calc", "contraction", "--kernel-file", Path("input")], b"\xff\xfe{}"),
    "plan-nested-too-deep": (["schedule", "plan", "--config", Path("input")],
                             "[" * 100_000 + "]" * 100_000),
    "out-in-missing-directory": (["experiment", "run", "--config", Path("input"),
                                  "--out", Path("missing/x.csv")], GOLDEN_DECAY),
    "out-is-a-directory": (["experiment", "run", "--config", Path("input"), "--out", Path(".")],
                           GOLDEN_DECAY),
    "width-W-out-of-range": (["calc", "width", "--W", BIG, "--rho", "0.2"], None),
    "objectives-H-out-of-range": (["calc", "objectives", "--p", "0.5", "--H", BIG], None),
    "horizon-gap-out-of-range": (["calc", "horizon", "--eta", "0.9", "--delta2", "0.1", "--n", "1000",
                                  "--epsilon", "0.1", "--gap", BIG], None),
    "plan-n-out-of-range": (["schedule", "plan", "--config", Path("input")],
                            {**PLAN, "n": 10**400, "budget": {"c_out": 10, "c_insp": 50}}),
    "width-config-out-of-range": (["experiment", "run", "--config", Path("input"), "--out",
                                   Path("x.csv")], {"kind": "width", "params": {"widths": [10**400]}}),
    "mismatch-config-out-of-range": (["experiment", "run", "--config", Path("input"), "--out",
                                      Path("x.csv")], {"kind": "mismatch", "params": {"H": 10**400}}),
    "decay-config-out-of-range": (["experiment", "run", "--config", Path("input"), "--out",
                                   Path("x.csv")], {"kind": "decay", "params": {"H": 10**400}}),
    "width-groups-out-of-range": (["experiment", "run", "--config", Path("input"), "--out",
                                   Path("x.csv")], {"kind": "width", "params": {"groups": 10**400}}),
    "mismatch-chains-out-of-range": (["experiment", "run", "--config", Path("input"), "--out",
                                      Path("x.csv")], {"kind": "mismatch", "params": {"chains": 10**400}}),
    "inspection-trials-out-of-range": (["experiment", "run", "--config", Path("input"), "--out",
                                        Path("x.csv")], {"kind": "inspection", "params": {"trials": 10**400}}),
    "width-groups-above-limit": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                                 {"kind": "width", "params": {"groups": 2**63 - 1}}),
    "width-groups-beyond-int64": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                                  {"kind": "width", "params": {"groups": 10**30}}),
    "width-W-above-limit": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                            {"kind": "width", "params": {"widths": [4, 2**32 + 1]}}),
    "inspection-trials-above-limit": (["experiment", "run", "--config", Path("input"), "--out",
                                       Path("x.csv")], {"kind": "inspection", "params": {"trials": 2**63 - 1}}),
    "inspection-trials-beyond-int64": (["experiment", "run", "--config", Path("input"), "--out",
                                        Path("x.csv")], {"kind": "inspection", "params": {"trials": 10**30}}),
    "horizon-trials-above-limit": (["experiment", "run", "--config", Path("input"), "--out",
                                    Path("x.csv")], {"kind": "horizon", "params": {"trials": 2**63 - 1}}),
    "horizon-trials-beyond-int64": (["experiment", "run", "--config", Path("input"), "--out",
                                     Path("x.csv")], {"kind": "horizon", "params": {"trials": 10**30}}),
    "mismatch-chains-above-limit": (["experiment", "run", "--config", Path("input"), "--out",
                                     Path("x.csv")], {"kind": "mismatch", "params": {"chains": 2**63 - 1}}),
    "mismatch-chains-beyond-int64": (["experiment", "run", "--config", Path("input"), "--out",
                                      Path("x.csv")], {"kind": "mismatch", "params": {"chains": 10**30}}),
    # the exact accuracy would weigh binomial coefficients beyond float range
    "horizon-obs-out-of-range": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                                 {"kind": "horizon", "params": {"H": 1, "etas": [0.7],
                                                                "obs_per_trial": 2000, "trials": 1}}),
    # decay and oracle draw no replicates
    "decay-replicates-2": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                           {"kind": "decay", "replicates": 2}),
    "oracle-replicates-4": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                            {"kind": "oracle", "replicates": 4}),
    "oracle-replicates-float": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                                {"kind": "oracle", "replicates": 1.7}),
    "decay-replicates-0": (["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")],
                           {"kind": "decay", "replicates": 0}),
}

# Configs that run to the end: (config, rows written). The oracle config has
# the largest max_H and max_m its params accept.
COMPLETE_RUNS = {
    "oracle-largest": ({"kind": "oracle", "master_seed": 7,
                        "params": {"max_H": 14, "max_m": 13, "greedy_cases": 200}}, 304),
    "width-to-100000": ({"kind": "width", "master_seed": 7, "replicates": 2,
                         "params": {"widths": [1, 4, 256, 100000], "groups": 5000}}, 2 * 4),
    "horizon": ({"kind": "horizon", "master_seed": 7, "replicates": 2,
                 "params": {"H": 12, "etas": [0.6, 0.9], "obs_per_trial": 4, "trials": 3000}}, 2 * 2 * 13),
}

# How each out-of-range refusal above names its flag or field.
OUT_OF_RANGE_MESSAGES = {
    "width-W-out-of-range": "error: chcalc calc width: argument --W: out of range, got 1000",
    "objectives-H-out-of-range": "error: chcalc calc objectives: argument --H: out of range, got 1000",
    "horizon-gap-out-of-range": "error: chcalc calc horizon: argument --gap: out of range, got 1000",
    "plan-n-out-of-range": "error: n is out of range, got 1000",
    "width-config-out-of-range": "error: widths[0] is out of range, got 1000",
    "mismatch-config-out-of-range": "error: H is out of range, got 1000",
    "decay-config-out-of-range": "error: H is out of range, got 1000",
    "width-groups-out-of-range": "error: groups is out of range, got 1000",
    "mismatch-chains-out-of-range": "error: chains is out of range, got 1000",
    "inspection-trials-out-of-range": "error: trials is out of range, got 1000",
    "horizon-obs-out-of-range": "error: obs_per_trial must lie in [1,1029], got 2000\n",
}


# How each width work-limit refusal above names the field, the value and the limit.
WORK_LIMIT_MESSAGES = {
    "width-groups-above-limit": f"error: groups must be at most {2**62}, got {2**63 - 1}\n",
    "width-groups-beyond-int64": f"error: groups must be at most {2**62}, got {10**30}\n",
    "width-W-above-limit": f"error: widths[1] must be at most {2**32}, got {2**32 + 1}\n",
}

# Inspection trials share the width groups' histogram-count limit, 2**62.
TRIALS_LIMIT_MESSAGES = {
    "inspection-trials-above-limit": f"error: trials must be at most 4611686018427387904, got {2**63 - 1}\n",
    "inspection-trials-beyond-int64": "error: trials must be at most 4611686018427387904, got 1000"
                                      + "0" * 27 + "\n",
}

# Horizon trials share the same limit.
HORIZON_TRIALS_LIMIT_MESSAGES = {
    "horizon-trials-above-limit": f"error: trials must be at most {2**62}, got {2**63 - 1}\n",
    "horizon-trials-beyond-int64": f"error: trials must be at most {2**62}, got {10**30}\n",
}

# So do mismatch chains.
MISMATCH_CHAINS_LIMIT_MESSAGES = {
    "mismatch-chains-above-limit": f"error: chains must be at most {2**62}, got {2**63 - 1}\n",
    "mismatch-chains-beyond-int64": f"error: chains must be at most {2**62}, got {10**30}\n",
}


def _run_with_input(capsys, tmp_path, argv, contents):
    """Write ``contents`` to the file a Path("input") argument names, then run."""
    path = tmp_path / "input"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif contents is not None:
        path.write_text(contents if isinstance(contents, str) else json.dumps(contents))
    return run_cli(
        capsys, *[str(tmp_path / arg) if isinstance(arg, Path) else arg for arg in argv]
    )


@pytest.mark.parametrize(
    "argv,contents", list(UNUSABLE_INPUTS.values()), ids=list(UNUSABLE_INPUTS),
)
def test_unusable_input_exits_1_with_one_error_line(capsys, tmp_path, argv, contents):
    code, out, err = _run_with_input(capsys, tmp_path, argv, contents)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("config,rows", list(COMPLETE_RUNS.values()), ids=list(COMPLETE_RUNS))
def test_experiment_run_writes_every_row(capsys, tmp_path, config, rows):
    argv = ["experiment", "run", "--config", Path("input"), "--out", Path("x.csv")]
    code, _, err = _run_with_input(capsys, tmp_path, argv, config)
    assert code == 0, err
    with (tmp_path / "x.csv").open(newline="") as out:
        table = list(csv.DictReader(out))
    assert len(table) == rows
    # each oracle row matches the scheduler against its exact minimum
    assert all(row["match"] == "1" for row in table if "match" in row)


@pytest.mark.parametrize("case", list(OUT_OF_RANGE_MESSAGES))
def test_integer_beyond_float_range_names_its_field(capsys, tmp_path, case):
    code, _, err = _run_with_input(capsys, tmp_path, *UNUSABLE_INPUTS[case])
    assert code == 1
    assert err.startswith(OUT_OF_RANGE_MESSAGES[case])


# A decay or oracle config other than replicates 1 is refused naming the kind;
# a replicates value that is no integer, or below 1, keeps its earlier message.
REPLICATES_MESSAGES = {
    "decay-replicates-2": "error: replicates must be 1 for kind decay, got 2\n",
    "oracle-replicates-4": "error: replicates must be 1 for kind oracle, got 4\n",
    "oracle-replicates-float": "error: replicates must be an integer, got 1.7\n",
    "decay-replicates-0": "error: replicates must be at least 1, got 0\n",
}


@pytest.mark.parametrize("case", list(REPLICATES_MESSAGES))
def test_unsampled_kinds_refuse_replicates(capsys, tmp_path, case):
    code, out, err = _run_with_input(capsys, tmp_path, *UNUSABLE_INPUTS[case])
    assert (code, out, err) == (1, "", REPLICATES_MESSAGES[case])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("case", list(WORK_LIMIT_MESSAGES))
def test_width_work_limit_names_field_value_and_limit(capsys, tmp_path, case):
    code, _, err = _run_with_input(capsys, tmp_path, *UNUSABLE_INPUTS[case])
    assert (code, err) == (1, WORK_LIMIT_MESSAGES[case])


@pytest.mark.parametrize("case", list(TRIALS_LIMIT_MESSAGES))
def test_inspection_trials_limit_names_field_value_and_limit(capsys, tmp_path, case):
    code, _, err = _run_with_input(capsys, tmp_path, *UNUSABLE_INPUTS[case])
    assert (code, err) == (1, TRIALS_LIMIT_MESSAGES[case])


@pytest.mark.parametrize("case", list(HORIZON_TRIALS_LIMIT_MESSAGES))
def test_horizon_trials_limit_names_field_value_and_limit(capsys, tmp_path, case):
    code, _, err = _run_with_input(capsys, tmp_path, *UNUSABLE_INPUTS[case])
    assert (code, err) == (1, HORIZON_TRIALS_LIMIT_MESSAGES[case])


@pytest.mark.parametrize("case", list(MISMATCH_CHAINS_LIMIT_MESSAGES))
def test_mismatch_chains_limit_names_field_value_and_limit(capsys, tmp_path, case):
    code, _, err = _run_with_input(capsys, tmp_path, *UNUSABLE_INPUTS[case])
    assert (code, err) == (1, MISMATCH_CHAINS_LIMIT_MESSAGES[case])


# The closed-form commands and the schedulers need only math, and a JSON input
# with a wrong layout is refused before numpy is imported. Each case runs in a
# fresh interpreter; a dict argument is written to a JSON file first, and a
# Path argument names a file in the test's directory.
START_UP_CASES = {
    "calc-horizon-exit0": (["calc", "horizon", "--eta", "0.9", "--delta2", "0.1", "--n", "1000000",
                            "--epsilon", "0.1", "--eta-g", "0.95", "--gap", "20"], 0, False),
    "calc-width-exit0": (["calc", "width", "--W", "256", "--rho", "0.15"], 0, False),
    "calc-objectives-exit0": (["calc", "objectives", "--p", "0.99", "--H", "100",
                               "--threshold", "0.8"], 0, False),
    "calc-gamma-exit0": (["calc", "gamma", "--n", "1000", "--delta2", "0.3", "--epsilon", "0.1"],
                         0, False),
    "schedule-uniform-exit0": (["schedule", "uniform", "--H", "50", "--m", "1", "--eta", "0.9",
                                "--delta2", "0.3", "--epsilon", "0.1", "--n", "1000"], 0, False),
    "schedule-plan-exit0": (["schedule", "plan", "--config",
                             {**PLAN, "budget": {"c_out": 10, "c_insp": 50}}], 0, False),
    "schedule-plan-exit2": (["schedule", "plan", "--config", {**PLAN, "n": 1}], 2, False),
    "calc-width-exit1": (["calc", "width", "--W", "0", "--rho", "0.15"], 1, False),
    "schedule-greedy-exit0": (["schedule", "greedy", "--etas-file", {"etas": [0.9, 0.8, 0.95]},
                               *ETAS_ARGS], 0, False),
    "schedule-plan-etas-exit0": (["schedule", "plan", "--config",
                                  {**PLAN, "eta": None, "etas": [0.9] * 50}], 0, False),
    "experiment-run-exit1": (["experiment", "run", "--config", {"kind": "decay", "params": {"H": 20.5}},
                              "--out", Path("x.csv")], 1, False),
    "calc-contraction-exit1": (["calc", "contraction", "--kernel-file", {"states": 3}], 1, False),
    "schedule-greedy-exit1": (["schedule", "greedy", "--etas-file", {"etas": [0.9, "x", 0.8]},
                               *ETAS_ARGS], 1, False),
    # controls: the probe does see numpy when a command needs it
    "calc-contraction-exit0": (["calc", "contraction", "--kernel-file",
                                {"rows": [[0.9, 0.1], [0.2, 0.8]]}], 0, True),
    "experiment-run-exit0": (["experiment", "run", "--config", GOLDEN_DECAY,
                              "--out", Path("x.csv")], 0, True),
}


@pytest.mark.parametrize(
    "argv,code,uses_numpy", list(START_UP_CASES.values()), ids=list(START_UP_CASES),
)
def test_closed_form_commands_start_without_numpy(tmp_path, argv, code, uses_numpy):
    path = tmp_path / "input.json"
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
    argv = [
        str(path) if isinstance(arg, dict) else str(tmp_path / arg) if isinstance(arg, Path) else arg
        for arg in argv
    ]
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


def test_emit_csv_type_hints_resolve():
    assert typing.get_type_hints(chcalc.cli.emit_csv)["table"] is experiments.ResultTable
