import json
import math

import numpy as np
import pytest

from chcalc.errors import Infeasible, InvalidArgument
from chcalc.experiments import (
    GOLDEN_DECAY,
    GOLDEN_HORIZON,
    GOLDEN_INSPECTION,
    GOLDEN_MISMATCH,
    GOLDEN_WIDTH,
    ExperimentConfig,
    ResultTable,
    exact_two_point_accuracy,
    oracle_min_gap,
    oracle_min_inspections,
    run_experiment,
    unit_rng,
)
from chcalc.inspection import greedy_schedule, min_gap_value, step_info_distances


def small(config: dict, **param_overrides) -> ExperimentConfig:
    data = {**config, "params": {**config["params"], **param_overrides}}
    return ExperimentConfig.from_json_dict(data)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="nope", master_seed=1, replicates=1, params={})

    def test_rejects_unknown_param(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="decay", master_seed=1, replicates=1, params={"bogus": 1})

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="decay", master_seed=-1, replicates=1, params={})

    def test_rejects_zero_replicates(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="decay", master_seed=1, replicates=0, params={})

    def test_golden_configs_validate(self):
        for data in (GOLDEN_DECAY, GOLDEN_WIDTH, GOLDEN_INSPECTION, GOLDEN_HORIZON, GOLDEN_MISMATCH):
            cfg = ExperimentConfig.from_json_dict(data)
            assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize(
        "config,literal",
        [
            (GOLDEN_DECAY, '{"kind": "decay", "master_seed": 20260810, "replicates": 1, '
             '"params": {"etas": [0.7, 0.8, 0.9, 0.95], "states": 10, "H": 40}}'),
            (GOLDEN_WIDTH, '{"kind": "width", "master_seed": 20260810, "replicates": 1, '
             '"params": {"rho": 0.15, "value": 0.5, "widths": [1, 4, 16, 64, 256], '
             '"groups": 100000}}'),
            (GOLDEN_INSPECTION, '{"kind": "inspection", "master_seed": 20260810, "replicates": 1, '
             '"params": {"H": 20, "states": 10, "eta": 0.9, "epsilon": 0.1, '
             '"schedules": [[5, 10, 15], [2, 4, 6], [14, 16, 18], [2, 13, 14]], '
             '"n_per_test": 1, "trials": 20000}}'),
            (GOLDEN_HORIZON, '{"kind": "horizon", "master_seed": 20260810, "replicates": 1, '
             '"params": {"H": 40, "states": 10, "etas": [0.7, 0.8], "n": 1000, "epsilon": 0.1, '
             '"obs_per_trial": 2, "trials": 10000}}'),
            (GOLDEN_MISMATCH, '{"kind": "mismatch", "master_seed": 20260810, "replicates": 1, '
             '"params": {"p": 0.99, "H": 100, "threshold": 0.8, "chains": 100000}}'),
        ],
        ids=["decay", "width", "inspection", "horizon", "mismatch"],
    )
    def test_golden_configs_are_pinned(self, config, literal):
        # The golden configs are built from the kinds' defaults, so a changed
        # default must not move one unnoticed.
        assert json.dumps(config) == literal


class TestSeedDerivation:
    def test_distinct_units_distinct_streams(self):
        a = unit_rng(7, "width", 0, 0).random(4)
        b = unit_rng(7, "width", 0, 1).random(4)
        assert not np.allclose(a, b)

    def test_same_unit_same_stream(self):
        a = unit_rng(7, "width", 2, 3).random(4)
        b = unit_rng(7, "width", 2, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_kind_and_replicate_enter_derivation(self):
        base = unit_rng(7, "width", 0, 0).random(4)
        assert not np.allclose(base, unit_rng(7, "horizon", 0, 0).random(4))
        assert not np.allclose(base, unit_rng(7, "width", 1, 0).random(4))

    def test_adding_replicates_preserves_earlier_rows(self):
        cfg1 = small(GOLDEN_MISMATCH, chains=2000)
        cfg3 = ExperimentConfig.from_json_dict(
            {**GOLDEN_MISMATCH, "replicates": 3, "params": {**GOLDEN_MISMATCH["params"], "chains": 2000}}
        )
        rows1 = run_experiment(cfg1).rows
        rows3 = run_experiment(cfg3).rows
        assert rows3[: len(rows1)] == rows1


class TestResultTable:
    def test_rectangular_enforced(self):
        with pytest.raises(InvalidArgument):
            ResultTable(columns=["a", "b"], rows=[[1]])

    def test_csv_header_only_for_empty(self):
        table = ResultTable(columns=["a", "b"], rows=[])
        assert table.to_csv_string() == "a,b\n"

    def test_csv_floats_round_trip(self):
        table = ResultTable(columns=["x"], rows=[[0.41], [1 / 3], [9.0]])
        lines = table.to_csv_string().strip().splitlines()[1:]
        assert [float(s) for s in lines] == [0.41, 1 / 3, 9.0]

    def test_csv_rejects_commas_in_cells(self):
        with pytest.raises(InvalidArgument):
            ResultTable(columns=["s"], rows=[["5,10"]]).to_csv_string()

    def test_lf_endings(self):
        table = ResultTable(columns=["a"], rows=[[1]])
        assert "\r" not in table.to_csv_string()


class TestRunDecay:
    def test_golden_matches_theory_to_1e9(self):
        table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_DECAY))
        assert table.columns == ["step", "distance_to_end", "eta", "chi2_measured", "chi2_theory"]
        measured = table.column("chi2_measured")
        theory = table.column("chi2_theory")
        assert max(abs(m - t) for m, t in zip(measured, theory)) < 1e-9

    def test_fits_in_metadata(self):
        table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_DECAY))
        for eta in (0.7, 0.8, 0.9, 0.95):
            fit = table.metadata["fits"][repr(eta)]
            assert fit["slope"] == pytest.approx(math.log(eta), abs=1e-6)
            assert fit["r2"] > 0.999

    def test_identity_kernel_flat(self):
        table = run_experiment(small(GOLDEN_DECAY, etas=[1.0], H=10))
        assert table.metadata["fits"]["1.0"]["slope"] == pytest.approx(0.0, abs=1e-12)
        assert all(v == pytest.approx(9.0, abs=1e-10) for v in table.column("chi2_measured"))


class TestRunWidth:
    def test_small_run_tracks_theory(self):
        table = run_experiment(small(GOLDEN_WIDTH, groups=20_000, widths=[1, 16, 256]))
        for row_w, emp, theory in zip(
            table.column("W"), table.column("w_eff_empirical"), table.column("w_eff_theory")
        ):
            if row_w == 1:
                assert emp == 1.0
            else:
                assert emp == pytest.approx(theory, rel=0.08)

    def test_rho_zero_recovers_nominal_width(self):
        table = run_experiment(small(GOLDEN_WIDTH, rho=0.0, widths=[64], groups=50_000))
        assert table.column("w_eff_empirical")[0] == pytest.approx(64, rel=0.05)


class TestRunInspection:
    def test_golden_ordering_and_worst_steps(self):
        table = run_experiment(small(GOLDEN_INSPECTION, trials=4000))
        by_schedule = dict(zip(table.column("schedule"), table.column("err_worst_measured")))
        assert by_schedule["5;10;15"] < min(
            by_schedule["2;4;6"], by_schedule["14;16;18"], by_schedule["2;13;14"]
        )
        worst_steps = dict(zip(table.column("schedule"), table.column("worst_step")))
        assert worst_steps["5;10;15"] == 0
        assert worst_steps["2;4;6"] == 6
        assert worst_steps["14;16;18"] == 0
        assert worst_steps["2;13;14"] == 2

    def test_measured_tracks_lecam_at_single_bit(self):
        table = run_experiment(small(GOLDEN_INSPECTION, trials=20_000))
        for measured, exact in zip(
            table.column("err_worst_measured"), table.column("err_worst_lecam")
        ):
            assert measured == pytest.approx(exact, abs=0.02)

    def test_superset_schedule_never_worse(self):
        # matched draws make refinement exactly monotone at one bit per test
        cfg = small(
            GOLDEN_INSPECTION,
            schedules=[[5, 15], [5, 10, 15], [2, 5, 10, 15, 17]],
            trials=3000,
        )
        table = run_experiment(cfg)
        errs = dict(zip(table.column("schedule"), table.column("err_worst_measured")))
        assert errs["5;10;15"] <= errs["5;15"] + 1e-12
        assert errs["2;5;10;15;17"] <= errs["5;10;15"] + 1e-12


class TestRunHorizon:
    def test_accuracy_tracks_exact(self):
        table = run_experiment(small(GOLDEN_HORIZON, trials=4000))
        for measured, exact in zip(
            table.column("accuracy_measured"), table.column("accuracy_exact")
        ):
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / 4000)
            assert abs(measured - exact) < 5 * se + 1e-9

    @pytest.mark.parametrize("obs", [1, 5])
    def test_correct_count_within_five_se(self, obs):
        trials = 4000
        table = run_experiment(
            small(GOLDEN_HORIZON, H=20, etas=[0.6, 0.9], obs_per_trial=obs, trials=trials)
        )
        for measured, exact in zip(
            table.column("accuracy_measured"), table.column("accuracy_exact")
        ):
            count = measured * trials
            assert count == pytest.approx(round(count), abs=1e-6)
            se = math.sqrt(trials * exact * (1 - exact))
            assert abs(count - trials * exact) <= 5 * se + 1e-9

    def test_markers_present(self):
        table = run_experiment(small(GOLDEN_HORIZON, trials=100))
        markers = table.metadata["markers"]
        assert markers["0.7"]["h_crit_simplified"] == pytest.approx(25.527, abs=1e-3)
        assert markers["0.8"]["h_crit_simplified"] == pytest.approx(40.803, abs=1e-3)


class TestExactTwoPointAccuracy:
    def test_single_observation_closed_form(self):
        # classify H0 iff the bit is 1: accuracy = (q0 + 1 - q1) / 2
        assert exact_two_point_accuracy(0.853, 0.1, 1) == pytest.approx((0.853 + 0.9) / 2)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        q0, q1, n_obs, trials = 0.4, 0.15, 3, 400_000
        exact = exact_two_point_accuracy(q0, q1, n_obs)
        is_h1 = rng.random(trials) < 0.5
        q = np.where(is_h1, q1, q0)
        x = rng.binomial(n_obs, q)
        mid = 0.5 * (q0 + q1)
        k_star = math.ceil(n_obs * mid - 1e-12)
        acc = np.mean((x < k_star) == is_h1)
        assert acc == pytest.approx(exact, abs=0.004)

    def test_degenerate_pair_is_chance(self):
        assert exact_two_point_accuracy(0.3, 0.3, 5) == pytest.approx(0.5, abs=0.3)


class TestRunMismatch:
    def test_sampled_within_three_se(self):
        table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_MISMATCH))
        row = dict(zip(table.columns, table.rows[0]))
        assert abs(row["fraction_sampled"] - row["fraction_exact"]) <= 3 * row["standard_error"]

    @pytest.mark.parametrize("p,h,threshold", [(0.995, 2000, 0.99), (0.9, 20, 0.5), (0.6, 7, 0.5)])
    def test_hit_count_within_five_se(self, p, h, threshold):
        chains = 20_000
        table = run_experiment(small(GOLDEN_MISMATCH, p=p, H=h, threshold=threshold, chains=chains))
        row = dict(zip(table.columns, table.rows[0]))
        count, exact = row["fraction_sampled"] * chains, row["fraction_exact"]
        assert count == pytest.approx(round(count), abs=1e-6)
        assert abs(count - chains * exact) <= 5 * math.sqrt(chains * exact * (1 - exact))

    def test_perfect_policy_zero(self):
        table = run_experiment(small(GOLDEN_MISMATCH, p=1.0, chains=1000))
        assert table.column("fraction_sampled")[0] == 0.0
        assert table.column("fraction_exact")[0] == 0.0


class TestOracles:
    def test_min_gap_small_exhaustive(self):
        assert oracle_min_gap(12, 2) == 4
        assert oracle_min_gap(12, 11) == 1
        assert oracle_min_gap(9, 0) == 9

    def test_min_gap_guard(self):
        with pytest.raises(InvalidArgument):
            oracle_min_gap(30, 2)

    def test_min_gap_matches_formula_over_grid(self):
        for h in range(2, 13):
            for m in range(0, min(4, h - 1) + 1):
                assert oracle_min_gap(h, m) == min_gap_value(h, m)

    def test_greedy_matches_oracle_homogeneous(self):
        etas = [0.8] * 10
        gamma = 2.5 * math.log(1 / 0.8)
        assert oracle_min_inspections(etas, gamma) == greedy_schedule(etas, gamma).m

    def test_oracle_infeasible_single_step(self):
        with pytest.raises(Infeasible):
            oracle_min_inspections([0.9, 1e-6, 0.9], 1.0)

    def test_greedy_matches_oracle_through_an_inspection_channel(self):
        rng = np.random.default_rng(11)
        infeasible = []
        for _ in range(150):
            h = int(rng.integers(3, 13))
            etas = rng.uniform(0.35, 0.99, size=h)
            gamma = max(step_info_distances(etas)) * float(rng.uniform(1.05, 3.0))
            fidelity = float(rng.uniform(0.5, 1.0))
            try:
                greedy_m = greedy_schedule(etas, gamma, fidelity).m
            except Infeasible:
                greedy_m = None
            try:
                oracle_m = oracle_min_inspections(etas, gamma, fidelity)
            except Infeasible:
                oracle_m = None
            assert greedy_m == oracle_m
            infeasible.append(greedy_m is None)
        assert any(infeasible) and not all(infeasible)  # both outcomes are exercised

    @pytest.mark.parametrize("fidelity", [0.0, 1.5, math.nan])
    def test_oracle_refuses_fidelity_outside_unit_interval(self, fidelity):
        with pytest.raises(InvalidArgument, match="inspection_fidelity"):
            oracle_min_inspections([0.9] * 3, 1.0, fidelity)

    def test_run_oracle_all_match(self):
        cfg = ExperimentConfig(
            kind="oracle",
            master_seed=3,
            replicates=1,
            params={"max_H": 10, "max_m": 3, "greedy_cases": 25},
        )
        table = run_experiment(cfg)
        assert all(table.column("match"))


class TestMetadata:
    def test_config_echo_and_seed(self):
        cfg = small(GOLDEN_MISMATCH, chains=100)
        table = run_experiment(cfg)
        assert table.metadata["master_seed"] == cfg.master_seed
        assert table.metadata["config"]["params"]["chains"] == 100
        assert table.metadata["wall_time_s"] >= 0
