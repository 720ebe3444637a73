import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from chcalc.errors import Infeasible, InvalidArgument
from chcalc.experiments import (
    GOLDEN_DECAY,
    GOLDEN_HORIZON,
    GOLDEN_INSPECTION,
    GOLDEN_MISMATCH,
    GOLDEN_WIDTH,
    ExperimentConfig,
    ResultTable,
    _count_level,
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

    def test_measured_tracks_exact_tails_at_thirty_bits(self):
        trials = 20_000
        table = run_experiment(small(GOLDEN_INSPECTION, n_per_test=30, trials=trials))
        p = table.metadata["config"]["params"]
        h, states, eta, n = p["H"], p["states"], p["eta"], p["n_per_test"]
        q1 = 1.0 / states
        for schedule, measured in zip(table.column("schedule"), table.column("err_worst_measured")):
            times = [int(t) for t in schedule.split(";")]
            # exact error P(Bin(n, q0) < k*) + P(Bin(n, q1) >= k*) and its standard
            # error at each downstream distance the schedule leaves
            bands = []
            for d in {next((u for u in times if u > t), h) - t for t in range(h)}:
                q0 = q1 + (1 - q1) * eta**d
                k_star = math.ceil(n * 0.5 * (q0 + q1) - 1e-12)
                miss0, miss1 = stats.binom.cdf(k_star - 1, n, q0), stats.binom.sf(k_star - 1, n, q1)
                se = math.sqrt((miss0 * (1 - miss0) + miss1 * (1 - miss1)) / trials)
                bands.append((miss0 + miss1 - 5 * se, miss0 + miss1 + 5 * se))
            # each step's sampled error lies within 5 standard errors of its exact
            # value, so the worst step's lies between the largest ends
            assert max(lo for lo, _ in bands) <= measured <= max(hi for _, hi in bands)

    def test_work_does_not_grow_with_trials_times_bits(self):
        # a per-bit draw would hold 2 x trials x n_per_test uniforms
        n, trials = 200_000, 3
        cfg = small(GOLDEN_INSPECTION, H=6, schedules=[[3], [2, 4]], n_per_test=n, trials=trials)
        started = time.perf_counter()
        run_experiment(cfg)
        assert time.perf_counter() - started < 1.0
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * trials * n * 8

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


def _chi2_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Chi-squared fit, cells with expected count below 5 pooled into one;
    a cell of probability 0 must stay empty."""
    observed, expected = np.ravel(observed), np.ravel(expected)
    possible = expected > 0
    assert not observed[~possible].any()
    observed, expected = observed[possible], expected[possible]
    rare = expected < 5
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    return stats.chisquare(observed, expected).pvalue


def _log_factorials(n: int) -> np.ndarray:
    return special.gammaln(np.arange(1, n + 2))


def _joint_by_levels(rng, n, q, q_next, trials, level=_count_level):
    """Joint counts table[a, b] of a trial's success counts at q and q_next,
    drawn as level histograms: the trials at each first-level count a move on
    by themselves."""
    log_fact = _log_factorials(n)
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    start = np.zeros(1, dtype=np.int64), np.array([trials])
    for a, h in zip(*level(rng, *start, n, 0.0, q, log_fact)):
        counts, mult = level(rng, np.array([a]), np.array([h]), n, q, q_next, log_fact)
        table[a, counts] = mult
    return table


def _joint_by_bits(rng, n, q, q_next, trials):
    """The per-bit reference, the inspection experiment's sampler before count
    histograms: each trial's count at q is #{u < q} over its own n uniforms."""
    u = rng.random((trials, n))
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.add.at(table, ((u < q).sum(axis=1), (u < q_next).sum(axis=1)), 1)
    return table


def _level_missing_the_rescale(rng, counts, mult, n, q, q_next, log_fact):
    """A faulty level whose conditional rate is q_next - q, not (q_next - q) / (1 - q)."""
    return _count_level(rng, counts, mult, n, 0.0, q_next - q, log_fact)


def _joint_pmf(n, q, q_next):
    """P(count a at q, count b at q_next): each uniform falls below q, in
    [q, q_next), or above q_next."""
    a, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    pmf = stats.multinomial.pmf(
        np.stack([a, b - a, n - b], axis=-1), n, [q, q_next - q, 1 - q_next]
    )
    return np.where(b >= a, pmf, 0.0)


class TestCountLevels:
    JOINT_SAMPLERS = {
        "levels": _joint_by_levels,
        "per-bit": _joint_by_bits,
        "missing-rescale": lambda *args: _joint_by_levels(*args, level=_level_missing_the_rescale),
    }

    @pytest.mark.parametrize("sampler", list(JOINT_SAMPLERS))
    @pytest.mark.parametrize("n", [1, 6])
    def test_two_level_joint_fits_exact_law(self, sampler, n):
        q, q_next, trials = 0.3, 0.55, 20_000
        table = self.JOINT_SAMPLERS[sampler](np.random.default_rng(11), n, q, q_next, trials)
        assert table.sum() == trials
        pvalue = _chi2_pvalue(table, trials * _joint_pmf(n, q, q_next))
        if sampler == "missing-rescale":
            assert pvalue < 1e-3
        else:
            assert pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 30, 2000])
    def test_each_level_fits_its_binomial(self, n):
        # 2000 bits leave out the columns farther than 20 sqrt(n - c) from a row's mean
        rng, trials, log_fact = np.random.default_rng(5), 20_000, _log_factorials(n)
        (counts, mult), q = (np.zeros(1, dtype=np.int64), np.array([trials])), 0.0
        for q_next in (0.5, 0.7, 0.7, 0.95):
            counts, mult = _count_level(rng, counts, mult, n, q, q_next, log_fact)
            q = q_next
            assert np.all(np.diff(counts) > 0) and mult.sum() == trials
            observed = np.zeros(n + 1, dtype=np.int64)
            observed[counts] = mult
            expected = trials * stats.binom.pmf(np.arange(n + 1), n, q)
            assert _chi2_pvalue(observed, expected) > 1e-3

    def test_equal_levels_draw_nothing(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        counts, mult = np.array([0, 2]), np.array([5, 7])
        moved = _count_level(rng, counts, mult, 2, 0.4, 0.4, _log_factorials(2))
        assert moved[0] is counts and moved[1] is mult
        assert rng.bit_generator.state == state


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

    def test_largest_obs_per_trial_runs(self):
        table = run_experiment(small(GOLDEN_HORIZON, H=1, etas=[0.7], obs_per_trial=1029, trials=1))
        assert all(0.5 <= exact <= 1 + 1e-9 for exact in table.column("accuracy_exact"))

    @pytest.mark.parametrize("obs", [2000, 10**8])
    def test_larger_obs_per_trial_refused_at_once(self, obs):
        # the exact accuracy's binomial coefficients pass float range beyond 1029
        start = time.perf_counter()
        with pytest.raises(InvalidArgument) as refused:
            small(GOLDEN_HORIZON, H=1, etas=[0.7], obs_per_trial=obs, trials=1)
        assert time.perf_counter() - start < 1
        assert str(refused.value) == f"obs_per_trial must lie in [1,1029], got {obs}"


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

    def test_observation_limit(self):
        assert 0.5 <= exact_two_point_accuracy(0.9, 0.1, 1029) <= 1 + 1e-9
        with pytest.raises(InvalidArgument, match=r"^n_obs must lie in \[1,1029\], got 1030$"):
            exact_two_point_accuracy(0.9, 0.1, 1030)


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
