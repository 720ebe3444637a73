import dataclasses
import fractions
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from chcalc import divergence, errors, experiments, horizon, inspection, markov
from chcalc.errors import Infeasible, InvalidArgument
from chcalc.experiments import (
    GOLDEN_DECAY,
    GOLDEN_HORIZON,
    GOLDEN_INSPECTION,
    GOLDEN_MISMATCH,
    GOLDEN_WIDTH,
    ExperimentConfig,
    ResultTable,
    _accuracy,
    _binomial_rows,
    _count_level,
    _draw_correct,
    _draw_counts,
    _log_factorial_table,
    _log_factorials,
    _midpoint_threshold,
    _min_gaps,
    _min_inspections_dp,
    _miss_probs,
    _width_histogram,
    oracle_min_gap,
    oracle_min_inspections,
    run_experiment,
)
from chcalc.inspection import (
    _greedy_placement,
    greedy_schedule,
    min_gap_value,
    segment_budget,
    step_info_distances,
)
from chcalc.markov import mixture_return_probs
from chcalc.schema import KIND_IDS, MAX_HISTOGRAM_COUNT, ORACLE_MAX_HORIZON


def replicate_rng(master_seed: int, kind: str, replicate: int) -> np.random.Generator:
    """The stream of one replicate of a sampled kind, written out:
    Generator(PCG64(SeedSequence([master_seed, kind_id, replicate])))."""
    seq = np.random.SeedSequence([master_seed, KIND_IDS[kind], replicate])
    return np.random.Generator(np.random.PCG64(seq))


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

    def test_rejects_seed_past_64_bits(self):
        with pytest.raises(InvalidArgument, match="^master_seed must be a 64-bit nonnegative integer$"):
            ExperimentConfig(kind="decay", master_seed=2**64, replicates=1, params={})

    def test_rejects_zero_replicates(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="decay", master_seed=1, replicates=0, params={})

    @pytest.mark.parametrize("kind", ["decay", "oracle"])
    def test_unsampled_kinds_refuse_replicates(self, kind):
        for replicates in (2, 4, 1.7):
            with pytest.raises(InvalidArgument, match=f"^replicates must be 1 for kind {kind}, got {replicates}$"):
                ExperimentConfig(kind=kind, replicates=replicates)
        # the type and minimum checks run first, with their own messages
        with pytest.raises(InvalidArgument, match="^replicates must be at least 1, got 0$"):
            ExperimentConfig(kind=kind, replicates=0)
        with pytest.raises(InvalidArgument, match="^replicates must be an integer, got 1.7$"):
            ExperimentConfig.from_json_dict({"kind": kind, "replicates": 1.7})
        assert ExperimentConfig(kind=kind, replicates=1).replicates == 1

    def test_refusal_message_is_the_same_with_type_hints_cached(self):
        bad = {"kind": "horizon", "params": {"obs_per_trial": 2.5}}
        message = "^obs_per_trial must be an integer, got 2.5$"
        errors._type_hints.cache_clear()
        with pytest.raises(InvalidArgument, match=message):
            ExperimentConfig.from_json_dict(bad)
        ExperimentConfig.from_json_dict(GOLDEN_HORIZON)
        assert errors._type_hints.cache_info().currsize >= 2  # the config and the horizon params
        with pytest.raises(InvalidArgument, match=message):
            ExperimentConfig.from_json_dict(bad)

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


SAMPLED = ("width", "inspection", "horizon", "mismatch", "oracle")


class TestSeedDerivation:
    def test_kind_ids_are_pinned(self):
        # Each kind's id enters every seed of its runs, so reordering the kinds
        # in schema would move every stream.
        assert KIND_IDS == {
            "decay": 0, "width": 1, "inspection": 2, "horizon": 3, "mismatch": 4, "oracle": 5
        }
        assert list(experiments._RUNNERS) == list(KIND_IDS)

    @pytest.mark.parametrize("kind", SAMPLED)
    # 2**32 and up take two entropy words
    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    # 300 is past 256, the contraction estimator's block size
    @pytest.mark.parametrize("replicate", [0, 1, 300])
    def test_replicate_stream_is_the_reference(self, kind, master_seed, replicate):
        cfg = ExperimentConfig(kind, master_seed=master_seed)
        expected = replicate_rng(master_seed, kind, replicate).random(8)
        np.testing.assert_array_equal(experiments._replicate_rng(cfg, replicate).random(8), expected)

    def test_generators_differ_across_kinds_and_replicates(self):
        first = {
            (kind, replicate): experiments._replicate_rng(ExperimentConfig(kind, master_seed=7), replicate).random()
            for kind in SAMPLED for replicate in range(3)
        }
        assert len(set(first.values())) == len(first)

    def test_inspection_draws_each_replicate_from_its_stream(self):
        # one schedule: each step draws the q1 histogram, then its one q0 level
        cfg = small({**GOLDEN_INSPECTION, "replicates": 2}, H=6, schedules=[[3]], n_per_test=3, trials=500)
        p = cfg.params
        q_by_distance = mixture_return_probs(p.eta**2, p.states, p.H)
        q1, log_fact = 1.0 / p.states, _log_factorial_table(p.n_per_test)
        start = np.zeros(1, dtype=np.int64), np.array([p.trials])
        expected = []
        for replicate in range(2):
            rng = replicate_rng(cfg.master_seed, "inspection", replicate)
            errors = []
            for t in range(p.H):
                q0 = q_by_distance[3 - t if t < 3 else p.H - t]  # to the checkpoint at 3, else to H
                counts1, mult1 = _count_level(rng, *start, p.n_per_test, 0.0, q1, log_fact)
                counts0, mult0 = _count_level(rng, *start, p.n_per_test, 0.0, q0, log_fact)
                k_star = _midpoint_threshold(q0, q1, p.n_per_test)
                errors.append(int(mult0[counts0 < k_star].sum()) / p.trials
                              + int(mult1[counts1 >= k_star].sum()) / p.trials)
            expected.append(max(errors))
        assert run_experiment(cfg).column("err_worst_measured") == expected

    def test_horizon_draws_each_replicate_from_its_stream(self):
        cfg = small({**GOLDEN_HORIZON, "replicates": 2}, H=4, trials=700)
        table = run_experiment(cfg)
        expected = []
        for replicate in range(2):
            rng = replicate_rng(cfg.master_seed, "horizon", replicate)
            for row in table.rows[: len(table.rows) // 2]:  # replicate 0's levels, in row order
                miss0, miss1 = _miss_probs(row.q0, row.q1, cfg.params.obs_per_trial)
                expected.append(sum(_draw_correct(rng, 700, miss0, miss1)) / 700)
        assert table.column("accuracy_measured") == expected

    def test_mismatch_draws_each_replicate_from_its_stream(self):
        cfg = small({**GOLDEN_MISMATCH, "replicates": 3}, chains=5000)
        p = cfg.params
        rows = _binomial_rows(np.zeros(1, dtype=np.int64), p.H, p.p, _log_factorials)
        expected = []
        for replicate in range(3):
            counts, mult = _draw_counts(replicate_rng(cfg.master_seed, "mismatch", replicate), np.array([5000]), *rows)
            expected.append(int(mult[(counts >= math.ceil(p.threshold * p.H)) & (counts < p.H)].sum()) / 5000)
        assert run_experiment(cfg).column("fraction_sampled") == expected

    def test_oracle_cases_draw_from_replicate_zero_stream(self):
        cfg = ExperimentConfig("oracle", master_seed=11, params={"max_H": 6, "max_m": 2, "greedy_cases": 5})
        greedy = [row for row in run_experiment(cfg).rows if row.check == "greedy"]
        rng = replicate_rng(11, "oracle", 0)
        expected = []
        for _ in range(5):
            h = int(rng.integers(3, 7))
            etas = rng.uniform(0.35, 0.99, size=h)
            expected.append((h, max(step_info_distances(etas)) * float(rng.uniform(1.05, 3.0))))
        assert [(row.H, row.param) for row in greedy] == expected

    @pytest.mark.parametrize("kind", ["width", "inspection", "horizon", "mismatch"])
    def test_adding_replicates_preserves_earlier_rows(self, kind):
        # one bit per inspection test, so the measured error is not 0 in every replicate
        params = {**SMALL_PARAMS[kind], "n_per_test": 1} if kind == "inspection" else SMALL_PARAMS[kind]
        one = run_experiment(ExperimentConfig(kind, master_seed=5, params=params))
        three = run_experiment(ExperimentConfig(kind, master_seed=5, replicates=3, params=params))
        assert three.rows[: len(one.rows)] == one.rows
        assert three.column("replicate") == [r for r in range(3) for _ in one.rows]
        second = three.rows[len(one.rows) : 2 * len(one.rows)]
        assert second != [dataclasses.replace(row, replicate=1) for row in one.rows]

    def test_adding_greedy_cases_preserves_earlier_rows(self):
        params = {"max_H": 6, "max_m": 2}
        few = run_experiment(ExperimentConfig("oracle", master_seed=5, params={**params, "greedy_cases": 3}))
        more = run_experiment(ExperimentConfig("oracle", master_seed=5, params={**params, "greedy_cases": 8}))
        assert more.rows[: len(few.rows)] == few.rows
        assert len(more.rows) == len(few.rows) + 5


@dataclasses.dataclass(frozen=True)
class PairRow:
    a: object
    b: object = 0


class TestResultTable:
    def test_csv_header_only_for_empty(self):
        table = ResultTable(PairRow, [])
        assert table.to_csv_string() == "a,b\n"

    def test_csv_floats_round_trip(self):
        table = ResultTable(PairRow, [PairRow(a=0.41), PairRow(a=1 / 3), PairRow(a=9.0)])
        lines = table.to_csv_string().strip().splitlines()[1:]
        assert [float(s.split(",")[0]) for s in lines] == [0.41, 1 / 3, 9.0]

    def test_csv_rejects_commas_in_cells(self):
        with pytest.raises(InvalidArgument):
            ResultTable(PairRow, [PairRow(a="5,10")]).to_csv_string()

    def test_lf_endings(self):
        table = ResultTable(PairRow, [PairRow(a=1)])
        assert "\r" not in table.to_csv_string()

    def test_cells_of_every_type_render_as_by_isinstance(self):
        # the exact-type fast path against the isinstance chain it stands in front of
        def by_isinstance(cell):
            if isinstance(cell, (int, np.integer)):
                return str(int(cell))
            if isinstance(cell, (float, np.floating)):
                return format(float(cell), ".17g")
            return str(cell)

        cells = [
            0.1, 1 / 3, -0.0, 1e-310, math.inf, -math.inf, math.nan, 2.0**53 + 1, 10**30, -7, 0,
            True, False, np.float64(0.1), np.float32(0.1), np.int64(-3), np.uint8(255),
            np.bool_(True), np.bool_(False), "5;10", "",
        ]
        rows = [PairRow(a=a, b=b) for a, b in itertools.product(cells, repeat=2)]
        expected = "a,b\n" + "".join(f"{by_isinstance(r.a)},{by_isinstance(r.b)}\n" for r in rows)
        assert ResultTable(PairRow, rows).to_csv_string() == expected

    def test_one_column_rows(self):
        @dataclasses.dataclass(frozen=True)
        class OneRow:
            a: object

        table = ResultTable(OneRow, [OneRow(a="ab"), OneRow(a=0.5)])
        assert table.to_csv_string() == "a\nab\n0.5\n"


# Each kind's CSV header, pinned: the columns are the fields of its row type.
HEADERS = {
    "decay": "step,distance_to_end,eta,chi2_measured,chi2_theory",
    "width": "replicate,W,groups,w_eff_empirical,w_eff_theory,var_single_empirical,"
             "var_group_mean_empirical,var_theory",
    "inspection": "replicate,schedule,worst_step,max_gap,err_worst_measured,err_worst_lecam,"
                  "sample_lb_worst",
    "horizon": "replicate,eta,distance,q0,q1,accuracy_measured,accuracy_exact,h_crit_marker",
    "mismatch": "replicate,chains,H,p,threshold,fraction_sampled,fraction_exact,standard_error",
    "oracle": "check,H,m,param,oracle_value,computed_value,match",
}
SMALL_PARAMS = {
    "decay": {"H": 3},
    "width": {"widths": [1, 4], "groups": 100},
    "inspection": {"H": 4, "schedules": [[2]], "trials": 100},
    "horizon": {"H": 2, "trials": 100},
    "mismatch": {"chains": 100},
    "oracle": {"max_H": 4, "greedy_cases": 2},
}


@pytest.mark.parametrize("kind", list(HEADERS))
def test_csv_header_is_pinned(kind):
    table = run_experiment(ExperimentConfig(kind, params=SMALL_PARAMS[kind]))
    assert table.to_csv_string().splitlines()[0] == HEADERS[kind]


class TestRunDecay:
    def test_golden_matches_theory_to_1e9(self):
        table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_DECAY))
        measured = table.column("chi2_measured")
        theory = table.column("chi2_theory")
        assert max(abs(m - t) for m, t in zip(measured, theory)) < 1e-9

    def test_theory_is_eta_power_times_initial_chi2(self):
        table = run_experiment(small(GOLDEN_DECAY, H=4))
        for eta in GOLDEN_DECAY["params"]["etas"]:
            rows = [row for row in table.rows if row.eta == eta]
            initial = next(row.chi2_measured for row in rows if row.distance_to_end == 0)
            assert [row.step for row in rows] == [0, 1, 2, 3, 4]
            assert [row.distance_to_end for row in rows] == [4, 3, 2, 1, 0]
            for row in rows:
                assert row.chi2_theory == eta**row.distance_to_end * initial

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

    def test_variances_are_the_moments_of_the_drawn_histogram(self):
        # each replicate's widths draw from its stream in row order
        cfg = small({**GOLDEN_WIDTH, "replicates": 2}, rho=0.3, value=0.2, widths=[1, 3, 100, 100000], groups=5000)
        rows = iter(run_experiment(cfg).rows)
        for replicate in range(2):
            rng = replicate_rng(cfg.master_seed, "width", replicate)
            for w, row in zip(cfg.params.widths, rows):
                sums = np.repeat(*_width_histogram(0.2, w, 0.3, 5000, rng))
                n = 5000 * w
                pooled = sums.sum() / n
                var_single = n * pooled * (1 - pooled) / (n - 1)
                var_mean = var_single if w == 1 else np.var(sums / w, ddof=1)
                assert row.var_single_empirical == pytest.approx(var_single, rel=1e-12)
                assert row.var_group_mean_empirical == pytest.approx(var_mean, rel=1e-12)

    def test_group_limit_gives_finite_positive_variances(self):
        table = run_experiment(small(GOLDEN_WIDTH, widths=[1, 4, 16], groups=MAX_HISTOGRAM_COUNT))
        for name in ("var_single_empirical", "var_group_mean_empirical", "w_eff_empirical"):
            assert all(0 < v < math.inf for v in table.column(name))
        for emp, theory in zip(table.column("w_eff_empirical"), table.column("w_eff_theory")):
            assert emp == pytest.approx(theory, rel=1e-6)

    def test_work_does_not_grow_with_groups(self):
        started = time.perf_counter()
        run_experiment(small(GOLDEN_WIDTH, widths=[64, 10**4], groups=10**11))
        assert time.perf_counter() - started < 1.0


class TestRunInspection:
    def test_work_does_not_grow_with_trials(self):
        started = time.perf_counter()
        table = run_experiment(small(GOLDEN_INSPECTION, trials=MAX_HISTOGRAM_COUNT))
        assert time.perf_counter() - started < 1.0
        # one checkpoint bit per test: the measured error is the Le Cam error
        for measured, lecam in zip(table.column("err_worst_measured"), table.column("err_worst_lecam")):
            assert measured == pytest.approx(lecam, abs=1e-8)

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


def _gammaln_table(n: int):
    """ln k! for k = 0..n by scipy, as the lookup ``_count_level`` takes."""
    return special.gammaln(np.arange(1, n + 2)).__getitem__


def _joint_by_levels(rng, n, q, q_next, trials, level=_count_level):
    """Joint counts table[a, b] of a trial's success counts at q and q_next,
    drawn as level histograms: the trials at each first-level count a move on
    by themselves."""
    log_fact = _gammaln_table(n)
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
        rng, trials, log_fact = np.random.default_rng(5), 20_000, _gammaln_table(n)
        (counts, mult), q = (np.zeros(1, dtype=np.int64), np.array([trials])), 0.0
        for q_next in (0.5, 0.7, 0.7, 0.95):
            counts, mult = _count_level(rng, counts, mult, n, q, q_next, log_fact)
            q = q_next
            assert np.all(np.diff(counts) > 0) and mult.sum() == trials
            observed = np.zeros(n + 1, dtype=np.int64)
            observed[counts] = mult
            expected = trials * stats.binom.pmf(np.arange(n + 1), n, q)
            assert _chi2_pvalue(observed, expected) > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
    def test_table_and_window_lookups_draw_the_same_counts(self, n):
        # the inspection experiment's table against the width experiment's lookup
        drawn = []
        for lookup in (_log_factorial_table(n), _log_factorials):
            rng = np.random.default_rng(n)
            counts, mult, q = np.zeros(1, dtype=np.int64), np.array([5000]), 0.0
            for q_next in (0.1, 0.35, 0.8, 0.99):
                counts, mult = _count_level(rng, counts, mult, n, q, q_next, lookup)
                drawn.append((counts.tolist(), mult.tolist()))
                q = q_next
        assert drawn[:4] == drawn[4:]

    def test_equal_levels_draw_nothing(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        counts, mult = np.array([0, 2]), np.array([5, 7])
        moved = _count_level(rng, counts, mult, 2, 0.4, 0.4, _gammaln_table(2))
        assert moved[0] is counts and moved[1] is mult
        assert rng.bit_generator.state == state

    def test_level_one_moves_every_count_to_n_without_drawing(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        counts, mult = _count_level(rng, np.array([0, 2]), np.array([5, 7]), 3, 0.4, 1.0, _gammaln_table(3))
        assert (counts.tolist(), mult.tolist()) == ([3], [12])
        assert rng.bit_generator.state == state


class TestBinomialRows:
    """``_binomial_rows`` from count 0, the start rows ``run_inspection``
    draws each step's q1 level and first level from."""

    @staticmethod
    def start_row(n, rate, log_fact=None):
        log_fact = _log_factorial_table(n) if log_fact is None else log_fact
        return _binomial_rows(np.zeros(1, dtype=np.int64), n, rate, log_fact)

    RATES = [5e-324, 1e-9, 0.05, 0.1, 0.5, 0.99, 1 - 2**-53]

    @pytest.mark.parametrize("n", [1, 30, 401, 1029])
    def test_start_row_is_the_binomial_pmf(self, n):
        # 1029 is the largest obs_per_trial; past 400 a row leaves columns out
        for rate in self.RATES:
            lo, row = self.start_row(n, rate)
            k = np.arange(lo, lo + row.shape[1])
            pmf = stats.binom.pmf(k, n, rate)
            kept = pmf > 1e-300
            assert row.shape[0] == 1 and abs(row.sum() - 1) < 1e-14, (n, rate)
            assert np.allclose(row[0][kept], pmf[kept], rtol=1e-10, atol=0), (n, rate)
            assert 1 - pmf.sum() < 1e-13, (n, rate)  # the columns left out carry no mass

    @pytest.mark.parametrize("n", [1, 2, 400, 401, 1029])
    def test_table_and_lgamma_lookups_give_the_same_bits(self, n):
        # inspection's table lookup against width's per-entry lgamma
        for rate in [*self.RATES, 1.0]:
            lo, row = self.start_row(n, rate)
            other_lo, other = self.start_row(n, rate, _log_factorials)
            assert (lo, row.tobytes()) == (other_lo, other.tobytes()), (n, rate)

    def test_windows_differ_past_400(self):
        windows = {}
        for rate in (0.05, 0.5, 0.99, 1.0):
            lo, row = self.start_row(500, rate)
            windows[rate] = (lo, lo + row.shape[1] - 1)
        assert windows == {0.05: (0, 473), 0.5: (0, 500), 0.99: (47, 500), 1.0: (500, 500)}

    def test_rate_one_gives_the_point_row(self):
        lo, rows = _binomial_rows(np.array([0, 2]), 5, 1.0, _log_factorial_table(5))
        assert lo == 5 and rows.tolist() == [[1.0], [1.0]]


def _correct_by_trial(rng, trials, q0, q1, obs):
    """The reference sampler, the horizon experiment's unit before count
    histograms: one Bin(obs, q) success count per trial, thresholded at k*."""
    k_star = _midpoint_threshold(q0, q1, obs)
    n1 = int(rng.binomial(trials, 0.5))
    correct1 = np.count_nonzero(rng.binomial(obs, q1, size=n1) < k_star)
    correct0 = np.count_nonzero(rng.binomial(obs, q0, size=trials - n1) >= k_star)
    return correct1, correct0


def _homogeneity_pvalue(a, b):
    """Chi-squared test that two samples of counts share one law; values seen
    fewer than 10 times in the two samples together are pooled into one cell."""
    values, cell = np.unique(np.concatenate([a, b]), return_inverse=True)
    table = np.zeros((2, values.size))
    np.add.at(table, (np.repeat([0, 1], [len(a), len(b)]), cell.ravel()), 1)
    common = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, common], table[:, ~common].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    return 1.0 if table.shape[1] < 2 else stats.chi2_contingency(table, correction=False).pvalue


class TestDrawCorrect:
    """The horizon unit's per-side correct counts, one binomial of
    misclassified trials per side, against the per-trial reference sampler.
    Each case compares 3000 units per sampler and side; a sampler of the same
    law fails a comparison with probability 1e-3, and the seeds are fixed."""

    # (q0, q1, obs_per_trial, trials)
    CASES = {
        "one-bit": (0.853, 0.1, 1, 40),
        "three-bits": (0.4, 0.15, 3, 40),
        "close-pair-thirty-bits": (0.55, 0.5, 30, 40),
        "distance-zero-q0-is-one": (1.0, 0.1, 4, 40),
        # q0 of a chain reaches q1 = 1/states after underflow (eta 0.3, 10 states, d >= 64)
        "q0-equals-q1": (0.1, 0.1, 5, 40),
        "largest-obs-one-trial": (0.5, 0.48, 1029, 1),
    }
    UNITS = 3000

    def _by_side(self, trials, miss0, miss1, seed):
        rng = np.random.default_rng(seed)
        return np.array([_draw_correct(rng, trials, miss0, miss1) for _ in range(self.UNITS)])

    def _by_trial(self, q0, q1, obs, trials, seed):
        rng = np.random.default_rng(seed)
        return np.array([_correct_by_trial(rng, trials, q0, q1, obs) for _ in range(self.UNITS)])

    @pytest.mark.parametrize("case", list(CASES))
    def test_per_side_counts_follow_the_reference_law(self, case):
        q0, q1, obs, trials = self.CASES[case]
        drawn = self._by_side(trials, *_miss_probs(q0, q1, obs), seed=17)
        reference = self._by_trial(q0, q1, obs, trials, seed=18)
        for side in (0, 1):
            assert _homogeneity_pvalue(drawn[:, side], reference[:, side]) > 1e-3

    def test_a_miss_summed_from_one_count_too_high_is_detected(self):
        q0, q1, obs, trials = self.CASES["three-bits"]
        miss0, miss1 = _miss_probs(q0, q1, obs)
        k_star = _midpoint_threshold(q0, q1, obs)
        # miss1 summed from k* + 1: the pmf term at k* left out
        miss1 -= math.comb(obs, k_star) * q1**k_star * (1 - q1) ** (obs - k_star)
        drawn = self._by_side(trials, miss0, miss1, seed=17)
        reference = self._by_trial(q0, q1, obs, trials, seed=18)
        assert _homogeneity_pvalue(drawn[:, 0], reference[:, 0]) < 1e-3

    def test_a_side_with_no_trials_counts_none(self):
        misses = _miss_probs(0.55, 0.1, 2)
        sizes = set()
        for seed in range(20):
            n1 = int(np.random.default_rng(seed).binomial(1, 0.5))  # the unit's first draw
            correct1, correct0 = _draw_correct(np.random.default_rng(seed), 1, *misses)
            assert correct1 <= n1 and correct0 <= 1 - n1
            sizes.add(n1)
        assert sizes == {0, 1}


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
        assert all(0.5 <= exact <= 1 for exact in table.column("accuracy_exact"))
        assert set(table.column("accuracy_measured")) <= {0.0, 1.0}

    def test_work_does_not_grow_with_trials(self):
        started = time.perf_counter()
        table = run_experiment(small(GOLDEN_HORIZON, trials=MAX_HISTOGRAM_COUNT))
        assert time.perf_counter() - started < 1.0
        for measured, exact in zip(table.column("accuracy_measured"), table.column("accuracy_exact")):
            assert measured == pytest.approx(exact, abs=1e-8)

    def test_distance_zero_separates_with_q0_one(self):
        trials = 4000
        table = run_experiment(small(GOLDEN_HORIZON, H=2, etas=[0.7], trials=trials))
        row = table.rows[0]
        assert (row.distance, row.q0) == (0, 1.0)
        se = math.sqrt(row.accuracy_exact * (1 - row.accuracy_exact) / trials)
        assert abs(row.accuracy_measured - row.accuracy_exact) <= 5 * se

    def test_levels_equal_after_underflow_are_chance(self):
        trials = 4000
        table = run_experiment(small(GOLDEN_HORIZON, H=80, etas=[0.3], trials=trials))
        equal = [row for row in table.rows if row.q0 == row.q1]
        # q0 = q1 + (1 - q1) * sqrt(0.3)**d rounds to q1 = 1/states from the
        # first d whose second term is below half an ulp of q1
        q1 = 1.0 / GOLDEN_HORIZON["params"]["states"]
        first = math.ceil(math.log(math.ulp(q1) / 2 / (1 - q1)) / math.log(math.sqrt(0.3)))
        assert first == 66
        assert [row.distance for row in equal] == list(range(first, 81))
        for row in equal:
            assert row.accuracy_exact == pytest.approx(0.5, abs=1e-12)
            assert abs(row.accuracy_measured - 0.5) <= 5 * math.sqrt(0.25 / trials)

    def test_adding_replicates_keeps_earlier_rows(self):
        one = run_experiment(small(GOLDEN_HORIZON, H=5, trials=300))
        three = run_experiment(small({**GOLDEN_HORIZON, "replicates": 3}, H=5, trials=300))
        assert three.rows[: len(one.rows)] == one.rows
        assert three.column("replicate") == [r for r in range(3) for _ in one.rows]

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
        assert _accuracy(*_miss_probs(0.853, 0.1, 1)) == pytest.approx((0.853 + 0.9) / 2)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        q0, q1, n_obs, trials = 0.4, 0.15, 3, 400_000
        exact = _accuracy(*_miss_probs(q0, q1, n_obs))
        is_h1 = rng.random(trials) < 0.5
        q = np.where(is_h1, q1, q0)
        x = rng.binomial(n_obs, q)
        mid = 0.5 * (q0 + q1)
        k_star = math.ceil(n_obs * mid - 1e-12)
        acc = np.mean((x < k_star) == is_h1)
        assert acc == pytest.approx(exact, abs=0.004)

    def test_degenerate_pair_is_chance(self):
        assert _accuracy(*_miss_probs(0.3, 0.3, 5)) == pytest.approx(0.5, abs=0.3)

    def test_observation_limit(self):
        # beyond 1029 the config is refused (TestRunHorizon::test_larger_obs_per_trial_refused_at_once)
        assert 0.5 <= _accuracy(*_miss_probs(0.9, 0.1, 1029)) <= 1

    def test_against_exact_rationals(self):
        # the chains' own outcome probabilities, summed in exact rationals over
        # the same threshold: at most 1, and within 1e-14 relative
        for eta, states, n in itertools.product([0.3, 0.8, 0.99], [2, 3, 10], [1, 2, 7, 30, 64]):
            q1 = 1.0 / states
            for q0 in mixture_return_probs(eta, states, 12)[::3]:
                k_star = _midpoint_threshold(q0, q1, n)
                p0, p1 = fractions.Fraction(q0), fractions.Fraction(q1)
                correct = sum(math.comb(n, k) * p0**k * (1 - p0) ** (n - k) for k in range(k_star, n + 1))
                correct += sum(math.comb(n, k) * p1**k * (1 - p1) ** (n - k) for k in range(k_star))
                exact = _accuracy(*_miss_probs(q0, q1, n))
                assert exact <= 1, (eta, states, n, q0)
                assert abs(exact - correct / 2) <= 1e-14 * (correct / 2), (eta, states, n, q0)


class TestRunMismatch:
    def test_sampled_within_three_se(self):
        table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_MISMATCH))
        row = table.rows[0]
        assert abs(row.fraction_sampled - row.fraction_exact) <= 3 * row.standard_error

    @pytest.mark.parametrize(
        "p,h,threshold,chains",
        [pytest.param(0.995, 2000, 0.99, 20_000, id="0.995-2000-0.99"),
         pytest.param(0.9, 20, 0.5, 20_000, id="0.9-20-0.5"),
         pytest.param(0.6, 7, 0.5, 20_000, id="0.6-7-0.5"),
         # one Bin(H, p) a chain would need 745 GiB here; the histogram's
         # cost does not depend on chains
         pytest.param(0.99, 100, 0.8, 10**11, id="0.99-100-0.8-1e11")],
    )
    def test_hit_count_within_five_se(self, p, h, threshold, chains):
        table = run_experiment(small(GOLDEN_MISMATCH, p=p, H=h, threshold=threshold, chains=chains))
        row = table.rows[0]
        count, exact = row.fraction_sampled * chains, row.fraction_exact
        assert count == pytest.approx(round(count), abs=1e-6)
        assert abs(count - chains * exact) <= 5 * math.sqrt(chains * exact * (1 - exact))

    def test_perfect_policy_zero(self):
        table = run_experiment(small(GOLDEN_MISMATCH, p=1.0, chains=1000))
        assert table.column("fraction_sampled")[0] == 0.0
        assert table.column("fraction_exact")[0] == 0.0

    def test_never_correct_policy_zero(self):
        # at p = 0 every chain stays at count 0, below any bar: the level
        # does not move, so nothing is drawn
        table = run_experiment(small(GOLDEN_MISMATCH, p=0.0, chains=1000))
        assert table.column("fraction_sampled")[0] == 0.0
        assert table.column("fraction_exact")[0] == 0.0

    def test_bar_at_every_step_has_no_hits(self):
        # threshold 1 puts the bar at H, and a chain with H correct steps
        # holds no wrong step, however the counts spread below it
        table = run_experiment(small(GOLDEN_MISMATCH, p=0.9, H=20, threshold=1.0, chains=10**6))
        assert table.column("fraction_sampled")[0] == 0.0
        assert table.column("fraction_exact")[0] == 0.0

    def test_chain_limit_gives_a_fraction(self):
        table = run_experiment(small(GOLDEN_MISMATCH, chains=MAX_HISTOGRAM_COUNT))
        row = table.rows[0]
        assert 0.0 < row.fraction_sampled < 1.0
        assert abs(row.fraction_sampled - row.fraction_exact) <= 5 * row.standard_error

    def test_adding_replicates_keeps_earlier_rows(self):
        one = run_experiment(small(GOLDEN_MISMATCH, chains=5000))
        three = run_experiment(small({**GOLDEN_MISMATCH, "replicates": 3}, chains=5000))
        assert three.rows[:1] == one.rows
        assert len({row.fraction_sampled for row in three.rows}) > 1


class TestOracles:
    """The dynamic-programming oracles against the enumeration they replaced,
    and the greedy scheduler against them."""

    @staticmethod
    def enumerated_min_gap(horizon, m):
        """The least maximal gap over every m-subset of the interior steps."""
        return min(
            max(b - a for a, b in zip((0, *times), (*times, horizon)))
            for times in itertools.combinations(range(1, horizon), m)
        )

    @staticmethod
    def enumerated_min_inspections(weights, budget):
        """The first m, in increasing order, with an m-subset of the interior
        whose segments [a, b) all have prefix[b] - prefix[a] <= budget; H - 1
        when none has."""
        prefix = [0.0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        horizon = len(weights)
        for m in range(horizon):
            for times in itertools.combinations(range(1, horizon), m):
                aug = (0, *times, horizon)
                if all(prefix[b] - prefix[a] <= budget for a, b in zip(aug, aug[1:])):
                    return m
        return horizon - 1

    def enumerated_outcome(self, etas, gamma, fidelity=None):
        """The enumerated count, or ("infeasible", step) for the first step
        alone above the budget."""
        budget = segment_budget(gamma, fidelity)
        weights = step_info_distances(etas)
        offenders = [t for t, w in enumerate(weights) if w > budget]
        if offenders:
            return "infeasible", offenders[0]
        return self.enumerated_min_inspections(weights, budget)

    @staticmethod
    def oracle_outcome(etas, gamma, fidelity=None):
        try:
            return oracle_min_inspections(etas, gamma, fidelity)
        except Infeasible as exc:
            return "infeasible", exc.step

    def test_min_gap_refuses_non_integral_arguments_by_name(self):
        with pytest.raises(InvalidArgument, match=r"^m must be an integer, got 2.5$"):
            oracle_min_gap(12, 2.5)
        with pytest.raises(InvalidArgument, match=r"^horizon must be an integer, got 12.0$"):
            oracle_min_gap(12.0, 2)
        assert oracle_min_gap(np.int64(12), np.int64(2)) == 4

    @pytest.mark.parametrize("with_fidelity", [False, True])
    def test_min_inspections_matches_enumeration(self, with_fidelity):
        rng = np.random.default_rng(23 + with_fidelity)
        outcomes = []
        for _ in range(600):
            h = int(rng.integers(1, ORACLE_MAX_HORIZON + 1))
            etas = rng.uniform(0.35, 0.99, size=h)
            gamma = max(step_info_distances(etas)) * float(rng.uniform(0.9, 3.0))
            fidelity = float(rng.uniform(0.5, 1.0)) if with_fidelity else None
            outcome = self.oracle_outcome(etas, gamma, fidelity)
            assert outcome == self.enumerated_outcome(etas, gamma, fidelity)
            outcomes.append(outcome)
        assert any(isinstance(o, tuple) for o in outcomes)  # Infeasible is exercised
        assert len({o for o in outcomes if isinstance(o, int)}) >= 6

    @pytest.mark.parametrize("eta", [0.9, 0.5, 0.37, 0.999, 1 / 3])
    def test_min_inspections_matches_enumeration_at_exact_ties(self, eta):
        # gamma is the float sum of k equal weights, so the first segment of k
        # steps meets the budget exactly
        w = step_info_distances([eta])[0]
        for h in range(1, ORACLE_MAX_HORIZON + 1):
            for k in range(1, h + 1):
                etas, gamma = [eta] * h, sum([w] * k)
                assert self.oracle_outcome(etas, gamma) == self.enumerated_outcome(etas, gamma)

    def test_greedy_and_dp_on_exact_dyadic_ties(self):
        # sums of eighths are exact, so every segment meeting the budget is a tie
        assert _min_inspections_dp([0.25] * 12, 1.0) == 2 == _greedy_placement([0.25] * 12, 1.0).m
        rng = np.random.default_rng(29)
        for _ in range(300):
            weights = (rng.integers(1, 8, size=int(rng.integers(1, 60))) / 8).tolist()
            budget = float(rng.choice([1.0, 1.5, 2.0]))
            assert _min_inspections_dp(weights, budget) == _greedy_placement(weights, budget).m

    def test_greedy_matches_dp_at_large_horizon(self):
        """Greedy sums each segment from its own start and the DP takes prefix
        differences, so they could part only at a tie with the budget."""
        rng = np.random.default_rng(31)
        for horizon in (10**3, 10**4):
            for lo, hi in ((0.95, 0.999), (0.35, 0.99)):
                etas = rng.uniform(lo, hi, size=horizon)
                weights = step_info_distances(etas)
                for fidelity in (None, float(rng.uniform(0.9, 1.0))):
                    slack = -math.log(fidelity) if fidelity is not None else 0.0
                    for scale in rng.uniform(1.05, 50.0, size=3):
                        gamma = max(weights) * float(scale) + slack
                        dp_m = _min_inspections_dp(weights, segment_budget(gamma, fidelity))
                        assert dp_m == greedy_schedule(etas, gamma, fidelity).m

    def test_min_gap_small_exhaustive(self):
        assert oracle_min_gap(12, 2) == 4
        assert oracle_min_gap(12, 11) == 1
        assert oracle_min_gap(9, 0) == 9

    def test_min_gap_guard(self):
        with pytest.raises(InvalidArgument):
            oracle_min_gap(30, 2)

    def test_min_gap_matches_formula_over_grid(self):
        for h in range(2, ORACLE_MAX_HORIZON + 1):
            for m in range(h):
                assert oracle_min_gap(h, m) == self.enumerated_min_gap(h, m) == min_gap_value(h, m)
            # one pass gives every m's gap
            assert _min_gaps(h, h - 1) == [self.enumerated_min_gap(h, m) for m in range(h)]

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

    def test_oracle_refuses_horizon_above_enumeration_limit(self):
        with pytest.raises(InvalidArgument, match=f"^horizon must be at most {ORACLE_MAX_HORIZON} for enumeration$"):
            oracle_min_inspections([0.9] * (ORACLE_MAX_HORIZON + 1), 1.0)

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


class TestRunnersCheckNothing:
    """The runners work on the params ``schema`` has checked: their check
    calls do not grow with the work."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module in (experiments, inspection, markov, divergence, horizon, errors):
            for name in [name for name in vars(module) if name.startswith("check_")]:
                original = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *a, _check=original, **k: calls.append(1) or _check(*a, **k)
                )
        return calls

    @staticmethod
    def count(calls, config: dict) -> int:
        cfg = ExperimentConfig.from_json_dict(config)
        calls.clear()
        run_experiment(cfg)
        return len(calls)

    def test_oracle_min_gap_rows_make_no_check(self, calls):
        config = {"kind": "oracle", "params": {"max_H": 14, "max_m": 13, "greedy_cases": 0}}
        assert self.count(calls, config) == 0

    def test_inspection_checks_as_often_at_any_horizon_and_replicate_count(self, calls):
        counts = []
        for scale, replicates in ((1, 1), (10, 3)):
            schedules = [[t * scale for t in times] for times in GOLDEN_INSPECTION["params"]["schedules"]]
            config = {**GOLDEN_INSPECTION, "replicates": replicates}
            config["params"] = {**config["params"], "H": 20 * scale, "schedules": schedules, "trials": 50}
            counts.append(self.count(calls, config))
        assert counts[0] == counts[1]

    def test_oracle_reads_each_greedy_case_once(self, monkeypatch):
        cases = []
        original = inspection.step_info_distances
        monkeypatch.setattr(inspection, "step_info_distances", lambda etas: cases.append(1) or original(etas))
        run_experiment(ExperimentConfig("oracle", params={"max_H": 8, "greedy_cases": 7}))
        assert len(cases) == 7


class TestMetadata:
    def test_config_echo_and_seed(self):
        cfg = small(GOLDEN_MISMATCH, chains=100)
        table = run_experiment(cfg)
        assert table.metadata["master_seed"] == cfg.master_seed
        assert table.metadata["config"]["params"]["chains"] == 100
        assert table.metadata["wall_time_s"] >= 0
