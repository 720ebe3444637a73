"""Acceptance suite: one test per shipping criterion, each printing a
[PASS] line with the measured values (run with -s to see them inline).

Monte Carlo comparisons use the frozen golden configs; sampled-vs-exact
checks use standard-error bands; quoted round figures are matched at the
precision they were quoted at (two significant figures).
"""

import math
import time

import numpy as np
import pytest

from chcalc.contraction import dobrushin_alpha, dobrushin_bound, diversity_bound, two_state_exact
from chcalc.experiments import (
    GOLDEN_DECAY,
    GOLDEN_HORIZON,
    GOLDEN_INSPECTION,
    GOLDEN_MISMATCH,
    GOLDEN_WIDTH,
    ExperimentConfig,
    oracle_min_gap,
    oracle_min_inspections,
    run_experiment,
)
from chcalc.horizon import HorizonParams, critical_horizon, critical_horizon_simplified
from chcalc.inspection import (
    feasibility_threshold,
    greedy_schedule,
    min_gap_value,
    min_inspections,
    step_info_distances,
)
from chcalc.markov import Kernel
from chcalc.objectives import dj_add_dp, dj_mult_dp, grad_attenuation, j_add, j_mult
from chcalc.schema import KIND_IDS
from chcalc.width import effective_width


def two_sig_figs(value: float) -> float:
    return float(f"{value:.2g}")


def test_criterion_01_signal_decay():
    started = time.perf_counter()
    table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_DECAY))
    worst = 0.0
    for row in table.rows:
        expected = row.eta**row.distance_to_end * 9.0
        worst = max(worst, abs(row.chi2_measured - expected))
    assert worst < 1e-9
    r2_values = [fit["r2"] for fit in table.metadata["fits"].values()]
    assert min(r2_values) > 0.999
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\n[PASS] criterion 1 (signal decay): max |measured - eta^d * 9| = {worst:.2e}, "
        f"min R^2 = {min(r2_values):.6f}, {elapsed:.2f}s"
    )


def test_criterion_02_effective_width_saturation():
    started = time.perf_counter()
    table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_WIDTH))
    row = {r.W: r for r in table.rows}
    measured = row[256].w_eff_empirical
    theory = row[256].w_eff_theory
    assert 6.2 <= measured <= 6.9
    assert theory == pytest.approx(6.5223, abs=5e-4)
    assert 1 / 0.15 == pytest.approx(6.667, abs=5e-4)  # saturation cap
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\n[PASS] criterion 2 (effective width): W=256 measured {measured:.3f} "
        f"in [6.2, 6.9], theory {theory:.3f}, cap 6.667, {elapsed:.1f}s"
    )


def test_criterion_03_correlation_table():
    quoted = {10: 3.6, 50: 4.6, 100: 4.8, 500: 5.0}
    values = {w: effective_width(w, 0.2) for w in quoted}
    for w, expected in quoted.items():
        assert two_sig_figs(values[w]) == expected
    print(
        "\n[PASS] criterion 3 (correlation table): "
        + ", ".join(f"W={w}: {values[w]:.3f} -> {two_sig_figs(values[w])}" for w in quoted)
    )


def test_criterion_04_critical_horizon_calculators():
    h_09 = critical_horizon_simplified(1e6, 0.1, 0.9)
    # Exact closed form; the quoted 110 is a two-significant-figure round
    # of 109.27 (see decisions ledger on the +-0.5 encoding).
    assert h_09 == pytest.approx(math.log(1e5) / math.log(1 / 0.9), rel=1e-12)
    assert two_sig_figs(h_09) == 110
    h_07 = critical_horizon_simplified(1e6, 0.1, 0.7)
    assert h_07 == pytest.approx(32, abs=0.5)
    semis = HorizonParams(n=10_000, delta2=0.2, epsilon=0.1, eta=0.85)
    h_semi = critical_horizon(semis)
    assert h_semi == pytest.approx(48.1, abs=0.1)
    assert min_inspections(50, h_semi) == 1
    print(
        f"\n[PASS] criterion 4 (horizon calculators): simplified(0.9) = {h_09:.2f} -> 110 at 2 s.f., "
        f"simplified(0.7) = {h_07:.2f}, full(0.85) = {h_semi:.3f}, min inspections = 1"
    )


def test_criterion_05_phase_transition():
    started = time.perf_counter()
    table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_HORIZON))
    by_eta = {
        eta: sorted((r for r in table.rows if r.eta == eta), key=lambda r: r.distance)
        for eta in (0.7, 0.8)
    }
    trials = GOLDEN_HORIZON["params"]["trials"]

    acc_d1 = by_eta[0.7][1].accuracy_measured
    assert 0.84 <= acc_d1 <= 0.94

    crossing = next(r.distance for r in by_eta[0.7] if r.accuracy_measured <= 0.55)
    marker = by_eta[0.7][0].h_crit_marker
    assert crossing <= 26
    assert marker == pytest.approx(25.527, abs=1e-2)

    # Slow contraction stays strictly above chance through the full
    # horizon; measured accuracy must agree with the exact classifier
    # accuracy to Monte Carlo precision at every distance.
    for r in by_eta[0.8][1:]:
        assert r.accuracy_exact > 0.5
        se = math.sqrt(r.accuracy_exact * (1 - r.accuracy_exact) / trials)
        assert abs(r.accuracy_measured - r.accuracy_exact) <= 4 * se + 1e-9
    floor_08 = min(r.accuracy_measured for r in by_eta[0.8][1:])

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\n[PASS] criterion 5 (phase transition): acc(d=1, 0.7) = {acc_d1:.3f}, "
        f"0.55-crossing at d={crossing} <= 26 (marker {marker:.1f}); "
        f"eta=0.8 stays above chance, floor {floor_08:.3f}; {elapsed:.1f}s"
    )


def test_criterion_06_inspection_comparison():
    started = time.perf_counter()
    table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_INSPECTION))
    errors = dict(zip(table.column("schedule"), table.column("err_worst_measured")))
    quoted = {"5;10;15": 0.41, "2;4;6": 0.77, "14;16;18": 0.77, "2;13;14": 0.69}
    for schedule, expected in quoted.items():
        assert errors[schedule] == pytest.approx(expected, abs=0.10)
    alternatives = [errors[s] for s in quoted if s != "5;10;15"]
    assert errors["5;10;15"] < min(alternatives)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        "\n[PASS] criterion 6 (inspection comparison): "
        + ", ".join(f"{s}: {errors[s]:.3f}" for s in quoted)
        + f" (uniform strictly lowest), {elapsed:.1f}s"
    )


def test_criterion_07_scheduler_optimality_oracles():
    started = time.perf_counter()
    checked = 0
    for horizon in range(2, 13):
        for m in range(0, min(4, horizon - 1) + 1):
            assert min_gap_value(horizon, m) == oracle_min_gap(horizon, m)
            checked += 1

    rng_cases = 200
    matched = 0
    for case in range(rng_cases):
        # each case draws from a stream of its own, seeded by the oracle kind's id and the case
        rng = np.random.default_rng([424242, KIND_IDS["oracle"], 1, case])
        horizon = int(rng.integers(3, 13))
        etas = rng.uniform(0.35, 0.99, size=horizon)
        weights = step_info_distances(etas)
        gamma = max(weights) * float(rng.uniform(1.05, 3.0))
        greedy_m = greedy_schedule(etas, gamma).m
        assert greedy_m == oracle_min_inspections(etas, gamma)
        matched += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 7 (optimality oracles): {checked} gap cases and "
        f"{matched} greedy cases match exact minima, {elapsed:.1f}s"
    )


def test_criterion_08_golden_worked_examples():
    manufacturing = Kernel([[0.85, 0.14, 0.01], [0.55, 0.35, 0.10], [0.20, 0.30, 0.50]])
    alpha = dobrushin_alpha(manufacturing)
    bound = dobrushin_bound(manufacturing)
    assert alpha == pytest.approx(0.35, abs=1e-12)
    assert bound == pytest.approx(0.65, abs=1e-12)

    reasoning = Kernel([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.1, 0.2, 0.7]])
    diversity = diversity_bound(reasoning)
    assert diversity == pytest.approx(0.7, abs=1e-12)

    gamma = feasibility_threshold(1000, 0.3, 0.1)
    assert 5.90 <= gamma <= 5.92
    service = greedy_schedule([0.6] * 11 + [0.95] * 39, gamma)
    assert service.times == (16,)

    assert two_state_exact(0.1) == pytest.approx(0.64, abs=1e-12)
    print(
        f"\n[PASS] criterion 8 (worked examples): alpha = {alpha:.2f}, bound = {bound:.2f}, "
        f"diversity = {diversity:.2f}, greedy schedule = {list(service.times)} "
        f"with Gamma = {gamma:.4f}, two-state exact = 0.64"
    )


def test_criterion_09_objective_mismatch():
    assert j_add(0.99, 100) == 99.0
    value_mult = j_mult(0.99, 100)
    assert 0.3660 <= value_mult <= 0.3661
    attenuated = grad_attenuation(0.95, 100)
    assert 0.0062 <= attenuated <= 0.0063

    table = run_experiment(ExperimentConfig.from_json_dict(GOLDEN_MISMATCH))
    row = table.rows[0]
    z = abs(row.fraction_sampled - row.fraction_exact) / row.standard_error
    assert z <= 3.0

    h_fd = 1e-6
    for p in (0.2, 0.5, 0.9, 0.99):
        for steps in (1, 3, 20, 100):
            numeric = (j_mult(p + h_fd, steps) - j_mult(p - h_fd, steps)) / (2 * h_fd)
            assert dj_mult_dp(p, steps) == pytest.approx(numeric, rel=1e-5)
            numeric_add = (j_add(p + h_fd, steps) - j_add(p - h_fd, steps)) / (2 * h_fd)
            assert dj_add_dp(p, steps) == pytest.approx(numeric_add, rel=1e-5)
    print(
        f"\n[PASS] criterion 9 (objective mismatch): j_add = 99, j_mult = {value_mult:.4f}, "
        f"attenuation = {attenuated:.5f}, sampled-vs-exact z = {z:.2f}, gradients match FD"
    )


def _small_configs():
    return [
        {**GOLDEN_DECAY, "params": {**GOLDEN_DECAY["params"], "H": 12}},
        {**GOLDEN_WIDTH, "params": {**GOLDEN_WIDTH["params"], "groups": 5000, "widths": [1, 16]}},
        {**GOLDEN_INSPECTION, "params": {**GOLDEN_INSPECTION["params"], "trials": 1500}},
        {**GOLDEN_HORIZON, "params": {**GOLDEN_HORIZON["params"], "trials": 1000}},
        {**GOLDEN_MISMATCH, "params": {**GOLDEN_MISMATCH["params"], "chains": 5000}},
        {"kind": "oracle", "master_seed": 5, "replicates": 1,
         "params": {"max_H": 9, "max_m": 3, "greedy_cases": 10}},
    ]


def test_criterion_10_property_suites():
    started = time.perf_counter()

    # SDPI monotonicity on 1,000 random triples
    import test_properties

    test_properties.TestSdpiMonotonicity().test_thousand_random_triples()
    # tensorization against explicit product distributions, n <= 5
    test_properties.TestTensorizationAgainstProducts().test_two_point_supports_up_to_n5()
    # attenuation multiplicativity on a deterministic grid
    rng = np.random.default_rng(123)
    for _ in range(200):
        h = int(rng.integers(1, 12))
        etas = rng.uniform(0.05, 1.0, size=h)
        t = int(rng.integers(0, h + 1))
        u = int(rng.integers(t, h + 1))
        v = int(rng.integers(u, h + 1))
        from chcalc.contraction import attenuation

        assert attenuation(etas, t, u) * attenuation(etas, u, v) == pytest.approx(
            attenuation(etas, t, v), rel=1e-12
        )
    # monotone refinement of the worst-case bound
    test_properties.TestScheduleRefinement().test_worst_case_bound_monotone_under_refinement()

    # determinism: every experiment kind, run twice, identical CSV
    for data in _small_configs():
        cfg = ExperimentConfig.from_json_dict(data)
        first = run_experiment(cfg).to_csv_string()
        assert run_experiment(cfg).to_csv_string() == first, f"run-to-run dependence in {cfg.kind}"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\n[PASS] criterion 10 (property suites): SDPI x1000, tensorization, attenuation, "
        f"refinement, and 6 experiment kinds bit-identical across two runs, {elapsed:.1f}s"
    )
