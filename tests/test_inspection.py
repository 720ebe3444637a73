import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from chcalc import horizon, inspection
from chcalc.errors import Infeasible, InvalidArgument
from chcalc.horizon import HorizonParams, critical_horizon, noisy_outcome_adjust, sample_lb
from chcalc.inspection import (
    BudgetParams,
    PlanConfig,
    Schedule,
    budget_lb,
    budget_optimize,
    design_procedure,
    downstream_distance,
    feasibility_threshold,
    greedy_schedule,
    maximal_gap,
    min_gap_value,
    min_inspections,
    min_inspections_sufficient,
    poly_density_min,
    segment_report,
    step_info_distances,
    uniform_schedule,
    worst_case_sample_lb,
)

SERVICE_ETAS = [0.6] * 11 + [0.95] * 39


class TestSchedule:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgument):
            Schedule(horizon=20, times=(10, 5))

    def test_rejects_boundary_times(self):
        with pytest.raises(InvalidArgument):
            Schedule(horizon=20, times=(0, 5))
        with pytest.raises(InvalidArgument):
            Schedule(horizon=20, times=(5, 20))

    def test_refuses_non_integral_times(self):
        for times in ((2.7, 5.2), (2, 5.0), ("3",)):
            with pytest.raises(InvalidArgument, match="times entries must be integers"):
                Schedule(horizon=10, times=times)

    def test_refuses_non_integral_horizon(self):
        # Schedule(10.5, (5,)) was accepted, with a maximal gap of 5.5
        with pytest.raises(InvalidArgument, match=r"^horizon must be an integer, got 10.5$"):
            Schedule(horizon=10.5, times=(5,))
        sched = Schedule(horizon=np.int64(10), times=(5,))
        assert sched.horizon == 10 and type(sched.horizon) is int

    def test_numpy_integer_times_become_ints(self):
        sched = Schedule(horizon=10, times=(np.int64(2), np.uint32(5)))
        assert sched.times == (2, 5)
        assert all(type(t) is int for t in sched.times)

    def test_segments_partition_horizon(self):
        sched = Schedule(horizon=20, times=(5, 10, 15))
        lengths = [b - a for a, b in sched.segments()]
        assert sum(lengths) == 20
        assert maximal_gap(sched) == max(lengths)


class TestDownstreamDistance:
    def test_empty_schedule(self):
        sched = Schedule(horizon=20, times=())
        assert downstream_distance(sched, 3) == 17

    def test_next_checkpoint(self):
        sched = Schedule(horizon=20, times=(5, 10, 15))
        assert downstream_distance(sched, 3) == 2

    def test_at_inspection_time_looks_ahead(self):
        sched = Schedule(horizon=20, times=(5, 10, 15))
        assert downstream_distance(sched, 5) == 5

    def test_range(self):
        with pytest.raises(InvalidArgument):
            downstream_distance(Schedule(horizon=20, times=()), 20)


class TestMaximalGap:
    def test_uniform(self):
        assert maximal_gap(Schedule(horizon=20, times=(5, 10, 15))) == 5

    def test_front_loaded(self):
        assert maximal_gap(Schedule(horizon=20, times=(2, 4, 6))) == 14

    def test_empty(self):
        assert maximal_gap(Schedule(horizon=20, times=())) == 20


class TestUniformSchedule:
    def test_twenty_three(self):
        sched = uniform_schedule(20, 3)
        assert sched.times == (5, 10, 15)
        assert maximal_gap(sched) == 5

    def test_midpoint(self):
        sched = uniform_schedule(50, 1)
        assert sched.times == (25,)
        assert maximal_gap(sched) == 25

    def test_m_zero(self):
        sched = uniform_schedule(20, 0)
        assert sched.times == ()
        assert maximal_gap(sched) == 20

    def test_gap_matches_formula(self):
        for h in range(2, 30):
            for m in range(0, h):
                assert maximal_gap(uniform_schedule(h, m)) == min_gap_value(h, m)

    def test_m_too_large(self):
        with pytest.raises(InvalidArgument):
            uniform_schedule(5, 5)

    def test_non_integral_arguments_refused_by_name(self):
        with pytest.raises(InvalidArgument, match=r"^m must be an integer, got 2.5$"):
            uniform_schedule(10, 2.5)
        with pytest.raises(InvalidArgument, match=r"^horizon must be an integer, got 10.0$"):
            uniform_schedule(10.0, 2)
        sched = uniform_schedule(np.int64(10), np.int32(2))
        assert sched.times == (3, 6) and all(type(t) is int for t in sched.times)


class TestMinGapValue:
    def test_exact_division(self):
        assert min_gap_value(20, 3) == 5

    def test_rounding_up(self):
        assert min_gap_value(50, 2) == 17

    def test_non_integral_arguments_refused_by_name(self):
        # these were truncated inside ceil(H/(m+1)) to 3.0 and 4.0
        with pytest.raises(InvalidArgument, match=r"^m must be an integer, got 2.5$"):
            min_gap_value(10, 2.5)
        with pytest.raises(InvalidArgument, match=r"^horizon must be an integer, got 10.5$"):
            min_gap_value(10.5, 2)
        value = min_gap_value(np.int64(10), np.uint8(2))
        assert value == 4 and type(value) is int


class TestMinInspections:
    def test_semiconductor(self):
        assert min_inspections(50, 48.0659) == 1

    def test_within_horizon_needs_none(self):
        assert min_inspections(40, 48.0659) == 0

    def test_exact_division(self):
        assert min_inspections(100, 10.0) == 9

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_inspections(10, 0.0)
        # below one step even the adjacent step is untestable
        for count in (min_inspections, min_inspections_sufficient):
            with pytest.raises(Infeasible):
                count(20, 0.79)

    def test_sufficient_count_at_infinite_horizon_is_zero(self):
        # floor(inf) raised OverflowError
        assert min_inspections_sufficient(50, math.inf) == 0 == min_inspections(50, math.inf)

    def test_sufficient_can_exceed_necessary(self):
        # H=11, h_crit=5.5: the necessary count is ceil(11/5.5)-1 = 1, but a
        # single inspection leaves a gap of ceil(11/2) = 6 > 5.5, so two are
        # actually needed once segment lengths round to integers.
        assert min_inspections(11, 5.5) == 1
        assert min_inspections_sufficient(11, 5.5) == 2
        # exact-division cases require no extra inspection
        assert min_inspections(10, 5.0) == 1
        assert min_inspections_sufficient(10, 5.0) == 1
        # the closed form equals the brute-force smallest m
        for h in range(1, 201):
            for h_crit in (1.0, 1.5, 2.0, 2.99, 3.0, 7.3, 10.0, 48.0659, 199.5, 250.0):
                brute = next(m for m in range(h) if min_gap_value(h, m) <= h_crit)
                assert min_inspections_sufficient(h, h_crit) == brute, (h, h_crit)

    def test_necessary_count_refuses_non_integral_horizon(self):
        with pytest.raises(InvalidArgument, match=r"^horizon must be an integer, got 10.5$"):
            min_inspections(10.5, 3.0)
        value = min_inspections(np.int64(10), 3.0)
        assert value == 3 and type(value) is int

    def test_sufficient_count_refuses_non_integral_horizon(self):
        # min_inspections_sufficient(10.5, 3.0) returned the float 3.0
        with pytest.raises(InvalidArgument, match=r"^horizon must be an integer, got 10.5$"):
            min_inspections_sufficient(10.5, 3.0)
        value = min_inspections_sufficient(np.int32(10), 3.0)
        assert value == 3 and type(value) is int


class TestFeasibilityThreshold:
    def test_service_value(self):
        gamma = feasibility_threshold(1000, 0.3, 0.1)
        assert gamma == pytest.approx(5.9145, abs=5e-5)
        assert 5.90 <= gamma <= 5.92

    def test_semiconductor_value(self):
        assert feasibility_threshold(10_000, 0.2, 0.1) == pytest.approx(7.8116, abs=5e-5)

    def test_non_finite_inputs_refused(self):
        assert math.isfinite(feasibility_threshold(10**400, 0.3, 0.1))
        with pytest.raises(InvalidArgument, match="delta2 must be finite"):
            feasibility_threshold(1000, math.inf, 0.1)
        with pytest.raises(InvalidArgument, match="n must be finite"):
            feasibility_threshold(math.inf, 0.3, 0.1)

    def test_zero_budget(self):
        eps = 0.1
        n_delta2 = (1 - eps) ** 2
        assert feasibility_threshold(1.0, n_delta2, eps) == pytest.approx(0.0, abs=1e-12)


class TestStepInfoDistances:
    def test_list_tuple_and_array_agree(self):
        rng = random.Random(3)
        etas = [rng.uniform(1e-6, 1.0) for _ in range(1000)] + [1.0]
        expected = [-math.log(eta) for eta in etas]
        for container in (list, tuple, np.array):
            distances = step_info_distances(container(etas))
            assert distances == expected
            assert all(type(w) is float for w in distances)


class TestGreedySchedule:
    def test_service_journey(self):
        gamma = feasibility_threshold(1000, 0.3, 0.1)
        sched = greedy_schedule(SERVICE_ETAS, gamma)
        assert sched.times == (16,)

    def test_homogeneous_recovers_equal_segments(self):
        eta = 0.85
        gamma = 3.3 * math.log(1 / eta)  # budget worth 3.3 steps
        sched = greedy_schedule([eta] * 20, gamma)
        lengths = [b - a for a, b in sched.segments()]
        assert all(length == 3 for length in lengths[:-1])
        assert lengths[-1] <= 3

    def test_single_wide_step_infeasible(self):
        etas = [0.9] * 5 + [0.01] + [0.9] * 5
        with pytest.raises(Infeasible) as excinfo:
            greedy_schedule(etas, 2.0)
        assert excinfo.value.step == 5

    def test_first_of_several_wide_steps_named(self):
        # steps 1, 3 and 4 each exceed the budget; step 3 exceeds it most
        etas = [0.9, 1e-3, 0.9, 1e-5, 1e-4, 0.9]
        message = "^step 1 alone carries information distance 6.90776 above the effective per-segment budget 2$"
        with pytest.raises(Infeasible, match=message) as excinfo:
            greedy_schedule(etas, 2.0)
        assert excinfo.value.step == 1

    def test_fidelity_penalty_shrinks_budget(self):
        eta = 0.85
        gamma = 3.3 * math.log(1 / eta)
        loose = greedy_schedule([eta] * 20, gamma)
        tight = greedy_schedule([eta] * 20, gamma, inspection_fidelity=math.exp(-math.log(1 / eta)))
        assert tight.m > loose.m
        # penalty of one step's distance: segments shrink from 3 to 2
        lengths = [b - a for a, b in tight.segments()]
        assert all(length <= 2 for length in lengths)


class TestWorstCase:
    def test_uniform_bound_formula(self):
        sched = uniform_schedule(20, 3)
        step, bound = worst_case_sample_lb(sched, 0.9, 9.0, 0.1)
        assert step == 0  # all segments tie at length 5; smallest index wins
        assert bound == pytest.approx(0.81 / (0.9**5 * 9.0), rel=1e-12)

    def test_uniform_beats_back_loaded(self):
        uniform = uniform_schedule(20, 3)
        back = Schedule(horizon=20, times=(14, 16, 18))
        _, bound_uniform = worst_case_sample_lb(uniform, 0.9, 9.0, 0.1)
        _, bound_back = worst_case_sample_lb(back, 0.9, 9.0, 0.1)
        assert bound_uniform < bound_back

    def test_back_loaded_worst_step_is_zero(self):
        step, _ = worst_case_sample_lb(Schedule(horizon=20, times=(14, 16, 18)), 0.9, 9.0, 0.1)
        assert step == 0

    def test_refinement_never_hurts(self):
        base = Schedule(horizon=20, times=(5, 15))
        refined = Schedule(horizon=20, times=(5, 10, 15))
        _, bound_base = worst_case_sample_lb(base, 0.9, 9.0, 0.1)
        _, bound_refined = worst_case_sample_lb(refined, 0.9, 9.0, 0.1)
        assert bound_refined <= bound_base

    def test_heterogeneous_uses_info_distance(self):
        sched = Schedule(horizon=50, times=(16,))
        step, bound = worst_case_sample_lb(sched, SERVICE_ETAS, 0.3, 0.1)
        assert step == 0  # the early high-contraction segment dominates
        info = 11 * math.log(1 / 0.6) + 5 * math.log(1 / 0.95)
        assert bound == pytest.approx(0.81 * math.exp(info) / 0.3, rel=1e-9)


class TestSegmentReport:
    def test_lengths_and_infos(self):
        sched = Schedule(horizon=50, times=(16,))
        report = segment_report(sched, SERVICE_ETAS, 0.3, 0.1)
        assert [s.length for s in report] == [16, 34]
        assert report[0].info_distance == pytest.approx(5.8755, abs=5e-5)
        assert report[1].info_distance == pytest.approx(34 * math.log(1 / 0.95), rel=1e-12)
        assert sum(s.length for s in report) == 50

    def test_refuses_etas_of_other_length(self):
        with pytest.raises(InvalidArgument, match="^etas length 4 must equal horizon 5$"):
            segment_report(Schedule(horizon=5, times=(2,)), [0.9] * 4, 0.3, 0.1)

    def test_attenuation_consistency(self):
        sched = uniform_schedule(20, 3)
        for seg in segment_report(sched, 0.9, 9.0, 0.1):
            assert seg.attenuation == pytest.approx(0.9**seg.length, rel=1e-12)


class TestBudget:
    def test_semiconductor_budget(self):
        budget = BudgetParams(c_out=10.0, c_insp=50.0)
        value = budget_lb(budget, 1, 50, 0.85, 0.2, 0.1)
        assert value == pytest.approx(60 * 0.81 / (0.85**25 * 0.2), rel=1e-12)
        assert value == pytest.approx(1.413e4, rel=0.001)

    def test_m_zero_reduces_to_terminal_cost(self):
        from chcalc.horizon import HorizonParams, sample_lb

        budget = BudgetParams(c_out=7.0, c_insp=100.0)
        params = HorizonParams(n=1, delta2=0.2, epsilon=0.1, eta=0.85)
        assert budget_lb(budget, 0, 50, 0.85, 0.2, 0.1) == pytest.approx(
            7.0 * sample_lb(params, 50).bound, rel=1e-12
        )

    def test_optimize_scan_beats_endpoints(self):
        budget = BudgetParams(c_out=10.0, c_insp=50.0)
        result = budget_optimize(budget, 50, 0.85, 0.2, 0.1, n=10_000)
        scanned = [budget_lb(budget, m, 50, 0.85, 0.2, 0.1) for m in range(0, 50)]
        assert result.budget_scan == min(scanned)
        assert result.m_scan == scanned.index(min(scanned))
        assert result.m_rule == 1
        assert result.budget_rule == pytest.approx(scanned[1])

    def test_optimize_refuses_infinite_n(self):
        # floor(inf) raised OverflowError
        with pytest.raises(InvalidArgument, match="^n must be finite, got inf$"):
            budget_optimize(BudgetParams(1.0), 50, 0.9, 0.2, 0.1, n=math.inf)

    def test_optimize_equals_brute_force_scan(self):
        rng = random.Random(3)
        cases = [(h, 0.0) for h in range(1, 40)] + [(h, 2.5) for h in range(1, 40)]
        cases += [(rng.randint(40, 2000), rng.choice([0.0, rng.uniform(0.0, 20.0)])) for _ in range(60)]
        for h, c_insp in cases:
            budget = BudgetParams(c_out=rng.uniform(0.5, 10.0), c_insp=c_insp)
            eta, delta2, eps = rng.uniform(0.3, 0.999), rng.uniform(0.05, 2.0), rng.uniform(0.01, 0.45)
            scanned = [budget_lb(budget, m, h, eta, delta2, eps) for m in range(h)]
            result = budget_optimize(budget, h, eta, delta2, eps)
            best = min(scanned)
            assert (result.m_scan, result.budget_scan) == (scanned.index(best), best), (h, budget)

    def test_optimize_scans_every_count_at_large_horizon(self):
        budget = BudgetParams(c_out=1.0, c_insp=1.0)
        result = budget_optimize(budget, 100_000, 0.5, 0.2, 0.1)
        # gap 2 is the cheapest, and its smallest count lies beyond 10^4
        assert result.m_scan == 49_999
        assert result.budget_scan == budget_lb(budget, 49_999, 100_000, 0.5, 0.2, 0.1)
        assert result.budget_scan == pytest.approx(50_000 * 0.81 / (0.25 * 0.2), rel=1e-12)
        assert result.budget_scan < budget_lb(budget, 9_999, 100_000, 0.5, 0.2, 0.1) / 50


class TestPolyDensity:
    def test_worked_example(self):
        assert poly_density_min(100, 2.0, 0.85) == pytest.approx(0.7645, abs=5e-5)

    def test_doubling_p_halves_m_plus_one(self):
        m1 = poly_density_min(200, 1.0, 0.8)
        m2 = poly_density_min(200, 2.0, 0.8)
        assert (m2 + 1) == pytest.approx((m1 + 1) / 2, rel=1e-12)

    def test_eta_near_one_needs_none(self):
        assert poly_density_min(100, 2.0, 0.999999) == pytest.approx(0.0, abs=0.1)


class TestDesignProcedure:
    def test_refuses_infinite_n(self):
        with pytest.raises(InvalidArgument, match="^n must be finite, got inf$"):
            design_procedure(horizon=50, n=math.inf, delta2=0.2, epsilon=0.1, eta=0.85)

    def test_null_budget_is_no_budget(self):
        data = {"H": 50, "n": 10_000, "delta2": 0.2, "epsilon": 0.1, "eta": 0.85}
        config = PlanConfig.from_json_dict({**data, "budget": None})
        assert config.budget is None
        assert config == PlanConfig.from_json_dict(data)

    def test_semiconductor_plan(self):
        plan = design_procedure(
            horizon=50,
            n=10_000,
            delta2=0.2,
            epsilon=0.1,
            eta=0.85,
            budget=BudgetParams(c_out=10.0, c_insp=50.0),
        )
        assert plan.gamma == pytest.approx(7.8116, abs=5e-5)
        assert plan.h_crit == pytest.approx(48.066, abs=5e-4)
        assert plan.m_necessary == 1
        assert plan.m_sufficient == 1
        assert plan.schedule.times == (25,)
        assert plan.max_gap == 25
        assert plan.budget_required == pytest.approx(1.413e4, rel=0.001)
        assert plan.feasible

    def test_short_horizon_needs_no_inspection(self):
        plan = design_procedure(horizon=40, n=10_000, delta2=0.2, epsilon=0.1, eta=0.85)
        assert plan.m_sufficient == 0
        assert plan.schedule.times == ()

    def test_service_plan_uses_greedy(self):
        plan = design_procedure(
            horizon=50, n=1000, delta2=0.3, epsilon=0.1, etas=SERVICE_ETAS
        )
        assert plan.mode == "heterogeneous"
        assert plan.schedule.times == (16,)
        assert plan.feasible

    def test_requires_exactly_one_rate_argument(self):
        with pytest.raises(InvalidArgument):
            design_procedure(horizon=10, n=100, delta2=1.0, epsilon=0.1)
        with pytest.raises(InvalidArgument):
            design_procedure(
                horizon=10, n=100, delta2=1.0, epsilon=0.1, eta=0.9, etas=[0.9] * 10
            )

    @pytest.mark.parametrize("rates", [{"eta": 0.9}, {"etas": [0.9] * 10}])
    def test_n_below_one_refused_in_both_modes(self, rates):
        with pytest.raises(InvalidArgument, match="n must be at least 1"):
            design_procedure(horizon=10, n=0.5, delta2=0.3, epsilon=0.1, **rates)

    def test_plan_config_refuses_both_rates_at_load(self):
        data = {"H": 10, "n": 100, "delta2": 1.0, "epsilon": 0.1, "eta": 0.9, "etas": [0.9] * 10}
        with pytest.raises(InvalidArgument, match="exactly one of eta or etas"):
            PlanConfig.from_json_dict(data)

    def test_fidelity_applies_to_homogeneous_plans(self):
        inputs = dict(horizon=100, n=1000, delta2=0.3, epsilon=0.1, eta=0.9)
        perfect = design_procedure(**inputs)
        noisy = design_procedure(**inputs, inspection_fidelity=0.5)
        assert perfect.m_sufficient == 1
        assert noisy.m_sufficient == 2
        params = HorizonParams(n=1000, delta2=0.3, epsilon=0.1, eta=0.9)
        assert noisy.h_crit == noisy_outcome_adjust(params, 0.5)
        assert design_procedure(**inputs, inspection_fidelity=1.0) == perfect
        # the same fidelity costs the heterogeneous plan on equal rates as much
        hetero = {**inputs, "eta": None, "etas": [0.9] * 100}
        assert design_procedure(**hetero, inspection_fidelity=0.5).schedule.m == 2
        with pytest.raises(Infeasible, match="below one step"):
            design_procedure(**inputs, inspection_fidelity=1e-3)
        with pytest.raises(InvalidArgument, match="inspection_fidelity"):
            design_procedure(**inputs, inspection_fidelity=1.5)

    def test_heterogeneous_plan_is_the_public_composition(self):
        rng = random.Random(11)
        for _ in range(40):
            h = rng.randint(1, 2000)
            etas = [rng.uniform(0.9, 0.9999) for _ in range(h)]
            n, delta2 = rng.randint(1000, 10**6), rng.uniform(0.1, 1.0)
            fidelity = rng.choice([None, rng.uniform(0.95, 1.0)])
            plan = design_procedure(
                horizon=h, n=n, delta2=delta2, epsilon=0.1, etas=etas,
                inspection_fidelity=fidelity,
            ).to_json_dict()
            schedule = greedy_schedule(etas, feasibility_threshold(n, delta2, 0.1), fidelity)
            segments = segment_report(schedule, etas, delta2, 0.1)
            worst_step, worst_lb = worst_case_sample_lb(schedule, etas, delta2, 0.1)
            assert plan == {
                **plan,
                "times": list(schedule.times),
                "max_gap": maximal_gap(schedule),
                "segments": [s.to_json_dict() for s in segments],
                "worst_step": worst_step,
                "worst_sample_lb": worst_lb,
                "feasible": n >= worst_lb,
            }

    def test_heterogeneous_plan_checks_its_etas_once(self, monkeypatch):
        calls, original = [], inspection.check_etas
        monkeypatch.setattr(inspection, "check_etas", lambda *a: calls.append(a) or original(*a))
        design_procedure(horizon=50, n=1000, delta2=0.3, epsilon=0.1, etas=SERVICE_ETAS)
        assert len(calls) == 1

    def test_heterogeneous_plan_names_first_of_several_wide_steps(self):
        # Gamma = ln(1000 * 0.3 / 0.9**2) = 5.9145; steps 1, 3 and 4 exceed it, step 3 most
        etas = [0.9, 1e-3, 0.9, 1e-5, 1e-4, 0.9]
        message = "^step 1 alone carries information distance 6.90776 above the effective per-segment budget 5.9145$"
        with pytest.raises(Infeasible, match=message) as excinfo:
            design_procedure(horizon=6, n=1000, delta2=0.3, epsilon=0.1, etas=etas)
        assert excinfo.value.step == 1

    def test_infeasible_propagates(self):
        with pytest.raises(Infeasible):
            design_procedure(
                horizon=5, n=3, delta2=0.1, epsilon=0.1, etas=[1e-9] * 5
            )


# ---------------------------------------------------------------------------
# The earlier algorithms of the schedulers, kept as references that the
# one-pass placement, the running total and the unchecked budget scan must
# match with ==


def two_loop_placement(weights, budget):
    """Greedy placement as two loops: the first step above the budget is
    refused up front, then each segment is filled from its own start."""
    horizon = len(weights)
    if max(weights) > budget:
        t = next(t for t, w in enumerate(weights) if w > budget)
        raise Infeasible(
            f"step {t} alone carries information distance {weights[t]:.6g} above the "
            f"effective per-segment budget {budget:.6g}",
            step=t,
        )
    times = []
    start = 0
    while start < horizon:
        total = 0.0
        end = start
        while end < horizon and total + weights[end] <= budget:
            total += weights[end]
            end += 1
        if end < horizon:
            times.append(end)
        start = end
    return Schedule(horizon=horizon, times=tuple(times))


def segment_sum_infos(schedule, weights):
    """Each segment's distance as the difference of a running total that a
    loop adds up segment by segment."""
    at_bounds = [0.0]
    total = 0.0
    for a, b in schedule.segments():
        for w in weights[a:b]:
            total += w
        at_bounds.append(total)
    return [hi - lo for lo, hi in zip(at_bounds, at_bounds[1:])]


def composed_homogeneous_plan(H, n, delta2, epsilon, eta, inspection_fidelity=None, budget=None):
    """The homogeneous design plan's JSON, composed from the public checked functions."""
    params = HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta)
    gamma = feasibility_threshold(n, delta2, epsilon)
    if gamma <= 0:
        raise Infeasible(
            f"information budget Gamma={gamma:.6g} is not positive: "
            "the sample budget cannot test even an adjacent step"
        )
    if inspection_fidelity is None:
        h_crit = critical_horizon(params)
    else:
        h_crit = noisy_outcome_adjust(params, inspection_fidelity)
    schedule = uniform_schedule(H, min_inspections_sufficient(H, h_crit))
    worst_step, worst_lb = worst_case_sample_lb(schedule, eta, delta2, epsilon)
    per_trajectory = budget.per_trajectory(schedule.m) if budget else None
    return {
        "mode": "homogeneous", "horizon": H, "n": n, "delta2": delta2, "epsilon": epsilon,
        "gamma": gamma, "h_crit": h_crit, "m_necessary": min_inspections(H, h_crit),
        "m_sufficient": schedule.m, "times": list(schedule.times), "max_gap": maximal_gap(schedule),
        "segments": [s.to_json_dict() for s in segment_report(schedule, eta, delta2, epsilon)],
        "worst_step": worst_step, "worst_sample_lb": worst_lb, "feasible": n >= worst_lb,
        "per_trajectory_cost": per_trajectory,
        "budget_required": per_trajectory * worst_lb if budget else None,
        "planned_cost": per_trajectory * n if budget else None,
    }


def stand_in_budget_lb(budget, m, horizon, eta, delta2, epsilon):
    """``budget_lb`` through a ``HorizonParams`` with n = 1 and ``sample_lb``."""
    params = HorizonParams(n=1, delta2=delta2, epsilon=epsilon, eta=eta)
    return budget.per_trajectory(m) * sample_lb(params, min_gap_value(horizon, m)).bound


def scan_from_budget_lb(budget, horizon, eta, delta2, epsilon, n=None):
    """``budget_optimize`` on the public checked functions: the smallest m
    of each distinct gap, by ``min_inspections_sufficient``."""
    best_m, best_value = 0, math.inf
    m = 0
    while True:
        value = stand_in_budget_lb(budget, m, horizon, eta, delta2, epsilon)
        if value < best_value:
            best_m, best_value = m, value
        gap = min_gap_value(horizon, m)
        if gap == 1:
            break
        m = min_inspections_sufficient(horizon, gap - 1)
    m_rule = budget_rule = None
    if n is not None:
        h_crit = critical_horizon(HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta))
        if h_crit >= 1:
            m_rule = min_inspections_sufficient(horizon, h_crit)
            budget_rule = stand_in_budget_lb(budget, m_rule, horizon, eta, delta2, epsilon)
    return inspection.BudgetScan(best_m, best_value, m_rule, budget_rule)


def outcome(function, *args, **kwargs):
    """What a call returns, or the step and reason of the Infeasible it raises."""
    try:
        return function(*args, **kwargs)
    except Infeasible as exc:
        return exc.step, exc.reason


@st.composite
def placements(draw):
    """(weights, budget): equal weights with the budget at k times the weight
    or at one of its two float neighbours, or free weights and budget; either
    with or without one step above the budget."""
    if draw(st.booleans()):
        w = draw(st.floats(1e-3, 5.0))
        weights = [w] * draw(st.integers(1, 80))
        exact = draw(st.integers(1, 12)) * w
        budget = draw(st.sampled_from([math.nextafter(exact, 0.0), exact, math.nextafter(exact, math.inf)]))
    else:
        weights = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=80))
        budget = draw(st.floats(0.0, 20.0))
    if draw(st.booleans()):
        weights.insert(draw(st.integers(0, len(weights))), math.nextafter(budget, math.inf))
    return weights, budget


class TestAgainstEarlierAlgorithms:
    @given(placements())
    @example(([0.1] * 30, 0.30000000000000004))
    @example(([0.5, 3.0, 0.5, 9.0], 2.0))
    def test_one_pass_placement_is_the_two_loop_placement(self, case):
        weights, budget = case
        assert outcome(inspection._greedy_placement, weights, budget) == outcome(
            two_loop_placement, weights, budget
        )

    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=200), st.data())
    def test_running_total_is_the_segment_sum_loop(self, weights, data):
        h = len(weights)
        times = sorted(data.draw(st.sets(st.integers(1, h - 1), max_size=h - 1))) if h > 1 else []
        schedule = Schedule(horizon=h, times=tuple(times))
        assert inspection._segment_infos(schedule, weights) == segment_sum_infos(schedule, weights)

    @given(
        st.integers(1, 3000), st.integers(1, 10**7), st.floats(0.01, 2.0),
        st.floats(0.01, 0.45), st.floats(0.3, 0.9999),
        st.one_of(st.none(), st.floats(0.5, 1.0)),
        st.one_of(st.none(), st.builds(BudgetParams, st.floats(0.5, 10.0), st.floats(0.0, 50.0))),
    )
    @example(50, 10_000, 0.2, 0.1, 0.85, None, BudgetParams(c_out=10.0, c_insp=50.0))
    def test_homogeneous_plan_is_the_public_composition(self, h, n, delta2, eps, eta, fidelity, budget):
        inputs = dict(n=n, delta2=delta2, epsilon=eps, eta=eta, inspection_fidelity=fidelity, budget=budget)
        plan = outcome(lambda: design_procedure(horizon=h, **inputs).to_json_dict())
        assert plan == outcome(composed_homogeneous_plan, h, **inputs)

    @given(
        st.integers(1, 20_000), st.floats(0.3, 0.9999), st.floats(0.01, 2.0), st.floats(0.01, 0.45),
        st.floats(0.5, 10.0), st.floats(0.0, 20.0), st.one_of(st.none(), st.integers(1, 10**8)),
    )
    @example(100_000, 0.5, 0.2, 0.1, 1.0, 1.0, None)
    def test_budget_scan_is_rebuilt_from_budget_lb(self, h, eta, delta2, eps, c_out, c_insp, n):
        budget = BudgetParams(c_out=c_out, c_insp=c_insp)
        result = budget_optimize(budget, h, eta, delta2, eps, n)
        assert result == scan_from_budget_lb(budget, h, eta, delta2, eps, n)
        for m in {0, result.m_scan, h - 1}:
            assert budget_lb(budget, m, h, eta, delta2, eps) == stand_in_budget_lb(budget, m, h, eta, delta2, eps)

    def test_budget_scan_checks_as_often_at_any_horizon(self, monkeypatch):
        calls = []
        for module in (inspection, horizon):
            for name in [name for name in vars(module) if name.startswith("check_")]:
                original = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *a, _check=original, **k: calls.append(1) or _check(*a, **k)
                )
        counts = []
        for h in (10**3, 10**5):
            calls.clear()
            budget_optimize(BudgetParams(c_out=3.0, c_insp=2.0), h, 0.999, 0.3, 0.1, n=10**6)
            counts.append(len(calls))
        assert counts[0] == counts[1]
