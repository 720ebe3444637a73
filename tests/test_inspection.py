import math
import random

import numpy as np
import pytest

from chcalc import inspection
from chcalc.errors import Infeasible, InvalidArgument
from chcalc.horizon import HorizonParams, noisy_outcome_adjust
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
