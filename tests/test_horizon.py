import math
import random
import sys

import pytest

from chcalc.errors import InvalidArgument
from chcalc.horizon import (
    REGIME_DECAYED,
    REGIME_SEPARATED,
    HorizonParams,
    achievability_n,
    approx_lumpability_tv,
    critical_horizon,
    critical_horizon_simplified,
    minimax_error_lb,
    noisy_outcome_adjust,
    sample_cap_for_error,
    sample_lb,
)


def params(n=1000, delta2=9.0, epsilon=0.1, eta=0.7):
    return HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"delta2": 0.0},
            {"epsilon": 0.5},
            {"epsilon": 0.0},
            {"eta": 1.0},
            {"eta": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        base = {"n": 1000, "delta2": 9.0, "epsilon": 0.1, "eta": 0.7}
        with pytest.raises(InvalidArgument):
            HorizonParams(**{**base, **kwargs})


    def test_rejects_infinite_n(self):
        # critical_horizon read n = inf as an infinite horizon
        with pytest.raises(InvalidArgument, match="^n must be finite, got inf$"):
            params(n=math.inf)


class TestSampleLb:
    def test_semiconductor_gap_50(self):
        result = sample_lb(params(n=10_000, delta2=0.2, epsilon=0.1, eta=0.85), 50)
        assert result.bound == pytest.approx(0.81 / (0.85**50 * 0.2), rel=1e-12)
        assert result.bound == pytest.approx(1.37e4, rel=0.005)
        assert result.regime == REGIME_DECAYED

    def test_separated_flag_at_gap_zero(self):
        result = sample_lb(params(delta2=2.0), 0)
        assert result.regime == REGIME_SEPARATED

    def test_exponential_growth_per_step(self):
        p = params(n=100, delta2=0.1, epsilon=0.2, eta=0.9)
        for gap in range(0, 30):
            ratio = sample_lb(p, gap + 1).bound / sample_lb(p, gap).bound
            assert ratio == pytest.approx(1 / 0.9, rel=1e-9)

    def test_huge_gap_reports_inf_not_zero_division(self):
        result = sample_lb(params(eta=0.5, delta2=1e-6), 10_000)
        assert result.bound == math.inf
        assert math.isfinite(result.log_bound)


class TestCriticalHorizon:
    def test_simplified_examples(self):
        assert critical_horizon_simplified(1e6, 0.1, 0.9) == pytest.approx(
            math.log(1e5) / math.log(1 / 0.9), rel=1e-12
        )
        # the quoted round numbers hold at two significant figures
        assert round(critical_horizon_simplified(1e6, 0.1, 0.9), -1) == 110
        assert critical_horizon_simplified(1e6, 0.1, 0.7) == pytest.approx(32.28, abs=0.005)

    def test_semiconductor_full(self):
        p = params(n=10_000, delta2=0.2, epsilon=0.1, eta=0.85)
        assert critical_horizon(p) == pytest.approx(48.0659, abs=1e-4)

    def test_zero_when_budget_too_small(self):
        p = params(n=1, delta2=0.5, epsilon=0.1, eta=0.9)
        assert critical_horizon(p) == 0.0

    def test_inversion_identity(self):
        for kwargs in (
            {"n": 1000, "delta2": 9.0, "epsilon": 0.1, "eta": 0.7},
            {"n": 10_000, "delta2": 0.2, "epsilon": 0.1, "eta": 0.85},
            {"n": 77, "delta2": 1.3, "epsilon": 0.3, "eta": 0.55},
        ):
            p = HorizonParams(**kwargs)
            h = critical_horizon(p)
            assert h > 0
            assert sample_lb(p, math.floor(h)).bound <= p.n * (1 + 1e-9)
            assert sample_lb(p, math.ceil(h) + 1).bound > p.n

    def test_monotonicity(self):
        base = dict(n=1000, delta2=1.0, epsilon=0.1, eta=0.8)
        h0 = critical_horizon(HorizonParams(**base))
        assert critical_horizon(HorizonParams(**{**base, "n": 2000})) > h0
        assert critical_horizon(HorizonParams(**{**base, "delta2": 2.0})) > h0
        assert critical_horizon(HorizonParams(**{**base, "epsilon": 0.3})) > h0
        assert critical_horizon(HorizonParams(**{**base, "eta": 0.9})) > h0

    def test_doubling_law(self):
        base = dict(delta2=0.1, epsilon=0.1, eta=0.9)
        delta = critical_horizon(HorizonParams(n=2_000_000, **base)) - critical_horizon(
            HorizonParams(n=1_000_000, **base)
        )
        assert delta == pytest.approx(math.log(2) / math.log(1 / 0.9), abs=1e-9)


class TestMinimaxErrorLb:
    def test_closed_form_oracle(self):
        # eta^gap * delta2 = 0.01, n = 40; value computed at 40 decimal digits
        p = params(n=40, delta2=0.1, epsilon=0.1, eta=0.1)
        assert minimax_error_lb(p, 1) == pytest.approx(0.25279974373288443, rel=1e-12)

    def test_approaches_half_for_tiny_signal(self):
        p = params(n=1, delta2=1e-12, epsilon=0.1, eta=0.5)
        assert minimax_error_lb(p, 40) == pytest.approx(0.5, abs=1e-6)

    def test_clamped_at_zero_when_separated(self):
        p = params(n=100_000, delta2=100.0, epsilon=0.1, eta=0.9)
        assert minimax_error_lb(p, 0) == 0.0

    def test_nonincreasing_in_n(self):
        values = [
            minimax_error_lb(params(n=n, delta2=0.5, epsilon=0.1, eta=0.8), 10)
            for n in (1, 10, 100, 1000)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @staticmethod
    def _inline_reference(p, gap):
        """The bound with its tensorization written out in place."""
        attenuated = math.exp(gap * math.log(p.eta) + math.log(p.delta2))
        exponent = p.n * math.log1p(attenuated)
        if exponent > math.log(sys.float_info.max):
            return 0.0
        return max(0.0, 0.5 * (1.0 - math.sqrt(math.expm1(exponent) / 2.0)))

    def test_bits_equal_inline_reference(self):
        rng = random.Random(14)
        cases = [
            (params(n=rng.randint(1, 10**9), delta2=10 ** rng.uniform(-6, 2),
                    epsilon=0.1, eta=rng.uniform(0.05, 0.99)), rng.randint(0, 300))
            for _ in range(3000)
        ]
        # n * ln 2 crosses ln(float max) between n = 1024 and 1025
        cases += [(params(n=n, delta2=1.0, epsilon=0.1, eta=0.5), 0) for n in range(1015, 1035)]
        for p, gap in cases:
            assert minimax_error_lb(p, gap) == self._inline_reference(p, gap)


class TestSampleCap:
    def test_oracle_value(self):
        # eps = 0.25, eta^gap*delta2 = 0.01 -> ln(1.5)/0.01
        p = params(n=10, delta2=0.1, epsilon=0.25, eta=0.1)
        assert sample_cap_for_error(p, 1) == pytest.approx(40.546510810816438, rel=1e-12)

    def test_cap_vanishes_near_half(self):
        p = params(n=10, delta2=0.1, epsilon=0.499999, eta=0.5)
        assert sample_cap_for_error(p, 0) < 1e-5

    def test_consistency_with_minimax_bound(self):
        for eta, delta2, eps, gap in [(0.8, 0.3, 0.2, 5), (0.9, 1.0, 0.1, 12), (0.6, 2.0, 0.3, 9)]:
            p = params(n=10, delta2=delta2, epsilon=eps, eta=eta)
            cap = sample_cap_for_error(p, gap)
            n_at_cap = math.floor(cap)
            assert n_at_cap >= 1  # cases chosen so the cap admits a sample
            witness = HorizonParams(n=n_at_cap, delta2=delta2, epsilon=eps, eta=eta)
            assert minimax_error_lb(witness, gap) >= eps - 1e-9


class TestApproxLumpability:
    def test_additive_penalty(self):
        # signal term negligible: gap 50, per-step discrepancy 1e-3 adds 0.1
        tv_bound, _ = approx_lumpability_tv(0.5, 1e-12, 50, 1e-3, 0.1)
        assert tv_bound == pytest.approx(0.1, abs=1e-6)

    def test_zero_discrepancy_reduces_to_signal_term(self):
        tv_bound, _ = approx_lumpability_tv(0.8, 0.5, 10, 0.0, 0.1)
        assert tv_bound == pytest.approx(math.sqrt(0.8**10 * 0.5 / 2), rel=1e-12)

    def test_sample_bound(self):
        # tau = 0.2 at these inputs: sqrt(0.08/2) = 0.2 exactly
        tv_bound, n_lb = approx_lumpability_tv(0.8, 0.08 / 0.8, 1, 0.0, 0.1)
        assert tv_bound == pytest.approx(0.2, rel=1e-12)
        assert n_lb == pytest.approx(0.8 / 0.2, rel=1e-12)

    def test_clamped_at_one(self):
        tv_bound, n_lb = approx_lumpability_tv(0.9, 4.0, 0, 0.5, 0.1)
        assert tv_bound == 1.0
        assert n_lb == pytest.approx(0.8)


class TestNoisyOutcome:
    def test_perfect_observation_unchanged(self):
        p = params(n=10_000, delta2=0.2, epsilon=0.1, eta=0.85)
        assert noisy_outcome_adjust(p, 1.0) == critical_horizon(p)

    def test_eta_g_equal_eta_costs_one_step(self):
        p = params(n=10_000, delta2=0.2, epsilon=0.1, eta=0.85)
        assert noisy_outcome_adjust(p, 0.85) == pytest.approx(critical_horizon(p) - 1, rel=1e-12)

    def test_half_fidelity_at_eta_09(self):
        p = params(n=1_000_000, delta2=0.1, epsilon=0.1, eta=0.9)
        shrink = critical_horizon(p) - noisy_outcome_adjust(p, 0.5)
        assert shrink == pytest.approx(math.log(2) / math.log(1 / 0.9), rel=1e-12)
        assert shrink == pytest.approx(6.58, abs=0.005)

    def test_floored_at_zero(self):
        p = params(n=2, delta2=0.6, epsilon=0.1, eta=0.9)
        assert noisy_outcome_adjust(p, 1e-9) == 0.0


class TestAchievability:
    def test_bernoulli_chi2_normalization(self):
        # eta^gap * delta2 = 0.01 so the shift is 0.1 from p0 = 0.5;
        # chi2 = 0.01*(1/0.6 + 1/0.4) and n is its reciprocal, 24 exactly
        assert achievability_n(0.1, 0.1, 1, 0.5) == pytest.approx(24.0, rel=1e-12)

    def test_zero_delta2_is_indistinguishable(self):
        assert achievability_n(0.9, 0.0, 5, 0.5) == math.inf

    def test_separated_returns_small_constant(self):
        assert achievability_n(0.9, 100.0, 0, 0.5) == 1.0

    def test_p1_out_of_range(self):
        with pytest.raises(InvalidArgument):
            achievability_n(0.99, 0.9, 1, 0.9)

    def test_ratio_to_lower_bound_is_bounded(self):
        eta, delta2, eps, p0 = 0.8, 0.04, 0.1, 0.3
        p = params(n=10, delta2=delta2, epsilon=eps, eta=eta)
        ratios = []
        for gap in range(1, 31):
            ratios.append(achievability_n(eta, delta2, gap, p0) / sample_lb(p, gap).bound)
        assert max(ratios) <= 0.25 / 0.81 + 1e-9  # p1*(1-p1)/(1-eps)^2 <= 1/4 / (1-eps)^2
        assert min(ratios) > 0.2
