import math

import numpy as np
import pytest
from scipy import stats

from chcalc.errors import InvalidArgument
from chcalc.experiments import _width_histogram
from chcalc.width import (
    WidthParams,
    correlated_variance,
    effective_width,
    estimator_variance_iid,
    hoeffding_halfwidth,
    width_horizon,
    width_insufficiency_threshold,
)
from chcalc.horizon import critical_horizon_simplified


class TestIidVariance:
    def test_single_rollout_worst_case(self):
        assert estimator_variance_iid(0.5, 1) == 0.25

    def test_deterministic_outcomes(self):
        assert estimator_variance_iid(0.0, 10) == 0.0
        assert estimator_variance_iid(1.0, 10) == 0.0

    def test_scales_inversely_with_width(self):
        assert estimator_variance_iid(0.5, 100) == pytest.approx(0.0025)


class TestHoeffding:
    def test_ln_two_over_delta_equals_two(self):
        delta = 2 * math.exp(-2)
        assert hoeffding_halfwidth(2, delta) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_quadrupling_width_halves(self):
        for w in (1, 3, 25):
            assert hoeffding_halfwidth(4 * w, 0.05) == pytest.approx(
                hoeffding_halfwidth(w, 0.05) / 2, rel=1e-12
            )

    def test_delta_one_still_positive(self):
        assert hoeffding_halfwidth(8, 1.0) == pytest.approx(math.sqrt(math.log(2) / 16), rel=1e-12)

    def test_rejects_delta_two(self):
        with pytest.raises(InvalidArgument):
            hoeffding_halfwidth(8, 2.0)


class TestEffectiveWidth:
    def test_correlation_table(self):
        # W -> W_eff at rho = 0.2, quoted at two significant figures
        expected = {10: 3.6, 50: 4.6, 100: 4.8, 500: 5.0}
        for w, quoted in expected.items():
            value = effective_width(w, 0.2)
            assert float(f"{value:.2g}") == quoted

    def test_exact_small_values(self):
        assert effective_width(10, 0.2) == pytest.approx(10 / 2.8, rel=1e-12)
        assert effective_width(100, 0.2) == pytest.approx(4.8077, abs=5e-5)

    def test_uncorrelated_is_lossless(self):
        for w in (1, 7, 1000):
            assert effective_width(w, 0.0) == w

    def test_bounded_by_min_w_inv_rho(self):
        for w in (1, 10, 100, 10_000):
            for rho in (0.01, 0.2, 0.9):
                value = effective_width(w, rho)
                assert 1 <= value <= min(w, 1 / rho) + 1e-12

    def test_monotone(self):
        assert effective_width(50, 0.2) > effective_width(10, 0.2)
        assert effective_width(50, 0.3) < effective_width(50, 0.2)


class TestCorrelatedVariance:
    def test_rho_zero_matches_iid(self):
        assert correlated_variance(0.3, 20, 0.0) == pytest.approx(
            estimator_variance_iid(0.3, 20)
        )

    def test_single_rollout_ignores_rho(self):
        for rho in (0.0, 0.5, 0.99):
            assert correlated_variance(0.4, 1, rho) == pytest.approx(0.24)

    def test_paper_sized_example(self):
        value = correlated_variance(0.5, 256, 0.15)
        assert value == pytest.approx(0.25 * 39.25 / 256, rel=1e-12)
        assert value == pytest.approx(0.03833, abs=5e-6)

    def test_product_identity(self):
        for w, rho, v in [(4, 0.1, 0.2), (256, 0.15, 0.5), (33, 0.7, 0.9)]:
            assert correlated_variance(v, w, rho) * effective_width(w, rho) == pytest.approx(
                v * (1 - v), rel=1e-12
            )


class TestWidthHorizon:
    def test_w_one_matches_plain_horizon(self):
        assert width_horizon(1000, 1, 0.3, 0.5, 0.85) == pytest.approx(
            critical_horizon_simplified(1000, 0.5, 0.85)
        )

    def test_doubling_w_eff_adds_log2_steps(self):
        base = width_horizon(1000, 1, 0.0, 0.5, 0.9)
        doubled = width_horizon(1000, 2, 0.0, 0.5, 0.9)
        assert doubled - base == pytest.approx(math.log(2) / math.log(1 / 0.9), rel=1e-9)
        assert doubled - base == pytest.approx(6.6, abs=0.03)

    def test_saturation_cap(self):
        capped = width_horizon(1000, 10**7, 0.2, 0.5, 0.9)
        limit = critical_horizon_simplified(1000 / 0.2, 0.5, 0.9)
        assert capped == pytest.approx(limit, abs=1e-3)


class TestInsufficiencyThreshold:
    def test_worked_example(self):
        value = width_insufficiency_threshold(1000, 0.3, 0.2, 0.8)
        assert value == pytest.approx(math.log(1500) / math.log(1.25), rel=1e-12)
        assert value == pytest.approx(32.8, abs=0.03)

    def test_rho_one_matches_unit_width(self):
        assert width_insufficiency_threshold(1000, 0.3, 1.0, 0.8) == pytest.approx(
            critical_horizon_simplified(1000, 0.3, 0.8)
        )

    def test_monotone_in_rho(self):
        a = width_insufficiency_threshold(1000, 0.3, 0.1, 0.8)
        b = width_insufficiency_threshold(1000, 0.3, 0.4, 0.8)
        assert a > b

    def test_rho_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            width_insufficiency_threshold(1000, 0.3, 0.0, 0.8)


class TestParams:
    def test_rejects_bad_rho(self):
        with pytest.raises(InvalidArgument):
            WidthParams(W=4, rho=1.0)

    def test_rejects_bad_value(self):
        with pytest.raises(InvalidArgument):
            WidthParams(W=4, rho=0.2, value=1.5)


def equicorrelated_outcomes(value, w, rho, groups, rng):
    """The per-outcome reference: binary outcome groups with marginal mean
    ``value`` and exact pairwise correlation ``rho`` inside each group.

    R_j = I_j * C + (1 - I_j) * X_j with I_j ~ Bernoulli(sqrt(rho)) i.i.d.,
    C a per-group shared Bernoulli(value), X_j i.i.d. Bernoulli(value), so
    Cov(R_i, R_j) = rho * value * (1 - value). Returns a (groups x w) float
    array of 0/1 outcomes.
    """
    shared = (rng.random((groups, 1)) < value).astype(float)
    private = (rng.random((groups, w)) < value).astype(float)
    use_shared = rng.random((groups, w)) < math.sqrt(rho)
    return np.where(use_shared, shared, private)


class TestEquicorrelatedSampler:
    def test_marginal_mean_and_pairwise_correlation(self):
        rng = np.random.default_rng(42)
        v, w, rho, groups = 0.5, 8, 0.3, 100_000
        outcomes = equicorrelated_outcomes(v, w, rho, groups, rng)
        assert outcomes.shape == (groups, w)
        mean = outcomes.mean()
        se_mean = math.sqrt(v * (1 - v) / outcomes.size)
        assert abs(mean - v) < 5 * se_mean
        # average correlation across all pairs of columns
        centered = outcomes - outcomes.mean(axis=0)
        cov = centered.T @ centered / (groups - 1)
        variances = np.diag(cov)
        pair_corrs = [
            cov[i, j] / math.sqrt(variances[i] * variances[j])
            for i in range(w)
            for j in range(i + 1, w)
        ]
        # 3-standard-error band for a correlation estimate at this sample size
        assert abs(np.mean(pair_corrs) - rho) < 3 * (1 - rho**2) / math.sqrt(groups)

    def test_variance_matches_design_effect(self):
        rng = np.random.default_rng(7)
        v, w, rho, groups = 0.5, 16, 0.2, 200_000
        outcomes = equicorrelated_outcomes(v, w, rho, groups, rng)
        var_mean = outcomes.mean(axis=1).var(ddof=1)
        expected = correlated_variance(v, w, rho)
        assert var_mean == pytest.approx(expected, rel=0.02)

    def test_deterministic_per_seed(self):
        a = equicorrelated_outcomes(0.4, 4, 0.1, 100, np.random.default_rng(3))
        b = equicorrelated_outcomes(0.4, 4, 0.1, 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


def group_sum_pmf(value: float, w: int, rho: float) -> np.ndarray:
    """Exact pmf of a group's sum: given the shared bit C, each outcome is an
    independent Bernoulli(lam * C + (1 - lam) * value), lam = sqrt(rho)."""
    lam = math.sqrt(rho)
    s = np.arange(w + 1)
    return (1 - value) * stats.binom.pmf(s, w, (1 - lam) * value) + value * stats.binom.pmf(
        s, w, lam + (1 - lam) * value
    )


def _sum_by_draw(value, w, rho, groups, rng):
    return equicorrelated_outcomes(value, w, rho, groups, rng).sum(axis=1)


def equicorrelated_group_sums(value, w, rho, groups, rng):
    """The width experiment's group sums: its histogram, one entry per group."""
    return np.repeat(*_width_histogram(value, w, rho, groups, rng))


def _fits_group_sum_pmf(sums, value, w, rho) -> bool:
    observed = np.bincount(sums.astype(int), minlength=w + 1)
    expected = len(sums) * group_sum_pmf(value, w, rho)
    rare = expected < 5  # pooled into one cell, as the chi-squared law needs
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    return stats.chisquare(observed, expected).pvalue > 1e-3


class TestGroupSums:
    @pytest.mark.parametrize("sampler", [equicorrelated_group_sums, _sum_by_draw])
    @pytest.mark.parametrize("w", [1, 4, 16, 256])
    @pytest.mark.parametrize("rho", [0.0, 0.15, 0.6])
    def test_chi_squared_fit_to_exact_pmf(self, sampler, w, rho):
        value, groups = 0.3, 20_000
        sums = np.asarray(sampler(value, w, rho, groups, np.random.default_rng(11)))
        assert sums.shape == (groups,)
        assert _fits_group_sum_pmf(sums, value, w, rho)

    def test_histogram_fits_exact_pmf_at_a_million_outcomes_per_group(self):
        value, w, rho, groups = 0.3, 10**6, 0.15, 20_000
        sums, mult = _width_histogram(value, w, rho, groups, np.random.default_rng(11))
        assert mult.sum() == groups
        assert _fits_group_sum_pmf(np.repeat(sums, mult), value, w, rho)

    def test_deterministic_per_seed(self):
        a = _width_histogram(0.4, 4, 0.1, 100, np.random.default_rng(3))
        b = _width_histogram(0.4, 4, 0.1, 100, np.random.default_rng(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_value_rounding_to_a_sure_success_still_draws(self):
        # p_1 = lam + (1 - lam) * value rounds to 1.0 here
        value = 1 - 2**-53
        sums, mult = _width_histogram(value, 8, 0.25, 1000, np.random.default_rng(0))
        assert mult.sum() == 1000 and sums.max() == 8
