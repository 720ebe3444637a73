import math
import random

import pytest
from scipy.stats import binom

from chcalc.errors import InvalidArgument
from chcalc.objectives import (
    _log_binom_pmf,
    ObjectivePoint,
    dj_add_dp,
    dj_mult_dp,
    grad_attenuation,
    j_add,
    j_interp,
    j_mult,
    mostly_correct_but_wrong_prob,
)


class TestObjectives:
    def test_hundred_steps_at_99_percent(self):
        assert j_add(0.99, 100) == 99.0
        assert j_mult(0.99, 100) == pytest.approx(0.3660, abs=5e-5)

    def test_perfect_policy(self):
        assert j_add(1.0, 30) == 30.0
        assert j_mult(1.0, 30) == 1.0

    def test_hopeless_policy(self):
        assert j_add(0.0, 30) == 0.0
        assert j_mult(0.0, 30) == 0.0

    def test_mismatch_identity(self):
        for p in (0.2, 0.5, 0.99):
            for h in (2, 10, 100):
                assert j_add(p, h) / h > j_mult(p, h)
                assert j_mult(p, h) == pytest.approx((j_add(p, h) / h) ** h, rel=1e-12)


class TestGradients:
    def test_attenuation_worked_example(self):
        value = grad_attenuation(0.95, 100)
        assert value == pytest.approx(0.95**99, rel=1e-12)
        assert 0.0062 <= value <= 0.0063

    def test_single_step_no_attenuation(self):
        assert grad_attenuation(0.3, 1) == 1.0

    def test_perfect_policy_no_attenuation(self):
        for h in (1, 10, 500):
            assert grad_attenuation(1.0, h) == 1.0

    def test_analytic_vs_central_difference(self):
        h_fd = 1e-6
        for p in (0.1, 0.5, 0.9, 0.95):
            for steps in (1, 2, 10, 50):
                analytic = dj_mult_dp(p, steps)
                numeric = (j_mult(p + h_fd, steps) - j_mult(p - h_fd, steps)) / (2 * h_fd)
                assert analytic == pytest.approx(numeric, rel=1e-5)
                assert dj_add_dp(p, steps) == pytest.approx(
                    (j_add(p + h_fd, steps) - j_add(p - h_fd, steps)) / (2 * h_fd), rel=1e-5
                )


class TestInterpolated:
    def test_endpoints(self):
        value0, _ = j_interp(0.7, 20, 0.0)
        value1, _ = j_interp(0.7, 20, 1.0)
        assert value0 == j_add(0.7, 20)
        assert value1 == j_mult(0.7, 20)

    def test_gradient_floor(self):
        # lambda = 1 - c with c = 0.3 keeps at least 0.3*H of gradient
        _, grad = j_interp(0.9, 50, 0.7)
        assert grad >= 0.3 * 50

    def test_gradient_floor_grid(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            for h in (1, 5, 40):
                for lam in (0.0, 0.4, 0.9, 1.0):
                    _, grad = j_interp(p, h, lam)
                    assert grad >= (1 - lam) * dj_add_dp(p, h) - 1e-12


def _tail_sum_over_every_k(p, h, threshold):
    """The tail sum over every k in [ceil(threshold*H), H), kept as the
    reference for the windowed sum."""
    if p == 1.0:
        return 0.0
    k_lo = math.ceil(threshold * h)
    if k_lo >= h:
        return 0.0
    if p == 0.0:
        return 0.0 if k_lo >= 1 else 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(k_lo, h):
        total += math.exp(_log_binom_pmf(k, h, log_p, log_q))
    return min(1.0, total)


class TestMostlyCorrectButWrong:
    def test_perfect_policy_never_wrong(self):
        assert mostly_correct_but_wrong_prob(1.0, 100, 0.8) == 0.0

    def test_two_step_coin(self):
        assert mostly_correct_but_wrong_prob(0.5, 2, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_against_scipy_oracle(self):
        for p, h, threshold in [
            (0.99, 100, 0.8),
            (0.9, 50, 0.7),
            (0.5, 10, 0.5),
            (0.97, 1000, 0.9),
        ]:
            k_lo = math.ceil(threshold * h)
            expected = binom.cdf(h - 1, h, p) - binom.cdf(k_lo - 1, h, p)
            assert mostly_correct_but_wrong_prob(p, h, threshold) == pytest.approx(
                expected, rel=1e-10, abs=1e-13
            )

    def test_headline_value(self):
        value = mostly_correct_but_wrong_prob(0.99, 100, 0.8)
        assert value == pytest.approx(1 - 0.99**100, abs=2e-4)  # below-threshold mass is tiny

    def test_partition_of_unity(self):
        for p, h, threshold in [(0.99, 100, 0.8), (0.6, 37, 0.51), (0.95, 400, 0.93)]:
            k_lo = math.ceil(threshold * h)
            middle = mostly_correct_but_wrong_prob(p, h, threshold)
            below = binom.cdf(k_lo - 1, h, p)
            all_correct = p**h
            assert middle + below + all_correct == pytest.approx(1.0, abs=1e-12)

    def test_window_equals_the_sum_over_every_k(self):
        rng = random.Random(11)
        for _ in range(400):
            h = int(10 ** rng.uniform(0, math.log10(20_000)))
            p = rng.choice([rng.random(), 1 - 10 ** rng.uniform(-12, 0), 10 ** rng.uniform(-12, 0), 0.5])
            threshold = rng.choice([1.0 - rng.random(), 1.0, 1e-9, 0.5, p or 1.0])
            expected = _tail_sum_over_every_k(p, h, threshold)
            assert mostly_correct_but_wrong_prob(p, h, threshold) == expected, (p, h, threshold)

    def test_hundred_million_steps(self):
        h = 10**8
        expected = binom.sf(h // 2 - 1, h, 0.5) - binom.pmf(h, h, 0.5)
        # lgamma(H + 1) is about 1.7e9 here, so each log-pmf carries ~1e-7 of rounding
        assert mostly_correct_but_wrong_prob(0.5, h, 0.5) == pytest.approx(expected, rel=1e-6)

    def test_tail_beyond_ten_million_terms_refused(self):
        with pytest.raises(InvalidArgument, match="H is too large for the exact tail sum"):
            mostly_correct_but_wrong_prob(0.5, 10**12, 0.5)

    def test_threshold_validation(self):
        with pytest.raises(InvalidArgument):
            mostly_correct_but_wrong_prob(0.9, 10, 0.0)
        with pytest.raises(InvalidArgument):
            mostly_correct_but_wrong_prob(0.9, 10, 1.5)


class TestObjectivePoint:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            ObjectivePoint(p=1.2, H=10)
        with pytest.raises(InvalidArgument):
            ObjectivePoint(p=0.5, H=0)
        with pytest.raises(InvalidArgument):
            ObjectivePoint(p=0.5, H=10, lam=-0.1)
