import math

import numpy as np
import pytest

from chcalc.divergence import (
    SUPPORT_EPS,
    chi2,
    chi2_arrays,
    decay_curve,
    lecam_total_error,
    tensorize_chi2,
    tv,
    tv_upper_from_chi2,
)
from chcalc.errors import AbsoluteContinuityViolated, InvalidArgument
from chcalc.markov import ChainSpec, Kernel, ProbVec, mixture_kernel, point_mass, uniform_dist


class TestChi2:
    def test_point_mass_vs_uniform_ten_states(self):
        assert chi2(point_mass(0, 10), uniform_dist(10)) == pytest.approx(9.0, abs=1e-12)

    def test_identical_is_zero(self):
        vec = ProbVec([0.2, 0.3, 0.5])
        assert chi2(vec, vec) == 0.0

    def test_support_violation(self):
        with pytest.raises(AbsoluteContinuityViolated):
            chi2(uniform_dist(10), point_mass(0, 10))

    def test_shared_null_component_contributes_zero(self):
        p = ProbVec([0.5, 0.5, 0.0])
        q = ProbVec([0.25, 0.75, 0.0])
        expected = 0.25**2 / 0.25 + 0.25**2 / 0.75
        assert chi2(p, q) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            chi2(uniform_dist(3), uniform_dist(4))


def _masked_chi2(pe, qe):
    """chi2_arrays through its support masks, whatever the reference."""
    support = qe >= SUPPORT_EPS
    diff = pe[support] - qe[support]
    return float(np.sum(diff * diff / qe[support]))


class TestChi2Arrays:
    @pytest.mark.parametrize("states", [1, 2, 5, 8, 9, 31, 200])
    def test_full_support_equals_masked_path(self, states):
        rng = np.random.default_rng(states)
        for concentration in (1.0, 0.05):
            pe, qe = rng.dirichlet(np.full(states, concentration), size=2)
            qe = (qe + 1e-12) / (qe + 1e-12).sum()
            assert qe.min() >= SUPPORT_EPS
            assert chi2_arrays(pe, qe) == _masked_chi2(pe, qe)

    def test_null_reference_component_still_masked(self):
        pe = np.array([0.5, 0.5, 0.0, 1e-16])
        qe = np.array([0.25, 0.75, 0.0, 0.0])
        assert chi2_arrays(pe, qe) == _masked_chi2(pe, qe)

    def test_absolute_continuity_refusal_unchanged(self):
        with pytest.raises(AbsoluteContinuityViolated, match="P has mass where the reference Q does not"):
            chi2_arrays(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        with pytest.raises(AbsoluteContinuityViolated):
            chi2_arrays(np.array([0.5, 0.5 - 1e-15, 1e-15]), np.array([0.5, 0.5, 1e-16]))


class TestTv:
    def test_identical(self):
        vec = uniform_dist(5)
        assert tv(vec, vec) == 0.0

    def test_disjoint(self):
        assert tv(point_mass(0, 2), point_mass(1, 2)) == pytest.approx(1.0)

    def test_half_l1(self):
        assert tv(ProbVec([0.9, 0.1]), ProbVec([0.1, 0.9])) == pytest.approx(0.8)


class TestTensorize:
    def test_zero(self):
        for n in (1, 10, 10**9):
            assert tensorize_chi2(0.0, n) == 0.0

    def test_small_case(self):
        assert tensorize_chi2(1.0, 2) == pytest.approx(3.0)

    def test_high_precision(self):
        # (1 + 1e-3)^1000 - 1, evaluated at 40 decimal digits
        assert tensorize_chi2(1e-3, 1000) == pytest.approx(1.7169239322358925, rel=1e-14)

    def test_tiny_chi2_huge_n(self):
        # must not round to zero: n*chi2 = 1e-3 to first order
        value = tensorize_chi2(1e-12, 10**9)
        assert value == pytest.approx(math.expm1(1e9 * math.log1p(1e-12)), rel=1e-12)
        assert value >= 1e-12 * 1  # >= n*chi2 lower bound checked elsewhere

    def test_overflow_returns_inf(self):
        assert tensorize_chi2(1.0, 10**9) == math.inf


class TestTvUpper:
    def test_zero(self):
        assert tv_upper_from_chi2(0.0) == 0.0

    def test_clipped(self):
        assert tv_upper_from_chi2(2.0) == 1.0

    def test_midrange(self):
        assert tv_upper_from_chi2(0.5) == pytest.approx(0.5)


class TestLeCam:
    def test_identical_gives_one(self):
        vec = uniform_dist(4)
        assert lecam_total_error(vec, vec) == pytest.approx(1.0)

    def test_disjoint_gives_zero(self):
        assert lecam_total_error(point_mass(0, 2), point_mass(1, 2)) == pytest.approx(0.0)

    def test_bernoulli_pair(self):
        assert lecam_total_error(ProbVec([0.5, 0.5]), ProbVec([0.4, 0.6])) == pytest.approx(0.9)


def _spec(eta, states=10, horizon=40):
    return ChainSpec(
        horizon=horizon,
        kernels=mixture_kernel(eta, states),
        success_set=frozenset({0}),
        initial=point_mass(0, states),
    )


class TestDecayCurve:
    def test_geometric_decay_against_closed_form(self):
        curve = decay_curve(_spec(0.7), point_mass(0, 10), uniform_dist(10), 0)
        for k in range(41):
            assert curve.chi2_after(k) == pytest.approx(0.7**k * 9.0, abs=1e-9)

    def test_identity_kernel_constant(self):
        curve = decay_curve(_spec(1.0, horizon=5), point_mass(0, 10), uniform_dist(10), 0)
        values = [v for _, v in curve.values]
        np.testing.assert_allclose(values, 9.0, atol=1e-12)

    def test_equal_inputs_all_zero(self):
        curve = decay_curve(_spec(0.9, horizon=5), uniform_dist(10), uniform_dist(10), 0)
        assert all(v == 0.0 for _, v in curve.values)

    def test_terminal_entry(self):
        curve = decay_curve(_spec(0.8, horizon=6), point_mass(0, 10), uniform_dist(10), 2)
        assert curve.start_step == 2
        assert curve.values[-1][0] == 6
        assert curve.terminal_chi2 == pytest.approx(0.8**4 * 9.0, abs=1e-12)

    def test_csv_rows_theory_column(self):
        curve = decay_curve(_spec(0.8, horizon=4), point_mass(0, 10), uniform_dist(10), 0)
        rows = curve.csv_rows(eta=0.8)
        assert [r["step"] for r in rows] == [0, 1, 2, 3, 4]
        assert [r["distance_to_end"] for r in rows] == [4, 3, 2, 1, 0]
        for k, row in enumerate(rows):
            assert row["chi2_theory"] == pytest.approx(0.8**k * 9.0)
        assert decay_curve(_spec(0.8, horizon=4), point_mass(0, 10), uniform_dist(10), 0).csv_rows()[0][
            "chi2_theory"
        ] == ""

    def test_bad_range(self):
        with pytest.raises(InvalidArgument):
            decay_curve(_spec(0.8, horizon=4), point_mass(0, 10), uniform_dist(10), 5)


def _reference_decay_values(spec, p, q, t):
    """The curve built with a checked ProbVec after every step (the former
    formulation, loss tolerance 1e-10); the raw-array loop must match it bit for bit."""
    values = [(t, chi2(p, q))]
    for u in range(t, spec.horizon):
        rows = spec.kernel_at(u).rows
        p = ProbVec(p.entries @ rows)
        q = ProbVec(q.entries @ rows)
        values.append((u + 1, chi2(p, q)))
    return tuple(values)


class TestDecayCurveReference:
    @pytest.mark.parametrize("eta,states,horizon", [(0.7, 10, 40), (0.999, 10, 2000), (0.5, 3, 60)])
    def test_homogeneous_matches_reference(self, eta, states, horizon):
        spec = _spec(eta, states=states, horizon=horizon)
        p, q = point_mass(0, states), uniform_dist(states)
        assert decay_curve(spec, p, q, 0).values == _reference_decay_values(spec, p, q, 0)

    def test_heterogeneous_matches_reference(self):
        rng = np.random.default_rng(5)
        kernels = [Kernel(rng.dirichlet(np.ones(6), size=6)) for _ in range(30)]
        spec = ChainSpec(horizon=30, kernels=kernels, success_set=frozenset({1}), initial=uniform_dist(6))
        p, q = ProbVec(rng.dirichlet(np.ones(6))), ProbVec(rng.dirichlet(np.ones(6)))
        assert decay_curve(spec, p, q, 4).values == _reference_decay_values(spec, p, q, 4)
