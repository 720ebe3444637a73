import math

import numpy as np
import pytest

from chcalc import divergence
from chcalc.divergence import (
    SUPPORT_EPS,
    chi2,
    chi2_rows,
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
    """chi2 through its support masks, whatever the reference."""
    support = qe >= SUPPORT_EPS
    diff = pe[support] - qe[support]
    return float(np.sum(diff * diff / qe[support]))


class TestChi2Masks:
    @pytest.mark.parametrize("states", [1, 2, 5, 8, 9, 31, 200])
    def test_full_support_equals_masked_path(self, states):
        rng = np.random.default_rng(states)
        for concentration in (1.0, 0.05):
            pe, qe = rng.dirichlet(np.full(states, concentration), size=2)
            qe = (qe + 1e-12) / (qe + 1e-12).sum()
            assert qe.min() >= SUPPORT_EPS
            assert chi2_rows(pe, qe) == _masked_chi2(pe, qe)

    def test_null_reference_component_still_masked(self):
        pe = np.array([0.5, 0.5, 0.0, 1e-16])
        qe = np.array([0.25, 0.75, 0.0, 0.0])
        assert chi2_rows(pe, qe) == _masked_chi2(pe, qe)

    def test_absolute_continuity_refusal_unchanged(self):
        with pytest.raises(AbsoluteContinuityViolated, match="P has mass where the reference Q does not"):
            chi2(ProbVec([0.5, 0.5]), ProbVec([1.0, 0.0]))
        with pytest.raises(AbsoluteContinuityViolated):
            chi2(ProbVec([0.5, 0.5 - 1e-15, 1e-15]), ProbVec([0.5, 0.5, 1e-16]))


class TestChi2Rows:
    @pytest.mark.parametrize("states", [3, 8, 9, 31, 120])
    def test_row_alone_equals_row_in_batch(self, states):
        rng = np.random.default_rng(states)
        pe = rng.dirichlet(np.ones(states), size=30)
        qe = rng.dirichlet(np.full(states, 0.3), size=30)
        # every third reference has null entries; in every other one of those, P has mass there
        qe[::3, : states // 3 + 1] = 0.0
        pe[::6, : states // 3 + 1] = 0.0
        batch = chi2_rows(pe, qe)
        assert np.isinf(batch).sum() == 5
        assert np.array_equal([chi2_rows(p, q) for p, q in zip(pe, qe)], batch)

    def test_mass_on_null_reference_entry_is_inf(self):
        qe = np.array([0.5, 0.5, 1e-16])
        pe = np.array([[0.5, 0.5, 0.0], [0.5, 0.5 - 1e-15, 1e-15], [0.4, 0.6 - 1e-16, 1e-16]])
        values = chi2_rows(pe, np.tile(qe, (3, 1)))
        assert values[0] == 0.0
        assert values[1] == math.inf
        assert values[2] == chi2_rows(pe[2], qe) == _masked_chi2(pe[2], qe)
        with pytest.raises(AbsoluteContinuityViolated, match="P has mass where the reference Q does not"):
            chi2(ProbVec(pe[1]), ProbVec(qe))

    @pytest.mark.parametrize("states", [8, 12, 33, 120])
    def test_null_reference_near_compressed_sum(self, states):
        # zeros summed in place group the terms differently from the compressed
        # support from 8 entries up; the two sums differ in the last bits only
        rng = np.random.default_rng([states, 1])
        for _ in range(200):
            pe, qe = rng.dirichlet(np.ones(states), size=2)
            null = rng.random(states) < 0.3
            null[0] = False
            pe[null] = qe[null] = 0.0
            assert chi2_rows(pe, qe) == pytest.approx(_masked_chi2(pe, qe), rel=1e-15, abs=0)


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

    def test_finite_up_to_log_float_max(self):
        # 1015 ln 2 = 703.6 lies below ln(float max) = 709.78: the value is 3.5e305
        assert tensorize_chi2(1.0, 1015) == math.expm1(1015 * math.log1p(1.0))

    def test_inf_past_log_float_max(self):
        # 1025 ln 2 = 710.5
        assert tensorize_chi2(1.0, 1025) == math.inf


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

    def test_bad_range(self):
        with pytest.raises(InvalidArgument):
            decay_curve(_spec(0.8, horizon=4), point_mass(0, 10), uniform_dist(10), 5)

    def test_refuses_dimension_mismatch(self):
        with pytest.raises(InvalidArgument, match="^distribution dimensions must match the chain$"):
            decay_curve(_spec(0.8, horizon=4), point_mass(0, 10), uniform_dist(9), 0)


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

    @pytest.mark.parametrize("steps", [1, 5, 1024])
    def test_null_reference_entries_match_reference(self, monkeypatch, steps):
        # a zero column keeps Q's entry 2 null at every step; the mixture
        # kernel fills Q's null entry 3 after the first step
        monkeypatch.setattr(divergence, "_STEPS", steps)
        rng = np.random.default_rng(9)
        rows = rng.dirichlet(np.ones(6), size=6)
        rows[:, 2] = 0.0
        kernels = [Kernel(rows / rows.sum(axis=1, keepdims=True))] * 12
        spec = ChainSpec(horizon=12, kernels=kernels, success_set=frozenset({1}), initial=uniform_dist(6))
        p, q = ProbVec([0.1, 0.5, 0.0, 0.1, 0.2, 0.1]), ProbVec([0.3, 0.2, 0.0, 0.1, 0.25, 0.15])
        assert decay_curve(spec, p, q, 0).values == _reference_decay_values(spec, p, q, 0)
        spec = _spec(0.8, states=6, horizon=12)
        p, q = ProbVec([0.1, 0.5, 0.2, 0.0, 0.1, 0.1]), ProbVec([0.3, 0.2, 0.2, 0.0, 0.15, 0.15])
        assert decay_curve(spec, p, q, 0).values == _reference_decay_values(spec, p, q, 0)

    @pytest.mark.parametrize("states", [2, 6, 120])
    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_heterogeneous_across_block_boundaries(self, monkeypatch, steps, states):
        monkeypatch.setattr(divergence, "_STEPS", steps)
        rng = np.random.default_rng([steps, states])
        kernels = [Kernel(rng.dirichlet(np.ones(states), size=states)) for _ in range(40)]
        spec = ChainSpec(horizon=40, kernels=kernels, success_set=frozenset({1}), initial=uniform_dist(states))
        p, q = ProbVec(rng.dirichlet(np.ones(states))), ProbVec(rng.dirichlet(np.ones(states)))
        for t in (0, 5, 39, 40):
            assert decay_curve(spec, p, q, t).values == _reference_decay_values(spec, p, q, t)

    def test_mass_on_null_reference_entry_refused(self):
        with pytest.raises(AbsoluteContinuityViolated):
            decay_curve(_spec(0.8, horizon=5), point_mass(0, 10), point_mass(1, 10), 0)
