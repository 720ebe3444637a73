import math

import numpy as np
import pytest

from chcalc.errors import InvalidArgument
from chcalc.markov import (
    ChainSpec,
    Kernel,
    ProbVec,
    SoftmaxPolicyInput,
    mixture_kernel,
    mixture_return_probs,
    outcome_prob,
    point_mass,
    propagate,
    propagate_chain,
    softmax_policy_kernel,
    step,
    two_state_kernel,
    uniform_dist,
)


class TestConstructors:
    def test_point_mass_first(self):
        vec = point_mass(0, 10)
        assert vec.entries[0] == 1.0
        assert vec.entries[1:].sum() == 0.0

    def test_point_mass_last(self):
        assert point_mass(9, 10).entries[9] == 1.0

    def test_point_mass_out_of_range(self):
        with pytest.raises(InvalidArgument):
            point_mass(3, 2)

    def test_uniform(self):
        np.testing.assert_allclose(uniform_dist(10).entries, 0.1)
        np.testing.assert_allclose(uniform_dist(4).entries, 0.25)
        assert uniform_dist(1).entries.tolist() == [1.0]

    def test_uniform_zero_size(self):
        with pytest.raises(InvalidArgument):
            uniform_dist(0)

    def test_probvec_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            ProbVec([0.5, 0.6, -0.1])

    def test_probvec_rejects_bad_sum(self):
        with pytest.raises(InvalidArgument):
            ProbVec([0.5, 0.4])

    @pytest.mark.parametrize("entries", [[], [[0.5, 0.5]]], ids=["empty", "matrix"])
    def test_probvec_refuses_shape(self, entries):
        with pytest.raises(InvalidArgument, match="^distribution entries must form a nonempty 1-d vector$"):
            ProbVec(entries)

    def test_probvec_renormalizes_within_tolerance(self):
        vec = ProbVec([0.5, 0.5 + 1e-13])
        assert vec.entries.sum() == 1.0

    def test_probvec_immutable(self):
        vec = uniform_dist(3)
        with pytest.raises(ValueError):
            vec.entries[0] = 0.5

    def test_attributes_cannot_be_assigned(self):
        vec, kernel = uniform_dist(3), mixture_kernel(0.5, 3)
        with pytest.raises(AttributeError, match="^ProbVec is immutable$"):
            vec.entries = np.zeros(3)
        with pytest.raises(AttributeError, match="^Kernel is immutable$"):
            kernel.rows = np.eye(3)
        assert vec.entries.tolist() == uniform_dist(3).entries.tolist()
        assert (kernel.rows == mixture_kernel(0.5, 3).rows).all()

    def test_length_and_repr(self):
        assert len(ProbVec([0.25, 0.75])) == 2
        assert repr(ProbVec([0.25, 0.75])) == "ProbVec([0.25, 0.75])"
        assert repr(Kernel([[1.0, 0.0], [0.5, 0.5]])) == "Kernel(size=2)"

    def test_kernel_rejects_row_sum(self):
        with pytest.raises(InvalidArgument):
            Kernel([[0.5, 0.4], [0.5, 0.5]])

    def test_kernel_rejects_rectangular(self):
        with pytest.raises(InvalidArgument):
            Kernel([[0.5, 0.5]])

    def test_probvec_rejects_nan(self):
        # NaN fails every comparison, so it must not slip past the sign and sum checks
        with pytest.raises(InvalidArgument, match="distribution entries must not be NaN"):
            ProbVec([np.nan, 1.0])

    def test_kernel_rejects_nan(self):
        with pytest.raises(InvalidArgument, match="kernel entries must not be NaN"):
            Kernel([[np.nan, 1.0], [0.5, 0.5]])

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning on the way
    def test_overflowing_sums_refused_without_warning(self):
        with pytest.raises(InvalidArgument) as refused:
            ProbVec([1e308, 1e308])
        assert str(refused.value) == (
            "distribution entries must sum to 1 within 1e-12 (worst deviation inf)"
        )
        with pytest.raises(InvalidArgument) as refused:
            Kernel([[1e308, 1e308], [0.5, 0.5]])
        assert str(refused.value) == "kernel rows must sum to 1 within 1e-12 (worst deviation inf)"


class TestMixtureKernel:
    def test_closed_form_081(self):
        kernel = mixture_kernel(0.81, 10)
        np.testing.assert_allclose(np.diag(kernel.rows), 0.91)
        off = kernel.rows[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off, 0.01)

    def test_eta_one_is_identity(self):
        np.testing.assert_allclose(mixture_kernel(1.0, 5).rows, np.eye(5), atol=1e-15)

    def test_decay_ratio_is_eta_per_step(self):
        # the chi2 distance to the uniform reference shrinks by exactly eta
        from chcalc.divergence import chi2

        kernel = mixture_kernel(0.7, 10)
        ref = uniform_dist(10)
        dist = point_mass(0, 10)
        previous = chi2(dist, ref)
        for _ in range(6):
            dist = propagate(dist, kernel)
            current = chi2(dist, ref)
            assert current / previous == pytest.approx(0.7, abs=1e-12)
            previous = current

    @pytest.mark.parametrize("eta", [0.09, 0.3, 0.49, 0.81])
    @pytest.mark.parametrize("states", [2, 3, 10])
    def test_return_probs_match_pushed_point_mass(self, eta, states):
        # the pushed point mass carries the BLAS kernel's rounding, so the two
        # agree to a few ulp; the closed form starts at 1 and never falls below 1/states
        kernel = mixture_kernel(eta, states)
        closed = mixture_return_probs(eta, states, 120)
        assert closed[0] == 1.0
        assert min(closed) >= 1.0 / states
        dist = point_mass(0, states).entries
        for d in range(1, 121):
            dist = step(dist, kernel.rows)
            assert abs(dist[0] - closed[d]) <= 16 * math.ulp(closed[d]), d

    def test_rejects_bad_eta(self):
        with pytest.raises(InvalidArgument):
            mixture_kernel(0.0, 10)
        with pytest.raises(InvalidArgument):
            mixture_kernel(1.2, 10)


class TestTwoStateKernel:
    def test_p_zero_is_identity(self):
        np.testing.assert_allclose(two_state_kernel(0.0).rows, np.eye(2))

    def test_rows(self):
        np.testing.assert_allclose(two_state_kernel(0.1).rows, [[0.9, 0.1], [0.1, 0.9]])

    def test_row_overlap_at_quarter(self):
        from chcalc.contraction import dobrushin_alpha

        assert dobrushin_alpha(two_state_kernel(0.25)) == pytest.approx(0.5)

    def test_rejects_half(self):
        with pytest.raises(InvalidArgument):
            two_state_kernel(0.5)


class TestPropagation:
    def test_uniform_is_stationary(self):
        kernel = mixture_kernel(0.5, 8)
        result = propagate(uniform_dist(8), kernel)
        np.testing.assert_allclose(result.entries, 0.125, atol=1e-15)

    def test_identity_keeps_point_mass(self):
        result = propagate(point_mass(0, 4), mixture_kernel(1.0, 4))
        np.testing.assert_allclose(result.entries, point_mass(0, 4).entries)

    def test_row_readoff(self):
        result = propagate(point_mass(0, 2), two_state_kernel(0.1))
        np.testing.assert_allclose(result.entries, [0.9, 0.1])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            propagate(uniform_dist(3), two_state_kernel(0.1))

    def test_matches_checked_product_bit_for_bit(self):
        # the former formulation: a checked ProbVec on the raw product
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            p, kernel = ProbVec(rng.dirichlet(np.ones(n))), Kernel(rng.dirichlet(np.ones(n), size=n))
            reference = ProbVec(p.entries @ kernel.rows)
            result = propagate(p, kernel)
            assert np.array_equal(result.entries, reference.entries)
            assert not result.entries.flags.writeable


class TestStep:
    # 120 states is above OpenBLAS's size threshold for a threaded vector-matrix product
    @pytest.mark.parametrize("n", [2, 10, 120])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_stack_matches_row_by_row_bit_for_bit(self, n, batch):
        rng = np.random.default_rng([n, batch])
        rows = Kernel(rng.dirichlet(np.ones(n), size=n)).rows
        stack = rng.dirichlet(np.ones(n), size=batch)
        expected = np.array([step(row, rows) for row in stack])
        assert np.array_equal(step(stack[:, None], rows)[:, 0], expected)
        out = np.empty((batch, 1, n))
        assert step(stack[:, None], rows, out=out) is out
        assert np.array_equal(out[:, 0], expected)

    @pytest.mark.parametrize("n", [2, 10, 120])
    def test_single_step_is_the_normalized_product(self, n):
        # the former formulation: the product divided by its scalar sum
        rng = np.random.default_rng(n)
        rows = Kernel(rng.dirichlet(np.ones(n), size=n)).rows
        for entries in rng.dirichlet(np.ones(n), size=50):
            pushed = entries @ rows
            assert np.array_equal(step(entries, rows), pushed / pushed.sum())


def _spec(horizon=10, eta=0.81, states=10):
    return ChainSpec(
        horizon=horizon,
        kernels=mixture_kernel(eta, states),
        success_set=frozenset({0}),
        initial=point_mass(0, states),
    )


class TestChainSpec:
    def test_empty_range_is_identity(self):
        spec = _spec()
        dist = uniform_dist(10)
        result = propagate_chain(dist, spec, 3, 3)
        np.testing.assert_allclose(result.entries, dist.entries)

    def test_homogeneous_matches_iterated_propagate(self):
        spec = _spec()
        direct = propagate_chain(point_mass(0, 10), spec, 0, 4)
        iterated = point_mass(0, 10)
        for _ in range(4):
            iterated = propagate(iterated, spec.kernel_at(0))
        np.testing.assert_allclose(direct.entries, iterated.entries)

    def test_heterogeneous_matches_iterated_propagate_bit_for_bit(self):
        rng = np.random.default_rng(4)
        kernels = [Kernel(rng.dirichlet(np.ones(5), size=5)) for _ in range(12)]
        spec = ChainSpec(horizon=12, kernels=kernels, success_set=frozenset({0}), initial=uniform_dist(5))
        iterated = ProbVec(rng.dirichlet(np.ones(5)))
        direct = propagate_chain(iterated, spec, 2, 12)
        for t in range(2, 12):
            iterated = propagate(iterated, kernels[t])
        assert np.array_equal(direct.entries, iterated.entries)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument, match="dimension mismatch"):
            propagate_chain(uniform_dist(3), _spec(), 0, 2)

    def test_two_step_entry(self):
        result = propagate_chain(point_mass(0, 10), _spec(), 0, 2)
        assert result.entries[0] == pytest.approx(0.91**2 + 9 * 0.01**2, abs=1e-14)

    def test_range_validation(self):
        with pytest.raises(InvalidArgument):
            propagate_chain(point_mass(0, 10), _spec(), 5, 3)
        with pytest.raises(InvalidArgument):
            propagate_chain(point_mass(0, 10), _spec(), 0, 11)

    def test_heterogeneous_needs_full_list(self):
        with pytest.raises(InvalidArgument):
            ChainSpec(
                horizon=3,
                kernels=(mixture_kernel(0.8, 4), mixture_kernel(0.9, 4)),
                success_set=frozenset({0}),
                initial=point_mass(0, 4),
            )

    def test_success_set_must_be_strict_subset(self):
        with pytest.raises(InvalidArgument):
            ChainSpec(
                horizon=2,
                kernels=mixture_kernel(0.8, 3),
                success_set=frozenset({0, 1, 2}),
                initial=point_mass(0, 3),
            )
        with pytest.raises(InvalidArgument):
            ChainSpec(
                horizon=2,
                kernels=mixture_kernel(0.8, 3),
                success_set=frozenset(),
                initial=point_mass(0, 3),
            )

    @pytest.mark.parametrize(
        ("kernels", "initial", "success", "message"),
        [
            ((mixture_kernel(0.8, 3), mixture_kernel(0.8, 4)), point_mass(0, 3), {0},
             "all kernels must share one state count"),
            (mixture_kernel(0.8, 3), point_mass(0, 4), {0}, "initial distribution dimension must match the kernels"),
            (mixture_kernel(0.8, 3), point_mass(0, 3), {3}, "success_set indices must be valid state indices"),
        ],
        ids=["kernel-sizes", "initial-size", "success-index"],
    )
    def test_refusals(self, kernels, initial, success, message):
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            ChainSpec(horizon=2, kernels=kernels, success_set=success, initial=initial)

    def test_success_set_refuses_non_integral_indices(self):
        for success in ({1.9}, {0, 1.0}):
            with pytest.raises(InvalidArgument, match="success_set entries must be integers"):
                ChainSpec(horizon=2, kernels=mixture_kernel(0.8, 3), success_set=success, initial=point_mass(0, 3))
        spec = ChainSpec(horizon=2, kernels=mixture_kernel(0.8, 3), success_set={np.int64(1)}, initial=point_mass(0, 3))
        assert spec.success_set == {1}
        assert all(type(i) is int for i in spec.success_set)


class TestOutcomeProb:
    def test_uniform_single_state(self):
        assert outcome_prob(uniform_dist(10), {0}) == pytest.approx(0.1)

    def test_all_but_one_state(self):
        assert outcome_prob(uniform_dist(4), {0, 1, 2, 3}) == pytest.approx(1.0)

    def test_readoff(self):
        assert outcome_prob(ProbVec([0.9, 0.1]), {1}) == pytest.approx(0.1)

    def test_invalid_index(self):
        with pytest.raises(InvalidArgument):
            outcome_prob(uniform_dist(3), {5})

    def test_refuses_non_integral_index(self):
        with pytest.raises(InvalidArgument, match=r"success_set entries must be integers, got \[0.5\]"):
            outcome_prob(ProbVec([0.9, 0.1]), [0.5])
        assert outcome_prob(ProbVec([0.9, 0.1]), [np.int64(1)]) == pytest.approx(0.1)


def _switch_kernels(size):
    # action 0: go to state 0; action 1: go to state 1
    to0 = np.zeros((size, size))
    to0[:, 0] = 1.0
    to1 = np.zeros((size, size))
    to1[:, 1] = 1.0
    return Kernel(to0), Kernel(to1)


class TestSoftmaxPolicyKernel:
    @pytest.mark.parametrize(
        ("logits", "count", "message"),
        [
            (np.zeros(3), 2, r"logits must be a \(states x actions\) matrix"),
            (np.zeros((3, 2)), 3, "need one action kernel per logits column"),
            (np.zeros((2, 2)), 2, "action kernels must match the logits' state axis"),
        ],
        ids=["logits-shape", "kernel-count", "kernel-size"],
    )
    def test_refusals(self, logits, count, message):
        k0, k1 = _switch_kernels(3)
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            SoftmaxPolicyInput(logits=logits, action_kernels=(k0, k1, k0)[:count], temperature=1.0)

    def test_equal_logits_give_uniform_mixture(self):
        k0, k1 = _switch_kernels(3)
        for tau in (0.01, 1.0, 100.0):
            policy = SoftmaxPolicyInput(
                logits=np.zeros((3, 2)), action_kernels=(k0, k1), temperature=tau
            )
            rows = softmax_policy_kernel(policy).rows
            np.testing.assert_allclose(rows[:, 0], 0.5, atol=1e-15)
            np.testing.assert_allclose(rows[:, 1], 0.5, atol=1e-15)

    def test_low_temperature_approaches_permutation(self):
        size = 3
        cycle = np.roll(np.eye(size), 1, axis=1)
        other = np.full((size, size), 1.0 / size)
        logits = np.tile([5.0, 0.0], (size, 1))
        policy = SoftmaxPolicyInput(
            logits=logits,
            action_kernels=(Kernel(cycle), Kernel(other)),
            temperature=1e-3,
        )
        rows = softmax_policy_kernel(policy).rows
        np.testing.assert_allclose(rows, cycle, atol=1e-12)

    def test_high_temperature_weights(self):
        k0, k1 = _switch_kernels(2)
        policy = SoftmaxPolicyInput(
            logits=np.array([[0.0, 1.0], [0.0, 1.0]]),
            action_kernels=(k0, k1),
            temperature=1e6,
        )
        rows = softmax_policy_kernel(policy).rows
        # the action weights are the columns here by construction
        assert abs(rows[0, 0] - 0.5) < 1e-6
        assert abs(rows[0, 1] - 0.5) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 3))
        kernels = tuple(
            Kernel(rng.dirichlet(np.ones(4), size=4)) for _ in range(3)
        )
        base = softmax_policy_kernel(
            SoftmaxPolicyInput(logits=logits, action_kernels=kernels, temperature=0.7)
        )
        shifted = softmax_policy_kernel(
            SoftmaxPolicyInput(
                logits=logits + rng.normal(size=(4, 1)),
                action_kernels=kernels,
                temperature=0.7,
            )
        )
        np.testing.assert_allclose(base.rows, shifted.rows, atol=1e-12)

    def test_rejects_nonfinite_logits(self):
        k0, k1 = _switch_kernels(2)
        with pytest.raises(InvalidArgument):
            SoftmaxPolicyInput(
                logits=np.array([[np.inf, 0.0], [0.0, 0.0]]),
                action_kernels=(k0, k1),
                temperature=1.0,
            )

    def test_rejects_nonpositive_temperature(self):
        k0, k1 = _switch_kernels(2)
        with pytest.raises(InvalidArgument):
            SoftmaxPolicyInput(logits=np.zeros((2, 2)), action_kernels=(k0, k1), temperature=0.0)


class TestJsonRoundTrip:
    def test_kernel(self):
        kernel = mixture_kernel(0.81, 4)
        data = kernel.to_json_dict()
        assert data["states"] == 4
        restored = Kernel.from_json_dict(data)
        np.testing.assert_allclose(restored.rows, kernel.rows)

    def test_kernel_states_mismatch(self):
        with pytest.raises(InvalidArgument):
            Kernel.from_json_dict({"states": 3, "rows": [[0.5, 0.5], [0.5, 0.5]]})
