"""Property-based and randomized invariant suites spanning modules."""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from chcalc.contraction import (
    attenuation,
    diversity_bound,
    dobrushin_bound,
    empirical_eta_lower,
)
from chcalc.divergence import chi2, decay_curve, tensorize_chi2, tv, tv_upper_from_chi2
from chcalc.errors import check_eta, check_etas, check_min
from chcalc.inspection import Schedule, segment_report, worst_case_sample_lb
from chcalc.markov import (
    ChainSpec,
    Kernel,
    ProbVec,
    SoftmaxPolicyInput,
    mixture_kernel,
    propagate,
    softmax_policy_kernel,
    uniform_dist,
)


@st.composite
def prob_vectors(draw, min_size=2, max_size=8):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    arr = np.asarray(raw)
    return ProbVec(arr / arr.sum())


@st.composite
def stochastic_kernels(draw, min_size=2, max_size=6):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                min_size=size,
                max_size=size,
            ),
            min_size=size,
            max_size=size,
        )
    )
    arr = np.asarray(raw)
    return Kernel(arr / arr.sum(axis=1, keepdims=True))


class TestConstructorInvariants:
    @given(prob_vectors())
    def test_probvec_valid(self, vec):
        assert np.all(vec.entries >= 0)
        assert vec.entries.sum() == pytest.approx(1.0, abs=1e-12)

    @given(stochastic_kernels())
    def test_kernel_rows_valid(self, kernel):
        assert np.all(kernel.rows >= 0)
        np.testing.assert_allclose(kernel.rows.sum(axis=1), 1.0, atol=1e-12)

    @given(prob_vectors(), stochastic_kernels())
    def test_propagate_preserves_mass(self, vec, kernel):
        if vec.size != kernel.size:
            return
        result = propagate(vec, kernel)
        assert result.entries.sum() == pytest.approx(1.0, abs=1e-10)


class TestSdpiMonotonicity:
    def test_thousand_random_triples(self):
        # chi2 never increases through a stochastic kernel
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            size = int(rng.integers(2, 8))
            p = ProbVec(rng.dirichlet(np.full(size, 0.8)) * 0.999 + 0.001 / size)
            q = ProbVec(rng.dirichlet(np.full(size, 0.8)) * 0.999 + 0.001 / size)
            kernel = Kernel(rng.dirichlet(np.full(size, 0.7), size=size))
            before = chi2(p, q)
            after = chi2(propagate(p, kernel), propagate(q, kernel))
            assert after <= before + 1e-12 * max(1.0, before)

    def test_mixture_kernel_contracts_by_eta_at_uniform_reference(self):
        for eta in (0.3, 0.7, 0.95):
            kernel = mixture_kernel(eta, 10)
            reference = uniform_dist(10)
            rng = np.random.default_rng(4)
            for _ in range(20):
                p = ProbVec(rng.dirichlet(np.ones(10)))
                before = chi2(p, reference)
                after = chi2(propagate(p, kernel), reference)
                assert after == pytest.approx(eta * before, rel=1e-9)


class TestPinskerChain:
    @given(prob_vectors(), prob_vectors())
    def test_tv_below_chi2_bound(self, p, q):
        if p.size != q.size:
            return
        assert tv(p, q) <= tv_upper_from_chi2(chi2(p, q)) + 1e-12


class TestTensorizationAgainstProducts:
    def test_two_point_supports_up_to_n5(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p1, q1 = rng.uniform(0.05, 0.95, size=2)
            p = [p1, 1 - p1]
            q = [q1, 1 - q1]
            single = sum((a - b) ** 2 / b for a, b in zip(p, q))
            for n in range(1, 6):
                product_p = [np.prod(combo) for combo in itertools.product(p, repeat=n)]
                product_q = [np.prod(combo) for combo in itertools.product(q, repeat=n)]
                explicit = sum((a - b) ** 2 / b for a, b in zip(product_p, product_q))
                assert tensorize_chi2(single, n) == pytest.approx(explicit, abs=1e-10, rel=1e-10)


class TestDecayCurveShape:
    def test_nonincreasing_when_reference_stationary(self):
        # doubly stochastic kernels keep the uniform reference stationary
        rng = np.random.default_rng(12)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            mix = rng.dirichlet(np.ones(4))
            perms = [np.eye(size)[rng.permutation(size)] for _ in range(4)]
            kernel = Kernel(sum(w * p for w, p in zip(mix, perms)))
            spec = ChainSpec(
                horizon=8,
                kernels=kernel,
                success_set=frozenset({0}),
                initial=uniform_dist(size),
            )
            start = ProbVec(rng.dirichlet(np.ones(size)) * 0.99 + 0.01 / size)
            curve = decay_curve(spec, start, uniform_dist(size), 0)
            values = [v for _, v in curve.values]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10


class TestContractionOrdering:
    def test_empirical_below_both_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            size = int(rng.integers(2, 6))
            kernel = Kernel(rng.dirichlet(np.full(size, 0.6), size=size))
            lower = empirical_eta_lower(kernel, trials=60, seed=int(rng.integers(2**31)))
            assert lower <= dobrushin_bound(kernel) + 1e-9
            assert lower <= diversity_bound(kernel) + 1e-9


class TestAttenuationAlgebra:
    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0, allow_nan=False), min_size=1, max_size=12),
        st.data(),
    )
    def test_multiplicative_composition(self, etas, data):
        h = len(etas)
        t = data.draw(st.integers(min_value=0, max_value=h))
        u = data.draw(st.integers(min_value=t, max_value=h))
        v = data.draw(st.integers(min_value=u, max_value=h))
        assert attenuation(etas, t, u) * attenuation(etas, u, v) == pytest.approx(
            attenuation(etas, t, v), rel=1e-12
        )


class TestScheduleRefinement:
    def test_worst_case_bound_monotone_under_refinement(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            h = int(rng.integers(4, 25))
            size = int(rng.integers(0, h - 1))
            base_times = tuple(sorted(rng.choice(range(1, h), size=size, replace=False).tolist()))
            extras = [t for t in range(1, h) if t not in base_times]
            add = tuple(
                sorted(rng.choice(extras, size=min(len(extras), 2), replace=False).tolist())
            ) if extras else ()
            refined_times = tuple(sorted(set(base_times) | set(add)))
            eta = float(rng.uniform(0.4, 0.99))
            base = Schedule(horizon=h, times=base_times)
            refined = Schedule(horizon=h, times=refined_times)
            _, bound_base = worst_case_sample_lb(base, eta, 1.0, 0.1)
            step_refined, bound_refined = worst_case_sample_lb(refined, eta, 1.0, 0.1)
            assert bound_refined <= bound_base * (1 + 1e-12)
            # the worst case is the maximum over the segment report, ties to the earliest
            segments = segment_report(refined, eta, 1.0, 0.1)
            assert bound_refined == max(seg.worst_step_sample_lb for seg in segments)
            worst_info = max(seg.info_distance for seg in segments)
            assert step_refined == min(seg.start for seg in segments if seg.info_distance == worst_info)


class TestSoftmaxInvariance:
    @settings(max_examples=30)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4), st.integers(0, 2**31 - 1))
    def test_per_state_shift_leaves_kernel_unchanged(self, states, actions, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(states, actions)) * 5
        kernels = tuple(Kernel(rng.dirichlet(np.ones(states), size=states)) for _ in range(actions))
        base = softmax_policy_kernel(
            SoftmaxPolicyInput(logits=logits, action_kernels=kernels, temperature=0.9)
        )
        shift = rng.normal(size=(states, 1)) * 10
        shifted = softmax_policy_kernel(
            SoftmaxPolicyInput(logits=logits + shift, action_kernels=kernels, temperature=0.9)
        )
        np.testing.assert_allclose(base.rows, shifted.rows, atol=1e-12)


class TestStationarity:
    def test_mixture_kernel_fixes_uniform_exactly(self):
        for eta in (0.25, 0.81, 1.0):
            for size in (2, 5, 10):
                kernel = mixture_kernel(eta, size)
                before = uniform_dist(size)
                after = propagate(before, kernel)
                np.testing.assert_allclose(after.entries, before.entries, atol=1e-15)


def _vectorised_check_etas(etas, brackets):
    """The numpy form of ``check_etas``, kept as its reference: one array
    comparison, then ``check_eta`` on the first offender."""
    check_min(len(etas), "number of etas", 1)
    arr = np.asarray(etas, dtype=float)
    above = 0 < arr if brackets[0] == "(" else 0 <= arr
    below = arr < 1 if brackets[1] == ")" else arr <= 1
    bad = np.flatnonzero(~(above & below))
    if bad.size:
        check_eta(etas[bad[0]], f"etas[{bad[0]}]", brackets)


def _refusal(check, etas, brackets):
    try:
        check(etas, brackets)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


# mostly valid rates, so that lists with one offender among them are common
_ETA_ENTRIES = st.one_of(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, -0.5, -1e-300, 1 + 1e-15, True, False]),
)


class TestCheckEtasMatchesVectorised:
    @settings(max_examples=400)
    @example([0.5, np.nan, 0.7], list, "()")  # min and max both skip a NaN that is not first
    @given(
        st.lists(_ETA_ENTRIES, max_size=12),
        st.sampled_from([list, tuple, np.array]),
        st.sampled_from(["()", "(]"]),
    )
    def test_same_acceptance_and_message(self, entries, container, brackets):
        etas = container(entries)
        expected = _refusal(_vectorised_check_etas, etas, brackets)
        assert _refusal(check_etas, etas, brackets) == expected
