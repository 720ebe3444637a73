"""Reference computations against brute force on tiny cases."""

import itertools
import math

import numpy as np
import pytest

import reference as ref


def test_binom_pmf_matches_formula():
    n, p = 7, 0.3
    want = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    assert np.allclose(ref.binom_pmf(n, p), want, rtol=1e-12)
    assert ref.binom_range_prob(n, p, 2, 5) == pytest.approx(sum(want[2:5]), rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 0.97, 1.0])
def test_binom_acceptance_tails(p):
    n, alpha = 40, 0.05
    lo, hi = ref.binom_acceptance(n, p, alpha)
    pmf = ref.binom_pmf(n, p)
    assert pmf[:lo].sum() <= alpha / 2 + 1e-15
    assert pmf[hi + 1 :].sum() <= alpha / 2 + 1e-15
    # one count more on either side would exceed the tail budget
    assert lo == 0 or pmf[: lo + 1].sum() > alpha / 2
    assert hi == n or pmf[hi:].sum() > alpha / 2


def _power(rows, d):
    return np.linalg.matrix_power(rows, d)


def test_mixture_chain_closed_forms():
    states, eta = 4, 0.6
    w = math.sqrt(eta)
    rows = w * np.eye(states) + (1 - w) / states
    p0 = np.eye(states)[0]
    q = np.full(states, 1 / states)
    for d in range(6):
        pd = p0 @ _power(rows, d)
        assert ref.decay_chi2(eta, states, d) == pytest.approx(ref.chi2(pd, q), rel=1e-12)
        assert ref.mixture_hit_prob(w, states, d) == pytest.approx(pd[0], rel=1e-12)


def test_two_point_accuracy_by_enumeration():
    q0, q1, n = 0.7, 0.2, 3
    k = ref.midpoint_threshold(q0, q1, n)
    right = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        x = sum(bits)
        for q, says_q0 in ((q0, True), (q1, False)):
            prob = math.prod(q if b else 1 - q for b in bits)
            right += 0.5 * prob * ((x >= k) == says_q0)
    assert ref.two_point_accuracy(q0, q1, n) == pytest.approx(right, rel=1e-12)


def test_group_mean_moments_by_enumeration():
    w, rho, value = 3, 0.2, 0.4
    lam = math.sqrt(rho)
    dist = {}
    # shared coin C, then per outcome: copy C (prob lam) or own coin X_j
    for c in (0, 1):
        pc = value if c else 1 - value
        for picks in itertools.product([(1, lam), (0, 1 - lam)], repeat=w):
            for own in itertools.product([0, 1], repeat=w):
                prob = pc * math.prod(pl for _, pl in picks) * math.prod(value if x else 1 - value for x in own)
                s = sum(c if copy else x for (copy, _), x in zip(picks, own))
                dist[s] = dist.get(s, 0.0) + prob
    means = np.array([s / w for s in sorted(dist)])
    probs = np.array([dist[s] for s in sorted(dist)])
    mu = probs @ means
    mu_r, var_r, m4_r = ref.group_mean_moments(w, rho, value)
    assert mu_r == pytest.approx(mu, rel=1e-12)
    assert var_r == pytest.approx(probs @ (means - mu) ** 2, rel=1e-12)
    assert m4_r == pytest.approx(probs @ (means - mu) ** 4, rel=1e-12)
    # variance of the mean of w equicorrelated outcomes: v(1-v)/W_eff
    assert var_r == pytest.approx(value * (1 - value) / ref.effective_width(w, rho), rel=1e-12)


def test_width_band_holds_the_exact_ratio():
    band = ref.width_band(16, 0.15, 0.5, 100_000, z=5.0)
    lo, hi = band["w_eff"]
    assert lo < ref.effective_width(16, 0.15) < hi


def test_farthest_reach_is_minimal_by_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(20):
        etas = rng.uniform(0.4, 0.95, size=8).tolist()
        logs = [math.log(1 / e) for e in etas]
        budget = max(logs) * rng.uniform(1.0, 3.0)
        times = ref.farthest_reach(etas, budget)
        assert max(ref.segment_infos(etas, times)) <= budget * (1 + 1e-12)
        best = next(
            m
            for m in range(len(etas))
            for cut in itertools.combinations(range(1, len(etas)), m)
            if max(ref.segment_infos(etas, list(cut))) <= budget * (1 + 1e-12)
        )
        assert len(times) == best


def test_m_sufficient_is_smallest_fitting_m():
    for h in (1, 7, 50, 1000):
        for h_crit in (1.0, 1.5, 2.999, 3.0, 9.7, 49.9, 2000.0):
            m = ref.m_sufficient(h, h_crit)
            assert ref.min_gap(h, m) <= h_crit
            assert m == 0 or ref.min_gap(h, m - 1) > h_crit
            assert ref.m_necessary(h, h_crit) <= m


def test_contraction_bounds_on_two_state_kernel():
    p = 0.2
    rows = np.array([[1 - p, p], [p, 1 - p]])
    assert ref.dobrushin_bound(rows) == pytest.approx(1 - 2 * p)
    assert ref.diversity_bound(rows) == pytest.approx(1 - 2 * p)
    assert ref.point_pair_ratio(rows) == pytest.approx((1 - 2 * p) ** 2, rel=1e-12)


def test_point_pair_ratio_of_mixture_is_eta():
    eta, states = 0.8, 5
    w = math.sqrt(eta)
    rows = w * np.eye(states) + (1 - w) / states
    assert ref.point_pair_ratio(rows) == pytest.approx(eta, rel=1e-12)


def test_mostly_correct_but_wrong_by_enumeration():
    p, h, threshold = 0.8, 6, 0.5
    want = sum(
        math.prod(p if b else 1 - p for b in bits)
        for bits in itertools.product([0, 1], repeat=h)
        if math.ceil(threshold * h) <= sum(bits) < h
    )
    assert ref.mostly_correct_but_wrong(p, h, threshold) == pytest.approx(want, rel=1e-12)


def test_budget_scan_matches_direct_formula():
    logs = ref.log_budget_scan(2.0, 3.0, 100, 0.9, 0.3, 0.1, 20)
    for m in (0, 5, 20):
        direct = (2.0 + 3.0 * m) * ref.sample_bound(0.9, 0.3, 0.1, ref.min_gap(100, m))
        assert math.exp(logs[m]) == pytest.approx(direct, rel=1e-12)
