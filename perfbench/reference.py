"""Reference values computed from first principles with numpy and math.

Nothing here imports chcalc. Each function restates a closed form or an
exact distribution from its definition, so the checker can hold chcalc's
output against a computation made apart from it.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


# ---------------------------------------------------------------------------
# exact binomial distributions


def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=float)))))


def binom_pmf(n: int, p: float) -> np.ndarray:
    """P(X = k) for k = 0..n, X ~ Binomial(n, p)."""
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[0 if p <= 0.0 else n] = 1.0
        return pmf
    k = np.arange(n + 1)
    lf = _log_factorials(n)
    log_pmf = lf[n] - lf[k] - lf[n - k] + k * math.log(p) + (n - k) * math.log1p(-p)
    pmf = np.exp(log_pmf - log_pmf.max())
    return pmf / pmf.sum()


def binom_range_prob(n: int, p: float, lo: int, hi: int) -> float:
    """P(lo <= X < hi) for X ~ Binomial(n, p), summed term by term."""
    if p <= 0.0:
        return 1.0 if lo <= 0 < hi else 0.0
    if p >= 1.0:
        return 1.0 if lo <= n < hi else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(max(lo, 0), min(hi, n + 1)):
        total += math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q
        )
    return total


def binom_acceptance(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Counts [lo, hi] outside both tails of mass at most alpha/2.

    A Binomial(n, p) count falls outside with probability at most alpha.
    """
    pmf = binom_pmf(n, p)
    cdf = np.cumsum(pmf)
    sf = np.cumsum(pmf[::-1])[::-1]
    lo = int(np.argmax(cdf > alpha / 2))
    hi = int(n - np.argmax(sf[::-1] > alpha / 2))
    return lo, hi


def normal_z(alpha: float) -> float:
    """Two-sided standard-normal quantile for false-alarm rate alpha."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


# ---------------------------------------------------------------------------
# chains built from the identity-uniform mixture


def mixture_hit_prob(w: float, states: int, d: int) -> float:
    """P(state 0 after d steps | start in 0) for w*I + (1-w)/states * ones."""
    return 1.0 / states + (1.0 - 1.0 / states) * w**d


def decay_chi2(eta: float, states: int, d: int) -> float:
    """chi^2(delta_0 K^d || uniform) = eta^d * (states - 1) for the mixture
    with identity weight sqrt(eta)."""
    return eta**d * (states - 1)


def midpoint_threshold(q0: float, q1: float, n: int) -> int:
    """The nearest-probability test's cut: decide q0 when count >= this.

    This is the rule the experiments define (ties go to the larger
    probability), restated here to compute the exact error it attains.
    """
    return math.ceil(n * 0.5 * (q0 + q1) - 1e-12)


def two_point_accuracy(q0: float, q1: float, n: int) -> float:
    """Accuracy of the midpoint test on n Bernoulli draws, hypothesis q0 or
    q1 drawn with probability 1/2 each."""
    k = midpoint_threshold(q0, q1, n)
    return 0.5 * (binom_range_prob(n, q0, k, n + 1) + binom_range_prob(n, q1, 0, k))


# ---------------------------------------------------------------------------
# equicorrelated width groups


def group_mean_moments(w: int, rho: float, value: float) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of a group's mean outcome.

    Each of the w outcomes copies a shared Bernoulli(value) coin with
    probability sqrt(rho), else draws its own; the group sum is
    K*C + Binomial(w - K, value) with K ~ Binomial(w, sqrt(rho)).
    """
    lam = math.sqrt(rho)
    shared = binom_pmf(w, lam)
    pmf = np.zeros(w + 1)
    for k in range(w + 1):
        private = binom_pmf(w - k, value)
        pmf[: w - k + 1] += shared[k] * (1.0 - value) * private
        pmf[k:] += shared[k] * value * private
    means = np.arange(w + 1) / w
    mu = float(pmf @ means)
    centred = means - mu
    return mu, float(pmf @ centred**2), float(pmf @ centred**4)


def width_band(w: int, rho: float, value: float, groups: int, z: float) -> dict:
    """Bands for the single-outcome variance, the group-mean variance and
    their ratio (the empirical effective width) at z standard errors."""
    mu, var, mu4 = group_mean_moments(w, rho, value)
    se_var = math.sqrt(max(mu4 - var * var * (groups - 3) / (groups - 1), 0.0) / groups)
    var_lo, var_hi = var - z * se_var, var + z * se_var
    e = z * math.sqrt(var / groups)
    p_lo, p_hi = max(0.0, value - e), min(1.0, value + e)
    g = lambda p: p * (1.0 - p)  # noqa: E731
    g_hi = 0.25 if p_lo <= 0.5 <= p_hi else max(g(p_lo), g(p_hi))
    g_lo = min(g(p_lo), g(p_hi))
    n = groups * w
    single_lo, single_hi = g_lo * n / (n - 1), g_hi * n / (n - 1)
    return {
        "var_single": (single_lo, single_hi),
        "var_mean": (var_lo, var_hi),
        "w_eff": (single_lo / var_hi, single_hi / var_lo if var_lo > 0 else math.inf),
    }


def effective_width(w: int, rho: float) -> float:
    return w / (1.0 + (w - 1) * rho)


# ---------------------------------------------------------------------------
# horizons, budgets and schedules


def log_gamma_budget(n: float, delta2: float, epsilon: float) -> float:
    """Gamma = ln(n * delta2 / (1 - epsilon)^2), summed term by term so a
    greedy cut on a near-tie lands where the definition puts it."""
    return math.log(n) + math.log(delta2) - 2.0 * math.log1p(-epsilon)


def critical_horizon(n: float, delta2: float, epsilon: float, eta: float) -> float:
    return max(0.0, log_gamma_budget(n, delta2, epsilon) / math.log(1.0 / eta))


def sample_bound(eta: float, delta2: float, epsilon: float, gap: int) -> float:
    """(1 - epsilon)^2 / (eta^gap * delta2)."""
    return (1.0 - epsilon) ** 2 / (eta**gap * delta2)


def min_gap(horizon: int, m: int) -> int:
    return -(-horizon // (m + 1))


def m_necessary(horizon: int, h_crit: float) -> int:
    return max(0, math.ceil(horizon / h_crit) - 1)


def m_sufficient(horizon: int, h_crit: float) -> int:
    """Smallest m with ceil(H / (m + 1)) <= h_crit, for h_crit >= 1:
    the gap fits when H / (m + 1) <= floor(h_crit)."""
    return max(0, -(-horizon // math.floor(h_crit)) - 1)


def uniform_times(horizon: int, m: int) -> list[int]:
    return [i * horizon // (m + 1) for i in range(1, m + 1)]


def farthest_reach(etas, budget: float) -> list[int]:
    """Checkpoints placed as far as the running sum of ln(1/eta) stays
    within the budget, each segment restarting at the last checkpoint."""
    times = []
    total = 0.0
    for t, eta in enumerate(etas):
        step = math.log(1.0 / eta)
        if total + step > budget:
            times.append(t)
            total = 0.0
        total += step
    return times


def segment_infos(etas, times: list[int]) -> list[float]:
    """Summed ln(1/eta) over each segment of the augmented schedule."""
    bounds = [0, *times, len(etas)]
    logs = np.log(1.0 / np.asarray(etas, dtype=float))
    return [float(logs[a:b].sum()) for a, b in zip(bounds, bounds[1:])]


def log_budget_scan(c_out, c_insp, horizon, eta, delta2, epsilon, m_max) -> np.ndarray:
    """ln of (c_out + m c_insp) (1-eps)^2 / (eta^ceil(H/(m+1)) delta2) for m = 0..m_max."""
    m = np.arange(m_max + 1)
    gaps = -(-horizon // (m + 1))
    return (
        np.log(c_out + m * c_insp)
        + 2.0 * math.log(1.0 - epsilon)
        - gaps * math.log(eta)
        - math.log(delta2)
    )


# ---------------------------------------------------------------------------
# contraction


def dobrushin_bound(rows: np.ndarray) -> float:
    """1 - min over distinct row pairs of their overlap sum_y min(K(y|z), K(y|z'))."""
    n = rows.shape[0]
    best = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.minimum(rows[i], rows[j]).sum()))
    return 1.0 - best


def diversity_bound(rows: np.ndarray) -> float:
    return min(1.0, max(0.0, 1.0 - rows.shape[0] * float(rows.min())))


def chi2(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((p - q) ** 2 / q))


def point_pair_ratio(rows: np.ndarray) -> float:
    """chi^2 contraction ratio of the fixed pair (delta_0, uniform).

    For the identity-uniform mixture with identity weight w the uniform
    reference is stationary, so the ratio is exactly w^2; any search for
    the supremum that is worth its cost finds at least this much.
    """
    n = rows.shape[0]
    p = np.zeros(n)
    p[0] = 1.0
    q = np.full(n, 1.0 / n)
    return chi2(p @ rows, q @ rows) / chi2(p, q)


# ---------------------------------------------------------------------------
# objectives


def mostly_correct_but_wrong(p: float, h: int, threshold: float) -> float:
    """P(ceil(threshold*H) <= X < H) for X ~ Binomial(H, p)."""
    return binom_range_prob(h, p, math.ceil(threshold * h), h)
