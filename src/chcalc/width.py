"""Multi-rollout estimator statistics and effective width under correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_eta, check_min, check_positive, check_range
from .horizon import critical_horizon_simplified


@dataclass(frozen=True)
class WidthParams:
    """Nominal width W, pairwise outcome correlation rho, success probability value."""

    W: int
    rho: float
    value: float = 0.5

    def __post_init__(self):
        check_min(self.W, "W", 1)
        check_range(self.rho, "rho", 0, 1, "[)")
        check_range(self.value, "value", 0, 1, "[]")


def estimator_variance_iid(value: float, w: float) -> float:
    """Variance value*(1-value)/W of the mean of W independent outcomes."""
    check_range(value, "value", 0, 1, "[]")
    check_min(w, "W", 1)
    return value * (1.0 - value) / w


def hoeffding_halfwidth(w: int, delta: float) -> float:
    """Hoeffding confidence half-width sqrt(ln(2/delta) / (2W)); delta lies in
    (0,2) so that ln(2/delta) stays positive."""
    check_min(w, "W", 1)
    check_range(delta, "delta", 0, 2)
    return math.sqrt(math.log(2.0 / delta) / (2.0 * w))


def effective_width(w: int, rho: float) -> float:
    """Independent-rollout equivalent W / (1 + (W-1)*rho) of W correlated ones.

    Increasing in W, capped at 1/rho for rho > 0; equals W when rho = 0.
    """
    check_min(w, "W", 1)
    check_range(rho, "rho", 0, 1, "[)")
    return w / (1.0 + (w - 1) * rho)


def correlated_variance(value: float, w: int, rho: float) -> float:
    """Estimator variance value*(1-value)/W * (1 + (W-1)*rho) under
    equicorrelated outcomes."""
    return estimator_variance_iid(value, effective_width(w, rho))


def width_horizon(n: int, w: int, rho: float, delta2: float, eta: float) -> float:
    """Critical horizon with the effective sample size n * W_eff."""
    check_min(n, "n", 1)
    return critical_horizon_simplified(n * effective_width(w, rho), delta2, eta)


def width_insufficiency_threshold(n: int, delta2: float, rho: float, eta: float) -> float:
    """Depth beyond which no amount of width reaches the step:
    ln(n * delta2 / rho) / ln(1/eta).

    Since W_eff is capped at 1/rho, processes deeper than this need
    intermediate inspection, not more rollouts.
    """
    check_range(rho, "rho", 0, 1, "(]")
    check_positive(n, "n")
    check_positive(delta2, "delta2")
    check_eta(eta)
    return (math.log(n) + math.log(delta2) - math.log(rho)) / math.log(1.0 / eta)


def equicorrelated_outcomes(
    value: float,
    w: int,
    rho: float,
    groups: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binary outcome groups with marginal mean ``value`` and exact pairwise
    correlation ``rho`` inside each group.

    Construction: R_j = I_j * C + (1 - I_j) * X_j with I_j ~ Bernoulli(sqrt(rho))
    i.i.d., C a per-group shared Bernoulli(value), X_j i.i.d. Bernoulli(value).
    Cov(R_i, R_j) = rho * value * (1 - value), so the correlation hits rho for
    any value. Returns a (groups x w) float array of 0/1 outcomes.
    """
    import numpy as np  # only here, so that the closed forms start without numpy

    WidthParams(W=w, rho=rho, value=value)
    check_min(groups, "groups", 1)
    lam = math.sqrt(rho)
    shared = (rng.random((groups, 1)) < value).astype(float)
    private = (rng.random((groups, w)) < value).astype(float)
    use_shared = rng.random((groups, w)) < lam
    return np.where(use_shared, shared, private)


def equicorrelated_group_sums(
    value: float,
    w: int,
    rho: float,
    groups: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Row sums of ``equicorrelated_outcomes``, drawn without the outcomes.

    Per group, k ~ Binomial(w, sqrt(rho)) outcomes copy the shared
    C ~ Bernoulli(value) and the other w - k are i.i.d. Bernoulli(value), so
    S = k * C + Binomial(w - k, value) has exactly the law of a row sum.
    Costs three draws per group instead of 2w + 1. Returns a length-``groups``
    integer array.
    """
    WidthParams(W=w, rho=rho, value=value)
    check_min(groups, "groups", 1)
    k = rng.binomial(w, math.sqrt(rho), size=groups)
    shared = rng.random(groups) < value
    return k * shared + rng.binomial(w - k, value)
