"""Multi-rollout estimator statistics and effective width under correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_eta, check_min, check_positive, check_range
from .horizon import _gamma, critical_horizon_simplified, info_distance


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
    ln(n * delta2 / rho) / -ln(eta), unclamped.

    Since W_eff is capped at 1/rho, processes deeper than this need
    intermediate inspection, not more rollouts.
    """
    check_range(rho, "rho", 0, 1, "(]")
    check_positive(n, "n")
    check_positive(delta2, "delta2")
    check_eta(eta)
    return (_gamma(n, delta2, 0.0) - math.log(rho)) / info_distance(eta)
