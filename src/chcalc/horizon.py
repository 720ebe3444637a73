"""Closed-form sample-complexity bounds and the critical horizon.

All quantities are evaluated in log space so that attenuation over gaps up
to 1e4 steps never underflows to a hard zero; bounds that exceed float
range come back as +inf rather than garbage.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import check_epsilon, check_eta, check_min, check_positive, check_range

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

REGIME_DECAYED = "DECAYED"
REGIME_SEPARATED = "SEPARATED"


@dataclass(frozen=True)
class HorizonParams:
    """Bundle (n, delta2, epsilon, eta) feeding every bound.

    n is the outcome-sample budget, delta2 the chi-squared separation of the
    hypotheses at the tested step, epsilon the target total testing error,
    and eta the per-step contraction rate.
    """

    n: int
    delta2: float
    epsilon: float
    eta: float

    def __post_init__(self):
        check_min(self.n, "n", 1)
        check_positive(self.delta2, "delta2")
        check_epsilon(self.epsilon)
        check_eta(self.eta)


@dataclass(frozen=True)
class SampleBound:
    """A sample-complexity lower bound with its regime flag.

    In the SEPARATED regime (attenuated divergence above 1) the displayed
    bound is vacuous: O(1) samples already distinguish the hypotheses.
    ``log_bound`` is the natural log of the bound, always finite, for
    callers that compare bounds across large gaps.
    """

    bound: float
    regime: str
    log_bound: float


def bound_from_log(log_bound: float) -> float:
    """exp(log_bound), or +inf where that overflows a float."""
    return math.inf if log_bound > _LOG_FLOAT_MAX else math.exp(log_bound)


def _log_sample_lb(info: float, delta2: float, epsilon: float) -> float:
    """ln((1-eps)^2 * e^info / delta2), the sample bound at information distance info."""
    return 2.0 * math.log1p(-epsilon) + info - math.log(delta2)


def sample_lb(params: HorizonParams, gap: int) -> SampleBound:
    """Lower bound (1-eps)^2 / (eta^gap * delta2) on the samples needed to
    test a hypothesis pair ``gap`` steps upstream of the observation."""
    check_min(gap, "gap", 0)
    info = gap * math.log(1.0 / params.eta)
    regime = REGIME_DECAYED if info >= math.log(params.delta2) else REGIME_SEPARATED
    log_bound = _log_sample_lb(info, params.delta2, params.epsilon)
    return SampleBound(bound=bound_from_log(log_bound), regime=regime, log_bound=log_bound)


def feasibility_threshold(n: float, delta2: float, epsilon: float) -> float:
    """Per-segment information budget Gamma = ln(n*delta2) - 2*ln(1-epsilon)."""
    check_positive(n, "n")
    check_positive(delta2, "delta2")
    check_epsilon(epsilon)
    return _gamma(n, delta2, epsilon)


def _gamma(n: float, delta2: float, epsilon: float) -> float:
    return math.log(n) + math.log(delta2) - 2.0 * math.log1p(-epsilon)


def critical_horizon(params: HorizonParams) -> float:
    """Largest gap at which the sample budget still permits testing at
    error epsilon: max(0, Gamma / ln(1/eta)), Gamma the feasibility threshold.

    Returned as a real; callers floor when they need a step index.
    """
    gamma = _gamma(params.n, params.delta2, params.epsilon)
    return max(0.0, gamma / math.log(1.0 / params.eta))


def critical_horizon_simplified(n: float, delta2: float, eta: float) -> float:
    """The epsilon-free form max(0, ln(n*delta2) / ln(1/eta))."""
    check_positive(n, "n")
    check_positive(delta2, "delta2")
    check_eta(eta)
    return max(0.0, (math.log(n) + math.log(delta2)) / math.log(1.0 / eta))


def minimax_error_lb(params: HorizonParams, gap: int) -> float:
    """Floor on the minimax testing error with n samples at the given gap:
    (1 - sqrt(((1 + eta^gap*delta2)^n - 1) / 2)) / 2, clamped to [0, 1/2]."""
    check_min(gap, "gap", 0)
    attenuated = math.exp(gap * math.log(params.eta) + math.log(params.delta2))
    return max(0.0, 0.5 * (1.0 - math.sqrt(_tensorized(attenuated, params.n) / 2.0)))


def _tensorized(chi2_single: float, n: int) -> float:
    """(1 + chi2)^n - 1 as expm1(n * log1p(chi2)), or +inf where that overflows."""
    exponent = n * math.log1p(chi2_single)
    return math.inf if exponent > _LOG_FLOAT_MAX else math.expm1(exponent)


def sample_cap_for_error(params: HorizonParams, gap: int) -> float:
    """Any n at or below ln(1 + 2(1-2eps)^2) / (eta^gap * delta2) forces
    minimax error at least epsilon."""
    check_min(gap, "gap", 0)
    log_numer = math.log1p(2.0 * (1.0 - 2.0 * params.epsilon) ** 2)
    log_cap = math.log(log_numer) - gap * math.log(params.eta) - math.log(params.delta2)
    return bound_from_log(log_cap)


def approx_lumpability_tv(
    eta: float,
    delta2: float,
    gap: int,
    delta_step: float,
    epsilon: float,
) -> tuple[float, float]:
    """Outcome TV bound under approximately Markov abstraction, and the
    implied sample lower bound.

    A per-step abstraction discrepancy of delta_step (in TV) adds
    2 * gap * delta_step on top of the decayed signal term
    sqrt(eta^gap * delta2 / 2). Returns (tv_bound, n_lb) where testing at
    minimax error epsilon needs n >= (1 - 2*epsilon) / tv_bound.
    """
    check_eta(eta)
    check_positive(delta2, "delta2")
    check_min(gap, "gap", 0)
    check_min(delta_step, "delta_step", 0)
    check_epsilon(epsilon)
    signal = math.sqrt(math.exp(gap * math.log(eta)) * delta2 / 2.0)
    tv_bound = min(1.0, signal + 2.0 * gap * delta_step)
    n_lb = math.inf if tv_bound == 0 else (1.0 - 2.0 * epsilon) / tv_bound
    return tv_bound, n_lb


def noisy_outcome_adjust(params: HorizonParams, eta_g: float) -> float:
    """Critical horizon when the terminal observation itself is a noisy
    channel with contraction eta_g: shortened by ln(1/eta_g)/ln(1/eta)."""
    check_eta(eta_g, "eta_g", "(]")
    shrink = math.log(1.0 / eta_g) / math.log(1.0 / params.eta)
    return max(0.0, critical_horizon(params) - shrink)


def achievability_n(eta: float, delta2: float, gap: int, p0: float) -> float:
    """Samples at which a likelihood-ratio test on a Bernoulli outcome pair
    succeeds, matching the lower bound up to constants.

    The pair is (p0, p0 + delta) with delta = sqrt(eta^gap * delta2); the
    returned n is the reciprocal of its chi-squared divergence,
    p1*(1-p1) / (eta^gap * delta2). In the SEPARATED regime
    (eta^gap * delta2 > 1) a constant 1.0 is returned; delta2 = 0 returns
    +inf (the hypotheses are indistinguishable).
    """
    check_eta(eta)
    check_min(delta2, "delta2", 0)
    check_min(gap, "gap", 0)
    check_range(p0, "p0", 0, 1)
    if delta2 == 0:
        return math.inf
    attenuated = math.exp(gap * math.log(eta) + math.log(delta2))
    if attenuated > 1.0:
        return 1.0
    p1 = p0 + math.sqrt(attenuated)
    check_range(p1, "shifted parameter p1", 0, 1)
    chi2_bernoulli = attenuated * (1.0 / p1 + 1.0 / (1.0 - p1))
    return 1.0 / chi2_bernoulli
