"""Closed-form sample-complexity bounds and the critical horizon.

All quantities are evaluated in log space so that attenuation over gaps up
to 1e4 steps never underflows to a hard zero; bounds that exceed float
range come back as +inf rather than garbage. Each is built from
``info_distance(eta)`` = -ln(eta), ``_log_attenuated``, ``_gamma``,
``segment_budget`` and ``_horizon_at``.

The accuracy bounds in the docstrings are against the exact value at the
given floats; u = 2^-53 is the unit roundoff, and S = |ln n| + |ln delta2|
+ 2|ln(1-epsilon)| is the size of the terms that Gamma sums, which can
cancel.
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
        check_positive(self.n, "n")
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


def info_distance(eta: float) -> float:
    """Per-step information distance -ln(eta), +0.0 at eta = 1; within 2u
    relative. ``inspection.step_info_distances`` is its elementwise form."""
    return 0.0 - math.log(eta)  # a bare -log(1.0) is -0.0


def _log_attenuated(eta: float, gap: int, delta2: float) -> float:
    """ln(eta^gap * delta2) = ln(delta2) - gap * -ln(eta), the log of the
    chi-squared separation left after ``gap`` steps."""
    return math.log(delta2) - gap * info_distance(eta)


def bound_from_log(log_bound: float) -> float:
    """exp(log_bound), or +inf where that overflows a float."""
    return math.inf if log_bound > _LOG_FLOAT_MAX else math.exp(log_bound)


def _log_sample_lb(info: float, delta2: float, epsilon: float) -> float:
    """ln((1-eps)^2 * e^info / delta2), the sample bound at information distance info."""
    return 2.0 * math.log1p(-epsilon) + info - math.log(delta2)


def sample_lb(params: HorizonParams, gap: int) -> SampleBound:
    """Lower bound (1-eps)^2 / (eta^gap * delta2) on the samples needed to
    test a hypothesis pair ``gap`` steps upstream of the observation.

    ``log_bound`` is within 5u * (2|ln(1-eps)| + gap * -ln(eta) + |ln delta2|)
    absolute."""
    check_min(gap, "gap", 0)
    info = gap * info_distance(params.eta)
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
    """Gamma unchecked; at epsilon = 0 it is ln(n*delta2), bit for bit."""
    return math.log(n) + math.log(delta2) - 2.0 * math.log1p(-epsilon)


def critical_horizon(params: HorizonParams) -> float:
    """Largest gap at which the sample budget still permits testing at
    error epsilon: max(0, Gamma / -ln(eta)), Gamma the feasibility threshold.

    Returned as a real; callers floor when they need a step index. Within
    5u * S / -ln(eta) absolute.
    """
    return _horizon_at(_gamma(params.n, params.delta2, params.epsilon), params.eta)


def _horizon_at(budget: float, eta: float) -> float:
    """max(0, budget / -ln(eta)), the longest gap that fits ``budget``, unchecked."""
    return max(0.0, budget / info_distance(eta))


def critical_horizon_simplified(n: float, delta2: float, eta: float) -> float:
    """The epsilon-free form max(0, ln(n*delta2) / -ln(eta)), within
    5u * S / -ln(eta) absolute (S at epsilon = 0)."""
    check_positive(n, "n")
    check_positive(delta2, "delta2")
    check_eta(eta)
    return _horizon_at(_gamma(n, delta2, 0.0), eta)


def minimax_error_lb(params: HorizonParams, gap: int) -> float:
    """Floor on the minimax testing error with n samples at the given gap:
    (1 - sqrt(((1 + eta^gap*delta2)^n - 1) / 2)) / 2, clamped to [0, 1/2]."""
    check_min(gap, "gap", 0)
    attenuated = math.exp(_log_attenuated(params.eta, gap, params.delta2))
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
    log_cap = math.log(log_numer) - _log_attenuated(params.eta, gap, params.delta2)
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
    signal = math.sqrt(math.exp(_log_attenuated(eta, gap, delta2)) / 2.0)
    tv_bound = min(1.0, signal + 2.0 * gap * delta_step)
    n_lb = math.inf if tv_bound == 0 else (1.0 - 2.0 * epsilon) / tv_bound
    return tv_bound, n_lb


def segment_budget(gamma: float, inspection_fidelity: float | None = None) -> float:
    """Per-segment information budget: Gamma, less -ln(fidelity) when the
    inspections observe through a channel with contraction
    ``inspection_fidelity``; within 3u * (|Gamma| - ln(fidelity)) absolute,
    and Gamma itself, bit for bit, at fidelity 1."""
    if inspection_fidelity is None:
        return gamma
    check_eta(inspection_fidelity, "inspection_fidelity", "(]")
    return gamma - info_distance(inspection_fidelity)


def noisy_outcome_adjust(params: HorizonParams, eta_g: float) -> float:
    """Critical horizon when the terminal observation itself is a noisy
    channel with contraction eta_g: max(0, segment_budget(Gamma, eta_g) /
    -ln(eta)), within 6u * (S - ln(eta_g)) / -ln(eta) absolute."""
    check_eta(eta_g, "eta_g", "(]")
    gamma = _gamma(params.n, params.delta2, params.epsilon)
    return _horizon_at(segment_budget(gamma, eta_g), params.eta)


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
    attenuated = math.exp(_log_attenuated(eta, gap, delta2))
    if attenuated > 1.0:
        return 1.0
    p1 = p0 + math.sqrt(attenuated)
    check_range(p1, "shifted parameter p1", 0, 1)
    chi2_bernoulli = attenuated * (1.0 / p1 + 1.0 / (1.0 - p1))
    return 1.0 / chi2_bernoulli
