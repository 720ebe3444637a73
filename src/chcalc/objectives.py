"""Additive vs. multiplicative objectives under the independent-steps model.

With per-step success probability p over H steps, the expected number of
correct steps is H*p while the probability that every step is correct is
p^H. The gap between the two is what makes "mostly correct" chains invalid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import InvalidArgument, check_min, check_range


@dataclass(frozen=True)
class ObjectivePoint:
    """Per-step success probability p, horizon H, and interpolation weight lambda."""

    p: float
    H: int
    lam: float = 0.0

    def __post_init__(self):
        _check_p_h(self.p, self.H)
        check_range(self.lam, "lambda", 0, 1, "[]")


def _check_p_h(p: float, h: int) -> None:
    check_range(p, "p", 0, 1, "[]")
    check_min(h, "H", 1)


def _pow(p: float, k: int) -> float:
    # 0**0 = 1 by convention so H = 1 behaves at p = 0.
    return 1.0 if k == 0 else p**k


def j_add(p: float, h: int) -> float:
    """Expected number of correct steps, H*p."""
    _check_p_h(p, h)
    return h * p


def j_mult(p: float, h: int) -> float:
    """Probability all H steps are correct, p^H."""
    _check_p_h(p, h)
    return _pow(p, h)


def grad_attenuation(p: float, h: int) -> float:
    """Factor p^(H-1) by which the multiplicative gradient trails the additive one."""
    _check_p_h(p, h)
    return _pow(p, h - 1)


def dj_add_dp(p: float, h: int) -> float:
    """d(H*p)/dp = H."""
    _check_p_h(p, h)
    return float(h)


def dj_mult_dp(p: float, h: int) -> float:
    """d(p^H)/dp = H * p^(H-1)."""
    _check_p_h(p, h)
    return h * _pow(p, h - 1)


def j_interp(p: float, h: int, lam: float) -> tuple[float, float]:
    """Interpolated objective (1-lam)*H*p + lam*p^H and its p-derivative.

    Both component gradients are nonnegative here, so the derivative is at
    least (1-lam)*H: keeping lam <= 1-c preserves a c fraction of the
    additive learning signal.
    """
    _check_p_h(p, h)
    check_range(lam, "lambda", 0, 1, "[]")
    value = (1.0 - lam) * j_add(p, h) + lam * j_mult(p, h)
    grad = (1.0 - lam) * dj_add_dp(p, h) + lam * dj_mult_dp(p, h)
    return value, grad


def _log_binom_pmf(k: int, n: int, log_p: float, log_q: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * log_p
        + (n - k) * log_q
    )


# math.exp is exactly 0.0 below about -745.1, so a term whose log-pmf is
# under this floor adds nothing to the tail sum.
_LOG_PMF_FLOOR = -800.0
_MAX_TAIL_TERMS = 10**7


def mostly_correct_but_wrong_prob(p: float, h: int, threshold: float) -> float:
    """P(X >= ceil(threshold*H) and X < H) for X ~ Binomial(H, p).

    The probability that a chain clears the step-quality bar yet still
    contains at least one wrong step. Exact tail sum with log-binomial
    coefficients, in increasing k, over the terms that are not exactly 0.0
    in double precision; their number grows like sqrt(H). A tail of more
    than 10**7 such terms is refused.
    """
    _check_p_h(p, h)
    check_range(threshold, "threshold", 0, 1, "(]")
    if p == 1.0:
        return 0.0
    k_lo = math.ceil(threshold * h)
    if k_lo >= h:
        return 0.0
    if p == 0.0:
        return 0.0 if k_lo >= 1 else 1.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def below(k: int) -> bool:
        return _log_binom_pmf(k, h, log_p, log_q) < _LOG_PMF_FLOOR

    # the log-pmf is concave in k: bisect for the floor on each side of the mode
    mode = min(math.floor((h + 1) * p), h)
    start = max(k_lo, bisect.bisect_left(range(mode), True, key=lambda k: not below(k)))
    stop = min(h, mode + bisect.bisect_left(range(mode, h + 1), True, key=below))
    if stop - start > _MAX_TAIL_TERMS:
        raise InvalidArgument(
            f"H is too large for the exact tail sum ({stop - start} terms, "
            f"at most {_MAX_TAIL_TERMS}), got {h!r}"
        )
    total = 0.0
    for k in range(start, stop):
        total += math.exp(_log_binom_pmf(k, h, log_p, log_q))
    return min(1.0, total)
