"""Chi-squared and total-variation divergences, tensorization, and decay curves."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolated, InvalidArgument, check_min, check_range
from .horizon import _tensorized  # numpy-free, so that minimax_error_lb shares it
from .markov import ChainSpec, ProbVec, step

# Entries below this are treated as zero for support purposes; propagation
# leaves denormal dust that must not masquerade as real mass.
SUPPORT_EPS = 1e-15

# Decay curves propagate this many steps before measuring them together, so
# the working arrays stay _STEPS x n whatever the horizon.
_STEPS = 1024


def _check_dims(p: ProbVec, q: ProbVec) -> None:
    if p.size != q.size:
        raise InvalidArgument(
            f"dimension mismatch: distributions have {p.size} and {q.size} states"
        )


def chi2(p: ProbVec, q: ProbVec) -> float:
    """Chi-squared divergence sum_i (p_i - q_i)^2 / q_i, with q the reference.

    Components where both p_i and q_i are below the support threshold
    contribute 0; p-mass on a q-null component raises
    AbsoluteContinuityViolated.
    """
    _check_dims(p, q)
    return float(_finite(chi2_rows(p.entries, q.entries)))


def chi2_rows(pe: np.ndarray, qe: np.ndarray) -> np.ndarray:
    """``chi2`` along the last axis of raw entries, one value per row.

    Entries where the reference is below SUPPORT_EPS contribute 0, in place;
    a row whose P has mass on one of them gets inf, its true divergence. A
    row alone gives the bits of the same row in a batch.
    """
    null = qe < SUPPORT_EPS
    diff = pe - qe
    terms = np.divide(diff * diff, qe, out=np.zeros_like(diff), where=~null)
    return np.where((null & (pe >= SUPPORT_EPS)).any(axis=-1), np.inf, terms.sum(axis=-1))


def _finite(chi: np.ndarray) -> np.ndarray:
    """``chi`` unless a value is inf, which is refused for absolute continuity."""
    if np.isinf(chi).any():
        raise AbsoluteContinuityViolated(
            "P has mass where the reference Q does not; chi2 is infinite"
        )
    return chi


def tv(p: ProbVec, q: ProbVec) -> float:
    """Total variation distance, half the L1 difference."""
    _check_dims(p, q)
    return float(0.5 * np.abs(p.entries - q.entries).sum())


def tensorize_chi2(chi2_single: float, n: int) -> float:
    """Chi-squared of an n-fold product: (1 + chi2)^n - 1.

    Evaluated as expm1(n * log1p(chi2)) so it stays accurate for chi2 down
    to 1e-12 and n up to 1e9; overflow returns +inf.
    """
    check_min(chi2_single, "chi2", 0)
    check_min(n, "n", 1)
    return _tensorized(chi2_single, n)


def tv_upper_from_chi2(chi2_value: float) -> float:
    """Upper bound on TV from chi-squared: min(1, sqrt(chi2 / 2))."""
    check_min(chi2_value, "chi2", 0)
    return min(1.0, math.sqrt(chi2_value / 2.0))


def lecam_total_error(p: ProbVec, q: ProbVec) -> float:
    """Minimum summed type-I + type-II error of any test between p and q.

    Equals 1 - TV(p, q): 1 for identical distributions, 0 for disjoint
    supports.
    """
    return 1.0 - tv(p, q)


@dataclass(frozen=True)
class DecayCurve:
    """Chi-squared between two propagated distributions at each step.

    ``values[k]`` is (step u, chi2(P_u || Q_u)) for u = start_step + k; the
    final entry is the divergence between the terminal distributions.
    """

    start_step: int
    values: tuple[tuple[int, float], ...]

    @property
    def initial_chi2(self) -> float:
        return self.values[0][1]

    @property
    def terminal_chi2(self) -> float:
        return self.values[-1][1]

    def chi2_after(self, k: int) -> float:
        """Divergence after k propagation steps from start_step."""
        check_range(k, "k", 0, len(self.values), "[)")
        return self.values[k][1]


def decay_curve(spec: ChainSpec, p_t: ProbVec, q_t: ProbVec, t: int) -> DecayCurve:
    """Exact chi-squared at every step from t to the horizon.

    Both distributions are pushed through the chain's kernels by matrix
    multiplication; nothing is sampled.
    """
    check_range(t, "t", 0, spec.horizon, "[]")
    if p_t.size != spec.states or q_t.size != spec.states:
        raise InvalidArgument("distribution dimensions must match the chain")
    if spec.homogeneous:
        per_step = itertools.repeat(spec.kernels.rows, spec.horizon - t)
    else:
        per_step = (kernel.rows for kernel in spec.kernels[t:])
    # Row k holds P and Q after k steps as one (2, 1, n) stack: one step pushes both.
    pairs = np.empty((min(_STEPS, spec.horizon - t) + 1, 2, 1, spec.states))
    pairs[0, :, 0] = p_t.entries, q_t.entries
    p, q = pairs[:, 0, 0], pairs[:, 1, 0]
    chi = [_finite(chi2_rows(p[:1], q[:1]))]
    while block := list(itertools.islice(per_step, len(pairs) - 1)):
        for k, rows in enumerate(block, start=1):
            step(pairs[k - 1], rows, out=pairs[k])
        end = len(block)
        chi.append(_finite(chi2_rows(p[1 : end + 1], q[1 : end + 1])))
        pairs[0] = pairs[end]
    values = tuple(zip(range(t, spec.horizon + 1), np.concatenate(chi).tolist()))
    return DecayCurve(start_step=t, values=values)
