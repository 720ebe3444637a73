"""Bounds and estimates for the chi-squared contraction coefficient of a kernel.

The exact coefficient is a non-convex supremum over input pairs, so it is
only computed for recognized special matrix forms. Everything else gets
bracketing: Dobrushin and diversity upper bounds plus a seeded randomized
lower bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .divergence import chi2_rows
from .errors import InvalidArgument, check_eta, check_max, check_min, check_range
from .markov import Kernel, step

# Point-mass reference distributions violate absolute continuity; the
# empirical estimator mixes in this much uniform mass before dividing.
SMOOTHING = 1e-6

# Pairs and trials are evaluated this many at a time, so the working arrays
# stay _BLOCK x n whatever the trial count.
_BLOCK = 256

# The documented refusal limit; no limit yet bounds the work that a trial
# count implies.
MAX_TRIALS = 2**32


def dobrushin_alpha(kernel: Kernel) -> float:
    """Minimum pairwise row overlap: min_{z,z'} sum_y min(K(y|z), K(y|z'))."""
    rows = kernel.rows
    n = kernel.size
    if n == 1:
        return 1.0
    # One row of overlaps at a time keeps memory at n x n; each row sums the
    # same elements in the same order as the n x n x n broadcast would.
    overlap = np.array([np.minimum(row, rows).sum(axis=1) for row in rows])
    off_diagonal = overlap[~np.eye(n, dtype=bool)]
    return float(min(1.0, off_diagonal.min()))


def dobrushin_bound(kernel: Kernel) -> float:
    """Upper bound 1 - alpha(K) on the chi-squared contraction coefficient."""
    return 1.0 - dobrushin_alpha(kernel)


def diversity_bound(kernel: Kernel) -> float:
    """Upper bound 1 - |Z| * min-entry; vacuous (1.0) when some entry is 0."""
    floor = float(kernel.rows.min())
    return float(min(1.0, max(0.0, 1.0 - kernel.size * floor)))


def two_state_exact(p: float) -> float:
    """Exact coefficient (1 - 2p)^2 of the symmetric two-state kernel."""
    check_range(p, "p", 0, 0.5, "[]")
    return (1.0 - 2.0 * p) ** 2


def _block_max(p: np.ndarray, pk: np.ndarray, q: np.ndarray, qk: np.ndarray) -> float:
    """Largest ratio chi2(PK || QK) / chi2(P || Q) over the rows of four
    stacked blocks, pk and qk the pushed pairs.

    A row counts only where its denominator is positive and its numerator
    finite: kernel entries between the support threshold and the smoothing
    floor can make a pushed pair unmeasurable, and skipping that pair keeps
    the estimate a valid lower bound.
    """
    denom = chi2_rows(p, q)
    num = chi2_rows(pk, qk)
    ratios = np.divide(num, denom, out=np.zeros_like(num), where=(denom > 0.0) & np.isfinite(num))
    return float(ratios.max())


def empirical_eta_lower(kernel: Kernel, trials: int, seed: int) -> float:
    """Randomized lower bound on the chi-squared contraction coefficient.

    Takes the max achieved ratio chi2(PK || QK) / chi2(P || Q) over all
    ordered point-mass pairs (with the reference side smoothed toward
    uniform by SMOOTHING) plus ``trials`` random pairs of a point mass
    against a Dirichlet(1,...,1) interior point. Deterministic given the
    seed: block b of ``_BLOCK`` trials draws ``integers(n, size=_BLOCK)``,
    then ``standard_exponential((_BLOCK, n))`` from one stream,
    ``default_rng([seed, b])`` (the bits of
    ``Generator(PCG64(SeedSequence([seed, b])))``), and trial t takes row
    t % _BLOCK. The last block is drawn in full too, so adding trials keeps
    every earlier pair. Dirichlet(1,...,1) is drawn as numpy draws it: each
    row of exponentials scaled by 1 / its left-to-right sum. The sum is a
    cumsum, which is sequential; ``.sum()`` adds pairwise from 8
    entries up and would change the bits. The point masses, the smoothed
    references and each block's trials go through the kernel as one
    ``step`` on a stack; that, nudging, normalization and both divergences
    run over blocks of rows and give the bits of the per-pair evaluation.
    """
    check_min(trials, "trials", 1)
    check_max(trials, "trials", MAX_TRIALS)
    check_min(seed, "seed", 0)
    n, rows = kernel.size, kernel.rows
    masses = np.eye(n)
    pushed = step(masses[:, None], rows)[:, 0]
    refs = (1.0 - SMOOTHING) * masses + SMOOTHING / n
    refs /= refs.sum(axis=-1, keepdims=True)
    pushed_refs = step(refs[:, None], rows)[:, 0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    best = 0.0
    for s in range(0, len(i), _BLOCK):
        pi, pj = i[s : s + _BLOCK], j[s : s + _BLOCK]
        best = max(best, _block_max(masses[pi], pushed[pi], refs[pj], pushed_refs[pj]))
    for b, s in enumerate(range(0, trials, _BLOCK)):
        rng = np.random.default_rng([seed, b])
        picks = rng.integers(n, size=_BLOCK)[: trials - s]
        draws = rng.standard_exponential((_BLOCK, n))[: trials - s]
        draws *= (1.0 / np.cumsum(draws, axis=-1)[:, -1])[:, None]
        # Nudge the draws strictly inside the simplex so the denominator
        # divergence is always finite.
        q = (draws + 1e-9) / (1.0 + n * 1e-9)
        q /= q.sum(axis=-1, keepdims=True)
        # As a (size, 1, n) stack each trial keeps the vector-matrix BLAS path
        # of its own step; a (size, n) block product would not (see ``step``).
        qk = step(q[:, None], rows)[:, 0]
        best = max(best, _block_max(masses[picks], pushed[picks], q, qk))
    return min(1.0, best)


def _exact_special_form(kernel: Kernel) -> float | None:
    """Exact coefficient for recognized forms, None otherwise.

    Recognized: all rows identical (0), permutation matrices (1, lossless),
    and the symmetric two-state kernel ((1 - 2p)^2). The identity-uniform
    mixture on more than two states is deliberately not claimed: its
    contraction over the unrestricted pair supremum exceeds the
    stationary-reference value, so only bounds apply.
    """
    rows = kernel.rows
    n = kernel.size
    if np.all(np.abs(rows - rows[0]) <= 1e-12):
        return 0.0
    is_binary = np.all((np.abs(rows) <= 1e-12) | (np.abs(rows - 1.0) <= 1e-12))
    if is_binary and np.all(np.abs(rows.sum(axis=0) - 1.0) <= 1e-12):
        return 1.0
    if n == 2 and abs(rows[0, 0] - rows[1, 1]) <= 1e-12 and abs(rows[0, 1] - rows[1, 0]) <= 1e-12:
        p = float(rows[0, 1])
        return (1.0 - 2.0 * p) ** 2
    return None


@dataclass(frozen=True)
class ContractionReport:
    """Bracketing information for a kernel's contraction coefficient.

    ``empirical_lower`` is a lower bound only, never the coefficient
    itself; ``gap`` is the unresolved bracket up to the tightest upper
    bound. ``exact`` is set only for recognized special matrix forms.
    """

    dobrushin_alpha: float
    dobrushin_bound: float
    diversity_bound: float
    empirical_lower: float
    exact: float | None
    trials: int
    seed: int
    smoothing: float = SMOOTHING

    @property
    def gap(self) -> float:
        return min(self.dobrushin_bound, self.diversity_bound) - self.empirical_lower

    def to_json_dict(self) -> dict:
        return {**asdict(self), "gap": self.gap}


def contraction_report(kernel: Kernel, trials: int = 2000, seed: int = 0) -> ContractionReport:
    """Compute all bounds, the randomized lower bound, and any exact value."""
    return ContractionReport(
        dobrushin_alpha=dobrushin_alpha(kernel),
        dobrushin_bound=dobrushin_bound(kernel),
        diversity_bound=diversity_bound(kernel),
        empirical_lower=empirical_eta_lower(kernel, trials, seed),
        exact=_exact_special_form(kernel),
        trials=trials,
        seed=seed,
    )


def attenuation(etas: Sequence[float], t: int, u: int) -> float:
    """Cumulative attenuation prod_{j=t}^{u-1} etas[j]; 1 for an empty range."""
    if not (0 <= t <= u <= len(etas)):
        raise InvalidArgument(f"need 0 <= t <= u <= len(etas), got ({t}, {u}, {len(etas)})")
    result = 1.0
    for j in range(t, u):
        check_eta(etas[j], f"etas[{j}]", "(]")
        result *= etas[j]
    return result
