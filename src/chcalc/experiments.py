"""Seeded Monte Carlo harness for the synthetic validation experiments.

Every experiment is deterministic given (config, master_seed): replicate r
of a sampled kind draws from one stream,
numpy.random.default_rng([master_seed, kind_id, r]), and its units (a width,
a step, an (eta, d) level, an oracle case) draw from it one after another in
row order, in the calling thread. Adding replicates never perturbs earlier
ones. The decay and oracle kinds take one replicate, and the oracle's
greedy cases draw from that replicate's stream.

Theory columns always come from the calculator modules; nothing is
re-derived inline. A runner takes its params as ``schema`` checked them
and calls the unchecked cores behind the public schedulers and oracles.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import divergence, inspection, markov, objectives, width
from .errors import Infeasible, InvalidArgument, check_index, check_range
from .horizon import critical_horizon, critical_horizon_simplified, HorizonParams
from .schema import (  # re-exported: the config and its params are declared in schema
    KIND_IDS,
    ORACLE_MAX_HORIZON,
    DecayExperiment,
    ExperimentConfig,
    HorizonExperiment,
    InspectionExperiment,
    MismatchExperiment,
    OracleExperiment,
    WidthExperiment,
)


@dataclass
class ResultTable:
    """Rows of one row dataclass plus run metadata (metadata goes to the JSON
    sidecar, never into the CSV). The CSV columns are the row type's fields,
    in declaration order."""

    row_type: type
    rows: list
    metadata: dict = field(default_factory=dict)

    @property
    def columns(self) -> list[str]:
        return [f.name for f in fields(self.row_type)]

    def column(self, name: str) -> list:
        return [getattr(row, name) for row in self.rows]

    def to_csv_string(self) -> str:
        """Header plus rows; reals at 17 significant digits (round-trip exact),
        LF line endings. Cell values must not contain commas."""
        columns = self.columns
        get = operator.attrgetter(*columns)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cells = get if len(columns) > 1 else lambda row: (get(row),)
        lines = [",".join(columns)]
        lines.extend(",".join(map(_format_cell, cells(row))) for row in self.rows)
        return "\n".join(lines) + "\n"


def _format_cell(cell) -> str:
    # exact float and int first: the common cells, at one type lookup each
    if type(cell) is float:
        return format(cell, ".17g")
    if type(cell) is int:
        return str(cell)
    if isinstance(cell, (int, np.integer)):  # bool included
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format(float(cell), ".17g")
    text = str(cell)
    if "," in text or "\n" in text:
        raise InvalidArgument("table cells must not contain commas or newlines")
    return text


def _replicate_rng(cfg: ExperimentConfig, replicate: int) -> np.random.Generator:
    """The one stream of a replicate of cfg's kind; its units draw from it in row order."""
    return np.random.default_rng([cfg.master_seed, KIND_IDS[cfg.kind], replicate])


# ---------------------------------------------------------------------------
# frozen golden configs


def _golden(kind: str, **overrides) -> dict:
    """The kind's default params, with ``overrides``, under the golden seed."""
    return ExperimentConfig(kind, master_seed=20260810, params=overrides).to_json_dict()


GOLDEN_DECAY = _golden("decay")
GOLDEN_WIDTH = _golden("width")
# The chain kernel retains fraction eta of the mean signal per step
# (identity weight eta, so its chi-squared contraction coefficient is
# eta**2); each checkpoint emits one success-set membership bit per
# trajectory, and attribution error is the summed type-I + type-II rate,
# whose single-bit optimum is the Le Cam total error.
GOLDEN_INSPECTION = _golden("inspection", n_per_test=1)
GOLDEN_HORIZON = _golden("horizon")
GOLDEN_MISMATCH = _golden("mismatch")


# ---------------------------------------------------------------------------
# experiments


def _fit_loglinear(distances: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ln(values) against distance, with R^2."""
    y = np.log(values)
    slope, intercept = np.polyfit(distances, y, 1)
    predicted = slope * distances + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


@dataclass(frozen=True, kw_only=True)
class DecayRow:
    step: int
    distance_to_end: int
    eta: float
    chi2_measured: float
    chi2_theory: float


def run_decay(cfg: ExperimentConfig) -> ResultTable:
    """Exact divergence decay curves, one per contraction rate.

    Row (step u, distance d = H - u) reports the chi-squared divergence
    between the hypothesis pair placed at step u and propagated to the
    terminal state. For these kernels the uniform reference is stationary,
    so that value equals the single curve started at step 0 read after d
    steps. The log-linear fit per eta lands in metadata["fits"].
    """
    etas, states, h = cfg.params.etas, cfg.params.states, cfg.params.H

    def one_eta(eta: float):
        kernel = markov.mixture_kernel(eta, states)
        spec = markov.ChainSpec(
            horizon=h,
            kernels=kernel,
            success_set=frozenset({0}),
            initial=markov.point_mass(0, states),
        )
        curve = divergence.decay_curve(
            spec, markov.point_mass(0, states), markov.uniform_dist(states), 0
        )
        # step u = H - d is the perturbation step, read after d propagation steps
        rows = [
            DecayRow(step=h - d, distance_to_end=d, eta=eta,
                     chi2_measured=value, chi2_theory=eta**d * curve.initial_chi2)
            for d, value in reversed(curve.values)
        ]
        measured = np.array([row.chi2_measured for row in rows])
        slope, r2 = _fit_loglinear(np.arange(h, -1, -1, dtype=float), measured)
        return rows, {"slope": slope, "r2": r2}

    results = [one_eta(eta) for eta in etas]
    rows = [row for unit_rows, _ in results for row in unit_rows]
    fits = {repr(eta): fit for eta, (_, fit) in zip(etas, results)}
    return ResultTable(DecayRow, rows, metadata={"fits": fits})


def _width_histogram(value: float, w: int, rho: float, groups: int, rng):
    """Histogram (sums, mult) of the outcome sums of ``groups`` groups of w
    outcomes: mult[k] groups sum to sums[k]. Each outcome copies its group's
    coin C ~ Bernoulli(value) with probability lam = sqrt(rho), else draws
    its own Bernoulli(value), so outcomes correlate at rho. Given C a sum is
    Bin(w, p_C), p_1 = lam + (1 - lam) value, p_0 = (1 - lam) value: after
    G_1 ~ Bin(groups, value), each side is one ``_count_level`` draw, in
    O(sqrt(w)) whatever ``groups``. Sums of the two sides may repeat.
    """
    lam = math.sqrt(rho)
    g1 = int(rng.binomial(groups, value))
    parts = [
        _count_level(rng, np.zeros(1, dtype=np.int64), np.array([g]), w, 0.0, p, _log_factorials)
        for g, p in ((g1, lam + (1.0 - lam) * value), (groups - g1, (1.0 - lam) * value))
        if g > 0
    ]
    return np.concatenate([s for s, _ in parts]), np.concatenate([m for _, m in parts])


@dataclass(frozen=True, kw_only=True)
class WidthRow:
    replicate: int
    W: int
    groups: int
    w_eff_empirical: float
    w_eff_theory: float
    var_single_empirical: float
    var_group_mean_empirical: float
    var_theory: float


def run_width(cfg: ExperimentConfig) -> ResultTable:
    """Empirical effective width of equicorrelated rollout groups.

    The measured value is the ratio of the empirical single-outcome
    variance to the variance of the group means, i.e. how many independent
    rollouts the group average is worth; inf when the group means happen not
    to vary. Only a histogram of the group sums is drawn
    (``_width_histogram``): for 0/1 outcomes the single-outcome variance
    follows from the pooled mean. Its lookup ``_log_factorials`` evaluates
    ln k! on the ~40 sqrt(W) columns a draw keeps, not a (W + 1)-entry
    table. Moments are summed over float means, as int64 wraps at 2^62 groups,
    by ``np.add.reduce``, whose order, unlike a BLAS dot's, is the same on
    every host.
    """
    rho, value, groups = cfg.params.rho, cfg.params.value, cfg.params.groups

    def one_unit(replicate, w, rng):
        sums, mult = _width_histogram(value, w, rho, groups, rng)
        means = sums / w
        pooled = float(np.add.reduce(mult * means)) / groups
        n = groups * w
        var_single = n * pooled * (1.0 - pooled) / (n - 1)
        if w == 1:
            w_eff_emp = 1.0
            var_mean = var_single
        else:
            var_mean = float(np.add.reduce(mult * (means - pooled) ** 2)) / (groups - 1)
            w_eff_emp = var_single / var_mean if var_mean > 0 else math.inf
        return WidthRow(
            replicate=replicate, W=w, groups=groups,
            w_eff_empirical=w_eff_emp, w_eff_theory=width.effective_width(w, rho),
            var_single_empirical=var_single, var_group_mean_empirical=var_mean,
            var_theory=width.correlated_variance(value, w, rho),
        )

    rows = []
    for replicate in range(cfg.replicates):
        rng = _replicate_rng(cfg, replicate)
        rows.extend(one_unit(replicate, w, rng) for w in cfg.params.widths)
    return ResultTable(WidthRow, rows)


def _midpoint_threshold(q0: float, q1: float, n_obs: int) -> int:
    """Smallest count X at which X/n_obs is at least the midpoint of q0 > q1
    (ties classify toward the larger probability)."""
    mid = 0.5 * (q0 + q1)
    return math.ceil(n_obs * mid - 1e-12)


def _miss_probs(q0: float, q1: float, n: int) -> tuple[float, float]:
    """(miss0, miss1): the exact chances that the midpoint test on n Bernoulli
    draws misclassifies a trial under q0 (count < k*) and under q1 (>= k*)."""
    k_star = _midpoint_threshold(q0, q1, n)
    miss0 = sum(math.comb(n, k) * q0**k * (1 - q0) ** (n - k) for k in range(0, k_star))
    miss1 = sum(math.comb(n, k) * q1**k * (1 - q1) ** (n - k) for k in range(k_star, n + 1))
    return miss0, miss1


def _accuracy(miss0: float, miss1: float) -> float:
    """Accuracy under a uniform hypothesis; at most 1, as neither miss is negative."""
    return 1.0 - 0.5 * (miss0 + miss1)


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """ln k! of each entry of the int array k, by ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, (k + 1.0).ravel().tolist()), float, k.size).reshape(k.shape)


def _log_factorial_table(n: int):
    """ln k! for k = 0..n as a lookup on int arrays: the table's ``__getitem__``."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1).__getitem__


def _binomial_rows(counts, n: int, rate: float, log_fact):
    """The pmf of counts[j] + Bin(n - counts[j], rate), one row per entry of
    counts, over the columns lo, lo + 1, ... that the rows share; returns (lo,
    rows). ``log_fact`` maps an int array to ln k! of each entry
    (``_log_factorial_table``'s lookup, or ``_log_factorials``). Columns
    farther than 20 sqrt(n - c) from a row's mean are left out: by Hoeffding
    the pmf there is below e^-800, under the smallest positive double. At
    rate 1 every row is the point n. The only row builder: ``inspection``,
    ``width`` and ``mismatch`` draw every count histogram over its rows.
    """
    if rate == 1.0:
        return n, np.ones((counts.size, 1))
    m = n - counts
    mean = counts + m * rate
    spread = 20.0 * np.sqrt(m)
    lo = int(max(counts[0], np.floor(mean - spread).min()))
    hi = int(min(n, np.ceil(mean + spread).max()))
    added = np.arange(lo, hi + 1) - counts[:, None]
    i = np.maximum(added, 0)
    mi = m[:, None] - i
    log_pmf = (
        log_fact(m)[:, None] - log_fact(i) - log_fact(mi)
        + i * math.log(rate) + mi * math.log1p(-rate)
    )
    rows = np.where(added >= 0, np.exp(log_pmf), 0.0)
    return lo, rows / rows.sum(axis=1, keepdims=True)


def _count_level(rng, counts, mult, n: int, q: float, q_next: float, log_fact):
    """Move a histogram of success counts #{u < q} over n uniforms per trial
    up to the level q_next >= q: each of the mult[k] trials whose count is
    counts[k] gains Bin(n - counts[k], (q_next - q) / (1 - q)), the
    conditional-binomial construction of the multinomial. Returns the new
    (counts, mult), occupied counts only, ascending.

    The transition rows are ``_binomial_rows``, drawn in one multinomial
    call. Equal levels (q values that coincide after underflow) draw
    nothing; at q_next = 1 every count is n, drawn over one column, which
    takes nothing from rng.
    """
    if q_next == q:
        return counts, mult
    return _draw_counts(rng, mult, *_binomial_rows(counts, n, (q_next - q) / (1.0 - q), log_fact))


def _draw_counts(rng, mult, lo: int, rows):
    """Where the mult[k] trials of row k land, each drawing its count from
    row k of ``rows`` over the columns lo, lo + 1, ...: the new (counts,
    mult), occupied counts only, ascending."""
    total = rng.multinomial(mult, rows).sum(axis=0)
    occupied = np.flatnonzero(total)
    return lo + occupied, total[occupied]


@dataclass(frozen=True, kw_only=True)
class InspectionRow:
    replicate: int
    schedule: str
    worst_step: int
    max_gap: int
    err_worst_measured: float
    err_worst_lecam: float
    sample_lb_worst: float


def run_inspection(cfg: ExperimentConfig) -> ResultTable:
    """Worst-case attribution error of competing inspection schedules.

    For each step t the hypotheses are (point mass on state 0, uniform) at
    t; the nearest downstream checkpoint emits one success-set membership
    bit per trajectory and the step's error is the summed type-I + type-II
    rate of the midpoint-threshold test on n_per_test such bits. The
    reported theory column is the Le Cam total error of a single checkpoint
    bit.

    Only histograms of the trials' success counts are drawn, one level per
    distinct downstream distance of the step, in ascending q0 (see
    ``_count_level``). All schedules share a step's levels, so refining a
    schedule never increases its measured error at n_per_test = 1, and a
    (step, distance) error depends on which distances the schedules use.
    The levels drawn from the start state, where every trial's count is 0 (q1
    and each step's first level), take their rows from one ``_binomial_rows``
    call per distinct rate per run; later levels depend on the drawn counts.
    """
    p = cfg.params
    h, states, eta, epsilon = p.H, p.states, p.eta, p.epsilon
    n_per_test, trials = p.n_per_test, p.trials
    schedules = p.schedule_objects()

    # The chain's mixture kernel has identity weight eta, so it keeps fraction
    # eta of the mean signal per step and contracts chi-squared by eta**2.
    eta_chi2 = eta * eta
    q_by_distance = markov.mixture_return_probs(eta_chi2, states, h)
    q1 = 1.0 / states
    delta2 = divergence.chi2(markov.point_mass(0, states), markov.uniform_dist(states))
    # Le Cam total error of one checkpoint bit, by downstream distance
    bit = markov.ProbVec([1 - q1, q1])
    lecam = [divergence.lecam_total_error(markov.ProbVec([1 - q, q]), bit) for q in q_by_distance]
    # per schedule: ds[t], the steps from t to its next checkpoint (b - t on its
    # segment [a, b)), and the columns that every replicate shares
    columns = []
    for sched in schedules:
        ds = [b - t for a, b in sched.segments() for t in range(a, b)]
        worst_step, worst_bound = inspection.worst_case_sample_lb(sched, eta_chi2, delta2, epsilon)
        columns.append((ds, {
            "schedule": ";".join(str(t) for t in sched.times), "worst_step": worst_step,
            "max_gap": inspection.maximal_gap(sched), "err_worst_lecam": max(lecam[d] for d in ds),
            "sample_lb_worst": worst_bound,
        }))
    log_fact = _log_factorial_table(n_per_test)
    # each step's downstream distances in ascending q0, the order of its levels
    levels = [sorted({ds[t] for ds, _ in columns}, key=q_by_distance.__getitem__) for t in range(h)]
    # every trial starts at count 0, the level q = 0; the rows drawn from there
    # (the q1 level and each step's first level) are the same at every step
    start = np.array([trials], dtype=np.int64)  # the trials at count 0
    start_rows = {
        q: _binomial_rows(np.zeros(1, dtype=np.int64), n_per_test, q, log_fact)
        for q in dict.fromkeys([q1] + [q_by_distance[ds[0]] for ds in levels])
    }

    def one_step(t, rng):
        """Summed error at step t for each downstream distance the schedules use."""
        counts1, mult1 = _draw_counts(rng, start, *start_rows[q1])
        q = q_by_distance[levels[t][0]]
        counts0, mult0 = _draw_counts(rng, start, *start_rows[q])
        errors = {}
        for d in levels[t]:  # the first level is drawn already, and draws nothing here
            q0 = q_by_distance[d]
            counts0, mult0 = _count_level(rng, counts0, mult0, n_per_test, q, q0, log_fact)
            q = q0
            k_star = _midpoint_threshold(q0, q1, n_per_test)
            errors[d] = (
                int(mult0[counts0 < k_star].sum()) / trials
                + int(mult1[counts1 >= k_star].sum()) / trials
            )
        return errors

    rows = []
    for replicate in range(cfg.replicates):
        rng = _replicate_rng(cfg, replicate)
        step_errors = [one_step(t, rng) for t in range(h)]
        rows.extend(
            InspectionRow(
                replicate=replicate,
                err_worst_measured=max(errors[d] for errors, d in zip(step_errors, ds)),
                **shared,
            )
            for ds, shared in columns
        )
    return ResultTable(InspectionRow, rows, metadata={"eta_chi2": eta_chi2, "delta2": delta2})


@dataclass(frozen=True, kw_only=True)
class HorizonRow:
    replicate: int
    eta: float
    distance: int
    q0: float
    q1: float
    accuracy_measured: float
    accuracy_exact: float
    h_crit_marker: float


def _draw_correct(rng, trials: int, miss0: float, miss1: float) -> tuple[int, int]:
    """Correctly classified trials under H1 and under H0 of ``trials`` trials
    whose hypothesis is drawn uniformly: n1 ~ Bin(trials, 1/2) are under H1,
    Bin(n1, miss1) of them and Bin(trials - n1, miss0) of the rest miss."""
    n1 = int(rng.binomial(trials, 0.5))
    wrong1 = int(rng.binomial(n1, miss1))
    wrong0 = int(rng.binomial(trials - n1, miss0))
    return n1 - wrong1, trials - n1 - wrong0


def run_horizon(cfg: ExperimentConfig) -> ResultTable:
    """Attribution accuracy against distance from the outcome.

    Per trial the hypothesis is drawn uniformly, the corresponding initial
    distribution (point mass vs. uniform) is propagated d steps, and
    obs_per_trial Bernoulli outcome bits are classified by the nearer of
    the two exact outcome probabilities. Only sufficient counts are drawn:
    the trials per hypothesis, then each side's misclassified trials, one
    binomial at its exact miss probability (``_draw_correct``), so a unit
    costs three binomials whatever trials and obs_per_trial. One
    ``_miss_probs`` call per (eta, d) gives the miss probabilities and the
    exact accuracy of all replicates. Critical-horizon markers for the
    configured sample budget n come from the horizon module.
    """
    p = cfg.params
    h, states, etas, n, epsilon = p.H, p.states, p.etas, p.n, p.epsilon
    obs, trials = p.obs_per_trial, p.trials

    delta2 = divergence.chi2(markov.point_mass(0, states), markov.uniform_dist(states))
    q1 = 1.0 / states
    probs = {eta: markov.mixture_return_probs(eta, states, h) for eta in etas}
    markers = {
        repr(eta): {
            "h_crit_simplified": critical_horizon_simplified(n, delta2, eta),
            "h_crit": critical_horizon(
                HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta)
            ),
        }
        for eta in etas
    }

    # each (eta, d) level's miss probabilities, shared by every replicate
    levels = []
    for eta, d in itertools.product(etas, range(h + 1)):
        q0 = probs[eta][d]
        levels.append((eta, d, q0, *_miss_probs(q0, q1, obs)))
    rows = []
    for replicate in range(cfg.replicates):
        rng = _replicate_rng(cfg, replicate)
        rows.extend(
            HorizonRow(
                replicate=replicate, eta=eta, distance=d, q0=q0, q1=q1,
                accuracy_measured=sum(_draw_correct(rng, trials, miss0, miss1)) / trials,
                accuracy_exact=_accuracy(miss0, miss1),
                h_crit_marker=markers[repr(eta)]["h_crit_simplified"],
            )
            for eta, d, q0, miss0, miss1 in levels
        )
    return ResultTable(HorizonRow, rows, metadata={"markers": markers, "delta2": delta2})


@dataclass(frozen=True, kw_only=True)
class MismatchRow:
    replicate: int
    chains: int
    H: int
    p: float
    threshold: float
    fraction_sampled: float
    fraction_exact: float
    standard_error: float


def run_mismatch(cfg: ExperimentConfig) -> ResultTable:
    """Sampled frequency of chains that clear the step-quality bar yet
    contain a wrong step, against the exact binomial value.

    Each chain's correct steps are Bin(H, p). A replicate draws only the
    histogram of its chains' counts, moved from count 0 to level p on pmf rows
    built once per run (none at p = 0): O(sqrt(H)) whatever chains.
    """
    p, h, threshold, chains = cfg.params.p, cfg.params.H, cfg.params.threshold, cfg.params.chains
    exact = objectives.mostly_correct_but_wrong_prob(p, h, threshold)
    bar = math.ceil(threshold * h)
    zero, everyone = np.zeros(1, dtype=np.int64), np.array([chains])  # every chain at count 0
    rows = _binomial_rows(zero, h, p, _log_factorials) if p > 0 else None

    def one_replicate(replicate):
        if rows:
            counts, mult = _draw_counts(_replicate_rng(cfg, replicate), everyone, *rows)
        else:
            counts, mult = zero, everyone
        hits = int(mult[(counts >= bar) & (counts < h)].sum())
        return MismatchRow(
            replicate=replicate, chains=chains, H=h, p=p, threshold=threshold,
            fraction_sampled=hits / chains, fraction_exact=exact,
            standard_error=math.sqrt(max(exact * (1 - exact), 1e-300) / chains),
        )

    return ResultTable(MismatchRow, [one_replicate(r) for r in range(cfg.replicates)])


# ---------------------------------------------------------------------------
# exact oracles


def oracle_min_gap(horizon: int, m: int) -> int:
    """Exact minimum of the maximal gap over all m-inspection schedules, by
    the dynamic program ``_min_gaps``."""
    horizon, m = check_index(horizon, "horizon"), check_index(m, "m")
    if horizon > ORACLE_MAX_HORIZON:
        raise InvalidArgument(f"horizon must be at most {ORACLE_MAX_HORIZON} for enumeration")
    check_range(m, "m", 0, horizon - 1, "[]")
    return _min_gaps(horizon, m)[m]


def _min_gaps(horizon: int, m: int) -> list[int]:
    """The least maximal gap of k-inspection schedules for k = 0..m, from one
    pass: after round k, gap[j] is the least maximal gap of k + 1 segments
    covering [0, j), the least over i of max(gap[i] after round k - 1, j - i)."""
    gap = list(range(horizon + 1))  # round 0: the one segment [0, j)
    gaps = [horizon]
    for k in range(1, m + 1):
        # k segments cover [0, i) only for i >= k; entries below k + 1 are never read again
        gap[k + 1:] = [
            min(max(gap[i], j - i) for i in range(k, j)) for j in range(k + 1, horizon + 1)
        ]
        gaps.append(gap[horizon])
    return gaps


def _min_inspections_dp(weights: list[float], budget: float) -> int:
    """The fewest inspections whose segments [a, b) all have prefix[b] -
    prefix[a] <= budget, prefix being the running sums of ``weights``; H - 1
    when none passes. count[j], the fewest segments covering [0, j), is 1 +
    min count[i] over the i whose segment [i, j) passes: a window whose left
    end only moves right, as float subtraction is monotone and no weight is
    negative, so a deque in increasing count holds its minimum at the front."""
    horizon = len(weights)
    prefix = list(itertools.accumulate(weights, initial=0.0))
    count = [0] + [math.inf] * horizon
    window = deque()
    left = 0
    for j in range(1, horizon + 1):
        while window and count[window[-1]] >= count[j - 1]:
            window.pop()
        window.append(j - 1)
        while left < j and not prefix[j] - prefix[left] <= budget:
            left += 1
        while window and window[0] < left:
            window.popleft()
        if window:
            count[j] = 1 + count[window[0]]
    return count[horizon] - 1 if count[horizon] < math.inf else horizon - 1


def oracle_min_inspections(
    etas: Sequence[float], gamma: float, inspection_fidelity: float | None = None
) -> int:
    """Exact minimum inspection count subject to the per-segment
    information budget (terminal segment included), by ``_min_inspections_dp``."""
    horizon = len(etas)
    if horizon > ORACLE_MAX_HORIZON:
        raise InvalidArgument(f"horizon must be at most {ORACLE_MAX_HORIZON} for enumeration")
    budget = inspection.segment_budget(gamma, inspection_fidelity)
    weights = inspection.step_info_distances(etas)
    if any(w > budget for w in weights):
        offender = next(t for t, w in enumerate(weights) if w > budget)
        raise Infeasible(
            f"step {offender} alone exceeds the effective per-segment budget", step=offender
        )
    return _min_inspections_dp(weights, budget)


@dataclass(frozen=True, kw_only=True)
class OracleRow:
    check: str
    H: int
    m: int
    param: float
    oracle_value: int
    computed_value: int
    match: int


def run_oracle(cfg: ExperimentConfig) -> ResultTable:
    """Cross-check the closed-form gap minimum and the greedy scheduler
    against the exact dynamic-programming oracles on small horizons: every
    (H, m) up to max_H and max_m, and greedy_cases seeded heterogeneous
    cases, drawn one after another from replicate 0's stream."""
    max_h, max_m, greedy_cases = cfg.params.max_H, cfg.params.max_m, cfg.params.greedy_cases

    rows = []
    for h in range(2, max_h + 1):
        for m, oracle_value in enumerate(_min_gaps(h, min(max_m, h - 1))):
            formula_value = inspection._min_gap(h, m)
            rows.append(
                OracleRow(
                    check="min_gap", H=h, m=m, param=float(m), oracle_value=oracle_value,
                    computed_value=formula_value, match=int(oracle_value == formula_value),
                )
            )

    rng = _replicate_rng(cfg, 0)
    for _ in range(greedy_cases):
        h = int(rng.integers(3, max_h + 1))
        weights = inspection.step_info_distances(rng.uniform(0.35, 0.99, size=h))
        # gamma exceeds every weight: it is both schedulers' budget, and no step is refused
        gamma = max(weights) * float(rng.uniform(1.05, 3.0))
        greedy_m = inspection._greedy_placement(weights, gamma).m
        oracle_m = _min_inspections_dp(weights, gamma)
        rows.append(
            OracleRow(
                check="greedy", H=h, m=greedy_m, param=gamma, oracle_value=oracle_m,
                computed_value=greedy_m, match=int(oracle_m == greedy_m),
            )
        )
    return ResultTable(OracleRow, rows)


# kind -> runner; schema.ExperimentConfig resolves each kind's params
_RUNNERS = {
    "decay": run_decay,
    "width": run_width,
    "inspection": run_inspection,
    "horizon": run_horizon,
    "mismatch": run_mismatch,
    "oracle": run_oracle,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Dispatch on cfg.kind; attaches config echo, seed, and wall time to
    the table metadata."""
    start = time.perf_counter()
    table = _RUNNERS[cfg.kind](cfg)
    table.metadata = {
        "config": cfg.to_json_dict(),
        "master_seed": cfg.master_seed,
        "kind": cfg.kind,
        "wall_time_s": time.perf_counter() - start,
        **table.metadata,
    }
    return table
