"""Seeded Monte Carlo harness for the synthetic validation experiments.

Every experiment is deterministic given (config, master_seed): the random
stream for replicate r, unit u is derived counter-style from
SeedSequence([master_seed, kind_id, r, u]), so results are independent of
worker-thread count and adding replicates never perturbs earlier ones.
Thread count is capped by the CH_THREADS environment variable (default 1).

Theory columns always come from the calculator modules; nothing is
re-derived inline.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import divergence, inspection, markov, objectives, width
from .errors import Infeasible, InvalidArgument, check_range
from .horizon import critical_horizon, critical_horizon_simplified, HorizonParams
from .schema import (  # re-exported: the config and its params are declared in schema
    HORIZON_MAX_OBS,
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
    """Rectangular results plus run metadata (metadata goes to the JSON
    sidecar, never into the CSV)."""

    columns: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InvalidArgument("every row must match the column count")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_string(self) -> str:
        """Header plus rows; reals at 17 significant digits (round-trip exact),
        LF line endings. Cell values must not contain commas."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        return str(int(cell))
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format(float(cell), ".17g")
    text = str(cell)
    if "," in text or "\n" in text:
        raise InvalidArgument("table cells must not contain commas or newlines")
    return text


def unit_rng(master_seed: int, kind: str, replicate: int, unit: int) -> np.random.Generator:
    """Deterministic per-unit generator; see module docstring."""
    seq = np.random.SeedSequence([master_seed, KIND_IDS[kind], replicate, unit])
    return np.random.Generator(np.random.PCG64(seq))


def _worker_count() -> int:
    raw = os.environ.get("CH_THREADS", "1")
    try:
        count = int(raw)
    except ValueError as exc:
        raise InvalidArgument(f"CH_THREADS must be an integer, got {raw!r}") from exc
    return max(1, count)


def _map_units(fn: Callable, units: Sequence) -> list:
    """Apply fn to units, optionally across threads; output order is the
    input order regardless of completion order."""
    workers = _worker_count()
    if workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


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
        # u = perturbation step, read at d = H - u propagation steps
        by_distance = curve.csv_rows(eta=eta)[::-1]
        rows = [
            [u, h - u, eta, row["chi2_measured"], row["chi2_theory"]]
            for u, row in enumerate(by_distance)
        ]
        measured = np.array([row[3] for row in rows])
        slope, r2 = _fit_loglinear(np.arange(h, -1, -1, dtype=float), measured)
        return rows, {"slope": slope, "r2": r2}

    results = _map_units(one_eta, list(etas))
    rows = [row for unit_rows, _ in results for row in unit_rows]
    fits = {repr(eta): fit for eta, (_, fit) in zip(etas, results)}
    return ResultTable(
        columns=["step", "distance_to_end", "eta", "chi2_measured", "chi2_theory"],
        rows=rows,
        metadata={"fits": fits},
    )


def run_width(cfg: ExperimentConfig) -> ResultTable:
    """Empirical effective width of equicorrelated rollout groups.

    The measured value is the ratio of the empirical single-outcome
    variance to the variance of the group means, i.e. how many independent
    rollouts the group average is worth; inf when the group means happen not
    to vary. Only the group sums are sampled: for 0/1 outcomes the
    single-outcome variance follows from the pooled mean.
    """
    rho, value, groups = cfg.params.rho, cfg.params.value, cfg.params.groups

    def one_unit(args):
        replicate, unit, w = args
        rng = unit_rng(cfg.master_seed, "width", replicate, unit)
        sums = width.equicorrelated_group_sums(value, w, rho, groups, rng)
        n = groups * w
        pooled = float(sums.sum()) / n
        var_single = n * pooled * (1.0 - pooled) / (n - 1)
        if w == 1:
            w_eff_emp = 1.0
            var_mean = var_single
        else:
            var_mean = float((sums / w).var(ddof=1))
            w_eff_emp = var_single / var_mean if var_mean > 0 else math.inf
        return [
            replicate,
            w,
            groups,
            w_eff_emp,
            width.effective_width(w, rho),
            var_single,
            var_mean,
            width.correlated_variance(value, w, rho),
        ]

    units = [
        (replicate, unit, w)
        for replicate in range(cfg.replicates)
        for unit, w in enumerate(cfg.params.widths)
    ]
    rows = _map_units(one_unit, units)
    return ResultTable(
        columns=[
            "replicate",
            "W",
            "groups",
            "w_eff_empirical",
            "w_eff_theory",
            "var_single_empirical",
            "var_group_mean_empirical",
            "var_theory",
        ],
        rows=rows,
    )


def _midpoint_threshold(q0: float, q1: float, n_obs: int) -> int:
    """Smallest count X at which X/n_obs is at least the midpoint of q0 > q1
    (ties classify toward the larger probability)."""
    mid = 0.5 * (q0 + q1)
    return math.ceil(n_obs * mid - 1e-12)


def exact_two_point_accuracy(q0: float, q1: float, n_obs: int) -> float:
    """Accuracy of the nearest-probability test on n_obs Bernoulli draws when
    the hypothesis (q0 vs q1) is drawn uniformly."""
    if not (0 <= q1 <= q0 <= 1):
        raise InvalidArgument("need 0 <= q1 <= q0 <= 1")
    check_range(n_obs, "n_obs", 1, HORIZON_MAX_OBS, "[]")
    k_star = _midpoint_threshold(q0, q1, n_obs)
    correct0 = sum(
        math.comb(n_obs, k) * q0**k * (1 - q0) ** (n_obs - k) for k in range(k_star, n_obs + 1)
    )
    correct1 = sum(
        math.comb(n_obs, k) * q1**k * (1 - q1) ** (n_obs - k) for k in range(0, k_star)
    )
    return 0.5 * (correct0 + correct1)


def _outcome_probs_by_distance(states: int, h: int, kernel: markov.Kernel) -> list[float]:
    """P(Z_d in success set | Z_0 = delta_0) for d = 0..h, success set {0}."""
    dist = np.zeros(states)
    dist[0] = 1.0
    probs = [1.0]
    for _ in range(h):
        dist = markov.step(dist, kernel.rows)
        probs.append(float(dist[0]))
    return probs


def _count_level(rng, counts, mult, n: int, q: float, q_next: float, log_fact: np.ndarray):
    """Move a histogram of success counts #{u < q} over n uniforms per trial
    up to the level q_next >= q: each of the mult[k] trials whose count is
    counts[k] gains Bin(n - counts[k], (q_next - q) / (1 - q)), the
    conditional-binomial construction of the multinomial. Returns the new
    (counts, mult), occupied counts only, ascending.

    The transition rows are binomial pmfs from the ln k! table ``log_fact``,
    one row per occupied count, drawn in one multinomial call. Columns
    farther than 20 sqrt(n - c) from a row's mean are left out: by Hoeffding
    the pmf there is below e^-800, under the smallest positive double.
    Equal levels (q values that coincide after underflow) draw nothing.
    """
    if q_next == q:
        return counts, mult
    rate = (q_next - q) / (1.0 - q)
    m = n - counts
    mean = counts + m * rate
    spread = 20.0 * np.sqrt(m)
    lo = int(max(counts[0], np.floor(mean - spread).min()))
    hi = int(min(n, np.ceil(mean + spread).max()))
    added = np.arange(lo, hi + 1) - counts[:, None]
    i = np.maximum(added, 0)
    mi = m[:, None] - i
    log_pmf = (
        log_fact[m][:, None] - log_fact[i] - log_fact[mi]
        + i * math.log(rate) + mi * math.log1p(-rate)
    )
    rows = np.where(added >= 0, np.exp(log_pmf), 0.0)
    rows /= rows.sum(axis=1, keepdims=True)
    total = rng.multinomial(mult, rows).sum(axis=0)
    occupied = np.flatnonzero(total)
    return lo + occupied, total[occupied]


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
    """
    p = cfg.params
    h, states, eta, epsilon = p.H, p.states, p.eta, p.epsilon
    n_per_test, trials = p.n_per_test, p.trials
    schedules = p.schedule_objects()

    # Identity weight eta keeps fraction eta of the mean signal per step;
    # the chi-squared contraction coefficient of this kernel is eta**2.
    kernel = markov.mixture_kernel(eta * eta, states)
    eta_chi2 = eta * eta
    q_by_distance = _outcome_probs_by_distance(states, h, kernel)
    q1 = 1.0 / states
    delta2 = divergence.chi2(markov.point_mass(0, states), markov.uniform_dist(states))
    # d_by_schedule[times][t]: steps from t to the next checkpoint
    d_by_schedule = {
        s.times: [inspection.downstream_distance(s, t) for t in range(h)] for s in schedules
    }
    # Le Cam total error of one checkpoint bit, by downstream distance
    bit = markov.ProbVec([1 - q1, q1])
    lecam = [divergence.lecam_total_error(markov.ProbVec([1 - q, q]), bit) for q in q_by_distance]
    log_fact = np.fromiter(map(math.lgamma, range(1, n_per_test + 2)), float, n_per_test + 1)
    # every trial at count 0, the level q = 0
    start = (np.zeros(1, dtype=np.int64), np.array([trials], dtype=np.int64))

    def one_step(args):
        """Summed error at step t for each downstream distance the schedules use."""
        replicate, t = args
        rng = unit_rng(cfg.master_seed, "inspection", replicate, t)
        counts1, mult1 = _count_level(rng, *start, n_per_test, 0.0, q1, log_fact)
        (counts0, mult0), q = start, 0.0
        errors = {}
        for d in sorted({ds[t] for ds in d_by_schedule.values()}, key=q_by_distance.__getitem__):
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
        step_errors = _map_units(one_step, [(replicate, t) for t in range(h)])
        for sched in schedules:
            ds = d_by_schedule[sched.times]
            worst_step, worst_bound = inspection.worst_case_sample_lb(
                sched, eta_chi2, delta2, epsilon
            )
            rows.append(
                [
                    replicate,
                    ";".join(str(t) for t in sched.times),
                    worst_step,
                    inspection.maximal_gap(sched),
                    max(errors[d] for errors, d in zip(step_errors, ds)),
                    max(lecam[d] for d in ds),
                    worst_bound,
                ]
            )
    return ResultTable(
        columns=[
            "replicate",
            "schedule",
            "worst_step",
            "max_gap",
            "err_worst_measured",
            "err_worst_lecam",
            "sample_lb_worst",
        ],
        rows=rows,
        metadata={"eta_chi2": eta_chi2, "delta2": delta2},
    )


def run_horizon(cfg: ExperimentConfig) -> ResultTable:
    """Attribution accuracy against distance from the outcome.

    Per trial the hypothesis is drawn uniformly, the corresponding initial
    distribution (point mass vs. uniform) is propagated d steps, and
    obs_per_trial Bernoulli outcome bits are classified by the nearer of
    the two exact outcome probabilities. Critical-horizon markers for the
    configured sample budget n come from the horizon module.
    """
    p = cfg.params
    h, states, etas, n, epsilon = p.H, p.states, p.etas, p.n, p.epsilon
    obs, trials = p.obs_per_trial, p.trials

    delta2 = divergence.chi2(markov.point_mass(0, states), markov.uniform_dist(states))
    q1 = 1.0 / states
    probs = {eta: _outcome_probs_by_distance(states, h, markov.mixture_kernel(eta, states)) for eta in etas}
    markers = {
        repr(eta): {
            "h_crit_simplified": critical_horizon_simplified(n, delta2, eta),
            "h_crit": critical_horizon(
                HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta)
            ),
        }
        for eta in etas
    }

    def one_unit(args):
        replicate, unit, eta, d = args
        rng = unit_rng(cfg.master_seed, "horizon", replicate, unit)
        q0 = probs[eta][d]
        k_star = _midpoint_threshold(q0, q1, obs)
        # Only counts matter: split the trials by hypothesis, then draw each side's.
        n1 = int(rng.binomial(trials, 0.5))
        correct1 = np.count_nonzero(rng.binomial(obs, q1, size=n1) < k_star)
        correct0 = np.count_nonzero(rng.binomial(obs, q0, size=trials - n1) >= k_star)
        accuracy = (correct0 + correct1) / trials
        return [
            replicate,
            eta,
            d,
            q0,
            q1,
            accuracy,
            exact_two_point_accuracy(q0, q1, obs),
            markers[repr(eta)]["h_crit_simplified"],
        ]

    units = [
        (replicate, unit, eta, d)
        for replicate in range(cfg.replicates)
        for unit, (eta, d) in enumerate(itertools.product(etas, range(h + 1)))
    ]
    rows = _map_units(one_unit, units)
    return ResultTable(
        columns=[
            "replicate",
            "eta",
            "distance",
            "q0",
            "q1",
            "accuracy_measured",
            "accuracy_exact",
            "h_crit_marker",
        ],
        rows=rows,
        metadata={"markers": markers, "delta2": delta2},
    )


def run_mismatch(cfg: ExperimentConfig) -> ResultTable:
    """Sampled frequency of chains that clear the step-quality bar yet
    contain a wrong step, against the exact binomial value."""
    p, h, threshold, chains = cfg.params.p, cfg.params.H, cfg.params.threshold, cfg.params.chains
    exact = objectives.mostly_correct_but_wrong_prob(p, h, threshold)

    def one_replicate(replicate: int):
        rng = unit_rng(cfg.master_seed, "mismatch", replicate, 0)
        counts = rng.binomial(h, p, size=chains)  # correct steps per chain
        hits = (counts >= math.ceil(threshold * h)) & (counts < h)
        sampled = float(np.mean(hits))
        se = math.sqrt(max(exact * (1 - exact), 1e-300) / chains)
        return [replicate, chains, h, p, threshold, sampled, exact, se]

    rows = _map_units(one_replicate, list(range(cfg.replicates)))
    return ResultTable(
        columns=[
            "replicate",
            "chains",
            "H",
            "p",
            "threshold",
            "fraction_sampled",
            "fraction_exact",
            "standard_error",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_min_gap(horizon: int, m: int) -> int:
    """Exhaustive minimum of the maximal gap over all m-inspection schedules."""
    if horizon > ORACLE_MAX_HORIZON:
        raise InvalidArgument(f"horizon must be at most {ORACLE_MAX_HORIZON} for enumeration")
    check_range(m, "m", 0, horizon - 1, "[]")
    best = horizon
    for times in itertools.combinations(range(1, horizon), m):
        gap = inspection.maximal_gap(inspection.Schedule(horizon=horizon, times=times))
        best = min(best, gap)
    return best


def oracle_min_inspections(
    etas: Sequence[float], gamma: float, inspection_fidelity: float | None = None
) -> int:
    """Exhaustive minimum inspection count subject to the per-segment
    information budget (terminal segment included)."""
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
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def feasible(times: tuple[int, ...]) -> bool:
        aug = (0, *times, horizon)
        return all(prefix[b] - prefix[a] <= budget for a, b in zip(aug, aug[1:]))

    for m in range(0, horizon):
        for times in itertools.combinations(range(1, horizon), m):
            if feasible(times):
                return m
    return horizon - 1


def run_oracle(cfg: ExperimentConfig) -> ResultTable:
    """Cross-check the closed-form gap minimum and the greedy scheduler
    against exhaustive enumeration on small horizons."""
    max_h, max_m, greedy_cases = cfg.params.max_H, cfg.params.max_m, cfg.params.greedy_cases

    rows = []
    for h in range(2, max_h + 1):
        for m in range(0, min(max_m, h - 1) + 1):
            oracle_value = oracle_min_gap(h, m)
            formula_value = inspection.min_gap_value(h, m)
            rows.append(
                ["min_gap", h, m, float(m), oracle_value, formula_value,
                 int(oracle_value == formula_value)]
            )

    def one_case(case: int):
        rng = unit_rng(cfg.master_seed, "oracle", 0, case)
        h = int(rng.integers(3, max_h + 1))
        etas = rng.uniform(0.35, 0.99, size=h)
        gamma = max(inspection.step_info_distances(etas)) * float(rng.uniform(1.05, 3.0))
        greedy_m = inspection.greedy_schedule(etas, gamma).m
        oracle_m = oracle_min_inspections(etas, gamma)
        return ["greedy", h, greedy_m, gamma, oracle_m, greedy_m, int(oracle_m == greedy_m)]

    rows.extend(_map_units(one_case, list(range(greedy_cases))))
    return ResultTable(
        columns=["check", "H", "m", "param", "oracle_value", "computed_value", "match"],
        rows=rows,
    )


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
        **{k: v for k, v in table.metadata.items()},
    }
    return table
