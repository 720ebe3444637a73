"""Inspection schedules: minimax-uniform placement, greedy information-distance
scheduling, feasibility thresholds, budgets, and the end-to-end design procedure.

The terminal outcome always acts as a free checkpoint at time H, so every
feasibility check covers the final segment too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from .errors import (
    Infeasible,
    InvalidArgument,
    check_epsilon,
    check_eta,
    check_etas,
    check_index,
    check_indices,
    check_min,
    check_positive,
    check_range,
    from_json,
)
from .horizon import (  # feasibility_threshold and segment_budget are also public here
    _gamma, _horizon_at, _log_sample_lb, bound_from_log,
    feasibility_threshold, info_distance, segment_budget,
)


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing intermediate inspection times inside {1, ..., H-1}.

    The augmented sequence 0 < t_1 < ... < t_m < H partitions the horizon
    into m+1 segments; segment i covers steps [t_i, t_{i+1}).
    """

    horizon: int
    times: tuple[int, ...]

    def __post_init__(self):
        horizon = check_index(self.horizon, "horizon")
        check_min(horizon, "horizon", 1)
        times = check_indices(self.times, "times")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "times", times)
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise InvalidArgument("inspection times must be strictly increasing")
        if times and (times[0] < 1 or times[-1] > self.horizon - 1):
            raise InvalidArgument("inspection times must lie strictly inside (0, H)")

    @property
    def m(self) -> int:
        return len(self.times)

    def augmented(self) -> tuple[int, ...]:
        return (0, *self.times, self.horizon)

    def segments(self) -> list[tuple[int, int]]:
        aug = self.augmented()
        return list(zip(aug, aug[1:]))


@dataclass(frozen=True)
class SegmentSummary:
    """One segment [start, end): its length, cumulative information distance,
    attenuation, and the sample bound for its first (worst) step."""

    start: int
    end: int
    length: int
    info_distance: float
    attenuation: float
    worst_step_sample_lb: float

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "length": self.length,
            "info_distance": self.info_distance,
            "attenuation": self.attenuation,
            "sample_lb": self.worst_step_sample_lb,
        }


@dataclass(frozen=True)
class BudgetParams:
    """Per-trajectory terminal-evaluation and per-inspection costs."""

    c_out: float
    c_insp: float = 0.0

    def __post_init__(self):
        check_positive(self.c_out, "c_out")
        check_min(self.c_insp, "c_insp", 0)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BudgetParams":
        return from_json(cls, data, "budget")

    def per_trajectory(self, m: int) -> float:
        """Cost c_out + m*c_insp of one trajectory with m inspections."""
        return self.c_out + m * self.c_insp


def downstream_distance(schedule: Schedule, t: int) -> int:
    """Steps from t to its next checkpoint (the terminal outcome counts)."""
    check_range(t, "t", 0, schedule.horizon, "[)")
    for u in schedule.times:
        if u > t:
            return u - t
    return schedule.horizon - t


def maximal_gap(schedule: Schedule) -> int:
    """Longest run of steps between consecutive checkpoints."""
    return max(b - a for a, b in schedule.segments())


def uniform_schedule(horizon: int, m: int) -> Schedule:
    """Near-uniform placement t_i = floor(i*H/(m+1)), the minimax-optimal
    schedule under homogeneous contraction."""
    horizon, m = check_index(horizon, "horizon"), check_index(m, "m")
    check_min(m, "m", 0)
    if m > horizon - 1:
        raise InvalidArgument(f"m={m} exceeds the {horizon - 1} interior slots")
    times = tuple(i * horizon // (m + 1) for i in range(1, m + 1))
    return Schedule(horizon=horizon, times=times)


def min_gap_value(horizon: int, m: int) -> int:
    """Minimal achievable maximal gap with m inspections: ceil(H/(m+1))."""
    horizon, m = check_index(horizon, "horizon"), check_index(m, "m")
    check_min(horizon, "horizon", 1)
    check_min(m, "m", 0)
    return _min_gap(horizon, m)


def _min_gap(horizon: int, m: int) -> int:
    return -(-horizon // (m + 1))


def _check_testable(horizon: int, h_crit: float) -> int:
    """``horizon`` as an int (``check_index``), at least 1; Infeasible when h_crit < 1."""
    horizon = check_index(horizon, "horizon")
    check_min(horizon, "horizon", 1)
    if not h_crit >= 1:
        raise Infeasible(
            f"critical horizon {h_crit:.6g} is below one step: even the adjacent "
            "step is untestable, so no inspection schedule helps"
        )
    return horizon


def min_inspections(horizon: int, h_crit: float) -> int:
    """Necessary inspection count max(0, ceil(H / h_crit) - 1).

    This is a necessary condition only; integer rounding of segment
    lengths can require one more (see ``min_inspections_sufficient``).
    Raises Infeasible when h_crit < 1.
    """
    horizon = _check_testable(horizon, h_crit)
    return max(0, math.ceil(horizon / h_crit) - 1)


def min_inspections_sufficient(horizon: int, h_crit: float) -> int:
    """Smallest m whose minimax gap ceil(H/(m+1)) fits inside the critical
    horizon: max(0, ceil(H / floor(h_crit)) - 1), since a gap is an integer.
    Raises Infeasible when h_crit < 1."""
    return _min_sufficient(_check_testable(horizon, h_crit), h_crit)


def _min_sufficient(horizon: int, h_crit: float) -> int:
    # h_crit clamped to H answers 0 from H up, h_crit = inf included
    return max(0, -(-horizon // math.floor(min(h_crit, horizon))) - 1)


def step_info_distances(etas: Sequence[float]) -> list[float]:
    """Per-step information distance w_t = -ln(eta_t), each the bits of
    ``horizon.info_distance(eta_t)``; one map over ``math.log`` runs at C
    speed on 1e5 steps."""
    return [0.0 - log_eta for log_eta in map(math.log, check_etas(etas, "(]"))]


def greedy_schedule(
    etas: Sequence[float],
    gamma: float,
    inspection_fidelity: float | None = None,
) -> Schedule:
    """Minimum-cardinality schedule keeping every segment's cumulative
    information distance within the budget.

    From each placed checkpoint, the next one goes at the largest index the
    budget allows. The budget is ``segment_budget(gamma,
    inspection_fidelity)``. Raises Infeasible (with the step index) if any
    single step alone exceeds it.
    """
    check_positive(gamma, "gamma")
    budget = segment_budget(gamma, inspection_fidelity)
    return _greedy_placement(step_info_distances(etas), budget)


def _greedy_placement(weights: list[float], budget: float) -> Schedule:
    """One greedy pass; as no total is negative, the first step above the budget alone is refused."""
    times = []
    total = 0.0
    for t, w in enumerate(weights):
        if total + w > budget:
            if w > budget:
                raise Infeasible(
                    f"step {t} alone carries information distance {w:.6g} above the "
                    f"effective per-segment budget {budget:.6g}",
                    step=t,
                )
            times.append(t)
            total = 0.0
        total += w
    return Schedule(horizon=len(weights), times=tuple(times))


def worst_case_sample_lb(
    schedule: Schedule,
    etas_or_eta: float | Sequence[float],
    delta2: float,
    epsilon: float,
) -> tuple[int, float]:
    """The hardest step under a schedule and its sample lower bound.

    The hardest step is the first step of the segment with the largest
    cumulative information distance (ties broken toward the smallest step
    index); its bound is (1-eps)^2 / (attenuation * delta2).
    """
    worst = worst_segment(segment_report(schedule, etas_or_eta, delta2, epsilon))
    return worst.start, worst.worst_step_sample_lb


def worst_segment(segments: list[SegmentSummary]) -> SegmentSummary:
    """The segment with the largest information distance, earliest on ties."""
    return max(segments, key=lambda seg: (seg.info_distance, -seg.start))


def segment_report(
    schedule: Schedule,
    etas_or_eta: float | Sequence[float],
    delta2: float,
    epsilon: float,
) -> list[SegmentSummary]:
    """Per-segment lengths, information distances, attenuations, and bounds."""
    check_positive(delta2, "delta2")
    check_epsilon(epsilon)
    if isinstance(etas_or_eta, (int, float)):
        eta = float(etas_or_eta)
        check_eta(eta, "eta", "(]")
        infos = _uniform_infos(schedule, info_distance(eta))
    elif len(etas_or_eta) != schedule.horizon:
        raise InvalidArgument(f"etas length {len(etas_or_eta)} must equal horizon {schedule.horizon}")
    else:
        infos = _segment_infos(schedule, step_info_distances(etas_or_eta))
    return _summaries(schedule, infos, delta2, epsilon)


def _uniform_infos(schedule: Schedule, w: float) -> list[float]:
    """Each segment's length * w, w = -ln(eta): equal lengths tie exactly, for ``worst_segment``."""
    return [(b - a) * w for a, b in schedule.segments()]


def _segment_infos(schedule: Schedule, weights: list[float]) -> list[float]:
    """Each segment's summed distance, as the difference of the left-to-right
    running total of ``weights`` read at the segment's bounds."""
    total = list(itertools.accumulate(weights, initial=0.0))
    return [total[b] - total[a] for a, b in schedule.segments()]


def _summaries(
    schedule: Schedule, infos: list[float], delta2: float, epsilon: float
) -> list[SegmentSummary]:
    return [
        SegmentSummary(
            start=a,
            end=b,
            length=b - a,
            info_distance=info,
            attenuation=math.exp(-info),
            worst_step_sample_lb=bound_from_log(_log_sample_lb(info, delta2, epsilon)),
        )
        for (a, b), info in zip(schedule.segments(), infos)
    ]


def budget_lb(
    budget: BudgetParams,
    m: int,
    horizon: int,
    eta: float,
    delta2: float,
    epsilon: float,
) -> float:
    """Minimum total budget (c_out + m*c_insp) * (1-eps)^2 / (eta^gap * delta2)
    with the minimax gap ceil(H/(m+1))."""
    check_positive(delta2, "delta2")
    check_epsilon(epsilon)
    check_eta(eta)
    return _budget_lb(budget, m, min_gap_value(horizon, m), eta, delta2, epsilon)


def _budget_lb(budget, m: int, gap: int, eta: float, delta2: float, epsilon: float) -> float:
    """``budget_lb`` on checked inputs, at the minimax gap of m."""
    info = gap * info_distance(eta)
    return budget.per_trajectory(m) * bound_from_log(_log_sample_lb(info, delta2, epsilon))


@dataclass(frozen=True)
class BudgetScan:
    """Budget minimization over the inspection count.

    ``m_scan`` minimizes the budget lower bound outright; ``m_rule`` is the
    practical choice (smallest m whose minimax gap fits the critical
    horizon), present only when a sample budget n was supplied.
    """

    m_scan: int
    budget_scan: float
    m_rule: int | None
    budget_rule: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def budget_optimize(
    budget: BudgetParams,
    horizon: int,
    eta: float,
    delta2: float,
    epsilon: float,
    n: int | None = None,
) -> BudgetScan:
    """Find the m in 0..H-1 with the smallest budget lower bound.

    The bound depends on m only through the gap ceil(H/(m+1)) and grows
    with m at a fixed gap, so only the smallest m of each distinct gap is
    evaluated: at most 2*sqrt(H) of them.
    """
    best_m, best_value = 0, budget_lb(budget, 0, horizon, eta, delta2, epsilon)  # checks inputs
    gap = horizon = check_index(horizon, "horizon")  # the gap at m = 0
    while gap > 1:
        m = _min_sufficient(horizon, gap - 1)  # the smallest m with a shorter gap
        gap = _min_gap(horizon, m)
        value = _budget_lb(budget, m, gap, eta, delta2, epsilon)
        if value < best_value:
            best_m, best_value = m, value
    m_rule = budget_rule = None
    if n is not None:
        check_min(n, "n", 1)
        check_positive(n, "n")
        h_crit = _horizon_at(_gamma(n, delta2, epsilon), eta)
        if h_crit >= 1:
            m_rule = _min_sufficient(horizon, h_crit)
            budget_rule = _budget_lb(budget, m_rule, _min_gap(horizon, m_rule), eta, delta2, epsilon)
    return BudgetScan(m_scan=best_m, budget_scan=best_value, m_rule=m_rule, budget_rule=budget_rule)


def poly_density_min(horizon: int, p: float, eta: float) -> float:
    """Asymptotic estimate of the inspections needed for sample complexity
    O(H^p): (H * -ln(eta)) / (p * ln H) - 1, floored at 0."""
    check_min(horizon, "horizon", 3)
    check_positive(p, "p")
    check_eta(eta)
    return max(0.0, horizon * info_distance(eta) / (p * math.log(horizon)) - 1.0)


@dataclass(frozen=True)
class DesignPlan:
    """Output of the five-step inspection design procedure."""

    mode: str  # "homogeneous" or "heterogeneous"
    horizon: int
    n: int
    delta2: float
    epsilon: float
    gamma: float
    h_crit: float | None
    m_necessary: int | None
    m_sufficient: int | None
    schedule: Schedule
    max_gap: int
    segments: list[SegmentSummary]
    worst_step: int
    worst_sample_lb: float
    feasible: bool
    per_trajectory_cost: float | None
    budget_required: float | None
    planned_cost: float | None

    def to_json_dict(self) -> dict:
        """Every field under its own name, except that the schedule appears
        as its ``times`` and the segments in their JSON form."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["times"] = list(payload.pop("schedule").times)
        payload["segments"] = [s.to_json_dict() for s in self.segments]
        return payload


@dataclass(frozen=True)
class PlanConfig:
    """The inputs of the design procedure, under their ``schedule plan``
    JSON names: horizon ``H``, sample budget ``n``, separation ``delta2``,
    target error ``epsilon``, exactly one of ``eta`` (homogeneous
    contraction) or ``etas`` (one rate per step), and optionally the
    ``budget`` and the contraction ``inspection_fidelity`` of an imperfect
    inspection channel."""

    H: int
    n: int
    delta2: float
    epsilon: float
    eta: float | None = None
    etas: tuple[float, ...] | None = None
    budget: BudgetParams | None = None
    inspection_fidelity: float | None = None

    def __post_init__(self):
        if (self.eta is None) == (self.etas is None):
            raise InvalidArgument("provide exactly one of eta or etas")

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlanConfig":
        return from_json(cls, data, "plan config")

    def design(self) -> DesignPlan:
        """Run the full design procedure: information budget, critical horizon,
        minimum inspection count, placement, and budget check.

        With ``eta`` the placement is uniform, with ``etas`` greedy. Every
        field is checked, in declaration order, before Gamma is judged. Raises
        Infeasible when no schedule can cover some step.
        """
        check_min(self.H, "H", 1)
        check_min(self.n, "n", 1)
        check_positive(self.delta2, "delta2")
        check_epsilon(self.epsilon)
        if self.eta is not None:
            check_eta(self.eta)
        elif len(self.etas) != self.H:
            raise InvalidArgument(f"etas length {len(self.etas)} must equal horizon {self.H}")
        else:
            weights = step_info_distances(self.etas)
        if self.inspection_fidelity is not None:
            check_eta(self.inspection_fidelity, "inspection_fidelity", "(]")
        check_positive(self.n, "n")  # n >= 1 is checked above; Gamma needs it finite too
        gamma = _gamma(self.n, self.delta2, self.epsilon)
        if gamma <= 0:
            raise Infeasible(
                f"information budget Gamma={gamma:.6g} is not positive: "
                "the sample budget cannot test even an adjacent step"
            )
        budget = segment_budget(gamma, self.inspection_fidelity)
        h_crit = m_necessary = m_sufficient = None
        if self.eta is not None:
            h_crit = _horizon_at(budget, self.eta)
            m_necessary = min_inspections(self.H, h_crit)
            m_sufficient = min_inspections_sufficient(self.H, h_crit)
            schedule = uniform_schedule(self.H, m_sufficient)
            infos = _uniform_infos(schedule, info_distance(self.eta))
        else:
            schedule = _greedy_placement(weights, budget)
            infos = _segment_infos(schedule, weights)
        segments = _summaries(schedule, infos, self.delta2, self.epsilon)
        worst = worst_segment(segments)
        worst_bound = worst.worst_step_sample_lb
        per_trajectory = self.budget.per_trajectory(schedule.m) if self.budget else None
        return DesignPlan(
            mode="heterogeneous" if self.eta is None else "homogeneous",
            horizon=self.H,
            n=self.n,
            delta2=self.delta2,
            epsilon=self.epsilon,
            gamma=gamma,
            h_crit=h_crit,
            m_necessary=m_necessary,
            m_sufficient=m_sufficient,
            schedule=schedule,
            max_gap=maximal_gap(schedule),
            segments=segments,
            worst_step=worst.start,
            worst_sample_lb=worst_bound,
            feasible=self.n >= worst_bound,
            per_trajectory_cost=per_trajectory,
            budget_required=per_trajectory * worst_bound if per_trajectory is not None else None,
            planned_cost=per_trajectory * self.n if per_trajectory is not None else None,
        )


def design_procedure(*, horizon: int, **inputs) -> DesignPlan:
    """``PlanConfig.design`` on the plan inputs given as keywords, with
    ``horizon`` for ``H``."""
    return PlanConfig(H=horizon, **inputs).design()
