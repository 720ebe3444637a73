"""The JSON inputs: the experiment config with its six per-kind params, and the
kernel and etas file layouts.

Every declaration here loads through ``errors.from_json`` and needs no numpy,
so a malformed input is refused before a command imports the numerical
modules. The width and inspection params import the module whose checks they
reuse when first built, so that loading a kernel file runs neither.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from .errors import (
    InvalidArgument,
    check_epsilon,
    check_eta,
    check_etas,
    check_min,
    check_range,
    from_json,
)

if TYPE_CHECKING:
    from .inspection import Schedule

KIND_IDS = {"decay": 0, "width": 1, "inspection": 2, "horizon": 3, "mismatch": 4, "oracle": 5}

# Exhaustive schedule enumeration is exponential in H.
ORACLE_MAX_HORIZON = 14

# The exact horizon accuracy multiplies comb(n, k) by a float; comb(n, n // 2)
# first exceeds the largest float at n = 1030.
HORIZON_MAX_OBS = 1029


# ---------------------------------------------------------------------------
# per-kind params: one frozen dataclass per kind, read by its runner
# experiments.run_<kind>; each default and precondition is written here once


@dataclass(frozen=True)
class DecayExperiment:
    etas: tuple[float, ...] = (0.7, 0.8, 0.9, 0.95)
    states: int = 10
    H: int = 40

    def __post_init__(self):
        check_etas(self.etas, "(]")
        check_min(self.states, "states", 2)
        check_min(self.H, "H", 1)


@dataclass(frozen=True)
class WidthExperiment:
    rho: float = 0.15
    value: float = 0.5
    widths: tuple[int, ...] = (1, 4, 16, 64, 256)
    groups: int = 100_000

    def __post_init__(self):
        from .width import WidthParams

        check_min(len(self.widths), "number of widths", 1)
        check_range(self.value, "value", 0, 1)  # at 0 or 1 no outcome varies
        for w in self.widths:
            WidthParams(W=w, rho=self.rho, value=self.value)
        check_min(self.groups, "groups", 2)


@dataclass(frozen=True)
class InspectionExperiment:
    H: int = 20
    states: int = 10
    eta: float = 0.9
    epsilon: float = 0.1
    schedules: tuple[tuple[int, ...], ...] = ((5, 10, 15), (2, 4, 6), (14, 16, 18), (2, 13, 14))
    n_per_test: int = 30
    trials: int = 20_000

    def __post_init__(self):
        check_min(self.H, "H", 1)
        check_min(self.states, "states", 2)
        check_eta(self.eta)
        check_epsilon(self.epsilon)
        self.schedule_objects()  # each schedule must fit inside the horizon
        check_min(self.n_per_test, "n_per_test", 1)
        check_min(self.trials, "trials", 1)

    def schedule_objects(self) -> list[Schedule]:
        from .inspection import Schedule

        return [Schedule(horizon=self.H, times=times) for times in self.schedules]


@dataclass(frozen=True)
class HorizonExperiment:
    H: int = 40
    states: int = 10
    etas: tuple[float, ...] = (0.7, 0.8)
    n: int = 1000
    epsilon: float = 0.1
    obs_per_trial: int = 2
    trials: int = 10_000

    def __post_init__(self):
        check_min(self.H, "H", 1)
        check_min(self.states, "states", 2)
        check_etas(self.etas)
        check_min(self.n, "n", 1)
        check_epsilon(self.epsilon)
        check_range(self.obs_per_trial, "obs_per_trial", 1, HORIZON_MAX_OBS, "[]")
        check_min(self.trials, "trials", 1)


@dataclass(frozen=True)
class MismatchExperiment:
    p: float = 0.99
    H: int = 100
    threshold: float = 0.8
    chains: int = 100_000

    def __post_init__(self):
        check_range(self.p, "p", 0, 1, "[]")
        check_min(self.H, "H", 1)
        check_range(self.threshold, "threshold", 0, 1, "(]")
        check_min(self.chains, "chains", 1)


@dataclass(frozen=True)
class OracleExperiment:
    max_H: int = 12
    max_m: int = 4
    greedy_cases: int = 50

    def __post_init__(self):
        check_range(self.max_H, "max_H", 2, ORACLE_MAX_HORIZON, "[]")
        check_min(self.max_m, "max_m", 0)
        check_min(self.greedy_cases, "greedy_cases", 0)


# kind -> params dataclass
_PARAMS = {
    "decay": DecayExperiment,
    "width": WidthExperiment,
    "inspection": InspectionExperiment,
    "horizon": HorizonExperiment,
    "mismatch": MismatchExperiment,
    "oracle": OracleExperiment,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: kind, master seed, replicate count, and kind-specific params.

    ``params`` may be given as a JSON object; it is resolved into the kind's
    params dataclass (``DecayExperiment`` for ``decay``, and so on), which
    holds the defaults.
    """

    kind: str
    master_seed: int = 0
    replicates: int = 1
    params: Any = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KIND_IDS:
            raise InvalidArgument(
                f"kind must be one of {sorted(KIND_IDS)}, got {self.kind!r}"
            )
        if not (0 <= self.master_seed < 2**64):
            raise InvalidArgument("master_seed must be a 64-bit nonnegative integer")
        check_min(self.replicates, "replicates", 1)
        params_cls = _PARAMS[self.kind]
        if not isinstance(self.params, params_cls):
            object.__setattr__(self, "params", from_json(params_cls, self.params, f"{self.kind} params"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        return from_json(cls, data, "config")

    def to_json_dict(self) -> dict:
        """The config with every param resolved, defaults included."""
        return asdict(self)


# ---------------------------------------------------------------------------
# file layouts


@dataclass(frozen=True)
class KernelFile:
    """The kernel file {"states": s, "rows": [[...], ...]}; ``markov.Kernel.from_file``
    checks the matrix itself."""

    rows: tuple[tuple[float, ...], ...]
    states: int | None = None

    @classmethod
    def from_json_dict(cls, data: dict) -> "KernelFile":
        return from_json(cls, data, "kernel file")


@dataclass(frozen=True)
class EtasFile:
    """The ``schedule greedy`` input {"etas": [...]}, one contraction rate per step."""

    etas: tuple[float, ...]
