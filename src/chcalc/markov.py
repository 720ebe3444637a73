"""Abstract-state distributions, row-stochastic kernels, and exact propagation.

State spaces here are small (tens of states), so everything is dense
double-precision. Values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, check_eta, check_indices, check_min, check_positive, check_range
from .schema import KernelFile

# Constructors reject anything farther from stochastic than this; they
# renormalize (rather than silently accept) anything closer.
CONSTRUCTION_TOL = 1e-12


def _stochastic(arr: np.ndarray, what: str) -> np.ndarray:
    """The stochastic-array rule on the last axis of ``arr``, a ``what``
    ("distribution" or "kernel"): entries nonnegative and not NaN, each sum
    within CONSTRUCTION_TOL of 1. Returns ``arr`` divided by its sums, read-only."""
    if not arr.min() >= 0:  # a NaN entry makes the min NaN, so it is refused here too
        problem = "must not be NaN" if np.isnan(arr).any() else "must be nonnegative"
        raise InvalidArgument(f"{what} entries {problem}")
    with np.errstate(over="ignore"):  # a sum beyond float range is inf, refused below
        sums = arr.sum(axis=-1, keepdims=True)
    worst = abs(sums - 1.0).max()
    if worst > CONSTRUCTION_TOL:
        summed = "rows" if arr.ndim == 2 else "entries"
        raise InvalidArgument(
            f"{what} {summed} must sum to 1 within {CONSTRUCTION_TOL:g} "
            f"(worst deviation {float(worst):g})"
        )
    arr = arr / sums
    arr.flags.writeable = False
    return arr


class ProbVec:
    """Probability distribution over abstract states.

    Entries must be nonnegative and sum to 1 within CONSTRUCTION_TOL; the
    stored vector is renormalized to sum exactly to 1 and frozen.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidArgument("distribution entries must form a nonempty 1-d vector")
        object.__setattr__(self, "entries", _stochastic(arr, "distribution"))

    def __setattr__(self, name, value):
        raise AttributeError("ProbVec is immutable")

    @property
    def size(self) -> int:
        return self.entries.size

    def __len__(self) -> int:
        return self.entries.size

    def __repr__(self) -> str:
        return f"ProbVec({self.entries.tolist()!r})"


class Kernel:
    """Row-stochastic transition matrix; rows[z, z'] = P(next = z' | current = z)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        try:
            arr = np.asarray(rows, dtype=float)
        except ValueError:  # ragged rows fail the shape check below
            arr = np.empty(0)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidArgument("kernel rows must form a nonempty square matrix")
        object.__setattr__(self, "rows", _stochastic(arr, "kernel"))

    def __setattr__(self, name, value):
        raise AttributeError("Kernel is immutable")

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def __repr__(self) -> str:
        return f"Kernel(size={self.size})"

    def to_json_dict(self) -> dict:
        return {"states": self.size, "rows": self.rows.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Kernel":
        """Build from the kernel file layout {"states": s, "rows": [[...], ...]}."""
        return cls.from_file(KernelFile.from_json_dict(data))

    @classmethod
    def from_file(cls, file: KernelFile) -> "Kernel":
        """Build from a parsed kernel file; its ``states``, if given, must match."""
        kernel = cls(file.rows)
        if file.states is not None and file.states != kernel.size:
            raise InvalidArgument(
                f"kernel 'states' field ({file.states}) does not match matrix size ({kernel.size})"
            )
        return kernel


@dataclass(frozen=True)
class ChainSpec:
    """A finite-horizon chain: per-step kernels, a success set defining the
    binary terminal outcome, and an initial distribution.

    ``kernels`` is either a single Kernel (used for every step) or a list of
    exactly ``horizon`` kernels, where kernels[t] maps step t to step t+1.
    """

    horizon: int
    kernels: Kernel | tuple[Kernel, ...]
    success_set: frozenset[int]
    initial: ProbVec

    def __post_init__(self):
        check_min(self.horizon, "horizon", 1)
        kernels = self.kernels
        if isinstance(kernels, Kernel):
            size = kernels.size
        else:
            kernels = tuple(kernels)
            object.__setattr__(self, "kernels", kernels)
            if len(kernels) != self.horizon:
                raise InvalidArgument(
                    f"heterogeneous kernel list must have length horizon={self.horizon}"
                )
            sizes = {k.size for k in kernels}
            if len(sizes) != 1:
                raise InvalidArgument("all kernels must share one state count")
            size = kernels[0].size
        if self.initial.size != size:
            raise InvalidArgument("initial distribution dimension must match the kernels")
        success = frozenset(check_indices(self.success_set, "success_set"))
        object.__setattr__(self, "success_set", success)
        if not success:
            raise InvalidArgument("success_set must be nonempty")
        if not all(0 <= i < size for i in success):
            raise InvalidArgument("success_set indices must be valid state indices")
        if len(success) == size:
            raise InvalidArgument("success_set must be a strict subset of the states")

    @property
    def states(self) -> int:
        return self.initial.size

    @property
    def homogeneous(self) -> bool:
        return isinstance(self.kernels, Kernel)

    def kernel_at(self, t: int) -> Kernel:
        check_range(t, "step index", 0, self.horizon, "[)")
        if isinstance(self.kernels, Kernel):
            return self.kernels
        return self.kernels[t]


@dataclass(frozen=True)
class SoftmaxPolicyInput:
    """Inputs for a temperature-controlled policy over per-action kernels.

    ``logits[z, a]`` scores action a in state z; ``action_kernels[a]`` gives
    the state transition under action a.
    """

    logits: np.ndarray
    action_kernels: tuple[Kernel, ...]
    temperature: float

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=float)
        object.__setattr__(self, "logits", logits)
        if logits.ndim != 2:
            raise InvalidArgument("logits must be a (states x actions) matrix")
        if not np.all(np.isfinite(logits)):
            raise InvalidArgument("logits must be finite")
        check_positive(self.temperature, "temperature")
        kernels = tuple(self.action_kernels)
        object.__setattr__(self, "action_kernels", kernels)
        if len(kernels) != logits.shape[1]:
            raise InvalidArgument("need one action kernel per logits column")
        if any(k.size != logits.shape[0] for k in kernels):
            raise InvalidArgument("action kernels must match the logits' state axis")


def point_mass(state_index: int, size: int) -> ProbVec:
    """Distribution concentrated on a single state."""
    check_min(size, "size", 1)
    check_range(state_index, "state_index", 0, size, "[)")
    entries = np.zeros(size)
    entries[state_index] = 1.0
    return ProbVec(entries)


def uniform_dist(size: int) -> ProbVec:
    """Uniform distribution over ``size`` states."""
    check_min(size, "size", 1)
    return ProbVec(np.full(size, 1.0 / size))


def mixture_kernel(eta: float, size: int) -> Kernel:
    """Convex combination of the identity and the uniform-mixing matrix.

    K = sqrt(eta) * I + (1 - sqrt(eta)) * (1/size) * ones. Its chi-squared
    contraction coefficient equals ``eta`` exactly, and the uniform
    distribution is stationary.
    """
    check_eta(eta, "eta", "(]")
    check_min(size, "size", 2)
    w = np.sqrt(eta)
    rows = np.full((size, size), (1.0 - w) / size)
    rows[np.diag_indices(size)] += w
    return Kernel(rows)


def mixture_return_probs(eta: float, size: int, steps: int) -> list[float]:
    """P(Z_d = z | Z_0 = z) under ``mixture_kernel(eta, size)`` for d = 0..steps:
    1/size + (1 - 1/size) * w**d, w = sqrt(eta) as the kernel takes it and w**d
    a running product. Unlike a point mass pushed through the rows it carries
    no BLAS rounding: it is exactly 1 at d = 0 and never below 1/size."""
    check_eta(eta, "eta", "(]")
    check_min(size, "size", 2)
    w, floor = np.sqrt(eta), 1.0 / size
    probs, power = [], 1.0
    for _ in range(steps + 1):
        probs.append(float(floor + (1.0 - floor) * power))
        power *= w
    return probs


def two_state_kernel(p: float) -> Kernel:
    """Symmetric two-state kernel with flip probability p in [0, 1/2)."""
    check_range(p, "p", 0, 0.5, "[)")
    return Kernel([[1.0 - p, p], [p, 1.0 - p]])


def step(entries: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """entries @ rows divided by its sum along the last axis, into ``out`` if
    given: ``ProbVec``'s arithmetic without its checks, which cannot fail for a
    validated distribution and kernel of one size. numpy's matmul runs a
    ``(k, 1, n)`` stack as k vector-matrix products, the BLAS path of a 1-D
    step, so each row gets its own step's bits; a ``(k, n)`` block need not."""
    pushed = np.matmul(entries, rows, out=out)
    pushed /= pushed.sum(axis=-1, keepdims=True)
    return pushed


def propagate(dist: ProbVec, kernel: Kernel) -> ProbVec:
    """Push a distribution through one kernel: result = dist @ rows."""
    if dist.size != kernel.size:
        raise InvalidArgument(
            f"dimension mismatch: distribution has {dist.size} states, kernel {kernel.size}"
        )
    return ProbVec(dist.entries @ kernel.rows)


def propagate_chain(dist: ProbVec, spec: ChainSpec, from_step: int, to_step: int) -> ProbVec:
    """Apply kernels[from_step], ..., kernels[to_step - 1] in order."""
    if not (0 <= from_step <= to_step <= spec.horizon):
        raise InvalidArgument(
            f"need 0 <= from_step <= to_step <= horizon, got ({from_step}, {to_step}, {spec.horizon})"
        )
    current = dist
    for t in range(from_step, to_step):
        current = propagate(current, spec.kernel_at(t))
    return current


def outcome_prob(dist: ProbVec, success_set) -> float:
    """Probability mass the distribution places on the success set."""
    indices = sorted(check_indices(success_set, "success_set"))
    if not all(0 <= i < dist.size for i in indices):
        raise InvalidArgument("success_set indices must be valid state indices")
    return float(dist.entries[indices].sum())


def softmax_policy_kernel(policy: SoftmaxPolicyInput) -> Kernel:
    """Mix the per-action kernels with softmax(logits / temperature) weights.

    The softmax subtracts each state's max logit first, so the result is
    stable for extreme temperatures and invariant to per-state logit shifts.
    """
    scaled = policy.logits / policy.temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    weights = np.exp(scaled)
    weights /= weights.sum(axis=1, keepdims=True)
    stacked = np.stack([k.rows for k in policy.action_kernels], axis=1)
    rows = np.einsum("za,zay->zy", weights, stacked)
    return Kernel(rows)
