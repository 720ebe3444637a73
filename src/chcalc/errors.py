"""Exception types, the JSON input loader, and the precondition checks shared
across the package."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import types
import typing


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class AbsoluteContinuityViolated(InvalidArgument):
    """P assigns mass where the reference Q has none, so chi^2(P || Q) is infinite."""


class Infeasible(Exception):
    """No schedule satisfies the feasibility constraint.

    ``step`` is the offending step index when a single step exceeds the
    per-segment budget, else None.
    """

    def __init__(self, reason: str, step: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.step = step


# ---------------------------------------------------------------------------
# shared interval checks


def _inside(value, lo: float, hi: float, brackets: str):
    """Whether value lies in the interval from lo to hi, elementwise on arrays;
    ``brackets`` writes its ends, e.g. "(]" for lo < value <= hi."""
    above = lo < value if brackets[0] == "(" else lo <= value
    below = value < hi if brackets[1] == ")" else value <= hi
    return above & below


def check_range(value, name: str, lo: float, hi: float, brackets: str = "()") -> None:
    """Refuse ``value`` outside the interval from lo to hi (see ``_inside``)."""
    if not _inside(value, lo, hi, brackets):
        raise InvalidArgument(
            f"{name} must lie in {brackets[0]}{lo:g},{hi:g}{brackets[1]}, got {value!r}"
        )


def check_min(value, name: str, lo: int) -> None:
    """Refuse ``value`` below lo (counts, horizons, indices)."""
    if not value >= lo:
        raise InvalidArgument(f"{name} must be at least {lo}, got {value!r}")


def check_max(value, name: str, hi: int) -> None:
    """Refuse ``value`` above hi (the work limits on counts)."""
    if not value <= hi:
        raise InvalidArgument(f"{name} must be at most {hi}, got {value!r}")


def check_index(value, name: str) -> int:
    """``value`` as a Python int, numpy ints included; a value that is not
    integral, such as 2.5, is refused naming ``name``, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r:.60}") from None


def check_indices(values, name: str) -> tuple[int, ...]:
    """The entries of ``values`` as Python ints, numpy ints included; an entry
    that is not integral, such as 2.7, is refused naming ``name``, never
    truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InvalidArgument(f"{name} entries must be integers, got {values!r:.60}") from None


def check_positive(value, name: str) -> None:
    """Refuse ``value`` unless 0 < value < inf; a huge int such as 10**400 passes."""
    if not value > 0:
        raise InvalidArgument(f"{name} must be positive, got {value!r}")
    if not value < math.inf:
        raise InvalidArgument(f"{name} must be finite, got {value!r}")


def check_eta(eta, name: str = "eta", brackets: str = "()") -> None:
    """A contraction rate lies in (0,1); pass "(]" where eta = 1 (no decay) is allowed."""
    check_range(eta, name, 0, 1, brackets)


def check_etas(etas, brackets: str = "()"):
    """``check_eta`` on every rate of a nonempty per-step list, naming the first
    offender by index; returns the rates, as a list when ``etas`` is an array.

    Per-step lists run to 1e5 entries, so ``min``, ``max`` and ``sum`` decide
    the common case at C speed, on Python floats (an array's ``tolist()``);
    a NaN, which ``min`` and ``max`` may skip, makes the sum NaN. Only a list
    that fails is walked, over the caller's own elements.
    """
    check_min(len(etas), "number of etas", 1)
    values = etas.tolist() if hasattr(etas, "tolist") else etas
    inside = _inside(min(values), 0, 1, brackets) and _inside(max(values), 0, 1, brackets)
    if inside and not math.isnan(sum(values)):
        return values
    for i, eta in enumerate(etas):
        check_eta(eta, f"etas[{i}]", brackets)


def check_epsilon(epsilon) -> None:
    """The target testing error lies in (0,1/2)."""
    check_range(epsilon, "epsilon", 0, 0.5)


# ---------------------------------------------------------------------------
# JSON input loader


def from_json(cls, data, what: str):
    """Build the dataclass ``cls`` from the JSON object ``data``, which
    messages call ``what``.

    The JSON typing rule: unknown keys are refused, and a field without a
    default must be present. An ``int`` field refuses bool, str, null,
    float and an integer beyond float range; a ``float`` field refuses bool,
    str, null, NaN and infinities and stores a float; for a ``tuple[X, ...]``
    field the list and each element are checked; a dataclass field is built by its class's
    ``from_json_dict``; ``X | None`` also admits null; an ``Any`` field is
    left to the class.
    """
    if not isinstance(data, dict):
        raise InvalidArgument(f"{what} must be a JSON object, got {data!r:.60}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise InvalidArgument(f"unknown {what} fields: {sorted(unknown)}")
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in data:
            raise InvalidArgument(f"{what} must set {name}")
    hints = _type_hints(cls)
    return cls(**{k: _json_value(v, hints[k], k) for k, v in data.items()})


@functools.cache
def _type_hints(cls) -> dict:
    """``typing.get_type_hints(cls)``, which evaluates the class's string
    annotations, once per class."""
    return typing.get_type_hints(cls)


def _json_value(value, hint, name: str):
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _json_value(value, hint, name)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidArgument(f"{name} must be a list, got {value!r:.60}")
        item = typing.get_args(hint)[0]
        return tuple(_json_value(v, item, f"{name}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return value if isinstance(value, hint) else hint.from_json_dict(value)
    if hint is typing.Any:
        return value
    accepted, noun = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InvalidArgument(f"{name} must be {noun}, got {value!r}")
    try:
        result = hint(value)
        if hint is int:
            float(result)
    except OverflowError as exc:  # an integer beyond float range
        raise InvalidArgument(f"{name} is out of range, got {value!r}") from exc
    if hint is float and not math.isfinite(result):  # JSON NaN, Infinity, -Infinity
        raise InvalidArgument(f"{name} must be finite, got {value!r}")
    return result


_SCALARS = {
    str: (str, "a string"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
}
