"""The information-distance closed forms against a 50-digit ``decimal`` oracle.

Each test checks the accuracy bound that the function's docstring states,
in units of U = 2^-53, against the exact value at the given floats. Rates
are drawn over (0, 1), over [1 - 1e-12, 1) where ln(1/eta) written as
log(1.0 / eta) lost most of its digits, and at 1 - 2^-53, the largest float
below 1.
"""

import json
import math
from decimal import Context, Decimal

import hypothesis.strategies as st
from hypothesis import example, given

from chcalc import cli
from chcalc.horizon import (
    HorizonParams,
    critical_horizon,
    critical_horizon_simplified,
    info_distance,
    noisy_outcome_adjust,
    sample_lb,
    segment_budget,
)
from chcalc.inspection import step_info_distances

U = 2.0**-53
TOP = 1.0 - 2.0**-53  # the largest float below 1
ORACLE = Context(prec=50)

etas = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
)
samples = st.integers(1, 10**18)
separations = st.floats(1e-300, 1e300)
epsilons = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
gaps = st.integers(0, 10**6)


def ln(x) -> Decimal:
    """ln of an exact float, integer or Decimal, to 50 digits."""
    return ORACLE.ln(Decimal(x))


def exact_info(eta: float) -> Decimal:
    return ORACLE.minus(ln(eta))


def exact_log1m(epsilon: float) -> Decimal:
    """ln(1 - epsilon), with the digits raised by epsilon's exponent so that
    1 - epsilon keeps 50 digits of epsilon: at 50 digits, 1 - 5e-324 rounds
    to 1 and its log to 0."""
    eps = Decimal(epsilon)
    context = Context(prec=ORACLE.prec - eps.adjusted())
    return context.ln(context.subtract(1, eps))


def exact_gamma(n: int, delta2: float, epsilon: float) -> Decimal:
    return ORACLE.subtract(ORACLE.add(ln(n), ln(delta2)), ORACLE.multiply(2, exact_log1m(epsilon)))


def gamma_size(n: int, delta2: float, epsilon: float) -> float:
    """S = |ln n| + |ln delta2| + 2|ln(1-eps)|, the terms that Gamma sums."""
    return abs(math.log(n)) + abs(math.log(delta2)) + 2.0 * abs(math.log1p(-epsilon))


def error(got: float, exact: Decimal) -> float:
    return float(abs(ORACLE.subtract(Decimal(got), exact)))


@given(etas)
@example(TOP)
@example(1.0)
def test_info_distance(eta):
    got = info_distance(eta)
    assert math.copysign(1.0, got) == 1.0
    assert error(got, exact_info(eta)) <= 2 * U * float(exact_info(eta))


@given(st.lists(st.one_of(etas, st.just(1.0)), min_size=1, max_size=20))
@example([TOP, 1.0, 0.5])
def test_step_info_distances_are_info_distance(rates):
    distances = step_info_distances(rates)
    assert [math.copysign(1.0, w) for w in distances] == [1.0] * len(rates)
    assert distances == [info_distance(eta) for eta in rates]


@given(samples, separations, epsilons, etas)
@example(10**6, 0.1, 0.1, TOP)
@example(10**18, 1e-18, 0.25, 1.0 - 1e-12)
def test_critical_horizon(n, delta2, epsilon, eta):
    got = critical_horizon(HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta))
    exact = max(Decimal(0), ORACLE.divide(exact_gamma(n, delta2, epsilon), exact_info(eta)))
    assert error(got, exact) <= 5 * U * gamma_size(n, delta2, epsilon) / float(exact_info(eta))


@given(samples, separations, etas)
@example(10**18, 1e-18, TOP)
def test_critical_horizon_simplified(n, delta2, eta):
    got = critical_horizon_simplified(n, delta2, eta)
    exact = max(Decimal(0), ORACLE.divide(ORACLE.add(ln(n), ln(delta2)), exact_info(eta)))
    assert error(got, exact) <= 5 * U * gamma_size(n, delta2, 0.0) / float(exact_info(eta))


@given(samples, separations, epsilons, etas, st.one_of(etas, st.just(1.0)))
@example(10**6, 0.1, 0.1, TOP, 0.5)
def test_noisy_outcome_adjust(n, delta2, epsilon, eta, eta_g):
    got = noisy_outcome_adjust(HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta), eta_g)
    budget = ORACLE.subtract(exact_gamma(n, delta2, epsilon), exact_info(eta_g))
    exact = max(Decimal(0), ORACLE.divide(budget, exact_info(eta)))
    size = gamma_size(n, delta2, epsilon) + info_distance(eta_g)
    assert error(got, exact) <= 6 * U * size / float(exact_info(eta))


@given(st.floats(-1e300, 1e300), st.one_of(etas, st.just(1.0)))
@example(5.0, 1.0)
@example(1e-300, TOP)
def test_segment_budget(gamma, fidelity):
    got = segment_budget(gamma, fidelity)
    exact = ORACLE.subtract(Decimal(gamma), exact_info(fidelity))
    assert error(got, exact) <= 3 * U * (abs(gamma) + info_distance(fidelity))
    if fidelity == 1.0:
        assert got == gamma and math.copysign(1.0, got) == math.copysign(1.0, gamma)


@given(samples, separations, epsilons, etas, gaps)
@example(10**6, 0.1, 0.1, TOP, 10**6)
@example(1, 1.0, 5e-324, 0.5, 0)
def test_sample_lb_log_bound(n, delta2, epsilon, eta, gap):
    got = sample_lb(HorizonParams(n=n, delta2=delta2, epsilon=epsilon, eta=eta), gap).log_bound
    attenuation = ORACLE.subtract(ORACLE.multiply(gap, exact_info(eta)), ln(delta2))
    exact = ORACLE.add(ORACLE.multiply(2, exact_log1m(epsilon)), attenuation)
    size = 2.0 * abs(math.log1p(-epsilon)) + gap * info_distance(eta) + abs(math.log(delta2))
    assert error(got, exact) <= 5 * U * size


def test_calc_horizon_next_to_one(capsys):
    """At eta = 1 - 2^-53, ln(1/eta) read 2^-52 and halved the horizon."""
    argv = ["calc", "horizon", "--eta", "0.9999999999999999", "--delta2", "0.1",
            "--n", "1000000", "--epsilon", "0.1"]
    assert cli.main(argv) == 0
    h_crit = json.loads(capsys.readouterr().out)["h_crit"]
    exact = ORACLE.divide(exact_gamma(10**6, 0.1, 0.1), exact_info(TOP))
    assert error(h_crit, exact) <= 1e-15 * float(exact)
    assert 1.0559e17 < h_crit < 1.0561e17
