import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chcalc
from chcalc import contraction
from chcalc.contraction import (
    _contraction_ratio,
    attenuation,
    contraction_report,
    diversity_bound,
    dobrushin_alpha,
    dobrushin_bound,
    empirical_eta_lower,
    two_state_exact,
)
from chcalc.divergence import chi2
from chcalc.errors import AbsoluteContinuityViolated, InvalidArgument
from chcalc.markov import Kernel, ProbVec, mixture_kernel, point_mass, two_state_kernel

MANUFACTURING = Kernel([[0.85, 0.14, 0.01], [0.55, 0.35, 0.10], [0.20, 0.30, 0.50]])
REASONING = Kernel([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.1, 0.2, 0.7]])


def _uniform_mixing(size):
    return Kernel(np.full((size, size), 1.0 / size))


class TestDobrushin:
    def test_manufacturing_alpha(self):
        assert dobrushin_alpha(MANUFACTURING) == pytest.approx(0.35)

    def test_manufacturing_bound(self):
        assert dobrushin_bound(MANUFACTURING) == pytest.approx(0.65)

    def test_identity_alpha_zero(self):
        assert dobrushin_alpha(mixture_kernel(1.0, 4)) == 0.0

    def test_equal_rows_alpha_one(self):
        assert dobrushin_alpha(_uniform_mixing(5)) == pytest.approx(1.0)
        assert dobrushin_bound(_uniform_mixing(5)) == pytest.approx(0.0)

    def test_two_state_bound(self):
        for p in (0.05, 0.2, 0.45):
            assert dobrushin_bound(two_state_kernel(p)) == pytest.approx(1 - 2 * p)

    @pytest.mark.parametrize("states", [2, 3, 9, 17, 40])
    def test_row_at_a_time_equals_broadcast(self, states):
        rng = np.random.default_rng(states)
        for concentration in (1.0, 0.1):
            kernel = Kernel(rng.dirichlet(np.full(states, concentration), size=states))
            rows = kernel.rows
            overlap = np.minimum(rows[:, None, :], rows[None, :, :]).sum(axis=2)
            expected = float(min(1.0, overlap[~np.eye(states, dtype=bool)].min()))
            assert dobrushin_alpha(kernel) == expected


class TestDiversity:
    def test_reasoning_kernel(self):
        assert diversity_bound(REASONING) == pytest.approx(0.7)

    def test_zero_entry_is_vacuous(self):
        assert diversity_bound(MANUFACTURING.__class__([[1.0, 0.0], [0.0, 1.0]])) == 1.0

    def test_mixture_081(self):
        assert diversity_bound(mixture_kernel(0.81, 10)) == pytest.approx(0.9)


class TestTwoStateExact:
    def test_endpoints(self):
        assert two_state_exact(0.0) == 1.0
        assert two_state_exact(0.5) == 0.0

    def test_formula(self):
        assert two_state_exact(0.1) == pytest.approx(0.64)

    def test_range(self):
        with pytest.raises(InvalidArgument):
            two_state_exact(0.6)


class TestEmpiricalLower:
    def test_two_state_converges(self):
        value = empirical_eta_lower(two_state_kernel(0.1), trials=10_000, seed=11)
        assert 0.64 - 1e-3 <= value <= 0.64 + 1e-9

    def test_two_state_tight_band(self):
        value = empirical_eta_lower(two_state_kernel(0.1), trials=20_000, seed=0)
        assert 0.6399 <= value <= 0.6401

    def test_identity_is_one(self):
        assert empirical_eta_lower(mixture_kernel(1.0, 4), trials=10, seed=0) == pytest.approx(1.0)

    def test_uniform_mixing_is_zero(self):
        assert empirical_eta_lower(_uniform_mixing(4), trials=10, seed=0) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        a = empirical_eta_lower(MANUFACTURING, trials=200, seed=5)
        b = empirical_eta_lower(MANUFACTURING, trials=200, seed=5)
        assert a == b


def _reference_eta_lower(kernel, trials, seed):
    """The estimator with a checked ProbVec per point mass, smoothed reference,
    trial draw and pushed vector (the former formulation). Returns the bound
    and the number of pairs skipped for absolute continuity."""
    smoothing = 1e-6
    skipped = 0

    def ratio(p, q):
        nonlocal skipped
        denom = chi2(p, q)
        if denom <= 0.0:
            return 0.0
        try:
            pushed_p = ProbVec(p.entries @ kernel.rows)
            pushed_q = ProbVec(q.entries @ kernel.rows)
            return chi2(pushed_p, pushed_q) / denom
        except AbsoluteContinuityViolated:
            skipped += 1
            return 0.0

    n = kernel.size
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                q = ProbVec((1.0 - smoothing) * point_mass(j, n).entries + smoothing / n)
                best = max(best, ratio(point_mass(i, n), q))
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, t])))
        p = point_mass(int(rng.integers(n)), n)
        draw = rng.dirichlet(np.ones(n))
        best = max(best, ratio(p, ProbVec((draw + 1e-9) / (1.0 + n * 1e-9))))
    return min(1.0, best), skipped


class TestEmpiricalLowerReference:
    """The raw-array estimator equals the ProbVec-per-step one bit for bit."""

    @pytest.mark.parametrize("states", [5, 10, 30])
    def test_mixture_kernels(self, states):
        kernel = mixture_kernel(0.8, states)
        assert empirical_eta_lower(kernel, 300, 0) == _reference_eta_lower(kernel, 300, 0)[0]

    def test_dirichlet_dense_kernel(self):
        kernel = Kernel(np.random.default_rng(11).dirichlet(np.ones(8), size=8))
        assert empirical_eta_lower(kernel, 500, 3) == _reference_eta_lower(kernel, 500, 3)[0]

    def test_two_state_kernel(self):
        kernel = two_state_kernel(0.2)
        assert empirical_eta_lower(kernel, 500, 1) == _reference_eta_lower(kernel, 500, 1)[0]

    def test_absolute_continuity_skip(self):
        kernel = Kernel([[1 - 1e-10, 1e-10], [1.0, 0.0]])
        expected, skipped = _reference_eta_lower(kernel, 50, 0)
        assert skipped == 1
        assert empirical_eta_lower(kernel, 50, 0) == expected

    @pytest.mark.parametrize("concentration", [1.0, 0.1])
    @pytest.mark.parametrize("states", [3, 7, 12])
    def test_random_kernels(self, states, concentration):
        rng = np.random.default_rng([states, int(10 * concentration)])
        for seed in (0, 4, 91):
            kernel = Kernel(rng.dirichlet(np.full(states, concentration), size=states))
            assert empirical_eta_lower(kernel, 200, seed) == _reference_eta_lower(kernel, 200, seed)[0]

    def test_zero_column_takes_scalar_fallback(self, monkeypatch):
        rows = np.random.default_rng(2).dirichlet(np.ones(6), size=6)
        rows[:, 2] = 0.0
        kernel = Kernel(rows / rows.sum(axis=1, keepdims=True))
        calls = []

        def counted(*pair):
            calls.append(pair)
            return _contraction_ratio(*pair)

        monkeypatch.setattr(contraction, "_contraction_ratio", counted)
        assert empirical_eta_lower(kernel, 300, 5) == _reference_eta_lower(kernel, 300, 5)[0]
        # every pushed reference has a null column, so no pair or trial is batched
        assert len(calls) == 6 * 5 + 300

    @pytest.mark.parametrize("states", [1, 2])
    def test_one_and_two_states(self, states):
        kernel = Kernel(np.random.default_rng(states).dirichlet(np.ones(states), size=states))
        for seed in (0, 3):
            assert empirical_eta_lower(kernel, 100, seed) == _reference_eta_lower(kernel, 100, seed)[0]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_trials_spanning_blocks(self, monkeypatch, block):
        monkeypatch.setattr(contraction, "_BLOCK", block)
        for kernel in (mixture_kernel(0.8, 5), Kernel(np.random.default_rng(8).dirichlet(np.ones(9), size=9))):
            assert empirical_eta_lower(kernel, 150, 2) == _reference_eta_lower(kernel, 150, 2)[0]


_REPORT_PROBE = """
import json, sys
import numpy as np
from chcalc.contraction import contraction_report
from chcalc.markov import Kernel, mixture_kernel
kernels = [mixture_kernel(0.8, 10)]
kernels += [Kernel(np.random.default_rng(5).dirichlet(np.ones(s), size=s)) for s in (10, 120)]
print(json.dumps([contraction_report(k).to_json_dict() for k in kernels]))
"""


def test_report_independent_of_blas_threads():
    # 120 states is above OpenBLAS's size threshold for a threaded
    # vector-matrix product, so the two runs take different BLAS paths
    src = str(Path(chcalc.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _REPORT_PROBE], env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])) == 3


class TestReport:
    def test_bounds_order(self):
        report = contraction_report(MANUFACTURING, trials=500, seed=1)
        assert report.empirical_lower <= min(report.dobrushin_bound, report.diversity_bound) + 1e-9
        assert 0 <= report.gap

    def test_exact_recognized_for_two_state(self):
        report = contraction_report(two_state_kernel(0.1), trials=50, seed=2)
        assert report.exact == pytest.approx(0.64)
        assert report.empirical_lower <= 0.64 + 1e-9

    def test_exact_recognized_for_permutation(self):
        cycle = np.roll(np.eye(4), 1, axis=1)
        report = contraction_report(Kernel(cycle), trials=50, seed=2)
        assert report.exact == 1.0

    def test_mixture_not_claimed_exact(self):
        # over unrestricted input pairs the mixture kernel contracts less
        # than at its stationary reference, so no exact value is reported
        report = contraction_report(mixture_kernel(0.81, 10), trials=500, seed=2)
        assert report.exact is None
        assert report.empirical_lower <= report.dobrushin_bound + 1e-9

    def test_exact_absent_for_general_kernel(self):
        assert contraction_report(MANUFACTURING, trials=50, seed=2).exact is None

    def test_json_payload(self):
        payload = contraction_report(MANUFACTURING, trials=50, seed=2).to_json_dict()
        assert payload["smoothing"] == 1e-6
        assert set(payload) >= {"dobrushin_alpha", "diversity_bound", "empirical_lower", "gap"}

    def test_nan_kernel_refused_not_reported(self):
        # a NaN entry once built a kernel whose report read dobrushin_bound 0.0
        with pytest.raises(InvalidArgument, match="NaN"):
            contraction_report(Kernel([[np.nan, 1.0], [0.5, 0.5]]), trials=50, seed=2)


class TestAttenuation:
    def test_empty_product(self):
        assert attenuation([0.5, 0.5], 1, 1) == 1.0

    def test_homogeneous_25_steps(self):
        value = attenuation([0.85] * 30, 0, 25)
        assert value == pytest.approx(0.85**25, rel=1e-12)
        assert value == pytest.approx(0.017197809852207906, rel=1e-12)

    def test_service_journey_prefix(self):
        etas = [0.6] * 11 + [0.95] * 39
        value = attenuation(etas, 0, 16)
        assert value == pytest.approx(0.6**11 * 0.95**5, rel=1e-12)
        assert value == pytest.approx(0.0028072544611392, rel=1e-9)

    def test_multiplicative(self):
        etas = [0.9, 0.8, 0.7, 0.95, 0.85]
        assert attenuation(etas, 0, 3) * attenuation(etas, 3, 5) == pytest.approx(
            attenuation(etas, 0, 5), rel=1e-15
        )

    def test_range_errors(self):
        with pytest.raises(InvalidArgument):
            attenuation([0.9], 1, 0)
        with pytest.raises(InvalidArgument):
            attenuation([0.9], 0, 2)
        with pytest.raises(InvalidArgument):
            attenuation([1.5], 0, 1)
