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
    MAX_TRIALS,
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

    def test_one_state_alpha_one(self):
        assert dobrushin_alpha(Kernel([[1.0]])) == 1.0

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

    @pytest.mark.parametrize(
        "kernel",
        [mixture_kernel(0.8, 10), Kernel(np.random.default_rng(4).dirichlet(np.ones(7), size=7))],
        ids=["mixture", "random"],
    )
    def test_monotone_in_trials(self, kernel):
        # trial t's pair does not depend on the trial count, so more trials never lower the bound
        for seed in (0, 9):
            values = [empirical_eta_lower(kernel, trials, seed) for trials in (1, 100, 255, 256, 257, 600, 1000)]
            assert values == sorted(values)

    def test_trials_above_limit_refused(self):
        with pytest.raises(InvalidArgument, match=f"^trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}$"):
            empirical_eta_lower(MANUFACTURING, trials=MAX_TRIALS + 1, seed=0)


class TestTrialStreams:
    """The block form of each trial's Dirichlet draw gives numpy's bits."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 30, 120])
    def test_normalized_exponentials_are_dirichlet_ones(self, n):
        # from 8 entries a pairwise .sum() would differ from dirichlet's running sum
        for seed in range(5):
            expected = np.random.default_rng(seed).dirichlet(np.ones(n), size=40)
            draws = np.random.default_rng(seed).standard_exponential((40, n))
            draws *= (1.0 / np.cumsum(draws, axis=-1)[:, -1])[:, None]
            assert np.array_equal(draws, expected)


def _reference_eta_lower(kernel, trials, seed):
    """The estimator with a checked ProbVec per point mass, smoothed reference,
    trial draw and pushed vector, one pair at a time. Trial t reads row
    t % _BLOCK of its block's stream, which draws the block's point-mass picks
    and then its Dirichlet points with numpy's own ``dirichlet``. Returns the
    bound and the number of pairs skipped for absolute continuity."""
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
    block = contraction._BLOCK
    for t in range(trials):
        b, row = divmod(t, block)
        if row == 0:
            # every block, the last one included, is drawn in full
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, b])))
            picks = rng.integers(n, size=block)
            draws = rng.dirichlet(np.ones(n), size=block)
        p = point_mass(int(picks[row]), n)
        best = max(best, ratio(p, ProbVec((draws[row] + 1e-9) / (1.0 + n * 1e-9))))
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

    @pytest.mark.parametrize(("states", "rng_seed", "null_columns"), [(6, 2, [2]), (12, 3, [2, 7])])
    def test_zero_column_kernels(self, states, rng_seed, null_columns):
        # every pushed reference has null entries; from 8 states numpy sums
        # the in-place zeros pairwise, as the public chi2 does
        rows = np.random.default_rng(rng_seed).dirichlet(np.ones(states), size=states)
        rows[:, null_columns] = 0.0
        kernel = Kernel(rows / rows.sum(axis=1, keepdims=True))
        for seed in (0, 5):
            assert empirical_eta_lower(kernel, 300, seed) == _reference_eta_lower(kernel, 300, seed)[0]

    @pytest.mark.parametrize("states", [1, 2])
    def test_one_and_two_states(self, states):
        kernel = Kernel(np.random.default_rng(states).dirichlet(np.ones(states), size=states))
        for seed in (0, 3):
            assert empirical_eta_lower(kernel, 100, seed) == _reference_eta_lower(kernel, 100, seed)[0]

    @pytest.mark.parametrize("seed", [2**40 + 1, 2**100 + 3])
    def test_multi_word_seeds(self, seed):
        # a seed of two or four 32-bit words moves the trial counter's word
        # within the entropy; from four words on, it is mixed in after the pool
        for kernel in (mixture_kernel(0.8, 5), Kernel(np.random.default_rng(6).dirichlet(np.ones(9), size=9))):
            assert empirical_eta_lower(kernel, 200, seed) == _reference_eta_lower(kernel, 200, seed)[0]

    # one word, the last one-word seed, the first two-word seed, three words, four words
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3])
    def test_seeds_at_entropy_word_edges(self, seed):
        kernel = Kernel(np.random.default_rng(6).dirichlet(np.ones(9), size=9))
        assert empirical_eta_lower(kernel, 300, seed) == _reference_eta_lower(kernel, 300, seed)[0]

    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 512, 513])
    def test_trial_counts_at_block_edges(self, trials):
        # the last block is drawn in full and cut, so its rows keep their bits
        kernel = mixture_kernel(0.8, 5)
        assert empirical_eta_lower(kernel, trials, 4) == _reference_eta_lower(kernel, trials, 4)[0]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_trials_spanning_blocks(self, monkeypatch, block):
        monkeypatch.setattr(contraction, "_BLOCK", block)
        for kernel in (mixture_kernel(0.8, 5), Kernel(np.random.default_rng(8).dirichlet(np.ones(9), size=9))):
            assert empirical_eta_lower(kernel, 150, 2) == _reference_eta_lower(kernel, 150, 2)[0]


_REPORT_PROBE = """
import contextlib, io, json, sys
import numpy as np
from chcalc.cli import main
from chcalc.contraction import contraction_report
from chcalc.divergence import decay_curve
from chcalc.markov import ChainSpec, Kernel, ProbVec, mixture_kernel, uniform_dist
kernels = [mixture_kernel(0.8, 10)]
kernels += [Kernel(np.random.default_rng(5).dirichlet(np.ones(s), size=s)) for s in (10, 120)]
spec = ChainSpec(horizon=300, kernels=kernels[2], success_set=frozenset({0}), initial=uniform_dist(120))
p, q = (ProbVec(np.random.default_rng(s).dirichlet(np.ones(120))) for s in (6, 7))
reports = [contraction_report(k).to_json_dict() for k in kernels]

def stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()

# the same through the CLI: the README kernel's report, the report of a kernel
# with two zero columns, whose pushed references have null entries, and the
# CSV of a 120-state decay experiment over 300 steps
golden, tmp = sys.argv[1:]
commands = [stdout("calc", "contraction", "--kernel-file", f"{golden}/kernels/{name}.json")
            for name in ("readme", "zero_column")]
with open(f"{tmp}/decay.json", "w") as f:
    json.dump({"kind": "decay", "params": {"states": 120, "H": 300}}, f)
stdout("experiment", "run", "--config", f"{tmp}/decay.json", "--out", f"{tmp}/decay.csv")
with open(f"{tmp}/decay.csv") as f:
    commands.append(f.read())
print(json.dumps({"reports": reports, "decay": decay_curve(spec, p, q, 0).values, "commands": commands}))
"""


def test_report_independent_of_blas_threads(tmp_path):
    # 120 states is above OpenBLAS's size threshold for a threaded
    # vector-matrix product, so the two runs take different BLAS paths;
    # the 120-state decay curve pushes its pair as one stacked product per step
    src = str(Path(chcalc.__file__).parents[1])
    golden = str(Path(__file__).parent / "golden")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _REPORT_PROBE, golden, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    probe = json.loads(outputs[0])
    assert len(probe["reports"]) == 3
    assert len(probe["decay"]) == 301
    assert all("empirical_lower" in json.loads(report) for report in probe["commands"][:2])
    assert probe["commands"][2].count("\n") == 1 + 4 * 301


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

    def test_exact_zero_for_equal_rows(self):
        assert contraction_report(_uniform_mixing(4), trials=50, seed=2).exact == 0.0

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
