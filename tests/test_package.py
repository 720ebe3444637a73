"""The package surface: the exported names, resolved lazily from their submodules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcalc

EXPORTED = {
    "errors": ["AbsoluteContinuityViolated", "Infeasible", "InvalidArgument"],
    "markov": [
        "ChainSpec", "Kernel", "ProbVec", "SoftmaxPolicyInput", "mixture_kernel",
        "outcome_prob", "point_mass", "propagate", "propagate_chain",
        "softmax_policy_kernel", "two_state_kernel", "uniform_dist",
    ],
    "divergence": [
        "DecayCurve", "chi2", "decay_curve", "lecam_total_error", "tensorize_chi2",
        "tv", "tv_upper_from_chi2",
    ],
    "contraction": [
        "ContractionReport", "attenuation", "contraction_report", "diversity_bound",
        "dobrushin_alpha", "dobrushin_bound", "empirical_eta_lower", "two_state_exact",
    ],
    "horizon": [
        "HorizonParams", "SampleBound", "achievability_n", "approx_lumpability_tv",
        "critical_horizon", "critical_horizon_simplified", "minimax_error_lb",
        "noisy_outcome_adjust", "sample_cap_for_error", "sample_lb",
    ],
    "width": [
        "WidthParams", "correlated_variance", "effective_width", "equicorrelated_outcomes",
        "estimator_variance_iid", "hoeffding_halfwidth", "width_horizon",
        "width_insufficiency_threshold",
    ],
    "inspection": [
        "BudgetParams", "DesignPlan", "Schedule", "budget_lb", "budget_optimize",
        "design_procedure", "downstream_distance", "feasibility_threshold",
        "greedy_schedule", "maximal_gap", "min_gap_value", "min_inspections",
        "min_inspections_sufficient", "poly_density_min", "segment_budget",
        "segment_report", "uniform_schedule", "worst_case_sample_lb",
    ],
    "objectives": [
        "ObjectivePoint", "dj_add_dp", "dj_mult_dp", "grad_attenuation", "j_add",
        "j_interp", "j_mult", "mostly_correct_but_wrong_prob",
    ],
    "experiments": [
        "ExperimentConfig", "ResultTable", "oracle_min_gap", "oracle_min_inspections",
        "run_experiment",
    ],
}
OWNER = {name: module for module, names in EXPORTED.items() for name in names}


def test_all_is_the_exported_names():
    assert len(OWNER) == 79
    assert sorted(chcalc.__all__) == sorted(OWNER)


def test_each_name_is_the_submodule_object():
    wrong = [
        name for name, module in OWNER.items()
        if getattr(chcalc, name) is not getattr(importlib.import_module(f"chcalc.{module}"), name)
    ]
    assert wrong == []


def test_dir_lists_every_export():
    assert set(chcalc.__all__) <= set(dir(chcalc))
    assert "__version__" in dir(chcalc)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from chcalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(OWNER)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="not_a_name"):
        chcalc.not_a_name


def test_submodule_import_still_works():
    from chcalc import contraction

    assert contraction is importlib.import_module("chcalc.contraction")


def test_bare_import_loads_neither_numpy_nor_the_harness():
    probe = (
        "import sys, chcalc\n"
        "print(sorted(m for m in ('numpy', 'chcalc.experiments') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(chcalc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
