"""Information limits on credit assignment in multi-stage Markov processes.

Calculators for signal decay, critical horizons, and effective width;
minimax-uniform and greedy inspection schedulers; and a deterministic
Monte Carlo harness that validates the closed forms on synthetic chains.

The names below are imported from their submodule on first access (PEP 562),
so that the closed-form calculators start without numpy or the harness.
"""

import importlib

_EXPORTS = {
    "errors": ("AbsoluteContinuityViolated", "Infeasible", "InvalidArgument"),
    "markov": (
        "ChainSpec", "Kernel", "ProbVec", "SoftmaxPolicyInput", "mixture_kernel",
        "outcome_prob", "point_mass", "propagate", "propagate_chain",
        "softmax_policy_kernel", "two_state_kernel", "uniform_dist",
    ),
    "divergence": (
        "DecayCurve", "chi2", "decay_curve", "lecam_total_error", "tensorize_chi2",
        "tv", "tv_upper_from_chi2",
    ),
    "contraction": (
        "ContractionReport", "attenuation", "contraction_report", "diversity_bound",
        "dobrushin_alpha", "dobrushin_bound", "empirical_eta_lower", "two_state_exact",
    ),
    "horizon": (
        "HorizonParams", "SampleBound", "achievability_n", "approx_lumpability_tv",
        "critical_horizon", "critical_horizon_simplified", "minimax_error_lb",
        "noisy_outcome_adjust", "sample_cap_for_error", "sample_lb",
    ),
    "width": (
        "WidthParams", "correlated_variance", "effective_width", "estimator_variance_iid",
        "hoeffding_halfwidth", "width_horizon", "width_insufficiency_threshold",
    ),
    "inspection": (
        "BudgetParams", "DesignPlan", "Schedule", "budget_lb", "budget_optimize",
        "design_procedure", "downstream_distance", "feasibility_threshold",
        "greedy_schedule", "maximal_gap", "min_gap_value", "min_inspections",
        "min_inspections_sufficient", "poly_density_min", "segment_budget",
        "segment_report", "uniform_schedule", "worst_case_sample_lb",
    ),
    "objectives": (
        "ObjectivePoint", "dj_add_dp", "dj_mult_dp", "grad_attenuation", "j_add",
        "j_interp", "j_mult", "mostly_correct_but_wrong_prob",
    ),
    "schema": ("ExperimentConfig",),
    "experiments": ("ResultTable", "oracle_min_gap", "oracle_min_inspections", "run_experiment"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
