"""Seeded inputs for every workload, made without importing chcalc.

The worker builds its calls from these inputs and the checker rebuilds the
same inputs from the same seed, so large arrays never travel with the
results. Every pass ``index`` of a run with workload seed ``seed`` draws
from its own generator, ``numpy.random.default_rng([seed, WORKLOAD_IDS[w],
index])``, so no two passes share seeds or inputs.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("golden", "sampling", "design", "cli")
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}

# Worker threads handed to the experiment harness through CH_THREADS.
# Only `sampling` uses more than one; 2 equals the cores of the reference host.
THREADS = {"golden": 1, "sampling": 2, "design": 1, "cli": 1}

# Every golden config plus the default oracle config, in pass order.
GOLDEN_NAMES = (
    "GOLDEN_DECAY",
    "GOLDEN_WIDTH",
    "GOLDEN_INSPECTION",
    "GOLDEN_HORIZON",
    "GOLDEN_MISMATCH",
    "oracle",
)

CONTRACTION_TRIALS = 2000
CONTRACTION_KERNELS = ("s5", "s10", "s30", "rand")
MIXTURE_ETA = 0.8
PROBE_STATES = 10
SMALL_PLANS = 1000
SMALL_PLAN_H = 50
DECAY_STATES = 10
DECAY_H = 10_000
# Plan horizons of the design workload and their labels in span names.
PLAN_HORIZONS = {1000: "1e3", 100_000: "1e5"}


def pass_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def probe_seed(seed: int, workload: str) -> int:
    """Seed of the one contraction probe run after the timed passes."""
    return int(np.random.default_rng([seed, WORKLOAD_IDS[workload], 2**32]).integers(0, 2**31))


def golden_seeds(seed: int, index: int) -> dict:
    """Fresh master seed for each golden config of pass ``index``."""
    rng = pass_rng(seed, "golden", index)
    return {name: _master_seed(rng) for name in GOLDEN_NAMES}


def sampling_configs(seed: int, index: int) -> list[dict]:
    """The three sampled kinds other than width, scaled to comparable work
    over many units: 40 inspection units, 492 horizon units, 8 mismatch
    units."""
    rng = pass_rng(seed, "sampling", index)
    return [
        {
            "kind": "inspection",
            "master_seed": _master_seed(rng),
            "replicates": 2,
            "params": {
                "H": 20,
                "states": 10,
                "eta": 0.9,
                "epsilon": 0.1,
                "schedules": [[5, 10, 15], [2, 4, 6], [14, 16, 18], [2, 13, 14]],
                "n_per_test": 30,
                "trials": 20_000,
            },
        },
        {
            "kind": "horizon",
            "master_seed": _master_seed(rng),
            "replicates": 3,
            "params": {
                "H": 40,
                "states": 10,
                "etas": [0.6, 0.7, 0.8, 0.9],
                "n": 1000,
                "epsilon": 0.1,
                "obs_per_trial": 4,
                "trials": 15_000,
            },
        },
        {
            "kind": "mismatch",
            "master_seed": _master_seed(rng),
            "replicates": 8,
            "params": {"p": 0.995, "H": 2000, "threshold": 0.99, "chains": 5000},
        },
    ]


def mixture_rows(eta: float, size: int) -> np.ndarray:
    """sqrt(eta) * I + (1 - sqrt(eta)) / size * ones, the identity-uniform mixture."""
    w = math.sqrt(eta)
    rows = np.full((size, size), (1.0 - w) / size)
    rows[np.diag_indices(size)] += w
    return rows


def design_inputs(seed: int, index: int) -> dict:
    """Contraction kernels, plan parameters and chains for one design pass.

    Parameter ranges keep every critical horizon at or above 2 steps, so no
    plan reaches the 0 < h_crit < 1 case that never returns.
    """
    rng = pass_rng(seed, "design", index)
    out: dict = {}
    out["contraction_seeds"] = {k: int(rng.integers(0, 2**31)) for k in CONTRACTION_KERNELS}
    out["rand_rows"] = rng.dirichlet(np.ones(10), size=10)
    out["two_state_p"] = float(rng.uniform(0.05, 0.45))
    out["two_state_seed"] = int(rng.integers(0, 2**31))
    out["homog"] = {
        h: {
            "eta": float(rng.uniform(0.85, 0.95)),
            "n": int(rng.integers(10_000, 1_000_000)),
            "delta2": float(rng.uniform(0.1, 0.5)),
            "epsilon": 0.1,
        }
        for h in PLAN_HORIZONS
    }
    out["hetero"] = {
        h: {
            "etas": rng.uniform(0.95, 0.999, size=h),
            "n": int(rng.integers(10_000, 1_000_000)),
            "delta2": float(rng.uniform(0.1, 0.5)),
            "epsilon": 0.1,
        }
        for h in PLAN_HORIZONS
    }
    out["greedy"] = {
        "etas": rng.uniform(0.95, 0.999, size=100_000),
        "n": int(rng.integers(10_000, 1_000_000)),
        "delta2": float(rng.uniform(0.1, 0.5)),
        "epsilon": 0.1,
    }
    out["budget"] = {
        "c_out": float(rng.uniform(1.0, 10.0)),
        "c_insp": float(rng.uniform(1.0, 10.0)),
        "H": 100_000,
        "eta": float(rng.uniform(0.995, 0.9995)),
        "n": int(rng.integers(10_000, 1_000_000)),
        "delta2": float(rng.uniform(0.1, 0.5)),
        "epsilon": 0.1,
    }
    out["decay_eta"] = float(rng.uniform(0.998, 0.9995))
    out["small"] = {
        "eta": rng.uniform(0.6, 0.95, size=SMALL_PLANS),
        "n": rng.integers(1000, 100_000, size=SMALL_PLANS),
        "delta2": rng.uniform(0.1, 1.0, size=SMALL_PLANS),
        "epsilon": 0.1,
    }
    return out


# CLI operations: (name, expected outcome). "ok" is exit 0 with the
# documented output; "refuse1" is exit 1 with an `error:` line and no
# traceback; "refuse2" is exit 2 with a JSON infeasibility reason.
CLI_OPS = (
    ("calc_horizon", "ok"),
    ("calc_width", "ok"),
    ("calc_contraction", "ok"),
    ("calc_objectives", "ok"),
    ("calc_gamma", "ok"),
    ("schedule_uniform", "ok"),
    ("schedule_greedy", "ok"),
    ("schedule_plan", "ok"),
    ("experiment_run", "ok"),
    ("refuse_bad_width", "refuse1"),
    ("refuse_infeasible_plan", "refuse2"),
    # The four below fail on every run today (see CHANGES.md).
    ("refuse_decay_float_h", "refuse1"),
    ("refuse_plan_string_eta", "refuse1"),
    ("refuse_kernel_without_rows", "refuse1"),
    ("refuse_float_replicates", "refuse1"),
)
CLI_EXPECT = dict(CLI_OPS)
CLI_KERNEL_STATES = 5


def cli_inputs(seed: int, index: int) -> dict:
    """Arguments and JSON file contents for one pass of CLI processes.

    The refusal inputs do not depend on the seed, so the same refusals fail
    or pass on every run.
    """
    rng = pass_rng(seed, "cli", index)
    greedy_h = 200
    return {
        "horizon": {
            "eta": float(rng.uniform(0.8, 0.95)),
            "delta2": float(rng.uniform(0.1, 0.5)),
            "n": int(rng.integers(1000, 1_000_000)),
            "epsilon": 0.1,
            "eta_g": float(rng.uniform(0.9, 0.99)),
            "gap": int(rng.integers(1, 50)),
        },
        "width": {"W": int(rng.integers(2, 512)), "rho": float(rng.uniform(0.01, 0.5)), "value": float(rng.uniform(0.1, 0.9))},
        "contraction": {
            "kernel": {"states": CLI_KERNEL_STATES, "rows": mixture_rows(MIXTURE_ETA, CLI_KERNEL_STATES).tolist()},
            "seed": int(rng.integers(0, 2**31)),
        },
        "objectives": {
            "p": float(rng.uniform(0.9, 0.999)),
            "H": int(rng.integers(10, 200)),
            "lam": float(rng.uniform(0.0, 1.0)),
            "threshold": 0.8,
        },
        "gamma": {"n": int(rng.integers(100, 1_000_000)), "delta2": float(rng.uniform(0.1, 0.5)), "epsilon": 0.1},
        "uniform": {
            "H": int(rng.integers(20, 200)),
            "m": int(rng.integers(1, 10)),
            "eta": float(rng.uniform(0.8, 0.95)),
            "delta2": float(rng.uniform(0.1, 0.5)),
            "epsilon": 0.1,
            "n": int(rng.integers(1000, 100_000)),
        },
        "greedy": {
            "etas": rng.uniform(0.9, 0.999, size=greedy_h).tolist(),
            "n": int(rng.integers(1000, 100_000)),
            "delta2": float(rng.uniform(0.1, 0.5)),
            "epsilon": 0.1,
        },
        "plan": {
            "eta": float(rng.uniform(0.8, 0.95)),
            "H": int(rng.integers(50, 5000)),
            "n": int(rng.integers(10_000, 1_000_000)),
            "delta2": float(rng.uniform(0.1, 0.5)),
            "epsilon": 0.1,
            "budget": {"c_out": float(rng.uniform(1, 10)), "c_insp": float(rng.uniform(1, 100))},
        },
        "experiment": {
            "kind": "decay",
            "master_seed": 0,
            "replicates": 1,
            "params": {
                "etas": [float(e) for e in np.sort(rng.uniform(0.6, 0.99, size=4))],
                "states": 10,
                "H": 40,
            },
        },
        "experiment_seed": int(rng.integers(0, 2**31)),
        "refusals": {
            "bad_width": {"W": 0, "rho": 0.15},
            "infeasible_plan": {"eta": 0.9, "H": 50, "n": 1, "delta2": 0.5, "epsilon": 0.1},
            "decay_float_h": {"kind": "decay", "params": {"H": 20.5}},
            "plan_string_eta": {"eta": "0.9", "H": 50, "n": 10000, "delta2": 0.2, "epsilon": 0.1},
            "kernel_without_rows": {"states": 3},
            "float_replicates": {"kind": "decay", "replicates": 1.7, "params": {"H": 5}},
        },
    }
