"""The golden outputs pinned under ``tests/golden/``, rendered in process.

They are the six golden experiment CSVs (``experiments.GOLDEN_*`` and the
default oracle config), horizon configs at 500 and 600 bits a trial, whose
exact miss sums run over hundreds of binomial terms, a 300-state decay config
at H 2000, an inspection config whose pmf rows are narrower than the count
range (``n_per_test`` above 400, where 20 sqrt(n) < n), ``calc contraction``
on two kernels:
``kernels/readme.json``, the kernel of the README's example, and
``kernels/zero_column.json``, ``default_rng(3).dirichlet(ones(12), 12)`` with
columns 2 and 7 set to 0 and each row renormalized, whose pushed references
have null entries, and the stdout of ``cli.main`` on the schedulers (``PLANS``
and ``GREEDY``): the README's plan config, a heterogeneous plan with one
checkpoint, a plan whose budget Gamma is not positive (exit 2, its JSON
reason), and a greedy schedule of three steps. ``test_golden.py`` compares
them with the fixtures; ``scripts/update_golden.py`` rewrites the fixtures.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

from chcalc import cli, experiments
from chcalc.schema import ExperimentConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIGS = {
    "decay": experiments.GOLDEN_DECAY,
    "width": experiments.GOLDEN_WIDTH,
    "inspection": experiments.GOLDEN_INSPECTION,
    "horizon": experiments.GOLDEN_HORIZON,
    "mismatch": experiments.GOLDEN_MISMATCH,
    "oracle": {"kind": "oracle"},
    # hundreds of terms in each exact miss sum; at d = 0, q0 = 1 misses nothing
    "horizon_obs500": {
        "kind": "horizon", "master_seed": 20260810, "replicates": 2,
        "params": {"H": 12, "etas": [0.3, 0.9], "obs_per_trial": 500, "trials": 2000},
    },
    "horizon_wide": {
        "kind": "horizon", "master_seed": 7, "replicates": 2,
        "params": {"H": 12, "etas": [0.3, 0.9], "obs_per_trial": 600, "trials": 5000},
    },
    "decay_pool": {"kind": "decay", "params": {"states": 300, "H": 2000}},
    "inspection_n500": {
        "kind": "inspection", "master_seed": 20260810,
        "params": {"H": 12, "eta": 0.5, "schedules": [[6], [3, 6, 9], [2, 9]], "n_per_test": 500, "trials": 5000},
    },
}
KERNELS = ("readme", "zero_column")
# plans/<name>.json and the exit code of ``schedule plan`` on it
PLANS = {"readme": 0, "heterogeneous": 0, "infeasible": 2}
GREEDY = ["--etas-file", str(GOLDEN_DIR / "plans" / "etas_three_steps.json"),
          "--n", "30", "--delta2", "0.3", "--epsilon", "0.1"]

# These values come from BLAS vector-matrix products, whose last bits depend
# on the host's BLAS kernel (README "Determinism"); they are compared at
# BLAS_RTOL relative, and every other cell byte for byte.
BLAS_RTOL = 1e-13
BLAS_COLUMNS = {
    "decay.csv": {"chi2_measured"},
    **{f"contraction_{name}.json": {"empirical_lower", "gap"} for name in KERNELS},
}
# decay_pool's curves fall over 2000 steps to chi2 near 1e-31, where p - q
# cancels, and each kernel's rounding moves them there by far more than
# BLAS_RTOL relative. Its chi2 cells are compared as distances instead,
# |sqrt(a) - sqrt(b)| / max(1, sqrt(a)) at most DISTANCE_TOL; five OpenBLAS
# kernels (Prescott to SkylakeX) moved them at most 1.6e-13.
DISTANCE_TOL = 1e-12
DISTANCE_COLUMNS = {"decay_pool.csv": {"chi2_measured"}}


def render() -> dict[str, str]:
    """Every golden output by its fixture name, as the CLI would write it."""
    outputs = {
        f"{kind}.csv": experiments.run_experiment(ExperimentConfig.from_json_dict(data)).to_csv_string()
        for kind, data in CONFIGS.items()
    }
    for name in KERNELS:
        args = cli.build_parser().parse_args(
            ["calc", "contraction", "--kernel-file", str(GOLDEN_DIR / "kernels" / f"{name}.json")]
        )
        outputs[f"contraction_{name}.json"] = args.func(args) + "\n"
    for name, code in PLANS.items():
        plan = str(GOLDEN_DIR / "plans" / f"{name}.json")
        outputs[f"plan_{name}.json"] = _cli_stdout(["schedule", "plan", "--config", plan], code)
    outputs["greedy_three_steps.json"] = _cli_stdout(["schedule", "greedy", *GREEDY], 0)
    return outputs


def _cli_stdout(argv: list[str], code: int) -> str:
    """What ``cli.main(argv)`` prints, which must exit with ``code``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv)
    if got != code:
        raise AssertionError(f"chcalc {' '.join(argv)} exited {got}, expected {code}")
    return out.getvalue()


def _cells(name: str, text: str) -> list[tuple[str, str]]:
    """(column, text) of each cell: CSV cells under their header, JSON lines
    under their key; a line of any other shape is one cell under ""."""
    cells = []
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        columns = header.split(",")
        cells.append(("", header))
        for row in rows:
            values = row.split(",")
            cells.extend(zip(columns, values) if len(values) == len(columns) else [("", row)])
        return cells
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        cells.append((key.strip('"'), value.rstrip(",")) if sep else ("", line))
    return cells


def _relative(old: str, new: str) -> float:
    """Relative movement between two numeric cells; inf if either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    return abs(a - b) / abs(a) if a else math.inf


def _distance(old: str, new: str) -> float:
    """Movement between two chi2 cells as distances sqrt(chi2), relative above
    1 and absolute below; inf if either is not a nonnegative number."""
    try:
        a, b = math.sqrt(float(old)), math.sqrt(float(new))
    except ValueError:
        return math.inf
    return abs(a - b) / max(1.0, a)


def tolerance(name: str, column: str) -> float | None:
    """How far a column of a fixture may move on another BLAS kernel, as
    ``movements`` measures it; None for a column that keeps its bytes."""
    if column in DISTANCE_COLUMNS.get(name, ()):
        return DISTANCE_TOL
    return BLAS_RTOL if column in BLAS_COLUMNS.get(name, ()) else None


def movements(name: str, old: str, new: str) -> dict[str, float] | None:
    """Each column whose cells differ, with its largest relative movement
    (``_distance`` for ``DISTANCE_COLUMNS``); None when the files do not have
    the same rows and columns."""
    old_cells, new_cells = _cells(name, old), _cells(name, new)
    if [c for c, _ in old_cells] != [c for c, _ in new_cells]:
        return None
    distances = DISTANCE_COLUMNS.get(name, ())
    moved: dict[str, float] = {}
    for (column, a), (_, b) in zip(old_cells, new_cells):
        if a != b:
            measure = _distance if column in distances else _relative
            moved[column] = max(moved.get(column, 0.0), measure(a, b))
    return moved
