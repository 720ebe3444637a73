"""The golden outputs pinned under ``tests/golden/``, rendered in process.

They are the six golden experiment CSVs (``experiments.GOLDEN_*`` and the
default oracle config), a mismatch config of three replicates at H 2000,
horizon configs at 500 and 600 bits a trial, whose
exact miss sums run over hundreds of binomial terms, a 300-state decay config
at H 2000, an inspection config whose pmf rows are narrower than the count
range (``n_per_test`` above 400, where 20 sqrt(n) < n), and the stdout of
``cli.main`` on the commands in ``COMMANDS``: every example command of the
README's CLI section (``README_COMMANDS``, its input files under
``README_FILES``), ``calc contraction`` on
``kernels/zero_column.json``, ``default_rng(3).dirichlet(ones(12), 12)`` with
columns 2 and 7 set to 0 and each row renormalized, whose pushed references
have null entries, a heterogeneous plan with one checkpoint, a plan whose
budget Gamma is not positive (exit 2, its JSON reason), a greedy schedule
of three steps, a homogeneous plan with an ``inspection_fidelity`` and a
budget, a heterogeneous plan over the 1,000 rates
``numpy.random.default_rng(1000).uniform(0.6, 0.99, 1000)`` with an
``inspection_fidelity``, and the README's greedy schedule with ``--eta-g``. The README's ``experiment run`` is pinned by its sidecar,
without ``wall_time_s``. ``test_golden.py`` compares them with the fixtures;
``scripts/update_golden.py`` rewrites the fixtures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
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
    "mismatch_h2000": {
        "kind": "mismatch", "master_seed": 7, "replicates": 3,
        "params": {"p": 0.995, "H": 2000, "threshold": 0.99, "chains": 5000},
    },
    "inspection_n500": {
        "kind": "inspection", "master_seed": 20260810,
        "params": {"H": 12, "eta": 0.5, "schedules": [[6], [3, 6, 9], [2, 9]], "n_per_test": 500, "trials": 5000},
    },
}
KERNELS = ("readme", "zero_column")
GREEDY = ["--etas-file", str(GOLDEN_DIR / "plans" / "etas_three_steps.json"),
          "--n", "30", "--delta2", "0.3", "--epsilon", "0.1"]

# The input files that the README's example commands name, and each command
# (``chcalc`` dropped) with the fixture that pins it
SIDECAR = "experiment_readme.meta.json"
README_FILES = {
    "kernel.json": GOLDEN_DIR / "kernels" / "readme.json",
    "etas.json": GOLDEN_DIR / "plans" / "etas_readme.json",
    "plan.json": GOLDEN_DIR / "plans" / "readme.json",
    "cfg.json": GOLDEN_DIR / "experiments" / "readme.json",
}
README_COMMANDS = {
    "calc horizon --eta 0.9 --delta2 0.1 --n 1000000 --epsilon 0.1": "calc_horizon_readme.json",
    "calc width --W 256 --rho 0.15": "calc_width_readme.json",
    "calc contraction --kernel-file kernel.json": "contraction_readme.json",
    "calc objectives --p 0.99 --H 100 --threshold 0.8": "calc_objectives_readme.json",
    "calc gamma --n 1000 --delta2 0.3 --epsilon 0.1": "calc_gamma_readme.json",
    "schedule uniform --H 50 --m 1": "uniform_readme.json",
    "schedule greedy --etas-file etas.json --n 1000 --delta2 0.3 --epsilon 0.1": "greedy_readme.json",
    "schedule plan --config plan.json": "plan_readme.json",
    "experiment run --config cfg.json --out table.csv --seed 7": SIDECAR,
}


def readme_argv(command: str) -> list[str]:
    """A README example command as ``cli.main`` arguments, on its fixture inputs."""
    return [str(README_FILES.get(word, word)) for word in command.split()]


# fixture name: the arguments and exit code of each other command whose stdout it pins
COMMANDS = {
    "contraction_zero_column.json": (
        ["calc", "contraction", "--kernel-file", str(GOLDEN_DIR / "kernels" / "zero_column.json")], 0
    ),
    "plan_heterogeneous.json": (
        ["schedule", "plan", "--config", str(GOLDEN_DIR / "plans" / "heterogeneous.json")], 0
    ),
    "plan_infeasible.json": (
        ["schedule", "plan", "--config", str(GOLDEN_DIR / "plans" / "infeasible.json")], 2
    ),
    "greedy_three_steps.json": (["schedule", "greedy", *GREEDY], 0),
    "plan_fidelity.json": (
        ["schedule", "plan", "--config", str(GOLDEN_DIR / "plans" / "fidelity.json")], 0
    ),
    "plan_heterogeneous_1000.json": (
        ["schedule", "plan", "--config", str(GOLDEN_DIR / "plans" / "heterogeneous_1000.json")], 0
    ),
    "greedy_eta_g.json": (
        [*readme_argv("schedule greedy --etas-file etas.json --n 1000 --delta2 0.3 --epsilon 0.1"),
         "--eta-g", "0.9"], 0
    ),
}

# These values come from BLAS vector-matrix products, whose last bits depend
# on the host's BLAS kernel (README "Determinism"); they are compared at
# BLAS_RTOL relative, and every other cell byte for byte.
BLAS_RTOL = 1e-13
BLAS_COLUMNS = {
    "decay.csv": {"chi2_measured"},
    **{f"contraction_{name}.json": {"empirical_lower", "gap"} for name in KERNELS},
    # the log-linear fit of the README's decay curves
    SIDECAR: {"slope", "r2"},
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
    for command, name in README_COMMANDS.items():
        argv = readme_argv(command)
        outputs[name] = _sidecar(argv) if name == SIDECAR else _cli_stdout(argv, 0)
    for name, (argv, code) in COMMANDS.items():
        outputs[name] = _cli_stdout(argv, code)
    return outputs


def _sidecar(argv: list[str]) -> str:
    """The ``.meta.json`` sidecar that ``experiment run`` writes for its
    ``--out`` table, without the run's ``wall_time_s``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.csv"
        _cli_stdout([str(out) if word == "table.csv" else word for word in argv], 0)
        metadata = json.loads(out.with_name("table.meta.json").read_text(encoding="utf-8"))
    del metadata["wall_time_s"]
    return cli._dumps(metadata) + "\n"


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


_INTEGER = re.compile(r"-?[0-9]+")


def flips(name: str, old: str, new: str) -> list[tuple[str, str, str]]:
    """(column, old, new) of each changed cell that is an integer in both
    files, such as a schedule time or a floored horizon, in file order; empty
    when the files do not have the same rows and columns."""
    old_cells, new_cells = _cells(name, old), _cells(name, new)
    if [c for c, _ in old_cells] != [c for c, _ in new_cells]:
        return []
    changed = [
        (column, a.strip().rstrip(","), b.strip().rstrip(","))  # a JSON list element is a whole line
        for (column, a), (_, b) in zip(old_cells, new_cells) if a != b
    ]
    return [(column, a, b) for column, a, b in changed if _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b)]
