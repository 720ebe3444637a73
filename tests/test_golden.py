"""The golden outputs, regenerated in process, against tests/golden/.

Cells that come from BLAS products are compared at their ``tolerance``,
every other cell byte for byte. ``scripts/update_golden.py`` rewrites the
fixtures when a change moves them on purpose.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from golden_outputs import (
    BLAS_RTOL, DISTANCE_TOL, GOLDEN_DIR, README_COMMANDS, flips, movements, render, tolerance,
)

README = Path(__file__).parents[1] / "README.md"


def test_golden_outputs():
    outputs = render()
    assert sorted(outputs) == sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_file())
    for name, text in outputs.items():
        moved = movements(name, (GOLDEN_DIR / name).read_text(encoding="utf-8"), text)
        assert moved is not None, f"{name}: rows or columns differ"
        unexpected = {
            column: rel for column, rel in moved.items()
            if (tol := tolerance(name, column)) is None or not rel <= tol
        }
        assert not unexpected, f"{name} moved: {unexpected}"


def test_movements_name_each_moved_column():
    old = "a,b,c\n1,0.5,x\n2,0.25,y\n"
    new = "a,b,c\n1,0.5000000000001,x\n2,0.25,z\n"
    moved = movements("t.csv", old, new)
    assert set(moved) == {"b", "c"}
    assert moved["b"] == pytest.approx(2e-13, rel=1e-3)
    assert moved["c"] == float("inf")
    assert movements("t.csv", old, old) == {}
    assert movements("t.csv", old, old + "3,1,z\n") is None
    json_old, json_new = '{\n  "gap": 0.1,\n  "seed": 2\n}\n', '{\n  "gap": 0.1,\n  "seed": 3\n}\n'
    assert movements("t.json", json_old, json_new) == {"seed": 0.5}
    # decay_pool's chi2 cells move as distances sqrt(chi2)
    pool_old, pool_new = "chi2_measured\n400\n1e-30\n", "chi2_measured\n400.00000004\n4e-30\n"
    moved = movements("decay_pool.csv", pool_old, pool_new)
    assert moved["chi2_measured"] == pytest.approx(5e-11, rel=1e-3)
    assert movements("decay_pool.csv", "chi2_measured\n1e-30\n", "chi2_measured\n4e-30\n") == {
        "chi2_measured": pytest.approx(1e-15)
    }
    assert tolerance("decay_pool.csv", "chi2_measured") == DISTANCE_TOL
    assert tolerance("decay.csv", "chi2_measured") == BLAS_RTOL
    assert tolerance("decay.csv", "step") is None


def test_flips_name_each_changed_integer_cell():
    old = "step,m,bound\n0,3,1.5\n1,4,2.5\n"
    new = "step,m,bound\n0,4,1.5000001\n1,4,2\n"
    assert flips("t.csv", old, new) == [("m", "3", "4")]
    assert flips("t.csv", old, old) == []
    assert flips("t.csv", old, old + "2,5,1\n") == []
    # a schedule time is a JSON list element, a cell under no key
    json_old = '{\n  "max_gap": 25,\n  "times": [\n    24,\n    49\n  ]\n}\n'
    json_new = '{\n  "max_gap": 26,\n  "times": [\n    25,\n    49\n  ]\n}\n'
    assert flips("t.json", json_old, json_new) == [("max_gap", "25", "26"), ("", "24", "25")]


def test_every_readme_command_has_a_fixture():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    commands = [
        line.removeprefix("chcalc ") for block in blocks for line in block.splitlines()
        if line.startswith("chcalc ")
    ]
    assert len(commands) == len(README_COMMANDS)
    missing = [command for command in commands if command not in README_COMMANDS]
    assert not missing, f"README commands without a fixture in golden_outputs.README_COMMANDS: {missing}"


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)], ids=["help", "unknown"])
def test_update_script_refuses_arguments_without_writing(argv, code):
    """``--help`` prints usage and an unknown argument is refused; neither
    renders an output or writes a fixture."""
    before = {p: p.read_bytes() for p in GOLDEN_DIR.rglob("*") if p.is_file()}
    script = Path(__file__).parents[1] / "scripts" / "update_golden.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == code
    assert (run.stdout if code == 0 else run.stderr).startswith("usage: update_golden.py")
    assert "unchanged" not in run.stdout
    assert {p: p.read_bytes() for p in GOLDEN_DIR.rglob("*") if p.is_file()} == before
