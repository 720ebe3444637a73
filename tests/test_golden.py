"""The golden outputs, regenerated in process, against tests/golden/.

Cells that come from BLAS products are compared at their ``tolerance``,
every other cell byte for byte. ``scripts/update_golden.py`` rewrites the
fixtures when a change moves them on purpose.
"""

import pytest

from golden_outputs import BLAS_RTOL, DISTANCE_TOL, GOLDEN_DIR, movements, render, tolerance


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
