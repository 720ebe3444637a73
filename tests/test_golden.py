"""The golden outputs, regenerated in process, against tests/golden/.

Cells that come from BLAS products are compared at ``BLAS_RTOL`` relative,
every other cell byte for byte. ``scripts/update_golden.py`` rewrites the
fixtures when a change moves them on purpose.
"""

import pytest

from chcalc import experiments
from golden_outputs import BLAS_COLUMNS, BLAS_RTOL, GOLDEN_DIR, movements, render


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_outputs(monkeypatch, threads):
    monkeypatch.setenv("CH_THREADS", str(threads))
    if threads > 1:
        # every config's units go to the pool, however cheap
        monkeypatch.setattr(experiments, "_POOL_MIN_UNIT_S", 0.0)
    outputs = render()
    assert sorted(outputs) == sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_file())
    for name, text in outputs.items():
        moved = movements(name, (GOLDEN_DIR / name).read_text(encoding="utf-8"), text)
        assert moved is not None, f"{name}: rows or columns differ"
        unexpected = {
            column: rel for column, rel in moved.items()
            if column not in BLAS_COLUMNS.get(name, ()) or rel > BLAS_RTOL
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
