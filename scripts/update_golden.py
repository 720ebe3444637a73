"""Rewrite the golden fixtures in tests/golden/ from the current code.

For each fixture it prints the columns that moved and their largest relative
movement, and each changed cell that is an integer on both sides (a schedule
time, an inspection count, a floored horizon) as ``column old -> new``: what
a change log entry for moved outputs needs. Run from
the repository root:

    PYTHONPATH=src python scripts/update_golden.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from golden_outputs import GOLDEN_DIR, flips, movements, render  # noqa: E402


def main(argv: list[str] | None = None) -> None:
    """Rewrite every fixture that differs; it takes no arguments but ``--help``."""
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args(argv)
    for name, text in render().items():
        path = GOLDEN_DIR / name
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if old == text:
            print(f"{name}: unchanged")
            continue
        path.write_text(text, encoding="utf-8", newline="\n")
        moved = None if old is None else movements(name, old, text)
        if moved is None:
            print(f"{name}: written (new file, or its rows or columns changed)")
            continue
        for column, rel in sorted(moved.items()):
            print(f"{name}: {column or '(layout line)'} moved, largest relative movement {rel:.2g}")
        for column, a, b in flips(name, old, text):
            print(f"{name}: {column or '(layout line)'} {a} -> {b}")


if __name__ == "__main__":
    main()
