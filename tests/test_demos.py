"""Smoke tests that keep the demos in step with the library."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cost_accounting_totals_rise_in_the_stated_order(capsys):
    """The cost demo prints one row per lifter, trained first and then CR
    m = 0..3, and states that its totals rise in that order; they do."""
    load_demo("cost_accounting").main()
    out = capsys.readouterr().out
    assert "trained < CR m=0 < m=1 < m=2 < m=3" in out
    rows = [line.split() for line in out.splitlines()[1:] if line.strip()
            and not line.startswith("total")]
    assert [row[0] for row in rows] == [
        "nce-2-m1", "cr-m0", "cr-m1", "cr-m2", "cr-m3"]
    totals = [int(row[-1]) for row in rows]
    assert all(a < b for a, b in zip(totals, totals[1:])), totals
