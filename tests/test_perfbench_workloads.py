"""The benchmark's lifter wrapper still lets the hybrid lift its ghost slab.

perfbench/workloads.py wraps every hybrid lifter in a MeteredLifter, which
keeps the wrapped lifter as `inner`; lifters.lift_reach looks through it.
If a later edit of the wrapper dropped `inner`, the 2D benchmark hybrid
would silently fall back to the full-field lift and its speed would go with
it; this catches that here.
"""

import importlib
from pathlib import Path

import lblift.hybrid
from lblift import analytic_pde

from conftest import benchmark_params, gaussian_density
from test_hybrid import spied, trained_lifter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_metered_lifter_keeps_the_ghost_slab(monkeypatch):
    """A trained D2Q9 order-4 lifter (reach 2) under MeteredLifter is
    handed the 10-row slab at every step, and the meter still counts one
    lift per step plus the initial lift of the 25 LBM rows and their
    reach."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    p = benchmark_params("D2Q9", advection=(1.0, 0.5))
    shapes = []
    metered = workloads.MeteredLifter(spied(trained_lifter(p, 4, 1), shapes))
    spec = lblift.hybrid.HybridSpec(
        total_cells=40, split_index=20, params=p, pde=analytic_pde(p),
        lifter=metered, initial_density=gaussian_density(p, 40))
    state = lblift.hybrid.init_hybrid(spec)
    for _ in range(3):
        state = lblift.hybrid.hybrid_step(state, spec)
    assert shapes == [(25, 40)] + 3 * [(10, 40)]
    assert metered.calls == 4
