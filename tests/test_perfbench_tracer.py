"""The benchmark's tracer still finds every attribute it wraps.

perfbench/tracer.py patches module attributes of lblift from outside the
package; a refactor that drops one of them, or changes what a wrapped call
returns, would break only traced benchmark runs.  Entering and leaving the
tracer once, and folding the spans of a short traced hybrid run, catch
that here.
"""

import importlib
from pathlib import Path
from time import perf_counter

import lblift.hybrid
import lblift.training
from lblift import CrConfig, CrLifter, NceTrainConfig, lbm_step_count

from conftest import benchmark_params, gaussian_density

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_and_restores(monkeypatch):
    tracer = load_tracer(monkeypatch)
    targets = [(owner, attr) for owner, attr, *_ in tracer._FUNCTION_TARGETS]
    targets += [(owner, attr) for owner, attr, _ in tracer._METHOD_TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with tracer.Tracer():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))


def test_layer_metrics_of_a_traced_cr_hybrid(monkeypatch):
    """Three D1Q3 hybrid steps with the constrained-runs lifter run every
    fact hook on the CR path, including the ones that read call results."""
    tracer = load_tracer(monkeypatch)
    p = benchmark_params("D1Q3")
    spec = lblift.hybrid.HybridSpec(
        total_cells=200, split_index=100, params=p,
        pde=lblift.analytic_pde(p), lifter=CrLifter(CrConfig(m=1)),
        initial_density=gaussian_density(p))
    steps_before = lbm_step_count()
    start = perf_counter()
    with tracer.Tracer() as traced:
        state = lblift.hybrid.init_hybrid(spec)
        for _ in range(3):
            state = lblift.hybrid.hybrid_step(state, spec)
    wall_s = perf_counter() - start
    lbm_steps = lbm_step_count() - steps_before
    metrics = tracer.layer_metrics(traced.spans, wall_s)

    assert metrics["hybrid.hybrid_step.calls"] == 3
    assert metrics["macro_pde.ftcs_step.calls"] == 3
    assert metrics["lifters.lift.calls"] == 4
    assert metrics["constrained_runs.cr_lift.calls"] == 4
    assert metrics["lifting.apply_lift.calls"] == 0
    # every LBM step goes through a traced stream_collide: three on the
    # rimmed LBM subdomain (99 cells plus 2 ghosts), two in the kernel
    # probe on its 3 windows of 5 cells, the rest inside CR lifts of the
    # whole 200-cell grid
    stream_calls = metrics["lattice.stream_collide.calls"]
    assert stream_calls == lbm_steps
    cr_calls = stream_calls - 3
    cells = 3 * 101 + 2 * 15 + (cr_calls - 2) * 200
    assert metrics["lattice.stream_collide.cells_per_call"] \
        == cells / stream_calls
    # input plus output of a (3, cells) float64 field per call
    assert metrics["lattice.stream_collide.bytes_computed"] \
        == 2 * 3 * 8 * cells
    # each CrLifter.lift is one cr_lift span, the first one's 2-step kernel
    # probe included: (4 + 2 + 2 + 2) / 4 at m = 1
    assert metrics["constrained_runs.cr_lift.lbm_steps_per_lift"] \
        == cr_calls / 4 == 2.5
    assert 0 < metrics["hybrid.hybrid_step.self_pct"] < 100


def test_layer_metrics_of_a_traced_training(monkeypatch):
    """A D1Q3 order-2, m = 1 training runs the tracer's training hook,
    which reads TrainResult.iterations: one call, one linear solve and
    2(m + 1) = 4 LBM steps."""
    tracer = load_tracer(monkeypatch)
    cfg = NceTrainConfig(spatial_order=2, m=1)
    p = benchmark_params("D1Q3")
    start = perf_counter()
    with tracer.Tracer() as traced:
        lblift.training.train_coefficients(cfg, p)
    metrics = tracer.layer_metrics(traced.spans, perf_counter() - start)

    assert metrics["training.train_coefficients.calls"] == 1
    assert metrics["training.train_coefficients.iterations"] == 1
    assert metrics["training.train_coefficients.lbm_steps"] == 4
