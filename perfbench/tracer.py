"""Spans around lblift's public functions, recorded from outside the package.

The tracer replaces a public function at each module attribute through which
the library calls it (for example ``lblift.hybrid.stream_collide``) with a
wrapper that records one span: name, start, end and the index of the
enclosing span.  Nothing inside ``src/lblift`` is edited.  Spans stay in
memory until ``layer_metrics`` folds them into per-layer figures; a span's
self time is its duration minus the durations of its direct children, which
never overlap because the library is single-threaded.

A few wrappers also keep a small tuple of facts read from the arguments or
the result (array sizes, iteration counts), so that ratios are measured where
the work happens.  Byte counts are computed from array sizes: they are the
bytes a call must read and write at least, not measured memory traffic.
"""

from __future__ import annotations

import functools
import re
import statistics
from time import perf_counter

import lblift.bench
import lblift.constrained_runs
import lblift.hybrid
import lblift.lattice
import lblift.lifters
import lblift.lifting
import lblift.training

STREAM = "lattice.stream_collide"
DERIV = "stencil.spatial_derivative"
APPLY_LIFT = "lifting.apply_lift"
CR_LIFT = "constrained_runs.cr_lift"
CR_MAP = "constrained_runs.cr_map"
SMOOTH = "constrained_runs.constrained_smooth"
TRAIN = "training.train_coefficients"
AUGMENT = "training.augment_time_derivative"
FTCS = "macro_pde.ftcs_step"
LIFT = "lifters.lift"
HYBRID_STEP = "hybrid.hybrid_step"
INIT_HYBRID = "hybrid.init_hybrid"

_NOT_CONVERGED = re.compile(r"did not converge in (\d+) Newton iterations")


def _stream_facts(args, result, exc):
    f = args[0]
    return (f.size // f.shape[0], f.nbytes + result.nbytes)


def _lift_facts(args, result, exc):
    return (args[0].size,)


def _cr_lift_facts(args, result, exc):
    # Each Newton iteration evaluates the residual once; a converged m >= 1
    # solve evaluates it once more to confirm.  Picard (m = 0) has one map
    # evaluation per iteration and nothing else.
    extra = 1 if result.converged and args[1].m >= 1 else 0
    return (result.iterations, result.lbm_steps, result.iterations + extra)


def _train_facts(args, result, exc):
    cfg, params = args[0], args[1]
    densities = len(lblift.training.test_density_profiles(
        cfg, params.vset.dimension))
    if exc is None:
        return (result.iterations, densities)
    match = _NOT_CONVERGED.search(str(exc))
    return (int(match.group(1)) if match else 0, densities)


def _hybrid_facts(spec_position):
    def facts(args, result, exc):
        spec = args[spec_position]
        return (spec.total_cells, spec.split_index)
    return facts


# (module, attribute, span name, facts hook, meter LBM steps)
_FUNCTION_TARGETS = (
    (lblift.hybrid, "stream_collide", STREAM, _stream_facts, False),
    (lblift.constrained_runs, "stream_collide", STREAM, _stream_facts, False),
    (lblift.training, "stream_collide", STREAM, _stream_facts, False),
    (lblift.lifting, "spatial_derivative", DERIV, None, False),
    (lblift.training, "spatial_derivative", DERIV, None, False),
    (lblift.lifters, "apply_lift", APPLY_LIFT, _lift_facts, False),
    (lblift.training, "apply_lift", APPLY_LIFT, _lift_facts, False),
    (lblift.lifters, "cr_lift", CR_LIFT, _cr_lift_facts, False),
    (lblift.constrained_runs, "cr_map", CR_MAP, None, False),
    (lblift.constrained_runs, "constrained_smooth", SMOOTH, None, False),
    (lblift.training, "constrained_smooth", SMOOTH, None, False),
    (lblift.bench, "train_coefficients", TRAIN, _train_facts, True),
    (lblift.training, "train_coefficients", TRAIN, _train_facts, True),
    (lblift.bench, "augment_time_derivative", AUGMENT, None, False),
    (lblift.training, "augment_time_derivative", AUGMENT, None, False),
    (lblift.hybrid, "ftcs_step", FTCS, None, False),
    (lblift.hybrid, "hybrid_step", HYBRID_STEP, _hybrid_facts(1), False),
    (lblift.hybrid, "init_hybrid", INIT_HYBRID, _hybrid_facts(0), False),
)

_METHOD_TARGETS = (
    (lblift.lifters.EquilibriumLifter, "lift", LIFT),
    (lblift.lifters.CoefficientLifter, "lift", LIFT),
    (lblift.lifters.CrLifter, "lift", LIFT),
)


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans land in ``spans``.

    Each span is a list [name, start, end, parent, facts, lbm_steps] with
    parent -1 for a root span.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, facts, meter in _FUNCTION_TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name,
                                                facts, meter))
        for owner, attr, name in _METHOD_TARGETS:
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name,
                                                None, False))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, facts, meter):
        spans = self.spans
        stack = self._stack
        step_count = lblift.lattice.lbm_step_count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(span)
            steps = step_count() if meter else 0
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if meter:
                    span[5] = step_count() - steps
                if facts is not None:
                    span[4] = facts(args, result, exc)

        return traced


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer figures of one traced repetition, keyed by metric name.

    Times are shares of ``wall_s``, the repetition's own time to solution, in
    percent; a layer the workload never calls reads 0.
    """
    self_s = {}
    total_s = {}
    calls = {}
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    for index, span in enumerate(spans):
        name = span[0]
        duration = span[2] - span[1]
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_s[index]

    def pct(seconds):
        return 100.0 * seconds / wall_s

    def self_pct(name):
        return pct(self_s.get(name, 0.0))

    def of(name):
        return [span for span in spans if span[0] == name]

    out = {}
    stream = of(STREAM)
    n_stream = len(stream)
    out[STREAM + ".calls"] = n_stream
    out[STREAM + ".self_pct"] = self_pct(STREAM)
    out[STREAM + ".us_per_call"] = (
        1e6 * self_s[STREAM] / n_stream if n_stream else 0.0)
    out[STREAM + ".cells_per_call"] = (
        sum(s[4][0] for s in stream) / n_stream if n_stream else 0.0)
    out[STREAM + ".bytes_computed"] = sum(s[4][1] for s in stream)

    out[DERIV + ".calls"] = calls.get(DERIV, 0)
    out[DERIV + ".self_pct"] = self_pct(DERIV)

    lifted = 0
    hybrid_lifted = hybrid_kept = 0
    for span in of(APPLY_LIFT):
        cells = span[4][0]
        lifted += cells
        kept = _hybrid_kept_fraction(spans, span)
        if kept is not None:
            hybrid_lifted += cells
            hybrid_kept += cells * kept
    out[APPLY_LIFT + ".calls"] = calls.get(APPLY_LIFT, 0)
    out[APPLY_LIFT + ".self_pct"] = self_pct(APPLY_LIFT)
    out[APPLY_LIFT + ".cells_lifted"] = lifted
    out[APPLY_LIFT + ".cells_kept_ratio"] = (
        hybrid_kept / hybrid_lifted if hybrid_lifted else 0.0)

    cr = of(CR_LIFT)
    n_cr = len(cr)
    out[CR_LIFT + ".calls"] = n_cr
    out[CR_LIFT + ".self_pct"] = self_pct(CR_LIFT)
    out[CR_LIFT + ".iterations_per_lift"] = (
        sum(s[4][0] for s in cr) / n_cr if n_cr else 0.0)
    out[CR_LIFT + ".lbm_steps_per_lift"] = (
        sum(s[4][1] for s in cr) / n_cr if n_cr else 0.0)
    n_map = calls.get(CR_MAP, 0)
    out[CR_MAP + ".calls"] = n_map
    out[CR_MAP + ".self_pct"] = self_pct(CR_MAP)
    out["constrained_runs.residual_map_ratio"] = (
        sum(s[4][2] for s in cr) / n_map if n_map else 0.0)
    out[SMOOTH + ".calls"] = calls.get(SMOOTH, 0)
    out[SMOOTH + ".self_pct"] = self_pct(SMOOTH)

    train_index = [i for i, s in enumerate(spans) if s[0] == TRAIN]
    smooth_runs = dict.fromkeys(train_index, 0)
    for span in spans:
        if span[0] == SMOOTH and span[3] in smooth_runs:
            smooth_runs[span[3]] += 1
    out[TRAIN + ".calls"] = len(train_index)
    out[TRAIN + ".self_pct"] = self_pct(TRAIN)
    out[TRAIN + ".iterations"] = sum(spans[i][4][0] for i in train_index)
    out[TRAIN + ".lbm_steps"] = sum(spans[i][5] for i in train_index)
    # one smoothing run per test density per evaluation of the training map
    out[TRAIN + ".map_evals"] = sum(smooth_runs[i] // spans[i][4][1]
                                    for i in train_index)
    out[AUGMENT + ".self_pct"] = self_pct(AUGMENT)

    out[FTCS + ".calls"] = calls.get(FTCS, 0)
    out[FTCS + ".self_pct"] = self_pct(FTCS)
    out[LIFT + ".calls"] = calls.get(LIFT, 0)
    out[LIFT + ".total_pct"] = pct(total_s.get(LIFT, 0.0))
    out[HYBRID_STEP + ".calls"] = calls.get(HYBRID_STEP, 0)
    out[HYBRID_STEP + ".self_pct"] = self_pct(HYBRID_STEP)
    out[INIT_HYBRID + ".total_pct"] = pct(total_s.get(INIT_HYBRID, 0.0))
    return out


def _hybrid_kept_fraction(spans, span):
    """Share of a lifted field the hybrid keeps, or None outside the hybrid.

    hybrid_step keeps the two ghost columns along the split axis;
    init_hybrid keeps the LBM subdomain, columns split+1 .. n-1.
    """
    parent = span[3]
    while parent >= 0:
        name, facts = spans[parent][0], spans[parent][4]
        if name == HYBRID_STEP:
            return 2.0 / facts[0]
        if name == INIT_HYBRID:
            cells, split = facts
            return (cells - split - 1) / cells
        parent = spans[parent][3]
    return None


def median_metrics(per_rep: list) -> dict:
    """Median of each metric over the traced repetitions.

    The low median is an observed value, so counts stay whole numbers.
    """
    return {key: statistics.median_low(rep[key] for rep in per_rep)
            for key in per_rep[0]}
