"""The three benchmark workloads: inputs, one timed repetition, output checks.

Every workload is a closed loop in one process: one operation starts when
the previous one has returned.  A repetition runs the whole job once (set-up
and every hybrid step, or the whole training sweep); ``run.py``
repeats it for the time it is given.  Only public lblift functions are
called, always through their module attribute, so that the tracer's wrappers
see them.  ``lblift.bench`` is used for config parsing and model set-up
only; its CSV writing, like the ``cli`` module, is outside the timed path.
Every timed phase goes through a ``speed.Clock``, which rescales it to the
host's reference speed; the repetition's wall time is kept beside it.

The first repetition carries the output checks.  Each check compares against
a reference computed in the same run (a full-domain LBM run, closed-form
coefficients, the analytic PDE), never against recorded output.  Later
repetitions must reproduce the first one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

import lblift.bench as bench
import lblift.hybrid as hybrid
import lblift.lattice as lattice
import lblift.lifting as lifting
import lblift.macro_pde as macro_pde
import lblift.training as training

import speed

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"

# Tolerances at about twice the worst figure over the corners of the seed
# range (centre 4 to 6, width 0.8 to 1.25): peak errors 5.5e-5 (2D) and
# 7.8e-6 (CR), mass drift 4.2e-6.  The split hybrid is not exactly
# conservative: the PDE and LBM halves exchange ghost values, not fluxes.
HYBRID_ERROR_TOL = {"hybrid2d_nce": 1e-4, "hybrid1d_cr": 2e-5}
MASS_DRIFT_TOL = 1e-5
R2_COEFF_TOL = 1e-12          # trained R=2 vs closed form (criterion 4a)
PDE_TOL = 1e-6                # extracted D and advection vs analytic

HYBRID_CONFIGS = {
    "hybrid2d_nce": "hybrid_d2q9_adv.cfg",
    "hybrid1d_cr": "cost_cr_cubic.cfg",
}

# The speed kernels (see speed.py) that rescale each hybrid's set-up and
# steps: of the three, the one whose slowdown tracked the phase's own.
PHASE_KERNELS = {
    "hybrid2d_nce": ("stencil", "field"),   # 2D training; 200x200 steps
    "hybrid1d_cr": ("calls", "calls"),      # call-bound 1D CR lifts
}

# (label, velocity set, order R, smoothness m, advection or None)
SWEEP_MODELS = (
    ("D1Q3_R2_m1", "D1Q3", 2, 1, None),
    ("D1Q3_R6_m1", "D1Q3", 6, 1, None),
    ("D1Q3_R6_m2", "D1Q3", 6, 2, None),
    ("D1Q3_R6_m3", "D1Q3", 6, 3, None),
    ("D1Q3_adv_R6_m3", "D1Q3", 6, 3, "0.5"),
    ("D2Q5_R4_m1", "D2Q5", 4, 1, None),
)

# Documented defects: the model label and the start of the error they raise.
# Such a failure counts in fail_ratio but does not fail the run; if the model
# starts to converge, its outputs are checked like every other model's.
KNOWN_DEFECTS = {
    "D1Q3_adv_R6_m3": "coefficient training did not converge in 25 Newton "
                      "iterations",
}

@dataclass
class Rep:
    """What one repetition measured and produced.

    ``setup_s``, ``run_s`` and ``step_s`` are at reference speed (see
    ``speed.py``); ``wall_s`` is the wall time that ``run_s`` covers.
    """

    setup_s: float
    run_s: float
    step_s: List[float]
    wall_s: float
    lbm_steps_setup: int
    lbm_steps_lifting: int
    attempted: int
    failures: List[str] = field(default_factory=list)
    known_failures: List[str] = field(default_factory=list)
    output: object = None          # compared bit for bit across repetitions
    checks: List[tuple] = field(default_factory=list)   # (name, ok, detail)
    hybrid_max_error: float = 0.0
    pde_max_error: float = 0.0


class MeteredLifter:
    """Counts the lifter applications and the LBM steps spent inside them.

    The same metering as ``lblift.bench.cost_summary``, whose wrapper is
    private; ``lbm_steps_lifting`` must agree with its ``cost.csv``.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.steps = 0

    def lift(self, rho, params):
        before = lattice.lbm_step_count()
        out = self.inner.lift(rho, params)
        self.steps += lattice.lbm_step_count() - before
        self.calls += 1
        return out


def make_inputs(workload: str, seed: int):
    """Everything a repetition needs, derived from the seed alone."""
    if workload == "train_sweep":
        # the sweep trains on fixed polynomial test densities: no seed input;
        # each model's time is rescaled by the speed kernel of its dimension
        return [(label, _sweep_config(vset, order, m, advection),
                 "stencil" if lattice.VELOCITY_SETS[vset].dimension == 2
                 else "calls")
                for label, vset, order, m, advection in SWEEP_MODELS]
    text = (CONFIG_DIR / HYBRID_CONFIGS[workload]).read_text()
    return text, seeded_density(bench.parse_config(text), seed)


def seeded_density(config, seed: int) -> np.ndarray:
    """The demo configs' unit Gaussian; seed 0 is exactly the demo's own.

    Other seeds move the centre by up to one unit either way and scale the
    width by 0.8 to 1.25, so the peak stays near the split interface.
    """
    x = np.arange(config.cells) * (config.length / config.cells)
    centre, width = config.length / 2.0, 1.0
    if seed:
        rng = np.random.default_rng(seed)
        centre += rng.uniform(-1.0, 1.0)
        width = rng.uniform(0.8, 1.25)
    bump = np.exp(-(((x - centre) / width) ** 2))
    if lattice.VELOCITY_SETS[config.velocity_set].dimension == 1:
        return bump
    return np.outer(bump, bump)


def _sweep_config(vset, order, m, advection):
    lines = ["kind = train_only", f"velocity_set = {vset}", "lifter = nce",
             f"order = {order}", f"m = {m}"]
    if advection is not None:
        lines.append(f"advection = {advection}")
    return "\n".join(lines) + "\n"


def run_rep(workload: str, inputs, check: bool) -> Rep:
    if workload == "train_sweep":
        return _sweep_rep(inputs, check)
    return _hybrid_rep(workload, inputs, check)


# ---------------------------------------------------------------------------
# Hybrid workloads.
# ---------------------------------------------------------------------------

def _hybrid_rep(workload: str, inputs, check: bool) -> Rep:
    text, rho0 = inputs
    setup_kernel, step_kernel = PHASE_KERNELS[workload]
    with speed.Clock() as clock:
        clock.start(setup_kernel)
        config = bench.parse_config(text)
        params = bench.experiment_params(config)
        steps_before = lattice.lbm_step_count()
        lifter, _ = bench.make_lifter(config, params)
        pde = bench.hybrid_pde(config, params)
        setup_steps = lattice.lbm_step_count() - steps_before
        metered = MeteredLifter(lifter)
        split = config.split_index
        if split is None:
            split = hybrid.default_split(config.cells)
        spec = hybrid.HybridSpec(total_cells=config.cells, split_index=split,
                                 params=params, pde=pde, lifter=metered,
                                 initial_density=rho0)
        state = hybrid.init_hybrid(spec)
        setup_s = clock.stop()

        if check:
            # full-domain LBM from the same lifted start, advanced in lockstep
            # outside the step timer
            f_ref = lifter.lift(rho0, params)
            peak = 0.0
        step_s = []
        for _ in range(config.steps):
            clock.start(step_kernel)
            state = hybrid.hybrid_step(state, spec)
            step_s.append(clock.stop())
            if check:
                f_ref = lattice.stream_collide(f_ref, params)
                gap = (hybrid.full_density(state, spec)
                       - lattice.restrict(f_ref))
                peak = max(peak, float(np.abs(gap).max()))

    final = hybrid.full_density(state, spec)
    trainings = 1 if config.lifter == "nce" else 0
    rep = Rep(setup_s=setup_s, run_s=setup_s + sum(step_s), step_s=step_s,
              wall_s=clock.wall_s,
              lbm_steps_setup=setup_steps, lbm_steps_lifting=metered.steps,
              attempted=trainings + metered.calls + config.steps,
              output=final)
    if not np.all(np.isfinite(final)):
        rep.failures.append("non-finite density after the last hybrid step")
    if check:
        rep.hybrid_max_error = peak
        tol = HYBRID_ERROR_TOL[workload]
        rep.checks.append((
            "hybrid error vs full LBM", peak <= tol,
            f"peak |rho_hybrid - rho_lbm| {peak:.4e} over {config.steps} "
            f"steps (bound {tol:g})"))
        drift = abs(float(final.sum() - rho0.sum())) / float(rho0.sum())
        rep.checks.append((
            "mass conserved", drift <= MASS_DRIFT_TOL,
            f"relative mass drift {drift:.3e} (bound {MASS_DRIFT_TOL:g})"))
    return rep


# ---------------------------------------------------------------------------
# Offline training sweep.
# ---------------------------------------------------------------------------

def _sweep_rep(models, check: bool) -> Rep:
    steps_before = lattice.lbm_step_count()
    step_s = []
    results: Dict[str, tuple] = {}
    failures, known = [], []
    with speed.Clock() as clock:
        for label, text, kernel in models:
            clock.start(kernel)
            config = bench.parse_config(text)
            params = bench.experiment_params(config)
            train_cfg = bench.train_config(config)
            try:
                trained = training.train_coefficients(train_cfg, params)
                augmented = training.augment_time_derivative(
                    trained.coefficients, train_cfg, params)
                pde = training.extract_pde(augmented.coefficients,
                                           mode="summation")
            except (RuntimeError, ValueError) as exc:
                step_s.append(clock.stop())
                message = f"{label}: {exc}"
                known_start = KNOWN_DEFECTS.get(label)
                if known_start and str(exc).startswith(known_start):
                    known.append(message)
                else:
                    failures.append(message)
                continue
            step_s.append(clock.stop())
            results[label] = (params, trained.coefficients, pde)
    run_s = sum(step_s)

    rep = Rep(setup_s=run_s, run_s=run_s, step_s=step_s, wall_s=clock.wall_s,
              lbm_steps_setup=lattice.lbm_step_count() - steps_before,
              lbm_steps_lifting=0, attempted=len(models), failures=failures,
              known_failures=known,
              output={label: (coeffs.flatten(), pde.diffusion, pde.advection)
                      for label, (_, coeffs, pde) in results.items()})
    for label, (_, coeffs, _) in results.items():
        if not np.all(np.isfinite(coeffs.flatten())):
            rep.failures.append(f"{label}: non-finite trained coefficients")
    if check:
        _check_sweep(rep, results)
    return rep


def _check_sweep(rep: Rep, results) -> None:
    if "D1Q3_R2_m1" in results:
        params, coeffs, _ = results["D1Q3_R2_m1"]
        exact = lifting.analytic_coefficients(params, 2)
        gap = max(float(np.linalg.norm(coeffs.terms[spec] - exact.terms[spec]))
                  for spec in exact.terms)
        rep.checks.append((
            "R=2 coefficients vs closed form", gap <= R2_COEFF_TOL,
            f"worst vector gap {gap:.2e} (bound {R2_COEFF_TOL:g})"))
    worst = 0.0
    details = []
    for label, (params, _, pde) in results.items():
        exact = macro_pde.analytic_pde(params)
        gaps = [pde.diffusion - exact.diffusion] + [
            a - b for a, b in zip(pde.advection, exact.advection)]
        gap = max(abs(g) for g in gaps)
        worst = max(worst, gap)
        details.append(f"{label} {gap:.1e}")
    rep.pde_max_error = worst
    rep.checks.append((
        "extracted PDE vs analytic", worst <= PDE_TOL,
        f"max |D, a gap| {worst:.3e} (bound {PDE_TOL:g}): "
        + ", ".join(details)))

