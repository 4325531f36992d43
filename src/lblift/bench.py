"""Benchmark harness: canonical model problems, experiments, CSV output.

The experiments mirror the standard study layout: restrict-then-lift
accuracy on a settled reference state, coefficient training runs,
split-domain hybrid error histories, and LBM-step cost accounting for
the different lifting routes.  Everything is deterministic, so repeated
runs write byte-identical files; floats are serialized with repr, which
round-trips exactly.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from math import floor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .constrained_runs import CrConfig
from .hybrid import (HybridSpec, checked_split, compare_to_reference,
                     default_split, hybrid_step, init_hybrid)
from .lattice import (VELOCITY_SETS, LbmParams, equilibrium, finite_positive,
                      lbm_step_count, restrict, run_lbm, stable_omega)
from .lifters import CoefficientLifter, CrLifter, EquilibriumLifter
from .lifting import (analytic_coefficients, coefficients_to_text,
                      read_key_values)
from .macro_pde import MacroPde, analytic_pde, stability_breaches
from .training import (ConfigError, NceTrainConfig, augment_time_derivative,
                       extract_pde, min_test_cells, train_coefficients)

# Canonical model problems: a 10-unit box at 200 cells, a unit Gaussian
# bump in the middle, and relaxation rates chosen so the macroscopic
# diffusion coefficient is exactly 1.  The omega values are kept as
# fractions; the familiar printed forms (0.9091, 1.6129, 1.9531) are
# roundings of these.
EXAMPLE_DT = {"D1Q3": 1e-3, "D2Q5": 1e-4, "D2Q9": 1e-5}
EXAMPLE_OMEGA = {
    "D1Q3": Fraction(10, 11),
    "D2Q5": Fraction(50, 31),
    "D2Q9": Fraction(125, 64),
}

# length of the training test domain, rounded to whole cells of the
# production dx
TEST_LENGTH = 3.0

MIN_CELLS = 4  # cells per axis of any config at least

# training cells per axis at most; the canonical box needs 60.  Training
# forms each power of x over the whole axis, (R+1) x 8 bytes per cell, so at
# this bound a training peaks at a few MB (tracemalloc, D2Q9 with m = 1:
# 5.0 and 7.1 MB at R = 4 and 6, against 1.67 MB at R = 4 from 60 to 6,000
# cells); a finer dx is refused before its axis is allocated
MAX_TEST_CELLS = 10 ** 5

KINDS = ("lift_bench", "hybrid", "train_only", "cost_table")
LIFTERS = ("equilibrium", "analytic", "nce", "cr")


def _parse_float(text: str) -> float:
    # accepts fractions like 10/11 so relaxation rates can be given exactly
    return float(Fraction(text))


def _parse_tuple(text: str) -> Tuple[float, ...]:
    return tuple(float(Fraction(part.strip())) for part in text.split(","))


def _key(parse, default=MISSING):
    # a config key: a field with its default and the parser of its text
    return field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    """One experiment, as read from a key = value config file: each init
    field is a config key, read from its text by its parser."""

    kind: str = _key(str)
    velocity_set: str = _key(str, "D1Q3")
    length: float = _key(_parse_float, 10.0)
    cells: int = _key(int, 200)
    dt: Optional[float] = _key(_parse_float, None)
    omega: Optional[float] = _key(_parse_float, None)
    advection: Optional[Tuple[float, ...]] = _key(_parse_tuple, None)
    lifter: str = _key(str, "analytic")
    order: int = _key(int, 2)
    m: int = _key(int, 1)
    steps: int = _key(int, 200)
    reference_steps: int = _key(int, 1000)
    split_index: Optional[int] = _key(int, None)
    pde_source: str = _key(str, "analytic")
    extract_mode: str = _key(str, "summation")
    # the config line of each key the file states, which parse_config
    # fills, for the refusals of an extracted PDE after training
    lines: Dict[str, int] = field(init=False, default_factory=dict,
                                  repr=False, compare=False)

    def __post_init__(self):
        # the model's rules on dt and omega, before any other
        for key, rule in (("dt", finite_positive), ("omega", stable_omega)):
            value = getattr(self, key)
            if value is not None:
                self._check(key, lambda: rule(value))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}", "kind")
        if self.velocity_set not in VELOCITY_SETS:
            raise ConfigError(f"unknown velocity set {self.velocity_set!r}",
                              "velocity_set")
        if self.lifter not in LIFTERS:
            raise ConfigError(f"unknown lifter {self.lifter!r}", "lifter")
        if self.pde_source not in ("analytic", "extracted"):
            raise ConfigError(f"unknown pde_source {self.pde_source!r}",
                              "pde_source")
        if self.extract_mode not in ("summation", "nullspace"):
            raise ConfigError(f"unknown extract_mode {self.extract_mode!r}",
                              "extract_mode")
        if self.cells < MIN_CELLS:
            raise ConfigError(f"cells = {self.cells}: need at least "
                              f"{MIN_CELLS} cells", "cells")
        if not 0 < self.length < np.inf:
            raise ConfigError(f"length = {self.length}: must be positive "
                              "and finite", "length")
        # the stencil weights reach 1/dx^order, the PDE step 1/dx^2
        power = max(self.order, 2)
        dx = self.length / self.cells
        try:
            finite_weights = np.isfinite((1.0 / dx) ** power)
        except (OverflowError, ZeroDivisionError):
            finite_weights = False
        if not finite_weights:
            raise ConfigError(f"length = {self.length}, cells = {self.cells}: "
                              f"1/dx^{power} is not finite, dx = {dx:.3g}",
                              "length", "cells")
        if self.steps < 1:
            raise ConfigError(f"steps = {self.steps}: need at least 1 step",
                              "steps")
        if self.reference_steps < 0:
            raise ConfigError(f"reference_steps = {self.reference_steps}: "
                              "the reference state needs >= 0 LBM steps",
                              "reference_steps")
        # the rules of what a run builds from these values, applied here
        # so that the config line at fault is named
        params = self._check("advection", lambda: experiment_params(self))
        if self.split_index is not None and self.kind in ("hybrid",
                                                          "cost_table"):
            self._check("split_index", lambda: checked_split(
                self.cells, self.split_index))
        if self.lifter == "cr" and self.kind != "train_only":
            self._check("m", lambda: CrConfig(m=self.m))
        if self.kind == "cost_table" or (self.kind == "hybrid"
                                         and self.pde_source == "analytic"):
            try:
                pde = analytic_pde(params)
            except ValueError as exc:
                raise ConfigError(str(exc), "omega" if params.omega == 0.0
                                  else "advection") from None
            _refuse_unstable_pde(pde, params)
        if (self.kind == "train_only" or self.lifter == "nce"
                or (self.kind == "hybrid" and self.pde_source == "extracted")):
            train_config(self)

    def _check(self, key: str, rule):
        """rule(), its ValueError refused as a ConfigError on key that
        names the key's value."""
        try:
            return rule()
        except ValueError as exc:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ", ".join(map(str, value))
            raise ConfigError(f"{key} = {value}: {exc}", key) from None


@dataclass
class StepCounter:
    """LBM steps burned by a lifting route, split into one-time and per-use."""

    lifter: str
    lbm_steps_training: int = 0
    lbm_steps_lifting: int = 0
    lifts_performed: int = 0

    @property
    def steps_per_lift(self) -> float:
        if self.lifts_performed == 0:
            return 0.0
        return self.lbm_steps_lifting / self.lifts_performed

    @property
    def total_extra_steps(self) -> int:
        return self.lbm_steps_training + self.lbm_steps_lifting


def experiment_params(config: ExperimentConfig) -> LbmParams:
    vset = VELOCITY_SETS[config.velocity_set]
    dt = EXAMPLE_DT[config.velocity_set] if config.dt is None else config.dt
    omega = EXAMPLE_OMEGA[config.velocity_set] if config.omega is None \
        else config.omega
    advection = config.advection
    if advection is None:
        advection = (0.0,) * vset.dimension
    return LbmParams(vset=vset, dx=config.length / config.cells, dt=dt,
                     omega=float(omega), advection=tuple(advection))


def initial_density(config: ExperimentConfig) -> np.ndarray:
    """Unit Gaussian centered in the box (tensor product in 2D)."""
    dx = config.length / config.cells
    x = np.arange(config.cells) * dx
    mid = config.length / 2.0
    bump = np.exp(-((x - mid) ** 2))
    if VELOCITY_SETS[config.velocity_set].dimension == 1:
        return bump
    return np.outer(bump, bump)


def train_config(config: ExperimentConfig) -> NceTrainConfig:
    """The training grid: TEST_LENGTH rounded to whole cells of config's
    dx, refused on the config key at fault: order, m or cells (then
    length, when the file states no cells), the last naming the fewest
    cells that train at this length and m."""
    dx = config.length / config.cells
    cells = TEST_LENGTH / dx
    if not cells <= MAX_TEST_CELLS:
        raise ConfigError(f"length = {config.length}, cells = {config.cells}: "
                          f"{cells:.6g} training cells, over {MAX_TEST_CELLS}",
                          "length", "cells")
    try:
        return NceTrainConfig(spatial_order=config.order, m=config.m,
                              test_cells=round(cells), dx=dx)
    except ConfigError as exc:
        key = {"spatial_order": "order", "m": "m",
               "test_cells": "cells"}[exc.keys[0]]
        message = f"{key} = {getattr(config, key)}: {exc}"
        if key == "cells":
            # the fewest cells whose training cells round to 4(m+3): the
            # cells at 4(m+3) - 1/2 training cells, rounded down, or one
            # more where the round-off of dx rounds those down too
            need = min_test_cells(config.m)
            fewest = floor((need - 0.5) * config.length / TEST_LENGTH)
            if round(TEST_LENGTH / (config.length / fewest)) < need:
                fewest += 1
            message += (f"; the fewest cells that train at length = "
                        f"{config.length} and m = {config.m}: {fewest}")
        raise ConfigError(message, key, *(("length",) if key == "cells"
                                          else ())) from None


def _refuse_unstable_pde(pde: MacroPde, params: LbmParams) -> None:
    """Refuse a hybrid whose PDE step breaks a stability bound of
    macro_pde.ftcs_step, which would blow up: a ConfigError names omega
    for the diffusion number and dt for a Courant number, with the
    number, and the line of advection, length or cells for a dt the
    config leaves to its default."""
    breaches = stability_breaches(pde, params.dx, params.dt)
    if breaches:
        key, message = breaches[0]
        raise ConfigError(
            f"{key} = {getattr(params, key)!r}: unstable PDE step, {message}",
            key, *(("advection", "length", "cells") if key == "dt" else ()))


def make_lifter(config: ExperimentConfig, params: LbmParams):
    """Build the configured lifter; returns (lifter, training_lbm_steps)."""
    if config.lifter == "equilibrium":
        return EquilibriumLifter(), 0
    if config.lifter == "analytic":
        coeffs = analytic_coefficients(params, config.order)
        return CoefficientLifter(coeffs, name=f"analytic-{config.order}"), 0
    if config.lifter == "nce":
        result = train_coefficients(train_config(config), params)
        return (CoefficientLifter(result.coefficients,
                                  name=f"nce-{config.order}-m{config.m}"),
                result.lbm_steps)
    return CrLifter(CrConfig(m=config.m), name=f"cr-m{config.m}"), 0


def reference_state(params: LbmParams, rho0: np.ndarray,
                    steps: int) -> np.ndarray:
    """Settle onto the slow manifold: equilibrium start, then free steps."""
    return run_lbm(equilibrium(rho0, params), params, steps)


def lift_restrict_error(config: ExperimentConfig) -> float:
    """Restrict-then-lift benchmark against a settled reference state.

    The reference f is produced by reference_steps free LBM steps from an
    equilibrium start; the configured lifter then reconstructs it from
    its density alone.  The return value is the flat 2-norm over all
    nodes and velocities of the reconstruction error.
    """
    params = experiment_params(config)
    lifter, _ = make_lifter(config, params)
    return _lift_error(config, params, lifter)


def _lift_error(config: ExperimentConfig, params: LbmParams, lifter) -> float:
    f_ref = reference_state(params, initial_density(config),
                            config.reference_steps)
    lifted = lifter.lift(restrict(f_ref), params)
    return float(np.linalg.norm(lifted - f_ref))


def hybrid_pde(config: ExperimentConfig, params: LbmParams):
    if config.pde_source == "analytic":
        return analytic_pde(params)
    trained = train_coefficients(train_config(config), params)
    return _extracted_pde(config, params, trained.coefficients)


def _extracted_pde(config: ExperimentConfig, params: LbmParams, coefficients):
    """The PDE extracted from trained coefficients; one whose step is
    unstable is refused, naming its config line (an analytic one was
    refused as the config was read)."""
    cfg = train_config(config)
    augmented = augment_time_derivative(coefficients, cfg, params)
    pde = extract_pde(augmented.coefficients, mode=config.extract_mode,
                      system=augmented.system)
    try:
        _refuse_unstable_pde(pde, params)
    except ConfigError as exc:
        raise _on_config_line(exc, config.lines) from None
    return pde


def hybrid_spec(config: ExperimentConfig) -> HybridSpec:
    """The configured hybrid, its PDE from hybrid_pde."""
    params = experiment_params(config)
    lifter, _ = make_lifter(config, params)
    if config.lifter == "nce" and config.pde_source == "extracted":
        # the lifter's coefficients are the ones hybrid_pde would train
        pde = _extracted_pde(config, params, lifter.coefficients)
    else:
        pde = hybrid_pde(config, params)
    return _hybrid_spec(config, params, pde, lifter)


def _hybrid_spec(config: ExperimentConfig, params: LbmParams, pde,
                 lifter) -> HybridSpec:
    split = config.split_index
    if split is None:
        split = default_split(config.cells)
    return HybridSpec(total_cells=config.cells, split_index=split,
                      params=params, pde=pde, lifter=lifter,
                      initial_density=initial_density(config))


class _CountingLifter:
    """Wrap a lifter to meter the LBM steps its applications consume."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.steps = 0
        self.calls = 0

    def lift(self, rho, params):
        before = lbm_step_count()
        out = self.inner.lift(rho, params)
        self.steps += lbm_step_count() - before
        self.calls += 1
        return out


def cost_summary(config: ExperimentConfig) -> StepCounter:
    """Run the configured hybrid and meter the lifting overhead.

    The LBM subdomain's own updates are the model, not overhead, so only
    steps consumed inside lifter applications (plus one-time training)
    are charged.
    """
    params = experiment_params(config)
    lifter, training_steps = make_lifter(config, params)
    counting = _CountingLifter(lifter)
    spec = _hybrid_spec(config, params, analytic_pde(params), counting)
    state = init_hybrid(spec)
    for _ in range(config.steps):
        state = hybrid_step(state, spec)
    return StepCounter(
        lifter=counting.name,
        lbm_steps_training=training_steps,
        lbm_steps_lifting=counting.steps,
        lifts_performed=counting.calls,
    )


# ---------------------------------------------------------------------------
# Config file parsing: flat `key = value` lines, # comments.
# ---------------------------------------------------------------------------

# each config key's parser, read off the fields of ExperimentConfig
_PARSERS = {key.name: key.metadata["parse"]
            for key in fields(ExperimentConfig) if key.init}


def _config_entry(key: str, value: str) -> tuple:
    if key not in _PARSERS:
        raise ValueError(f"unknown key {key!r}")
    try:
        return key, _PARSERS[key](value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse {key} = {value!r} ({exc})") from None


def parse_config(text: str, kind: Optional[str] = None) -> ExperimentConfig:
    """Parse a flat key = value config; kind from the file or the caller."""
    entries = read_key_values(text, _config_entry, where="config line")
    values = {key: value for key, (_, value) in entries.items()}
    if kind is not None:
        stated = values.get("kind")
        if stated is not None and stated != kind:
            raise ValueError(
                f"config says kind = {stated}, but the command requires {kind}")
        values["kind"] = kind
    if "kind" not in values:
        raise ValueError("config does not state an experiment kind")
    lines = {key: line for key, (line, _) in entries.items()}
    try:
        config = ExperimentConfig(**values)
    except ConfigError as exc:
        raise _on_config_line(exc, lines) from None
    config.lines = lines
    return config


def _on_config_line(exc: ConfigError, lines: Dict[str, int]) -> ValueError:
    """exc as a ValueError that names the config line of its first key
    the file states; exc itself when the file states none."""
    stated = [lines[key] for key in exc.keys if key in lines]
    if not stated:
        return exc
    return ValueError(f"config line {stated[0]}: {exc}")


# ---------------------------------------------------------------------------
# CSV assembly and the experiment dispatcher.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _model_columns(config: ExperimentConfig, params: LbmParams):
    headers = ["velocity_set", "omega", "dx", "dt", "advection"]
    row = [config.velocity_set, params.omega, params.dx, params.dt,
           " ".join(repr(a) for a in params.advection)]
    return headers, row


def run_experiment(config: ExperimentConfig, out_dir: Path) -> List[Path]:
    """Dispatch one experiment and write its CSV (or text) artifacts."""
    out_dir = Path(out_dir)
    params = experiment_params(config)
    mh, mr = _model_columns(config, params)

    if config.kind == "lift_bench":
        lifter, _ = make_lifter(config, params)
        error = _lift_error(config, params, lifter)
        headers = ["lifter"] + mh + ["order", "m", "reference_steps", "error"]
        row = [lifter.name] + mr + [config.order, config.m,
                                    config.reference_steps, error]
        return [_write(out_dir, "lift_bench.csv", _csv(headers, [row]))]

    if config.kind == "train_only":
        result = train_coefficients(train_config(config), params)
        paths = [_write(out_dir, "coefficients.txt",
                        coefficients_to_text(result.coefficients))]
        headers = mh + ["order", "m", "iterations", "lbm_steps", "residual",
                        "condition"]
        row = mr + [config.order, config.m, result.iterations,
                    result.lbm_steps, result.residual,
                    result.condition]
        paths.append(_write(out_dir, "train_summary.csv", _csv(headers, [row])))
        return paths

    if config.kind == "hybrid":
        spec = hybrid_spec(config)
        # per-step error fields only where the CSV writes them, in 1D: a
        # 2D run writes its final field alone
        one_d = params.vset.dimension == 1
        outcome = compare_to_reference(spec, config.steps, keep_fields=one_d)
        summary = _csv(
            ["step", "max_error", "l2_error"],
            [[k + 1, float(outcome.max_error[k]), float(outcome.l2_error[k])]
             for k in range(config.steps)],
        )
        paths = [_write(out_dir, "hybrid_summary.csv", summary)]
        if one_d:
            rows = [[k + 1, j, float(outcome.error_fields[k, j])]
                    for k in range(config.steps)
                    for j in range(config.cells)]
            field_csv = _csv(["step", "index", "abs_error"], rows)
        else:
            last = outcome.final_error_field
            rows = [[config.steps, i, j, float(last[i, j])]
                    for i in range(last.shape[0])
                    for j in range(last.shape[1])]
            field_csv = _csv(["step", "ix", "iy", "abs_error"], rows)
        paths.append(_write(out_dir, "hybrid_error_field.csv", field_csv))
        return paths

    counter = cost_summary(config)
    headers = ["lifter", "lbm_steps_training", "lbm_steps_lifting",
               "lifts_performed", "lbm_steps_per_lift", "total_extra_steps"]
    row = [counter.lifter, counter.lbm_steps_training,
           counter.lbm_steps_lifting, counter.lifts_performed,
           counter.steps_per_lift, counter.total_extra_steps]
    return [_write(out_dir, "cost.csv", _csv(headers, [row]))]
