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
from .training import (DX0, ConfigError, NceTrainConfig,
                       augment_time_derivative, extract_pde,
                       train_coefficients)

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

# grid cells, cells ** dimension, of a config that builds its grid, at most:
# hybrid_d2q9_adv.cfg peaks at 46.6 MB RSS on 200^2 cells, 93.4 MB on 400^2
# (x86-64 Linux, one BLAS thread), so near 1.6 GB at this bound, 2000^2 in 2D
MAX_GRID_CELLS = 4 * 10 ** 6

KINDS = ("lift_bench", "hybrid", "train_only", "cost_table")
LIFTERS = ("equilibrium", "analytic", "nce", "cr")
# the keys each lifter but nce is built from, in the order refusals name them
_LIFTER_KEYS = {"equilibrium": ("lifter",), "cr": ("m",),
                "analytic": ("order", "velocity_set", "advection", "omega",
                             "length", "cells")}


def _parse_float(text: str) -> float:
    # accepts fractions like 10/11 so relaxation rates can be given exactly
    return float(Fraction(text))


def _parse_tuple(text: str) -> Tuple[float, ...]:
    return tuple(float(Fraction(part.strip())) for part in text.split(","))


def _one_of(*choices):
    def rule(value):
        if value not in choices:
            raise ValueError(f"not one of {', '.join(choices)}")
    return rule


def _at_least(least: int, purpose: str = ""):
    def rule(value):
        if value < least:
            raise ValueError(f"need at least {least}{purpose}")
    return rule


def _key(parse, default=MISSING, rule=None):
    return field(default=default, metadata={"parse": parse, "rule": rule})


@dataclass
class ExperimentConfig:
    """One experiment, as read from a key = value config file: each init
    field is a config key, with its default, the parser of its text and
    the rule its value alone must meet (_key)."""

    kind: str = _key(str, rule=_one_of(*KINDS))
    velocity_set: str = _key(str, "D1Q3", _one_of(*VELOCITY_SETS))
    length: float = _key(_parse_float, 10.0, finite_positive)
    cells: int = _key(int, 200, _at_least(4))
    dt: Optional[float] = _key(_parse_float, None, finite_positive)
    omega: Optional[float] = _key(_parse_float, None, stable_omega)
    advection: Optional[Tuple[float, ...]] = _key(_parse_tuple, None)
    lifter: str = _key(str, "analytic", _one_of(*LIFTERS))
    order: int = _key(int, 2)
    m: int = _key(int, 1)
    steps: int = _key(int, 200, _at_least(1))
    reference_steps: int = _key(int, 1000, _at_least(0))
    split_index: Optional[int] = _key(int, None)
    pde_source: str = _key(str, "analytic", _one_of("analytic", "extracted"))
    extract_mode: str = _key(str, "summation",
                             _one_of("summation", "nullspace"))
    # the config line of each key the file states, which parse_config
    # fills, for the refusals of an extracted PDE after training
    lines: Dict[str, int] = field(init=False, default_factory=dict,
                                  repr=False, compare=False)

    def __post_init__(self):
        for key, declared in _KEYS.items():
            value = getattr(self, key)
            if declared["rule"] is not None and value is not None:
                self._check(key, declared["rule"], value)
        extracted = self.kind == "hybrid" and self.pde_source == "extracted"
        trains = extracted or self.kind == "train_only" or self.lifter == "nce"
        if self.kind != "train_only":  # training builds no grid of cells
            self._check("cells", _grid_bound, self.cells,
                        VELOCITY_SETS[self.velocity_set].dimension)
        self._check(("length", "cells"), _finite_scales,
                    self.length / self.cells, self.order, trains)
        # the rules of what a run builds from these values, applied here
        # so that the config line at fault is named
        params = self._check("advection", experiment_params, self)
        runs_hybrid = self.kind in ("hybrid", "cost_table")
        if runs_hybrid and self.split_index is not None:
            self._check("split_index", checked_split, self.cells,
                        self.split_index)
        if runs_hybrid and not extracted:
            pde = self._check(("advection", "omega", "dt", "length", "cells"),
                              analytic_pde, params)
            _refuse_unstable_pde(pde, params)
        if trains:  # the training rules, one key at a time
            self._check("order", NceTrainConfig, spatial_order=self.order)
            self._check("m", NceTrainConfig, m=self.m)
        if extracted:
            self._check("order", _at_least(
                2, " to read the PDE off second derivatives"), self.order)
        if self.lifter != "nce" and self.kind != "train_only":
            self._check(_LIFTER_KEYS[self.lifter], make_lifter, self, params)

    def _check(self, keys, rule, *args, **kwargs):
        """rule(*args, **kwargs), or for a ValueError or ArithmeticError it
        raises a ConfigError on keys, one key or a tuple, naming each key's
        value but None, then the error, an ArithmeticError by its type."""
        try:
            return rule(*args, **kwargs)
        except ValueError as exc:
            message = str(exc)
        except ArithmeticError as exc:
            message = f"{type(exc).__name__}: {exc}"
        keys = (keys,) if isinstance(keys, str) else keys
        stated = ", ".join(
            f"{key} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
            for key in keys if (v := getattr(self, key)) is not None)
        raise ConfigError(f"{stated}: {message}", *keys)


def _grid_bound(cells: int, dimension: int) -> None:
    if cells ** dimension > MAX_GRID_CELLS:
        raise ValueError(f"{cells}^{dimension} grid cells, over "
                         f"{MAX_GRID_CELLS}")


def _finite_scales(dx: float, order: int, trains: bool) -> None:
    """Refuse a dx at which a stencil weight overflows, up to 1/dx^order
    and the PDE step's 1/dx^2, or, in a config that trains, the factor
    (dx/DX0)^order that scales the lattice twin's coefficients."""
    scales = {"1/dx": (1 / dx if dx else np.inf, max(order, 2)),
              f"(dx/{DX0})": (dx / DX0, order * trains)}
    for name, (base, power) in scales.items():
        try:
            finite = base ** power < np.inf
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValueError(f"{name}^{power} is not finite, dx = {dx:.3g}")


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
    return LbmParams(vset=vset, dx=config.length / config.cells, dt=dt,
                     omega=float(omega), advection=config.advection or ())


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
    """The training settings of config, its order and m, at any dx."""
    return NceTrainConfig(spatial_order=config.order, m=config.m)


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

# each config key's parser and rule, read off the fields of
# ExperimentConfig
_KEYS = {key.name: key.metadata for key in fields(ExperimentConfig)
         if key.init}


def _config_entry(key: str, value: str) -> tuple:
    if key not in _KEYS:
        raise ValueError(f"unknown key {key!r}")
    try:
        return key, _KEYS[key]["parse"](value)
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
