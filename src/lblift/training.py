"""Numerically trained lifting coefficients and PDE extraction.

The lifting ansatz f = f_eq(rho) + sum_T a_T D_T(rho), with one
coefficient vector a_T per spatial derivative D_T, is closed numerically:
a polynomial test density is lifted with a guess for the coefficients,
the lifted state is smoothed by a short constrained run, and fresh
coefficients are read back from a linear system over a handful of probe
nodes.  Coefficients that are invariant under that map describe the slow
manifold.  Lift, smoothing and probe solve are all linear in the
coefficients, so the map is affine and its fixed point is one exact
linear solve.  Its linear part comes from q impulse responses of the
smoothing, which is linear and shift-invariant with density 0.  The
probe system reads the derivatives of the test densities only in the
probe windows, the m+1 cells around each probe that those responses
reach, so the derivatives are evaluated there and nowhere else.

Appending a measured time-derivative column to the probe system makes it
(near) singular, because the density obeys a closed advection-diffusion
PDE.  That is exploited twice: the PDE coefficients are read off either
from the nullspace of the enlarged system or by summing the augmented
coefficient vectors over the velocities.

Test densities are lifted by apply_lift, the production lift, and the
probe system uses the same second-order central stencils: trained
coefficients absorb the truncation terms of the stencils they were
trained with, so training and application must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, factorial, sqrt
from typing import List, Optional, Tuple

import numpy as np

from .constrained_runs import constrained_smooth
from .lattice import LbmParams, equilibrium, lbm_step_count, restrict, stream_collide
from .lifting import (
    LiftCoefficients,
    apply_lift,
    expansion_terms,
    zero_coefficients,
)
from .macro_pde import MacroPde
from .stencil import (MAX_TOTAL_ORDER, DerivSpec, derivative_at,
                      time_derivative_forward)
# perfbench's tracer wraps spatial_derivative at this module attribute
from .stencil import spatial_derivative  # noqa: F401

# refuse probe systems whose conditioning would poison the coefficients
CONDITION_LIMIT = 1e12

# refuse trained coefficients whose closing residual max|a - H(a)| exceeds
# this share of max|a|: the worst measured case, D2Q9 at order 6 with
# m = 3, reads 1.3e-7, while a wrong linear part misses by far more
RESIDUAL_LIMIT = 1e-6

# singular-value ratio below which the enlarged system counts as singular,
# i.e. as evidence that a closed PDE links the derivative columns
NULLSPACE_TOL = 1e-8


@dataclass(frozen=True)
class NceTrainConfig:
    """Settings for coefficient training.

    spatial_order is the highest derivative kept in the expansion.  The
    test domain is a small 1D interval (or square) with the production
    dx; probe_indices are positions within it, at least m+3 cells from
    its edges (in 2D the positions are used per axis and combined into a
    grid).  m is the smoothness order of the constrained run that closes
    the coefficient map.
    """

    spatial_order: int = 2
    m: int = 1
    test_length: float = 3.0
    test_cells: int = 60
    probe_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if not 1 <= self.spatial_order <= MAX_TOTAL_ORDER:
            raise ValueError(
                f"spatial_order {self.spatial_order} outside 1..{MAX_TOTAL_ORDER}")
        if self.m not in (0, 1, 2, 3):
            raise ValueError(f"smoothness order m={self.m}, expected 0..3")
        if self.test_cells < 4 * (self.m + 3):
            raise ValueError("test domain too small for the edge margins")


@dataclass
class LinearLiftSystem:
    """The probe linear system, one identical block per velocity slot.

    block holds the derivative columns at the probe rows (time column
    last when has_time_column).
    """

    block: np.ndarray
    specs: Tuple[DerivSpec, ...]
    condition: float
    has_time_column: bool = False


@dataclass
class TrainResult:
    coefficients: LiftCoefficients
    iterations: int
    lbm_steps: int
    residual: float
    system: LinearLiftSystem


@dataclass
class AugmentResult:
    coefficients: LiftCoefficients
    system: LinearLiftSystem
    sigma_min: float
    sigma_max: float
    lbm_steps: int


# ---------------------------------------------------------------------------
# Test problem: density profiles and probes.
# ---------------------------------------------------------------------------

def buffer_width(cfg: NceTrainConfig) -> int:
    # one cell of information spread per LBM step plus the edge margin
    return cfg.m + 3


def test_density_profiles(cfg: NceTrainConfig, dimension: int) -> List[np.ndarray]:
    """Polynomial test densities on the buffered test grid.

    1D uses rho(x) = sum_{k=1..R} x^k / k!: every derivative up to order
    R is present and the degree-R term keeps the top probe column
    nonzero (a single constant column is harmless).  In 2D any single
    polynomial makes the system singular, since all top-order derivative
    columns are constants over the probes and hence proportional, so R+1
    scaled copies rho_d = sum s_d^j x^j y^k / (j! k!) are stacked; the
    constants then differ per density as s_d^j, a Vandermonde pattern in
    the scales.
    """
    r = cfg.spatial_order
    dx = cfg.test_length / cfg.test_cells
    width = buffer_width(cfg)
    x = (np.arange(cfg.test_cells + 2 * width) - width) * dx
    if dimension == 1:
        rho = np.zeros_like(x)
        for k in range(1, r + 1):
            rho += x ** k / factorial(k)
        return [rho]
    if dimension != 2:
        raise ValueError(f"unsupported dimension {dimension}")
    grid_x = x[:, None]
    grid_y = x[None, :]
    profiles = []
    for d in range(r + 1):
        scale = 1.0 + 0.5 * d
        rho = np.zeros((x.size, x.size))
        for j in range(r + 1):
            for k in range(r + 1 - j):
                if j + k >= 1:
                    rho += (scale ** j / (factorial(j) * factorial(k))) \
                        * grid_x ** j * grid_y ** k
        profiles.append(rho)
    return profiles


def default_probe_positions(cfg: NceTrainConfig, count: int) -> Tuple[int, ...]:
    """Axis positions 10, 20, 30, ... or an evenly spaced fallback."""
    margin = cfg.m + 3
    last_ok = cfg.test_cells - 1 - margin
    positions = tuple(10 * (k + 1) for k in range(count))
    if positions and (positions[-1] > last_ok or positions[0] < margin):
        spread = np.linspace(margin, last_ok, count)
        positions = tuple(int(round(p)) for p in spread)
    return positions


def _resolve_probes(cfg: NceTrainConfig, dimension: int, n_terms: int):
    """Probe index tuple(s) for numpy indexing, validated against margins."""
    margin = cfg.m + 3
    if cfg.probe_indices is not None:
        axis_positions = tuple(int(p) for p in cfg.probe_indices)
    elif dimension == 1:
        axis_positions = default_probe_positions(cfg, n_terms)
    else:
        axis_positions = default_probe_positions(cfg, ceil(sqrt(n_terms)))
    if len(set(axis_positions)) != len(axis_positions):
        raise ValueError(f"duplicate probe positions in {axis_positions}")
    for p in axis_positions:
        if p < margin or p > cfg.test_cells - 1 - margin:
            raise ValueError(
                f"probe {p} is closer than m+3={margin} cells to a test-domain edge")
    if dimension == 1:
        points = [(p,) for p in axis_positions]
    else:
        points = list(product(axis_positions, axis_positions))
    if len(points) < n_terms:
        raise ValueError(
            f"{len(points)} probe points cannot determine {n_terms} coefficient vectors")
    return axis_positions, points


def _probe_index(points, width: int):
    """Buffered-grid fancy index selecting the probe nodes, one array per axis."""
    return tuple(np.array([pt[ax] for pt in points]) + width
                 for ax in range(len(points[0])))


# ---------------------------------------------------------------------------
# Workspace: everything about the probe system that does not depend on
# the coefficients being trained.
# ---------------------------------------------------------------------------

class _Workspace:
    """Probes, test densities and the derivative windows around the probes.

    extra_probes builds the workspace of the time-augmented system: more
    probe rows than columns, and no linear part, so its windows hold the
    probes alone (u = 0).
    """

    def __init__(self, cfg: NceTrainConfig, params: LbmParams,
                 extra_probes: bool = False):
        test_dx = cfg.test_length / cfg.test_cells
        if abs(test_dx - params.dx) > 1e-12 * params.dx:
            raise ValueError(
                f"test grid spacing {test_dx} differs from model dx {params.dx}")
        dimension = params.vset.dimension
        self.cfg = cfg
        self.params = params
        self.specs = tuple(expansion_terms(dimension, cfg.spatial_order))
        axis_positions, points = _resolve_probes(cfg, dimension, len(self.specs))
        if extra_probes:
            points = _widen_probes(points, cfg)
        self.probe_points = points
        self.probe_ix = _probe_index(points, buffer_width(cfg))
        self.densities = test_density_profiles(cfg, dimension)
        # offsets u, one row per axis: |u| <= m+1 per axis, beyond which the
        # impulse responses of _linear_part vanish, or u = 0 alone for the
        # augmented system, which takes no linear part
        reach = 0 if extra_probes else cfg.m + 1
        self.offsets = np.array(list(product(range(-reach, reach + 1),
                                             repeat=dimension))).T
        window = tuple(ix[:, None] - off
                       for ix, off in zip(self.probe_ix, self.offsets))
        # windows[d, t, p, u] = D_T rho_d(p - u): the only derivative
        # values the probe system reads, evaluated nowhere else.  The
        # densities are stacked along a leading axis that no term derives.
        stack = np.stack(self.densities)
        d_ix = np.arange(len(stack)).reshape(-1, 1, 1)
        self.windows = np.array([
            derivative_at(stack, DerivSpec((0,) + spec.orders), params.dx,
                          (d_ix,) + window)
            for spec in self.specs]).transpose(1, 0, 2, 3)
        # the block is the u = 0 slice, one row per (density, probe)
        centre = self.offsets.shape[1] // 2
        self.block = self.windows[..., centre].transpose(0, 2, 1).reshape(
            -1, len(self.specs))
        if not np.abs(self.block).max(axis=0).all():
            raise ValueError(
                "a derivative column vanishes at every probe; "
                "the test density cannot determine these coefficients")
        self.condition = float(np.linalg.cond(self.block))
        if self.condition > CONDITION_LIMIT:
            raise ValueError(
                f"probe system condition number {self.condition:.3g} "
                "signals bad probe placement or a degenerate test density")
        self.feq_probes = [self.probe_rows(equilibrium(rho, params))
                           for rho in self.densities]

    def probe_rows(self, f: np.ndarray) -> np.ndarray:
        """A distribution field at the probes, one row per probe."""
        return f[(slice(None),) + self.probe_ix].T

    def h_map(self, coeffs: LiftCoefficients) -> np.ndarray:
        """One application H(a) of the coefficient map, as a flat array.

        Lift the test densities with the given coefficients, smooth the
        results with an order-m constrained run, and solve the probe
        system for the coefficients describing f - f_eq of the smoothed
        state.  Coefficients on the slow manifold are invariant under H.
        """
        rows = []
        for rho, feq_p in zip(self.densities, self.feq_probes):
            lifted = apply_lift(rho, coeffs, self.params)
            smooth = constrained_smooth(lifted, rho, self.cfg.m, self.params)
            rows.append(self.probe_rows(smooth) - feq_p)
        return self.solve(np.vstack(rows)).ravel()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.block.shape[0] == self.block.shape[1]:
            return np.linalg.solve(self.block, rhs)
        return np.linalg.lstsq(self.block, rhs, rcond=None)[0]

    def make_system(self, block=None,
                    has_time_column: bool = False) -> LinearLiftSystem:
        if block is None:
            block, condition = self.block, self.condition
        else:
            condition = float(np.linalg.cond(block))
        return LinearLiftSystem(
            block=block,
            specs=self.specs,
            condition=condition,
            has_time_column=has_time_column,
        )


def _widen_probes(points, cfg: NceTrainConfig):
    """Interleave shifted copies so the probe count exceeds the columns.

    The trained system is square, but a square system enlarged by a time
    column always has a null vector, which would make the singularity
    diagnostic vacuous; rank statements need more rows than columns.
    """
    margin = cfg.m + 3
    hi = cfg.test_cells - 1 - margin
    seen = set(points)
    extra = []
    for pt in points:
        shifted = tuple((p + 3) if p + 3 <= hi else (p - 3) for p in pt)
        if shifted not in seen:
            seen.add(shifted)
            extra.append(shifted)
    return sorted(points + extra)


# ---------------------------------------------------------------------------
# The coefficient map and its fixed point.
# ---------------------------------------------------------------------------

def train_coefficients(cfg: NceTrainConfig, params: LbmParams) -> TrainResult:
    """Solve a = H(a), H = _Workspace.h_map, with one exact linear solve.

    H is affine, H(a) = h0 + M a, so a = (I - M)^-1 h0 with h0 = H(0)
    and M from _linear_part; a closing evaluation gives `residual` =
    max |a - H(a)|, refused with a RuntimeError above RESIDUAL_LIMIT
    max|a|, and iterations is 1.  This costs
    (q + 2 n_densities)(m + 1) LBM steps: q impulse runs for M, and two
    evaluations of H over the test densities, whatever the spatial
    order, production grid or run length.  The coefficients are reusable
    on any grid sharing (velocity set, dx, dt, omega, advection).
    """
    ws = _Workspace(cfg, params)
    start_steps = lbm_step_count()
    # H(0) lifts the test densities to equilibrium, as an empty coefficient
    # set does.  Every vector of H(a) sums to zero over the velocities,
    # since the smoothed state keeps the test density; dropping the
    # round-off of those sums keeps the trained lift free of mass on rough
    # densities.
    q = params.vset.q
    offset = _massless(ws.h_map(LiftCoefficients(params.fingerprint())), q)
    system = np.eye(offset.size) - _massless(_linear_part(ws), q)
    try:
        flat = np.linalg.solve(system, offset)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular I - M while training coefficients") from exc
    if not np.all(np.isfinite(flat)):
        raise RuntimeError("coefficient training gave non-finite coefficients")
    coeffs = zero_coefficients(params, cfg.spatial_order).with_flat(flat)
    residual = float(np.max(np.abs(flat - ws.h_map(coeffs))))
    scale = float(np.max(np.abs(flat)))
    if residual > RESIDUAL_LIMIT * scale:
        raise RuntimeError(
            f"trained coefficients miss their fixed point: closing residual "
            f"{residual:.3e} > {RESIDUAL_LIMIT:g} max|a| = "
            f"{RESIDUAL_LIMIT * scale:.3e}")
    return TrainResult(coeffs, 1, lbm_step_count() - start_steps, residual,
                       ws.make_system())


def _massless(rows: np.ndarray, q: int) -> np.ndarray:
    """rows, indexed by flat coefficient first, less each term's velocity mean."""
    per_term = rows.reshape((-1, q) + rows.shape[1:])
    return (per_term - per_term.mean(axis=1, keepdims=True)).reshape(rows.shape)


def _linear_part(ws: _Workspace) -> np.ndarray:
    """M, the linear part of H: column (T, i), in flatten order, is the
    response to a_T = e_i, the probes of constrained_smooth(e_i D_T rho, 0).

    That map is linear and commutes with periodic shifts, so the column
    at probe p is sum_u G_i(u) D_T rho(p - u), G_i from
    _impulse_responses.  G_i vanishes beyond m+1 cells per axis and the
    probes sit m+3 cells inside the test domain, so the windows that
    _Workspace evaluates are all the derivative values M needs.
    """
    # kernels[i, j, u]: velocity j of G_i at offset u
    kernels = np.array([g[(slice(None),) + tuple(ws.offsets)]
                        for g in _impulse_responses(ws)])
    # rows[d, p, j, t, i]; summed over u term by term, so the order of the
    # sum is fixed whatever the array layout or BLAS build
    rows = sum(w[:, :, None, :, None] * k[:, None, :]
               for w, k in zip(ws.windows.transpose(3, 0, 2, 1), kernels.T))
    columns = len(ws.specs) * ws.params.vset.q
    return ws.solve(rows.reshape(-1, rows[0, 0].size)).reshape(columns, -1)


def _impulse_responses(ws: _Workspace):
    """Yield G_i = constrained_smooth(e_i delta_0, 0) on the test grid, as
    (velocity, grid), for i < q: one run of m+1 LBM steps each.  The
    impulse sits at cell 0, so offset u is at index u, wrapped."""
    q, shape = ws.params.vset.q, ws.densities[0].shape
    for i in range(q):
        impulse = np.zeros((q,) + shape)
        impulse[(i,) + (0,) * len(shape)] = 1.0
        yield constrained_smooth(impulse, np.zeros(shape), ws.cfg.m, ws.params)


# ---------------------------------------------------------------------------
# Time-derivative augmentation and PDE extraction.
# ---------------------------------------------------------------------------

def augment_time_derivative(coeffs: LiftCoefficients, cfg: NceTrainConfig,
                            params: LbmParams) -> AugmentResult:
    """Append a measured time-derivative column to the probe system.

    The test density is lifted with the trained coefficients and run two
    free LBM steps; rho_t follows from a forward difference.  Because
    rho obeys a closed PDE, the enlarged system is near singular, which
    is recorded via its extreme singular values.  The returned
    coefficients pin the time vector to the classical first-order value
    gamma = -(dt/omega) * equilibrium weights (the enlarged system alone
    cannot split a time column from the spatial columns it is a linear
    combination of) and re-solve the spatial vectors against the moved
    column, so that summing the vectors over the velocities reproduces
    the PDE.
    """
    if params.omega == 0.0:
        raise ValueError("omega = 0 never relaxes towards equilibrium: the "
                         "time coefficients -(dt/omega) w_i are undefined")
    ws = _Workspace(cfg, params, extra_probes=True)
    start_steps = lbm_step_count()
    rhs_rows = []
    time_rows = []
    for rho, feq_p in zip(ws.densities, ws.feq_probes):
        lifted = apply_lift(rho, coeffs, params)
        snapshots = [restrict(lifted)]
        f = lifted
        for _ in range(2):
            f = stream_collide(f, params)
            snapshots.append(restrict(f))
        rho_t = time_derivative_forward(snapshots, params.dt)
        rhs_rows.append(ws.probe_rows(lifted) - feq_p)
        time_rows.append(rho_t[ws.probe_ix])
    rhs = np.vstack(rhs_rows)
    time_col = np.concatenate(time_rows)

    enlarged = np.hstack([ws.block, time_col[:, None]])
    singular_values = np.linalg.svd(enlarged, compute_uv=False)
    sigma_min = float(singular_values[-1])
    sigma_max = float(singular_values[0])

    gamma = -(params.dt / params.omega) * params.equilibrium_weights()
    coeff_matrix = ws.solve(rhs - np.outer(time_col, gamma))
    terms = {spec: coeff_matrix[k].copy() for k, spec in enumerate(ws.specs)}
    augmented = LiftCoefficients(fingerprint=params.fingerprint(),
                                 terms=terms, time_term=gamma)
    system = ws.make_system(block=enlarged, has_time_column=True)
    return AugmentResult(
        coefficients=augmented,
        system=system,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        lbm_steps=lbm_step_count() - start_steps,
    )


def extract_pde(coeffs: LiftCoefficients, mode: str = "summation",
                system: Optional[LinearLiftSystem] = None) -> MacroPde:
    """Read the macroscopic PDE off the augmented coefficients.

    summation: sum each coefficient vector over the velocities; the
    density constraint sum_i f_i = rho forces
    (sum gamma) rho_t = -(sum alpha) rho_x - (sum beta) rho_xx, so
    a_hat = sum(alpha)/sum(gamma) and D_hat = -sum(beta)/sum(gamma).
    nullspace: the PDE is the null relation between the derivative
    columns and the time column of the enlarged probe system.
    """
    dimension = len(next(iter(coeffs.terms)).orders)
    if mode == "summation":
        if coeffs.time_term is None:
            raise ValueError("summation mode needs time coefficients; "
                             "augment the trained coefficients first")
        gamma_sum = float(np.sum(coeffs.time_term))
        scale = float(np.abs(coeffs.time_term).sum())
        if abs(gamma_sum) <= 1e-12 * max(scale, 1e-300):
            raise ValueError("time coefficients sum to zero; "
                             "the summation ratios are undefined")
        advection = []
        for axis in range(dimension):
            first = DerivSpec(_unit(axis, dimension, 1))
            advection.append(float(np.sum(coeffs.terms[first])) / gamma_sum)
        second = DerivSpec(_unit(0, dimension, 2))
        diffusion = -float(np.sum(coeffs.terms[second])) / gamma_sum
        return MacroPde(advection=tuple(advection), diffusion=diffusion)

    if mode != "nullspace":
        raise ValueError(f"unknown extraction mode {mode!r}")
    if system is None or not system.has_time_column:
        raise ValueError("nullspace mode needs the enlarged probe system")
    _, singular_values, v_rows = np.linalg.svd(system.block)
    ratios = singular_values / singular_values[0]
    if ratios[-1] > NULLSPACE_TOL:
        raise ValueError(
            f"enlarged system is not singular (sigma ratio {ratios[-1]:.3e}); "
            "no closed PDE relation found at the probes")
    if len(ratios) > 1 and ratios[-2] <= NULLSPACE_TOL:
        raise ValueError("enlarged system nullspace has dimension > 1; "
                         "the PDE relation is not unique")
    null_vec = v_rows[-1]
    v_time = null_vec[-1]
    if abs(v_time) < 1e-12 * np.abs(null_vec).max():
        raise ValueError("null vector has no time component; "
                         "cannot normalize to a PDE")
    advection = []
    for axis in range(dimension):
        first = DerivSpec(_unit(axis, dimension, 1))
        advection.append(float(null_vec[system.specs.index(first)] / v_time))
    second = DerivSpec(_unit(0, dimension, 2))
    diffusion = -float(null_vec[system.specs.index(second)] / v_time)
    return MacroPde(advection=tuple(advection), diffusion=diffusion)


def _unit(axis: int, dimension: int, order: int) -> Tuple[int, ...]:
    orders = [0] * dimension
    orders[axis] = order
    return tuple(orders)
