"""Numerically trained lifting coefficients and PDE extraction.

The lifting ansatz f = f_eq(rho) + sum_T a_T D_T(rho), with one
coefficient vector a_T per spatial derivative D_T, is closed numerically:
a polynomial test density is lifted with a guess for the coefficients,
the lifted state is smoothed by a short constrained run, and fresh
coefficients are read back from a linear system over a handful of probe
nodes.  Coefficients that are invariant under that map describe the slow
manifold.  Lift, smoothing and probe solve are all linear in the
coefficients, so the map is affine and its fixed point is one exact
linear solve.  Both its linear part and its offset, the map at zero
coefficients, are superposed from the q impulse responses of the
smoothing, which is linear and shift-invariant with density 0; one
constrained run probes all q on a grid of q response windows.  The test
densities are evaluated, lifted and smoothed only on one patch around
each probe, m+1 + (R+1)//2 cells per axis on either side: the closing
run's m+1 steps and the reach of the lift's stencil.  The probe system
reads them and their derivatives in the probe windows, the m+1 cells
around each probe that the responses reach, every term in one
contraction of the lift's difference stencils with the patches, solved
by the pseudo-inverse of one SVD of the probe block per workspace before
they are contracted with the responses, in BLAS-free einsums.  One
evaluation of the map by direct constrained runs closes the solve as an
independent check: one lift of the patches side by side, and one run of
the cells within m+1 of every probe, all a probe reads in m+1 LBM steps.

Appending a measured time-derivative column, two free LBM steps on
windows of 5 cells, to the probe system makes it (near) singular,
because the density obeys a closed advection-diffusion PDE.  That is
exploited twice: the PDE coefficients are read off either from the
nullspace of the enlarged system or by summing the augmented
coefficient vectors over the velocities.

Test densities are lifted by apply_lift, the production lift, and the
probe system takes their derivatives with the lift's own stencil matrix,
difference_stencils, in the same difference form: trained coefficients
absorb the truncation terms of the stencils they were trained with, so
training and application must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, factorial, sqrt
from typing import List, Optional, Tuple

import numpy as np

from .constrained_runs import constrained_smooth, impulse_responses
from .lattice import (LbmParams, finite, integer, lbm_step_count, restrict,
                      stream_collide)
from .lifting import LiftCoefficients, apply_lift, expansion_terms
from .macro_pde import MacroPde
from .stencil import (MAX_TOTAL_ORDER, DerivSpec, difference_stencils,
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


class ConfigError(ValueError):
    """A refused config value; keys name the fields at fault, the one to
    name first."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class NceTrainConfig:
    """Settings for coefficient training.

    spatial_order is the highest derivative kept in the expansion.  The
    test domain is a small 1D interval (or square) with the production
    dx; the probes sit within it at default_probe_positions, at least m+3
    cells from its edges (in 2D the positions are used per axis and
    combined into a grid).  m is the smoothness order of the constrained
    run that closes the coefficient map.  The test densities are
    evaluated only on one patch around each probe.
    """

    spatial_order: int = 2
    m: int = 1
    test_length: float = 3.0
    test_cells: int = 60

    def __post_init__(self):
        for name in ("spatial_order", "m", "test_cells"):
            integer(getattr(self, name), name)
        if not finite(self.test_length, "test_length") > 0.0:
            raise ValueError(f"test_length {self.test_length} is not positive")
        if not 1 <= self.spatial_order <= MAX_TOTAL_ORDER:
            raise ConfigError(f"spatial_order {self.spatial_order} outside "
                              f"1..{MAX_TOTAL_ORDER}", "spatial_order")
        if self.m not in (0, 1, 2, 3):
            raise ConfigError(f"smoothness order m={self.m}, expected 0..3",
                              "m")
        if self.test_cells < min_test_cells(self.m):
            raise ConfigError(
                f"test_cells = {self.test_cells}: the edge margins need at "
                f"least 4(m+3) = {min_test_cells(self.m)} training cells",
                "test_cells")


@dataclass
class TrainResult:
    """Trained coefficients; condition is that of the probe system."""

    coefficients: LiftCoefficients
    iterations: int
    lbm_steps: int
    residual: float
    condition: float


@dataclass
class AugmentResult:
    """Augmented coefficients; system is the enlarged probe matrix, the
    derivative columns of coefficients.sorted_specs() and the time column
    last."""

    coefficients: LiftCoefficients
    system: np.ndarray
    sigma_min: float
    sigma_max: float


# ---------------------------------------------------------------------------
# Test problem: density profiles and probes.
# ---------------------------------------------------------------------------

def buffer_width(cfg: NceTrainConfig) -> int:
    # one cell of information spread per LBM step plus the edge margin
    return cfg.m + 3


def min_test_cells(m: int) -> int:
    """Test cells per axis at least: twice the two edge margins."""
    return 4 * (m + 3)


def same_dx(test_dx: float, dx: float) -> bool:
    """Whether a test grid has the model's dx, to 1e-12 relative."""
    return abs(test_dx - dx) <= 1e-12 * dx


def test_density_profiles(cfg: NceTrainConfig, dimension: int,
                          at: Optional[tuple] = None) -> List[np.ndarray]:
    """Polynomial test densities on the buffered test grid, or only at its
    cells `at`, one index array per axis, broadcast together.

    1D uses rho(x) = sum_{k=1..R} x^k / k!: every derivative up to order
    R is present and the degree-R term keeps the top probe column
    nonzero (a single constant column is harmless).  In 2D any single
    polynomial makes the system singular, since all top-order derivative
    columns are constants over the probes and hence proportional, so R+1
    scaled copies rho_d = sum s_d^j x^j y^k / (j! k!) are stacked; the
    constants then differ per density as s_d^j, a Vandermonde pattern in
    the scales: the rows of one array.  Each power of x is formed once
    over the whole axis and gathered at `at`, so every value is the one
    the whole grid holds there, bit for bit.
    """
    r = cfg.spatial_order
    dx = cfg.test_length / cfg.test_cells
    width = buffer_width(cfg)
    x = (np.arange(cfg.test_cells + 2 * width) - width) * dx
    if dimension not in (1, 2):
        raise ValueError(f"unsupported dimension {dimension}")
    if at is None:
        at = np.ix_(*(np.arange(x.size),) * dimension)
    shape = np.broadcast_shapes(*(ix.shape for ix in at))
    if dimension == 1:
        rho = np.zeros(shape)
        for k in range(1, r + 1):
            rho += (x ** k / factorial(k))[at[0]]
        return [rho]
    powers = [x ** j for j in range(r + 1)]
    rho = np.zeros((r + 1,) + shape)
    for j in range(r + 1):
        for k in range(r + 1 - j):
            if j + k >= 1:
                coeffs = np.array([(1.0 + 0.5 * d) ** j / (
                    factorial(j) * factorial(k)) for d in range(r + 1)])
                rho += (coeffs.reshape((-1,) + (1,) * len(shape))
                        * powers[j][at[0]] * powers[k][at[1]])
    return list(rho)


def default_probe_positions(cfg: NceTrainConfig, count: int) -> Tuple[int, ...]:
    """Axis positions 10, 20, 30, ... or an evenly spaced fallback."""
    margin = buffer_width(cfg)
    last_ok = cfg.test_cells - 1 - margin
    positions = tuple(10 * (k + 1) for k in range(count))
    if positions and (positions[-1] > last_ok or positions[0] < margin):
        spread = np.linspace(margin, last_ok, count)
        positions = tuple(int(round(p)) for p in spread)
    return positions


def _probe_points(cfg: NceTrainConfig, dimension: int, n_terms: int):
    """n_terms default positions in 1D, in 2D the grid of ceil(sqrt(n_terms))
    per axis: distinct, at least m+3 cells from the edges and no fewer than
    the unknowns, as at most 6 per axis are spread over the >= 5 cells that
    test_cells >= 4(m+3) leaves between the margins."""
    if dimension == 1:
        return [(p,) for p in default_probe_positions(cfg, n_terms)]
    axis_positions = default_probe_positions(cfg, ceil(sqrt(n_terms)))
    return list(product(axis_positions, axis_positions))


def _probe_index(points, width: int):
    """Buffered-grid fancy index selecting the probe nodes, one array per axis."""
    return tuple(np.array([pt[ax] for pt in points]) + width
                 for ax in range(len(points[0])))


# ---------------------------------------------------------------------------
# Workspace: everything about the probe system that does not depend on
# the coefficients being trained.
# ---------------------------------------------------------------------------

class _Workspace:
    """Probes and one patch of test density around each, patch[v, d, p] =
    rho_d(p + v) for |v| <= steps + (R+1)//2 per axis (steps m+1, or 2 for
    the augmentation), the only cells training evaluates, lifts and
    smooths.  From it come windows[t, u, d, p] = D_T rho_d(p - u) and
    density_windows[u, d, p] = rho_d(p - u), D_T by the lift's own stencil
    matrix W of difference_stencils: sum_j W[t, j] (rho(x + tap_j) -
    rho(x)).  extra_probes builds the workspace of the time-augmented
    system: more probe rows than columns, and no linear part, so its
    windows hold the probes alone (u = 0).
    """

    def __init__(self, cfg: NceTrainConfig, params: LbmParams,
                 extra_probes: bool = False):
        test_dx = cfg.test_length / cfg.test_cells
        if not same_dx(test_dx, params.dx):
            raise ValueError(
                f"test grid spacing {test_dx} differs from model dx {params.dx}")
        dimension = params.vset.dimension
        self.cfg = cfg
        self.params = params
        self.specs = tuple(expansion_terms(dimension, cfg.spatial_order))
        points = _probe_points(cfg, dimension, len(self.specs))
        if extra_probes:
            points = _widen_probes(points, cfg)
        self.probe_points = points
        self.probe_ix = _probe_index(points, buffer_width(cfg))
        # offsets u, one row per axis, in the C order of the windows of
        # impulse_responses: |u| <= m+1 per axis, beyond which the impulse
        # responses vanish, or u = 0 alone for the augmented system, which
        # takes no linear part
        reach = 0 if extra_probes else cfg.m + 1
        self.offsets = np.array(list(product(range(-reach, reach + 1),
                                             repeat=dimension))).T
        steps = 2 if extra_probes else cfg.m + 1
        stencil = (cfg.spatial_order + 1) // 2
        radius = steps + stencil
        span = np.arange(-radius, radius + 1)
        patch = np.moveaxis(np.stack(test_density_profiles(
            cfg, dimension, tuple(
                ix + span.reshape((-1,) + (1,) * (dimension - ax))
                for ax, ix in enumerate(self.probe_ix)))), 0, -2)
        # p - u sits at v = radius - u, and an einsum without optimize,
        # which makes no BLAS call, applies W to its tap differences
        taps, weights = difference_stencils(self.specs, params.dx)
        at = radius - self.offsets[:, :, None]
        self.density_windows = patch[tuple(at[:, :, 0])]
        differences = (patch[tuple(at + np.array(taps).T[:, None])]
                       - self.density_windows[:, None])
        self.windows = np.einsum("tj,uj...->tu...", weights, differences)
        # the block is the u = 0 slice, one row per (density, probe)
        centre = self.offsets.shape[1] // 2
        self.block = self.windows[:, centre].reshape(len(self.specs), -1).T
        if not np.abs(self.block).max(axis=0).all():
            raise ValueError(
                "a derivative column vanishes at every probe; "
                "the test density cannot determine these coefficients")
        u, sigma, vt = np.linalg.svd(self.block, full_matrices=False)
        self.condition = float(sigma[0] / sigma[-1])
        if self.condition > CONDITION_LIMIT:
            raise ValueError(
                f"probe system condition number {self.condition:.3g} "
                "signals bad probe placement or a degenerate test density")
        # the pseudo-inverse, pinv[t, k] = sum_s vt[s, t] u[k, s] / sigma[s]
        self.pinv = np.einsum("st,ks->tk", vt / sigma[:, None], u)
        self.feq_rows = (self.density_windows[centre].reshape(-1, 1)
                         * params.equilibrium_weights())
        # the patches side by side along the last axis in (density, probe)
        # order, lifted together; the run windows are the cells within
        # steps of each probe, whose lifted values read no wrapped one,
        # and after steps LBM steps on them alone a probe holds the value
        # a run of the whole periodic test grid gives it
        self.patches = np.moveaxis(patch, dimension - 1, -1).reshape(
            patch.shape[:dimension - 1] + (-1,))
        self.patch_width = span.size
        inner = slice(stencil, -stencil)
        self.run_cells = ((Ellipsis,) + (inner,) * (dimension - 1)
                          + (slice(None), inner))
        self.run_probes = ((Ellipsis,) + (steps,) * (dimension - 1)
                           + (slice(steps, None, 2 * steps + 1),))

    def run_windows(self, field: np.ndarray) -> np.ndarray:
        """A field over the side-by-side patches cut to the run windows,
        side by side again."""
        cut = field.reshape(field.shape[:-1]
                            + (-1, self.patch_width))[self.run_cells]
        return cut.reshape(cut.shape[:-2] + (-1,))

    def lifted_windows(self, coeffs: LiftCoefficients) -> np.ndarray:
        """The test densities lifted with coeffs, cut to the run windows."""
        return self.run_windows(apply_lift(self.patches, coeffs, self.params))

    def h_map(self, coeffs: LiftCoefficients) -> np.ndarray:
        """One application H(a) of the coefficient map, as a flat array.

        Lift the test densities with the given coefficients, smooth the
        results with an order-m constrained run, and solve the probe
        system for the coefficients describing f - f_eq of the smoothed
        state.  Coefficients on the slow manifold are invariant under H.
        """
        smooth = constrained_smooth(self.lifted_windows(coeffs),
                                    self.run_windows(self.patches),
                                    self.cfg.m, self.params)
        return self.solve(smooth[self.run_probes].T - self.feq_rows).ravel()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The least-squares x of block x = rhs by the pseudo-inverse; an
        einsum without optimize, unlike a matmul, makes no BLAS call."""
        return np.einsum("tk,kc->tc", self.pinv, rhs)


def _widen_probes(points, cfg: NceTrainConfig):
    """Interleave shifted copies so the probe count exceeds the columns.

    The trained system is square, but a square system enlarged by a time
    column always has a null vector, which would make the singularity
    diagnostic vacuous; rank statements need more rows than columns.
    """
    hi = cfg.test_cells - 1 - buffer_width(cfg)
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

    H is affine, H(a) = h0 + M a, so a = (I - M)^-1 h0, with h0 = H(0)
    and M from _probe_system, superposed from the q impulse responses of
    one probe; a closing evaluation of H by direct constrained runs gives
    `residual` = max |a - H(a)|, refused with a RuntimeError above
    RESIDUAL_LIMIT max|a|, and iterations is 1.  This costs 2(m + 1) LBM
    steps: one probe run of m+1 steps for the responses, as on any grid,
    and one evaluation of H on the probe windows of every test density at
    once, whatever the spatial order, dimension, production grid or run
    length.  The coefficients are reusable on any grid sharing (velocity
    set, dx, dt, omega, advection).
    """
    ws = _Workspace(cfg, params)
    start_steps = lbm_step_count()
    kernels = impulse_responses(cfg.m, params).reshape(
        (params.vset.q,) * 2 + (-1,))
    # Every vector of H(a) sums to zero over the velocities, since the
    # smoothed state keeps the test density; dropping the round-off of
    # those sums keeps the trained lift free of mass on rough densities.
    q = params.vset.q
    offset, linear = (_massless(x, q) for x in _probe_system(ws, kernels))
    system = np.eye(offset.size) - linear
    try:
        flat = np.linalg.solve(system, offset)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular I - M while training coefficients") from exc
    if not np.all(np.isfinite(flat)):
        raise RuntimeError("coefficient training gave non-finite coefficients")
    rows = flat.reshape(len(ws.specs), q)
    coeffs = LiftCoefficients(params.fingerprint(), {
        spec: row.copy() for spec, row in zip(ws.specs, rows)})
    residual = float(np.max(np.abs(flat - ws.h_map(coeffs))))
    scale = float(np.max(np.abs(flat)))
    if residual > RESIDUAL_LIMIT * scale:
        raise RuntimeError(
            f"trained coefficients miss their fixed point: closing residual "
            f"{residual:.3e} > {RESIDUAL_LIMIT:g} max|a| = "
            f"{RESIDUAL_LIMIT * scale:.3e}")
    return TrainResult(coeffs, 1, lbm_step_count() - start_steps, residual,
                       ws.condition)


def _massless(rows: np.ndarray, q: int) -> np.ndarray:
    """rows, indexed by flat coefficient first, less each term's velocity mean."""
    per_term = rows.reshape((-1, q) + rows.shape[1:])
    return (per_term - per_term.mean(axis=1, keepdims=True)).reshape(rows.shape)


def _probe_system(ws: _Workspace, kernels: np.ndarray):
    """(h0, M): H(0) and the linear part of H, from the impulse responses:
    the probe solve first, then one contraction over the window offsets u.

    Column (T, i) of M, in flatten order, is the probes of
    constrained_smooth(e_i D_T rho, 0), which is linear and commutes with
    periodic shifts: sum_u G_i(u) D_T rho(p - u) at probe p.  H(0) smooths
    w rho, sum_i w_i sum_u G_i(u) rho(p - u) (the density reset gives the
    rest row the same form, as the responses have density 0).  A uniform
    equilibrium stays, so sum_u sum_i w_i G_i(u) = w, and subtracting f_eq
    = w rho(p) leaves the differences rho(p - u) - rho(p), in which the
    O(rho) parts cancel exactly: one more term row, weighted by w last.
    """
    centre = ws.offsets.shape[1] // 2
    terms = np.concatenate([ws.windows, (ws.density_windows
                                         - ws.density_windows[centre])[None]])
    # solve first, W[s, t, u] = sum_k pinv[s, k] terms[t, u, k] over the
    # (density, probe) rows k, then sum_u W[s, t, u] kernels[i, j, u], the
    # kernels offset-major so that each sum runs over u in order; einsum
    # without optimize makes no BLAS call, whose sums move with its threads
    solved = np.einsum("stu,uji->sjti", np.einsum(
        "sk,tuk->stu", ws.pinv, terms.reshape(terms.shape[:2] + (-1,))),
        np.ascontiguousarray(kernels.T))
    offset = np.einsum("tji,i->tj", solved[:, :, -1],
                       ws.params.equilibrium_weights())
    return offset.ravel(), solved[:, :, :-1].reshape(offset.size, -1)


# ---------------------------------------------------------------------------
# Time-derivative augmentation and PDE extraction.
# ---------------------------------------------------------------------------

def augment_time_derivative(coeffs: LiftCoefficients, cfg: NceTrainConfig,
                            params: LbmParams) -> AugmentResult:
    """Append a measured time-derivative column to the probe system.

    The test densities are lifted with the trained coefficients and run
    two free LBM steps together, on the windows of their probes; rho_t
    follows from a forward difference.  Because rho obeys a closed PDE,
    the enlarged system is near singular, which is recorded via its
    extreme singular values.  The returned coefficients pin the time
    vector to the classical first-order value gamma = -(dt/omega) *
    equilibrium weights (the enlarged system alone cannot split a time
    column from the spatial columns it is a linear combination of) and
    re-solve the spatial vectors against the moved column, so that
    summing the vectors over the velocities reproduces the PDE.
    Coefficients whose terms are not the expansion of cfg.spatial_order
    are refused.
    """
    if params.omega == 0.0:
        raise ValueError("omega = 0 never relaxes towards equilibrium: the "
                         "time coefficients -(dt/omega) w_i are undefined")
    ws = _Workspace(cfg, params, extra_probes=True)
    if tuple(coeffs.sorted_specs()) != ws.specs:
        order = max((spec.total for spec in coeffs.terms), default=0)
        raise ValueError(
            f"coefficients of spatial order {order} do not fit a config of "
            f"spatial order {cfg.spatial_order}")
    f = lifted = ws.lifted_windows(coeffs)
    snapshots = [restrict(lifted)]
    for _ in range(2):
        f = stream_collide(f, params)
        snapshots.append(restrict(f))
    time_col = time_derivative_forward(snapshots, params.dt)[ws.run_probes]
    rhs = lifted[ws.run_probes].T - ws.feq_rows

    enlarged = np.hstack([ws.block, time_col[:, None]])
    sigma = np.linalg.svd(enlarged, compute_uv=False)

    gamma = -(params.dt / params.omega) * params.equilibrium_weights()
    coeff_matrix = ws.solve(rhs - np.outer(time_col, gamma))
    terms = {spec: coeff_matrix[k].copy() for k, spec in enumerate(ws.specs)}
    augmented = LiftCoefficients(fingerprint=params.fingerprint(),
                                 terms=terms, time_term=gamma)
    return AugmentResult(augmented, enlarged, float(sigma[-1]),
                         float(sigma[0]))


def extract_pde(coeffs: LiftCoefficients, mode: str = "summation",
                system: Optional[np.ndarray] = None) -> MacroPde:
    """Read the macroscopic PDE off the augmented coefficients.

    summation: sum each coefficient vector over the velocities; the
    density constraint sum_i f_i = rho forces
    (sum gamma) rho_t = -(sum alpha) rho_x - (sum beta) rho_xx, so
    a_hat = sum(alpha)/sum(gamma) and D_hat = -sum(beta)/sum(gamma).
    nullspace: the PDE is the null relation between the derivative
    columns and the time column of the enlarged probe system
    (AugmentResult.system), one column per term of coeffs and the time
    column last.
    """
    if mode == "summation":
        if coeffs.time_term is None:
            raise ValueError("summation mode needs time coefficients; "
                             "augment the trained coefficients first")
        gamma_sum = float(np.sum(coeffs.time_term))
        scale = float(np.abs(coeffs.time_term).sum())
        if abs(gamma_sum) <= 1e-12 * max(scale, 1e-300):
            raise ValueError("time coefficients sum to zero; "
                             "the summation ratios are undefined")
        sums = {spec: np.sum(vec) for spec, vec in coeffs.terms.items()}
        return _read_off(sums, gamma_sum)

    if mode != "nullspace":
        raise ValueError(f"unknown extraction mode {mode!r}")
    specs = coeffs.sorted_specs()
    if system is None or system.shape[1] != len(specs) + 1:
        raise ValueError("nullspace mode needs the enlarged probe system, "
                         f"{len(specs)} derivative columns and a time column")
    _, singular_values, v_rows = np.linalg.svd(system)
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
    return _read_off(dict(zip(specs, null_vec)), float(v_time))


def _read_off(weights: dict, time_weight: float) -> MacroPde:
    """The PDE of the relation time_weight rho_t + sum_T weights[T] D_T rho
    = 0: the first derivatives give the advection and the second
    derivative along axis 0 the diffusion, both over time_weight."""
    dimension = len(next(iter(weights)).orders)
    second = DerivSpec((2,) + (0,) * (dimension - 1))
    if second not in weights:
        raise ValueError("the PDE is read off the second-derivative terms; "
                         "train with spatial_order >= 2")
    firsts = [DerivSpec(tuple(int(ax == axis) for ax in range(dimension)))
              for axis in range(dimension)]
    return MacroPde(
        advection=tuple(float(weights[s]) / time_weight for s in firsts),
        diffusion=-float(weights[second]) / time_weight)
