"""Constrained-runs lifting.

Slaves the non-density part of a distribution field to a given density
by stepping the LBM while pinning the density, then extrapolating the
evolved state backward in time.  The m-th order scheme damps the
(m+1)-th time difference of the distributions, so m = 0 keeps them
constant, m = 1 linear, and so on.

The unknowns are the q-1 non-rest components of f; the rest component,
VelocitySet.rest, is the density minus their sum, the direction that
reset_density corrects.  The map is linear in the density and those
components together, so its fixed point is the solution of one linear
system.  On a periodic grid the map commutes with shifts and does not
depend on the density: the q impulse responses of the smoothing
(impulse_responses, which training probes as well) hold all of it, and
an FFT over every grid axis turns the fixed point into one transfer per
wavenumber, the components being that transfer times the density's
spectrum.  Each response reaches only m+1 cells, so the q impulses share
one constrained run of m+1 LBM steps on q windows of 2(m+1)+1 cells, and
cr_kernel wraps the responses onto its grid: one probe run of m+1 steps
on any grid.  A lift handed the kernel of an earlier one
(CrResult.kernel) pays only its closing constrained run, m+1 LBM steps,
which checks the fixed point; CrResult.lbm_steps is the step counter's
difference over the lift.  The solver works on full periodic density
fields of every velocity set.  In 1D the transfer is local and well
conditioned; in 2D it is global, with no decay across the grid, and
its blocks can be ill-conditioned at grid-scale wavenumbers, near
(small, pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .lattice import (LbmParams, finite_density, integer, lbm_step_count,
                      reset_density, restrict, stream_collide)


# the largest max-norm of a closing residual that counts as converged
CR_TOL = 1e-13


@dataclass(frozen=True)
class CrConfig:
    """Settings for the constrained-runs lift: m is the extrapolation order."""

    m: int = 1

    def __post_init__(self):
        if integer(self.m, "m") not in (0, 1, 2, 3):
            raise ValueError(f"extrapolation order m={self.m}, expected 0..3")


@dataclass
class CrResult:
    """Lifted field plus solver diagnostics, and the transfer kernel of the
    solve, which later lifts on the same grid shape and model can reuse."""

    f: np.ndarray
    iterations: int
    lbm_steps: int
    residual: float
    converged: bool
    kernel: np.ndarray


@lru_cache(maxsize=None)
def extrapolation_weights(m: int) -> np.ndarray:
    """Backward extrapolation weights over states at t = dt, ..., (m+1) dt.

    Enforcing a vanishing (m+1)-th forward difference at t = 0 gives
    v(0) = sum_j (-1)^(j+1) C(m+1, j) v(j dt).  The weights sum to 1.
    Built once per m; the array is read-only because every caller shares
    it.
    """
    weights = np.array(
        [(-1) ** (j + 1) * comb(m + 1, j) for j in range(1, m + 2)],
        dtype=float,
    )
    weights.flags.writeable = False
    return weights


def constrained_smooth(f: np.ndarray, rho0: np.ndarray, m: int,
                       params: LbmParams) -> np.ndarray:
    """m+1 free LBM steps, backward extrapolation, density pinned to rho0.

    The snapshots of the run are combined with the binomial weights of
    extrapolation_weights, which zeroes the (m+1)-th forward time
    difference at t = 0; since the weights sum to 1 this is an affine
    combination.  The density of the extrapolated field is then reset to
    rho0 (the reset only touches the rest direction, so the extrapolated
    non-rest components are kept exactly).  Resetting the density after every
    step instead would hand every m the m = 0 fixed point: a state that
    is invariant under one constrained step is invariant under any
    binomial combination of them, and the m >= 1 benchmark errors never
    drop.  Works for any velocity set on a periodic grid.

    The sum accumulates from zero in a new field, and one product buffer
    serves every step's weighted snapshot; reset_density then pins the
    density in place on that field.
    """
    out = np.zeros(np.shape(f))
    term = np.empty_like(out)
    for w in extrapolation_weights(m):
        f = stream_collide(f, params)
        np.multiply(w, f, out=term)
        out += term
    return reset_density(out, rho0, params.vset)


def impulse_responses(m: int, params: LbmParams) -> np.ndarray:
    """kernels[i, j, u]: velocity j at offset u of R_i =
    constrained_smooth(e_i delta_0, 0) on a periodic grid, for i < q, with
    offset u at index u + m + 1 per axis, |u| <= m+1.  That smoothing is
    linear and shift-invariant, so these q responses hold all of it.

    R_i vanishes beyond m+1 cells of its impulse per axis, so one run of
    m+1 LBM steps probes all q on the grid (p,) * (dim-1) + (q p,), p =
    2(m+1)+1: impulse i sits at the centre of window i of the last axis,
    which holds its whole response, bit for bit as on any larger grid.
    """
    q, dimension = params.vset.q, params.vset.dimension
    p = 2 * (m + 1) + 1
    windows = (p,) * (dimension - 1) + (q, p)
    impulse = np.zeros((q,) + windows)
    each = np.arange(q)
    impulse[(each,) + (m + 1,) * (dimension - 1) + (each, m + 1)] = 1.0
    grid = windows[:-2] + (q * p,)
    smooth = constrained_smooth(impulse.reshape((q,) + grid), np.zeros(grid),
                                m, params)
    return np.moveaxis(smooth.reshape((q,) + windows), -2, 0)


def _distributions(rho0: np.ndarray, v: np.ndarray, rest: int) -> np.ndarray:
    """f with non-rest components v and density rho0: v copied straight
    into the non-rest rows, the rest row rho0 - restrict(v)."""
    f = np.empty((len(v) + 1,) + v.shape[1:])
    f[:rest] = v[:rest]
    f[rest + 1:] = v[rest:]
    np.subtract(rho0, restrict(v), out=f[rest])
    return f


def _non_rest(f: np.ndarray, rest: int) -> np.ndarray:
    """The q-1 non-rest components of f."""
    return np.concatenate((f[:rest], f[rest + 1:]))


def _wrap(window: np.ndarray, shape: tuple) -> np.ndarray:
    """window[r, u], offsets |u| <= m+1 per axis, on a periodic grid of the
    given shape: offset u on cell u mod n, summed with its images on an
    axis shorter than the window."""
    reach = window.shape[1] // 2
    grid = np.zeros(window.shape[:1] + shape)
    np.add.at(grid, (slice(None),) + np.ix_(
        *(np.arange(-reach, reach + 1) % n for n in shape)), window)
    return grid


def cr_map(rho0: np.ndarray, v: np.ndarray, config: CrConfig,
           params: LbmParams) -> np.ndarray:
    """One application of the constrained-runs map.

    v stacks the q-1 non-rest components of f, shape (q-1,) + grid.  The
    map builds f from (rho0, v), applies constrained_smooth and returns
    the non-rest components of the smoothed field.
    """
    rest = params.vset.rest
    g = constrained_smooth(_distributions(rho0, v, rest), rho0, config.m,
                           params)
    return _non_rest(g, rest)


def _grid_rfft(x: np.ndarray, dimension: int) -> np.ndarray:
    """np.fft.rfftn over the last `dimension` axes of x, through the 1D
    transforms rfftn runs, in its order: rfft on the last axis, then fft
    on each other one from the last to the first.  The same values,
    without rfftn's argument handling on every call."""
    x = np.fft.rfft(x)
    for axis in range(-2, -dimension - 1, -1):
        x = np.fft.fft(x, axis=axis)
    return x


def _grid_irfft(x: np.ndarray, shape: tuple) -> np.ndarray:
    """np.fft.irfftn(x, s=shape) over the last len(shape) axes of x, as
    _grid_rfft runs rfftn: ifft on each leading axis from the first, then
    irfft on the last to shape[-1] cells."""
    for axis in range(-len(shape), -1):
        x = np.fft.ifft(x, axis=axis)
    return np.fft.irfft(x, shape[-1])


def cr_kernel(shape: tuple, config: CrConfig,
              params: LbmParams) -> np.ndarray:
    """Per-wavenumber transfer G = (I - B)^-1 A of the cr_map fixed point.

    cr_map(rho0, v) = A rho0 + B v is linear in both arguments and
    commutes with periodic shifts, so the fixed point v = cr_map(rho0, v)
    is v = (I - B)^-1 A rho0, a convolution of rho0.  The q responses R_i
    of impulse_responses hold all of it: on the non-rest rows, A is the
    response R_rest to the density, and column j of B is R_j - R_rest,
    since raising component j lowers the rest one.  Each R_i is wrapped
    onto the grid, offset u on cell u mod n, its images summed on an axis
    shorter than 2(m+1)+1 cells, one R_i at a time.  An FFT over every
    grid axis splits I - B into one (q-1)x(q-1) block per wavenumber and
    A into one (q-1)-vector; each block is solved against its vector
    here, once.  The responses are real, so wavenumbers k and -k carry
    conjugate blocks, and only the half spectrum of rfftn is kept: the
    last axis has shape[-1] // 2 + 1 wavenumbers.  G is returned
    read-only and complex, stacked like the unknowns: shape
    (q-1,) + shape[:-1] + (shape[-1] // 2 + 1,).  A singular block, as
    omega near 0 (or 2 for D2Q9) gives, is refused with a ValueError that
    names the grid, m, omega and the first singular wavenumber per axis,
    in rad in [0, 2 pi), looked up only once the solve has failed.
    """
    rest = params.vset.rest
    # spectra[i][k, r]: row r of R_i at wavenumber k, one R_i at a time
    spectra = [np.moveaxis(_grid_rfft(_wrap(_non_rest(g, rest), shape),
                                      len(shape)), 0, -1)
               for g in impulse_responses(config.m, params)]
    density = spectra.pop(rest)
    blocks = np.eye(len(spectra)) - (np.stack(spectra, axis=-1)
                                     - density[..., None])
    try:
        transfer = np.linalg.solve(blocks, density[..., None])[..., 0]
    except np.linalg.LinAlgError:
        cells = " x ".join(str(n) for n in shape)
        # the first block with a zero pivot, as the solve met it
        first = np.unravel_index(np.argmin(np.abs(np.linalg.det(blocks))),
                                 blocks.shape[:-2])
        k = ", ".join(f"{2 * np.pi * i / n:.3f}" for i, n in zip(first, shape))
        raise ValueError(
            f"constrained-runs fixed point is singular on {cells} cells at "
            f"m = {config.m}, omega = {params.omega!r}, first at wavenumber "
            f"({k}) rad") from None
    transfer = np.ascontiguousarray(np.moveaxis(transfer, -1, 0))
    transfer.flags.writeable = False
    return transfer


def cr_lift(rho0: np.ndarray, config: CrConfig, params: LbmParams,
            kernel: np.ndarray | None = None) -> CrResult:
    """Lift a periodic density field to distribution functions.

    Solves v = cr_map(rho0, v) in Fourier space: the non-rest components
    are v = irfftn(G rfftn(rho0)), with G the half-spectrum transfer of
    cr_kernel.  kernel takes G from an earlier lift (CrResult.kernel) or
    cr_kernel call on the same grid shape, config and model; without it
    the lift probes G itself.  v is written straight into the non-rest rows
    of f, whose rest row is rho0 less their sum.  A closing constrained run
    g of the lifted f gives the residual max|v - cr_map(rho0, v)|, taken in
    place on g as max|g - f| over its non-rest rows, and converged =
    residual <= CR_TOL, so a kernel of another model is caught; a lift
    that misses CR_TOL is returned rather than raised, so callers can
    inspect it.  iterations is 1, the one FFT filter; lbm_steps counts the
    LBM steps of the lift, the closing run and any probe of cr_kernel.  A
    density that lattice.finite_density refuses is refused before any LBM
    step, and so is a kernel whose shape does not fit the grid.  A kernel
    of a grid whose last axis differs by one cell can have the same shape;
    its closing run fails.
    """
    rho0 = finite_density(rho0, params.vset)
    q = params.vset.q
    before = lbm_step_count()
    half_spectrum = rho0.shape[:-1] + (rho0.shape[-1] // 2 + 1,)
    if kernel is None:
        kernel = cr_kernel(rho0.shape, config, params)
    elif kernel.shape != (q - 1,) + half_spectrum:
        cells = " x ".join(str(n) for n in rho0.shape)
        raise ValueError(
            f"kernel of shape {kernel.shape} does not fit {cells} cells")
    v = _grid_irfft(kernel * _grid_rfft(rho0, rho0.ndim), rho0.shape)
    rest = params.vset.rest
    f = _distributions(rho0, v, rest)
    # |g - f| in place on the closing run's field; its rest row is no
    # unknown, so it is zeroed out of the max
    gap = constrained_smooth(f, rho0, config.m, params)
    np.abs(np.subtract(gap, f, out=gap), out=gap)
    gap[rest] = 0.0
    residual = float(gap.max())
    return CrResult(f, 1, lbm_step_count() - before, residual,
                    residual <= CR_TOL, kernel)
