"""Constrained-runs lifting.

Slaves the non-conserved moments of a distribution field to a given
density by stepping the LBM while pinning the density, then
extrapolating the evolved state backward in time.  The m-th order scheme
damps the (m+1)-th time difference of the fast moments, so m = 0 keeps
them constant, m = 1 linear, and so on.

That map is affine in the fast moments, so its fixed point is the
solution of one linear system.  On a periodic grid the linear part of
the residual r(v) = v - cr_map(v) is block-circulant and independent of
the density: one unit impulse per fast moment gives all of it, and an
FFT turns the solve into one 2x2 system per wavenumber.  cr_kernel
probes those blocks once per grid size and model, and every map
evaluation is paid for in LBM steps: a lift with a given kernel costs
2(m+1), the equilibrium residual and the closing residual, and the probe
2(m+1) more.  The solver works on full periodic density fields; the D1Q3
moment-space interface matches the (rho, phi, xi) transform of the
lattice module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .lattice import (
    LbmParams,
    Moments,
    equilibrium,
    finite_density,
    from_moments,
    moments,
    reset_density,
    stream_collide,
)


@dataclass(frozen=True)
class CrConfig:
    """Settings for the constrained-runs lift.

    m is the extrapolation order; a lift counts as converged when the
    max-norm of its closing residual is at most tol.
    """

    m: int = 1
    tol: float = 1e-13

    def __post_init__(self):
        if self.m not in (0, 1, 2, 3):
            raise ValueError(f"extrapolation order m={self.m}, expected 0..3")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class CrResult:
    """Lifted field plus solver diagnostics."""

    f: np.ndarray
    iterations: int
    lbm_steps: int
    residual: float
    converged: bool


def extrapolation_weights(m: int) -> np.ndarray:
    """Backward extrapolation weights over states at t = dt, ..., (m+1) dt.

    Enforcing a vanishing (m+1)-th forward difference at t = 0 gives
    v(0) = sum_j (-1)^(j+1) C(m+1, j) v(j dt).  The weights sum to 1.
    """
    return np.array(
        [(-1) ** (j + 1) * comb(m + 1, j) for j in range(1, m + 2)],
        dtype=float,
    )


def constrained_smooth(f: np.ndarray, rho0: np.ndarray, m: int,
                       params: LbmParams) -> np.ndarray:
    """m+1 free LBM steps, backward extrapolation, density pinned to rho0.

    The snapshots of the run are combined with the binomial weights of
    extrapolation_weights, which zeroes the (m+1)-th forward time
    difference at t = 0; since the weights sum to 1 this is an affine
    combination.  The density of the extrapolated field is then reset to
    rho0 (the reset only touches the rest direction, so the extrapolated
    fast moments are kept exactly).  Resetting the density after every
    step instead would hand every m the m = 0 fixed point: a state that
    is invariant under one constrained step is invariant under any
    binomial combination of them, and the m >= 1 benchmark errors never
    drop.  Works for any velocity set on a periodic grid.
    """
    weights = extrapolation_weights(m)
    out = np.zeros_like(np.asarray(f, dtype=float))
    for w in weights:
        f = stream_collide(f, params)
        out += w * f
    return reset_density(out, rho0)


def cr_map(rho0: np.ndarray, v: np.ndarray, config: CrConfig,
           params: LbmParams) -> np.ndarray:
    """One application of the constrained-runs map on D1Q3 moments.

    v stacks the fast moments (phi, xi) as shape (2, n).  The map builds
    f from (rho0, v), applies constrained_smooth and returns the fast
    moments of the smoothed field.
    """
    if params.vset.q != 3:
        raise ValueError("constrained-runs moments are defined for D1Q3")
    rho0 = np.asarray(rho0, dtype=float)
    v = np.asarray(v, dtype=float)
    f = from_moments(Moments(rho=rho0, phi=v[0], xi=v[1]))
    g = constrained_smooth(f, rho0, config.m, params)
    mg = moments(g)
    return np.stack([mg.phi, mg.xi])


def cr_density(rho0: np.ndarray) -> np.ndarray:
    """rho0 as a float array; a ValueError unless it is finite and 1D."""
    rho0 = finite_density(rho0)
    if rho0.ndim != 1:
        raise ValueError(
            f"density rank {rho0.ndim}: constrained runs lift 1D D1Q3 fields")
    return rho0


def cr_kernel(n: int, config: CrConfig, params: LbmParams) -> np.ndarray:
    """Fourier blocks of J, the linear part of r(v) = v - cr_map(v).

    cr_map is linear in (rho0, v) and commutes with periodic shifts, so J
    is block-circulant and independent of rho0: e_j - cr_map(0, e_j), for
    a unit impulse in fast moment j at cell 0, holds all of block column
    j.  An FFT along the grid splits J into one 2x2 block per wavenumber
    (the Fourier view of the linear BGK operator), returned read-only with
    shape (n, 2, 2); two map evaluations, 2(m+1) LBM steps.
    """
    kernel = np.empty((2, 2, n))        # (response moment, impulse, cell)
    for j in range(2):
        impulse = np.zeros((2, n))
        impulse[j, 0] = 1.0
        kernel[:, j] = impulse - cr_map(np.zeros(n), impulse, config, params)
    blocks = np.moveaxis(np.fft.fft(kernel), -1, 0)
    blocks.flags.writeable = False
    return blocks


def cr_lift(rho0: np.ndarray, config: CrConfig, params: LbmParams,
            kernel: np.ndarray | None = None) -> CrResult:
    """Lift a periodic density field to distribution functions.

    Solves v = cr_map(v) with one linear solve from the equilibrium
    moments v0: r(v) = v - cr_map(v) is affine, so v = v0 - J^-1 r(v0),
    solved in Fourier space with the blocks of cr_kernel.  kernel takes
    those blocks from an earlier cr_kernel call on the same grid size,
    config and model; without it the lift probes them itself.  A closing
    evaluation of the residual gives `residual`, and converged = residual
    <= tol; a lift that misses tol is returned rather than raised, so
    callers can inspect it.  iterations is 1, the one solve; lbm_steps is
    2(m+1) with a kernel and 4(m+1) without, two or four map evaluations.
    A non-finite density (the ValueError names its first bad cell) or
    one that is not 1D is refused before any LBM step.
    """
    rho0 = cr_density(rho0)
    n = rho0.size
    evaluations = 2
    if kernel is None:
        kernel = cr_kernel(n, config, params)
        evaluations = 4
    elif kernel.shape != (n, 2, 2):
        raise ValueError(
            f"kernel of shape {kernel.shape} does not fit {n} cells")
    m0 = moments(equilibrium(rho0, params))
    v = np.stack([m0.phi, m0.xi])
    rhs = np.fft.fft(_residual(rho0, v, config, params)).T[..., None]
    v = v - np.fft.ifft(np.linalg.solve(kernel, rhs)[..., 0].T).real
    residual = float(np.max(np.abs(_residual(rho0, v, config, params))))
    f = from_moments(Moments(rho=rho0, phi=v[0], xi=v[1]))
    return CrResult(f, 1, evaluations * (config.m + 1), residual,
                    residual <= config.tol)


def _residual(rho0, v, config, params):
    return v - cr_map(rho0, v, config, params)
