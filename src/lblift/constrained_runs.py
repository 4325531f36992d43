"""Constrained-runs lifting.

Slaves the non-conserved moments of a distribution field to a given
density by stepping the LBM while pinning the density, then
extrapolating the evolved state backward in time.  The m-th order scheme
damps the (m+1)-th time difference of the fast moments, so m = 0 keeps
them constant, m = 1 linear, and so on.

That map is linear in the density and the fast moments together, so its
fixed point is the solution of one linear system.  On a periodic grid
both parts commute with shifts and do not depend on the density: three
unit impulses at one cell give all of them, and an FFT turns the fixed
point into one transfer function per wavenumber, the fast moments being
that transfer times the density's spectrum.  cr_kernel probes it once
per grid size and model, for 3(m+1) LBM steps; each lift then pays only
its closing constrained run, m+1 LBM steps, which checks the fixed
point.  The solver works on full periodic density fields; the D1Q3
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
    """Per-wavenumber transfer G(k) = J(k)^-1 A(k) of the cr_map fixed point.

    cr_map(rho0, v) = A rho0 + B v is linear in both arguments and
    commutes with periodic shifts, so the fixed point v = cr_map(rho0, v)
    is v = J^-1 A rho0 with J = I - B, a convolution of rho0.  Three unit
    impulses at cell 0 hold all of it: the density response cr_map(d, 0)
    is the column of A, and e_j - cr_map(0, e_j), for an impulse in fast
    moment j, is block column j of J.  An FFT along the grid splits J into
    one 2x2 block per wavenumber (the Fourier view of the linear BGK
    operator) and A into one 2-vector; each block is solved against its
    vector here, once.  G is returned read-only, complex, with shape
    (n, 2); three map evaluations, 3(m+1) LBM steps.
    """
    delta = np.zeros(n)
    delta[0] = 1.0
    density = cr_map(delta, np.zeros((2, n)), config, params)
    jacobian = np.empty((2, 2, n))      # (response moment, impulse, cell)
    for j in range(2):
        impulse = np.zeros((2, n))
        impulse[j, 0] = 1.0
        jacobian[:, j] = impulse - cr_map(np.zeros(n), impulse, config, params)
    blocks = np.moveaxis(np.fft.fft(jacobian), -1, 0)
    transfer = np.linalg.solve(blocks, np.fft.fft(density).T[..., None])[..., 0]
    transfer.flags.writeable = False
    return transfer


def cr_lift(rho0: np.ndarray, config: CrConfig, params: LbmParams,
            kernel: np.ndarray | None = None) -> CrResult:
    """Lift a periodic density field to distribution functions.

    Solves v = cr_map(rho0, v) in Fourier space: the fast moments are
    v = ifft(G fft(rho0)), with G the transfer of cr_kernel.  kernel takes
    G from an earlier cr_kernel call on the same grid size, config and
    model; without it the lift probes G itself.  A closing constrained run
    gives the residual max|v - cr_map(rho0, v)|, and converged = residual
    <= tol, so a kernel of another model is caught; a lift that misses tol
    is returned rather than raised, so callers can inspect it.  iterations
    is 1, the one FFT filter; lbm_steps is m+1 with a kernel and 4(m+1)
    without, one or four map evaluations.  A non-finite density (the
    ValueError names its first bad cell) or one that is not 1D is refused
    before any LBM step, and so is a kernel that is not (n, 2).
    """
    rho0 = cr_density(rho0)
    n = rho0.size
    evaluations = 1
    if kernel is None:
        kernel = cr_kernel(n, config, params)
        evaluations = 4
    elif kernel.shape != (n, 2):
        raise ValueError(
            f"kernel of shape {kernel.shape} does not fit {n} cells")
    v = np.fft.ifft(kernel.T * np.fft.fft(rho0)).real
    residual = float(np.max(np.abs(v - cr_map(rho0, v, config, params))))
    f = from_moments(Moments(rho=rho0, phi=v[0], xi=v[1]))
    return CrResult(f, 1, evaluations * (config.m + 1), residual,
                    residual <= config.tol)
