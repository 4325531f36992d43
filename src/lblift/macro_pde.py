"""Macroscopic advection-diffusion PDE for a BGK model.

The density of the lattice model evolves, to leading order, by

    rho_t + a . grad(rho) = D * laplace(rho)

with D fixed by the collision frequency.  This module provides that
analytic equivalence plus an explicit cell-centered finite difference
solver (central in space, forward Euler in time, periodic on every axis)
used as the PDE half of the hybrid model, which supplies the subdomain's
ghost cells itself and keeps the interior of the step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .lattice import LbmParams, finite


@dataclass(frozen=True)
class MacroPde:
    """Advection velocity per axis and a scalar diffusion coefficient."""

    advection: Tuple[float, ...]
    diffusion: float

    def __post_init__(self):
        object.__setattr__(self, "advection", tuple(
            finite(a, f"advection component {axis}")
            for axis, a in enumerate(self.advection)))
        finite(self.diffusion, "diffusion")


def analytic_pde(params: LbmParams) -> MacroPde:
    """Macroscopic PDE coefficients of a BGK model.

    D = c_s^2 * dt * (1/omega - 1/2), which for D1Q3 (c_s^2 = (2/3)
    (dx/dt)^2) is the familiar (2-omega)/(3 omega) * dx^2/dt.  The same
    c_s^2-based form gives D = 1 for all three benchmark parameter sets;
    carrying the 1D prefactor into 2D would double it, since the 2D sets
    have c_s^2 = (1/3)(dx/dt)^2.

    D1Q3 with advection a loses (3/4) a^2 dt (1/omega - 1/2): its three
    velocities lack fourth-order isotropy, so the second moment of the
    equilibrium is c_s^2 + a^2/4 where an isotropic set has c_s^2 + a^2.
    D2Q5 with advection is refused: it lacks the same isotropy, so its
    diffusion is a tensor (D_xx = (c_s^2 - a_y^2/2) tau, D_xy = -a_x a_y
    tau, tau = dt (1/omega - 1/2)) that a scalar D cannot carry.
    """
    if params.omega == 0.0:
        raise ValueError("omega = 0 never relaxes towards equilibrium: the "
                         "diffusion coefficient c_s^2 dt (1/omega - 1/2) "
                         "is undefined")
    if params.vset.name == "D2Q5" and any(params.advection):
        raise ValueError(f"D2Q5 with advection {params.advection} lacks "
                         "fourth-order isotropy: its diffusion is a tensor "
                         "(D_xy = -a_x a_y dt (1/omega - 1/2)), not a scalar")
    diffusion = params.sound_speed_sq * params.dt * (1.0 / params.omega - 0.5)
    if params.vset.dimension == 1:
        diffusion -= (0.75 * params.advection[0] ** 2
                      * params.dt * (1.0 / params.omega - 0.5))
    return MacroPde(advection=params.advection, diffusion=diffusion)


def stability_breaches(pde: MacroPde, dx: float,
                       dt: float) -> List[Tuple[str, str]]:
    """The stability bounds of ftcs_step that its step breaks, each as
    (the model parameter that sets the number, a message): dim nu <= 1/2,
    set by omega, whatever dx and dt, as nu = c_s^2 (1/omega - 1/2) in
    lattice units; each Courant number C = |a| dt / dx <= 1 and sum C^2 <=
    2 nu (von Neumann, for central advection), set by dt.  nu = D dt /
    dx^2."""
    nu = pde.diffusion * dt / dx ** 2
    breaches = []
    if len(pde.advection) * nu > 0.5:
        breaches.append(("omega", f"diffusion number {len(pde.advection)}*"
                         f"{nu:.3g} exceeds 1/2; forward Euler may be "
                         "unstable"))
    courant_sq = 0.0
    for a in pde.advection:
        courant = abs(a) * dt / dx
        if courant > 1.0:
            breaches.append(("dt", "advection Courant number "
                             f"{courant:.3g} exceeds 1"))
        courant_sq += courant * courant
    if courant_sq > 2.0 * nu:
        breaches.append(("dt", f"squared Courant numbers sum to "
                         f"{courant_sq:.3g}, above 2 nu = {2.0 * nu:.3g}; "
                         "forward Euler with central advection is unstable"))
    return breaches


def ftcs_step(rho: np.ndarray, pde: MacroPde, dx: float,
              dt: float) -> np.ndarray:
    """One periodic forward-Euler step of the advection-diffusion PDE.

    rho' = rho + nu (rho_W - 2 rho + rho_E) - (a dt / 2 dx)(rho_E - rho_W)
    per axis, with nu = D dt / dx^2 (the grid spacing is shared by all
    axes).  Axis 0 reads its neighbours from a copy with one wrapped cell
    at each end, the other axes from two neighbour buffers, each filled by
    two wrap copies, as np.roll fills them; 2 rho is formed once and
    every axis reuses the same two term buffers.  The stability bounds of
    stability_breaches are warnings here, not errors: a subdomain fed by
    ghost values can behave better than the periodic worst case.  The
    experiment configs refuse them (lblift.bench).
    """
    rho = np.asarray(rho, dtype=float)
    dim = rho.ndim
    if len(pde.advection) != dim:
        raise ValueError(
            f"advection has {len(pde.advection)} axes, density has {dim}")
    for _, message in stability_breaches(pde, dx, dt):
        warnings.warn(message, stacklevel=2)

    nu = pde.diffusion * dt / dx ** 2
    padded = np.concatenate([rho[-1:], rho, rho[:1]], axis=0)
    two_rho = 2.0 * rho
    diffusion = np.empty_like(rho)
    drift = np.empty_like(rho)
    if dim > 1:
        east_buffer = np.empty_like(rho)
        west_buffer = np.empty_like(rho)
    for ax, a in enumerate(pde.advection):
        if ax:
            # np.roll(rho, -1) and np.roll(rho, 1) along ax, as wrap copies
            east, west = east_buffer, west_buffer
            before = (slice(None),) * ax
            east[before + (slice(None, -1),)] = rho[before + (slice(1, None),)]
            east[before + (slice(-1, None),)] = rho[before + (slice(None, 1),)]
            west[before + (slice(1, None),)] = rho[before + (slice(None, -1),)]
            west[before + (slice(None, 1),)] = rho[before + (slice(-1, None),)]
        else:
            east = padded[2:]
            west = padded[:-2]
        np.subtract(east, two_rho, out=diffusion)
        diffusion += west
        diffusion *= nu
        np.subtract(east, west, out=drift)
        drift *= a * dt / (2.0 * dx)
        if ax:
            diffusion -= drift
            out += diffusion
        else:
            out = rho + diffusion
            out -= drift
    return out
