"""Core lattice Boltzmann (BGK) machinery.

Velocity sets, equilibria, the stream-collide update and the density
reset of the lifting operators.  The D1Q3 moment transform serves the
moment round-trip check (criterion 1); no lifting operator uses it.
Distribution fields are plain numpy arrays with the velocity index
leading: shape (q, n) in 1D and (q, nx, ny) in 2D.  Density fields drop
the leading axis.  The update is periodic on every axis; a subdomain fed
through ghost cells (the hybrid) updates its rimmed field periodically
and keeps the interior, which the wrap never reaches.

The D1Q3 moment transform follows the (f_1, f_0, f_-1) ordering with
dimensionless lattice velocities c_i in {+1, 0, -1}:

    rho = f_1 + f_0 + f_-1        (density)
    phi = f_1 - f_-1              (first moment)
    xi  = (f_1 + f_-1) / 2        (half second moment)

Physical velocities are v_i = c_i * dx / dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class VelocitySet:
    """A discrete velocity set with quadrature weights.

    sound_speed_sq_factor is c_s^2 in units of (dx/dt)^2.
    """

    name: str
    dimension: int
    directions: Tuple[Tuple[int, ...], ...]
    weights: Tuple[float, ...]
    sound_speed_sq_factor: float

    def __post_init__(self):
        if len(self.directions) != len(self.weights):
            raise ValueError("one weight per direction required")
        if len(set(self.directions)) != len(self.directions):
            raise ValueError(f"duplicate directions in {self.name}")
        if abs(sum(self.weights) - 1.0) > 1e-14:
            raise ValueError(f"weights of {self.name} must sum to 1")
        for c in self.directions:
            if len(c) != self.dimension:
                raise ValueError("direction arity must match dimension")

    @property
    def q(self) -> int:
        return len(self.directions)

    @cached_property
    def rest(self) -> int:
        """Index of the zero direction, the one reset_density corrects."""
        return self.directions.index((0,) * self.dimension)

    def direction_array(self) -> np.ndarray:
        """Directions as an integer array of shape (q, dimension)."""
        return np.array(self.directions, dtype=int)

    def weight_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)


D1Q3 = VelocitySet(
    name="D1Q3",
    dimension=1,
    directions=((1,), (0,), (-1,)),
    weights=(1 / 3, 1 / 3, 1 / 3),
    sound_speed_sq_factor=2 / 3,
)

# Rest direction first, then the four axis neighbours.
D2Q5 = VelocitySet(
    name="D2Q5",
    dimension=2,
    directions=((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)),
    weights=(1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6),
    sound_speed_sq_factor=1 / 3,
)

D2Q9 = VelocitySet(
    name="D2Q9",
    dimension=2,
    directions=(
        (0, 0),
        (1, 0), (0, 1), (-1, 0), (0, -1),
        (1, 1), (-1, 1), (-1, -1), (1, -1),
    ),
    weights=(4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36),
    sound_speed_sq_factor=1 / 3,
)

VELOCITY_SETS = {vs.name: vs for vs in (D1Q3, D2Q5, D2Q9)}


def finite_positive(value) -> float:
    """value as a float, refused unless finite and positive: the rule for
    dx and dt wherever a model is stated."""
    number = float(value)
    if not (np.isfinite(number) and number > 0.0):
        raise ValueError(f"{number!r} is not finite and positive")
    return number


def finite(value, name: str) -> float:
    """value as a float, refused unless finite: advection and diffusion."""
    number = float(value)
    if not np.isfinite(number):
        raise ValueError(f"{name} {number!r} is not finite")
    return number


def integer(value, name: str):
    """value, refused unless a Python or numpy integer, bool excluded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def stable_omega(value) -> float:
    """value as a float, refused outside the stable range [0, 2] of the
    relaxation rate omega (nan included)."""
    omega = float(value)
    if not 0.0 <= omega <= 2.0:
        raise ValueError(f"omega {omega!r} outside the stable range [0, 2]")
    return omega


@dataclass(frozen=True)
class LbmParams:
    """Parameters of one BGK model instance.

    advection is the macroscopic velocity vector a (length = dimension);
    zero advection gives the pure diffusion model.
    """

    vset: VelocitySet
    dx: float
    dt: float
    omega: float
    advection: Tuple[float, ...] = ()

    def __post_init__(self):
        finite_positive(self.dx)
        finite_positive(self.dt)
        stable_omega(self.omega)
        a = self.advection
        if not a:
            a = (0.0,) * self.vset.dimension
        if len(a) != self.vset.dimension:
            raise ValueError("advection vector must match the lattice dimension")
        object.__setattr__(self, "advection", tuple(
            finite(v, f"advection component {axis}")
            for axis, v in enumerate(a)))

    @property
    def sound_speed_sq(self) -> float:
        c = self.dx / self.dt
        return self.vset.sound_speed_sq_factor * c * c

    def fingerprint(self) -> tuple:
        """Hashable identity used to match trained coefficients to a model."""
        return (self.vset.name, self.dx, self.dt, self.omega, self.advection)

    def equilibrium_weights(self) -> np.ndarray:
        """d f_eq / d rho per direction (the equilibrium bracket times w_i).

        Computed once per parameter set; the array is read-only because
        every caller shares it.
        """
        return self._equilibrium_weights

    @cached_property
    def _equilibrium_weights(self) -> np.ndarray:
        w = self.vset.weight_array()
        if any(v != 0.0 for v in self.advection):
            c = self.dx / self.dt
            v = self.vset.direction_array() * c          # (q, d) physical velocities
            a = np.asarray(self.advection, dtype=float)  # (d,)
            cs2 = self.sound_speed_sq
            va = v @ a
            aa = float(a @ a)
            bracket = 1.0 + va / cs2 + va ** 2 / (2 * cs2 ** 2) - aa / (2 * cs2)
            w = w * bracket
        w.flags.writeable = False
        return w


@dataclass
class Moments:
    """D1Q3 moment triple (rho, phi, xi), each an array over the grid."""

    rho: np.ndarray
    phi: np.ndarray
    xi: np.ndarray


# Running count of stream_collide calls in this process.  Lifting
# operators differ mainly in how many extra LBM steps they burn, so the
# cost accounting snapshots this counter around each phase.
_step_count = 0


def lbm_step_count() -> int:
    """Total number of stream_collide calls so far."""
    return _step_count


def finite_density(rho: np.ndarray, vset: VelocitySet) -> np.ndarray:
    """rho as a float array; a ValueError names a rank that is not the
    dimension of vset, the shape of an empty grid or the first non-finite
    cell."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != vset.dimension:
        raise ValueError(f"density rank {rho.ndim} does not match {vset.name}")
    if rho.size == 0:
        raise ValueError(f"empty density grid of shape {rho.shape}")
    bad = ~np.isfinite(rho)
    if bad.any():
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"non-finite density {rho[cell]} at cell {cell}")
    return rho


def equilibrium(rho: np.ndarray, params: LbmParams) -> np.ndarray:
    """Equilibrium distribution for a density field.

    Second order in the advection velocity; reduces to w_i * rho for the
    pure diffusion model.  Conserves mass exactly: sum_i f_eq_i = rho.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != params.vset.dimension:
        raise ValueError(
            f"density rank {rho.ndim} does not match {params.vset.name}"
        )
    ew = params.equilibrium_weights()
    return ew.reshape((-1,) + (1,) * rho.ndim) * rho[None]


def restrict(f: np.ndarray) -> np.ndarray:
    """Restriction to the macroscopic density: sum over the velocity axis."""
    return np.asarray(f, dtype=float).sum(axis=0)


def stream_collide(f: np.ndarray, params: LbmParams) -> np.ndarray:
    """One periodic BGK update  f_i(x + c_i dx, t + dt) = (1-w) f_i + w f_eq_i.

    Collision fills one new field, in which each component then streams
    one lattice link in place; every grid axis wraps.  One component-sized
    scratch array serves every relaxation term and every streaming copy.
    """
    f = np.asarray(f, dtype=float)
    vset = params.vset
    if f.shape[0] != vset.q:
        raise ValueError(f"expected leading axis {vset.q} for {vset.name}")
    if f.ndim != vset.dimension + 1:
        raise ValueError(f"distribution rank {f.ndim} does not match "
                         f"{vset.name}")

    global _step_count
    _step_count += 1
    rho = restrict(f)
    weights = params.equilibrium_weights()
    post = (1.0 - params.omega) * f
    # one component at a time: no second field-sized buffer
    scratch = np.empty_like(rho)
    for k in range(vset.q):
        np.multiply(weights[k], rho, out=scratch)
        scratch *= params.omega
        post[k] += scratch
    for k, copies in _stream_copies(vset.directions):
        component = post[k]
        scratch[...] = component
        for dst, src in copies:
            component[dst] = scratch[src]
    return post


@lru_cache(maxsize=None)
def _stream_copies(directions: Tuple[Tuple[int, ...], ...]):
    """Per moving direction k, the (destination, source) slice pairs.

    Direction k moves one link along c_k: component[x] = source[x - c_k].
    Each axis needs two slice copies per nonzero shift (the bulk and the
    wrapped edge), independent of the grid size.
    """
    streams = []
    for k, c in enumerate(directions):
        if not any(c):
            continue
        per_axis = []
        for shift in c:
            if shift:
                per_axis.append([(slice(shift, None), slice(None, -shift)),
                                 (slice(None, shift), slice(-shift, None))])
            else:
                per_axis.append([(slice(None), slice(None))])
        streams.append((k, tuple(
            (tuple(d for d, _ in pairs), tuple(s for _, s in pairs))
            for pairs in product(*per_axis))))
    return tuple(streams)


def run_lbm(f: np.ndarray, params: LbmParams, steps: int) -> np.ndarray:
    """Advance a periodic LBM simulation by the given number of steps."""
    for _ in range(steps):
        f = stream_collide(f, params)
    return f


def moments(f: np.ndarray) -> Moments:
    """D1Q3 moment transform (rho, phi, xi) of a distribution field."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != 3:
        raise ValueError("moment transform is defined for D1Q3 fields")
    f1, f0, fm1 = f[0], f[1], f[2]
    return Moments(rho=f1 + f0 + fm1, phi=f1 - fm1, xi=0.5 * (f1 + fm1))


def from_moments(m: Moments) -> np.ndarray:
    """Inverse of the D1Q3 moment transform."""
    f1 = m.xi + 0.5 * m.phi
    fm1 = m.xi - 0.5 * m.phi
    f0 = m.rho - 2.0 * m.xi
    return np.stack([f1, f0, fm1])


def reset_density(f: np.ndarray, rho0: np.ndarray,
                  vset: VelocitySet) -> np.ndarray:
    """Pin the density of f to rho0 keeping all non-density moments.

    The correction lands entirely on the rest direction vset.rest: for
    D1Q3 this is exactly the moment-space reset of (rho, phi, xi) ->
    (rho0, phi, xi), and it generalises unchanged to D2Q5/D2Q9 (whose
    rest component enters no non-density moment of the invertible
    transform).
    """
    f = np.array(f, dtype=float, copy=True)
    f[vset.rest] += rho0 - restrict(f)
    return f
