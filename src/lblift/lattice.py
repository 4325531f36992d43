"""Core lattice Boltzmann (BGK) machinery.

Velocity sets, equilibria, the stream-collide update and the density
reset of the lifting operators.  The D1Q3 moment transform serves the
moment round-trip check (criterion 1); no lifting operator uses it.
Distribution fields are plain numpy arrays with the velocity index
leading: shape (q, n) in 1D and (q, nx, ny) in 2D.  Density fields drop
the leading axis.  The update is periodic on every axis; a subdomain fed
through ghost cells (the hybrid) updates its rimmed field periodically
and keeps the interior, which the wrap never reaches.  The update
collides as many velocities at once as fit _BLOCK_CELLS elements into a
group-sized scratch array, and streams that scratch straight into the
new field, whose rows of the group hold the relaxation term until then;
every value is the same, bit for bit, whatever the group size, and
whatever the memory layout of the field, as restrict sums the velocities
in index order.

The D1Q3 moment transform follows the (f_1, f_0, f_-1) ordering with
dimensionless lattice velocities c_i in {+1, 0, -1}:

    rho = f_1 + f_0 + f_-1        (density)
    phi = f_1 - f_-1              (first moment)
    xi  = (f_1 + f_-1) / 2        (half second moment)

Physical velocities are v_i = c_i * dx / dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Tuple

import numpy as np


def _stream_moves(c: Tuple[int, ...]) -> list:
    """The (destination, source) slice pairs along the grid axes that move
    a component one link along c: the bulk and the wrapped edge along each
    axis of a nonzero shift, the whole axis where c has no shift, so 2^s
    pairs for s shifted axes."""
    per_axis = [((slice(shift, None), slice(None, -shift)),
                 (slice(None, shift), slice(-shift, None))) if shift
                else ((slice(None), slice(None)),) for shift in c]
    return [(tuple(d for d, _ in pairs), tuple(s for _, s in pairs))
            for pairs in product(*per_axis)]


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

    def group_moves(self, group: int) -> tuple:
        """Per group of up to group velocities, in index order, the
        (destination, source) index pairs that stream the group's rows of
        stream_collide's scratch into the new field.

        Velocity k moves one link along c_k, out[k][x] = scratch[x - c_k]:
        the rest velocity in one copy, the others in 2^s copies for s
        shifted axes (the bulk and the wrapped edge along each), whatever
        the grid size.  Built once per velocity set and group size.
        """
        moves = self._group_moves.get(group)
        if moves is None:
            moves = self._group_moves[group] = tuple(
                tuple(((k,) + dst, (k - start,) + src)
                      for k in range(start, min(start + group, self.q))
                      for dst, src in _stream_moves(self.directions[k]))
                for start in range(0, self.q, group))
        return moves

    @cached_property
    def _group_moves(self) -> dict:
        return {}

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

    def collision_groups(self, group: int) -> tuple:
        """(rows, local, weight, moves) per group of up to group
        velocities, in index order: the rows of the field, the rows of the
        group scratch, the equilibrium weights of stream_collide's
        relaxation terms, and the (destination, source) index pairs that
        stream the group's scratch rows into the new field.

        A group of one velocity takes an integer row and a scalar weight,
        so its ufunc calls are the per-velocity ones; a larger group takes
        slices and a column of weights that broadcasts over the grid.  On
        a 68 x 68 D2Q5 field, five groups of one, length-1 slices with a
        (1, 1, 1) weight column make stream_collide 3-5 % slower (56 -> 59
        and 62 -> 64 us, medians of 20 to 30 alternating timeit rounds on a
        2-core Intel Xeon VM), about 1 % on a 101 x 200 D2Q9 field.  The
        moves are VelocitySet.group_moves.  Built once per parameter set
        and group size.
        """
        groups = self._collision_groups.get(group)
        if groups is None:
            weights = self.equilibrium_weights()
            columns = weights.reshape((-1,) + (1,) * self.vset.dimension)
            groups = []
            for start, moves in zip(range(0, self.vset.q, group),
                                    self.vset.group_moves(group)):
                stop = min(start + group, self.vset.q)
                if stop - start == 1:
                    groups.append((start, 0, weights[start], moves))
                else:
                    groups.append((slice(start, stop), slice(0, stop - start),
                                   columns[start:stop], moves))
            groups = self._collision_groups[group] = tuple(groups)
        return groups

    @cached_property
    def _collision_groups(self) -> dict:
        return {}


@dataclass
class Moments:
    """D1Q3 moment triple (rho, phi, xi), each an array over the grid."""

    rho: np.ndarray
    phi: np.ndarray
    xi: np.ndarray


# Elements per block of a kernel's scratch: stream_collide collides as
# many velocities at once as fit into its group scratch, which it then
# streams into the new field, and the stencil lift takes its output rows
# in blocks of this many cells.
_BLOCK_CELLS = 8192

# restrict's start: a 0-d array, the cheapest +0.0 operand of a ufunc
_PLUS_ZERO = np.zeros(())

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
    """Restriction to the macroscopic density: the velocities summed in
    index order, one component at a time, from +0.0 as np.sum starts.  An
    explicit loop, because np.sum adds pairwise when the velocity axis is
    innermost in memory: this order holds whatever the layout of f."""
    f = np.asarray(f, dtype=float)
    rho = np.add(_PLUS_ZERO, f[0])
    for k in range(1, len(f)):
        rho += f[k]
    return rho


def stream_collide(f: np.ndarray, params: LbmParams) -> np.ndarray:
    """One periodic BGK update  f_i(x + c_i dx, t + dt) = (1-w) f_i + w f_eq_i.

    The velocities collide in groups of as many as fit _BLOCK_CELLS
    elements, at least one (LbmParams.collision_groups): a 1D row of 200
    cells takes all q in one group, a 101 x 200 D2Q9 field one velocity
    per group.  Per group, (1-w) f goes into a group-sized scratch array,
    the relaxation term (w_i rho) w into the group's rows of the new
    field, and their sum back into the scratch, which the group's moves
    then stream one lattice link into those rows; every grid axis wraps.
    No field-sized intermediate is made, and f is only read.  Each
    element meets the same operations in the same order whatever the
    group size.
    """
    f = np.asarray(f, dtype=float)
    vset = params.vset
    if f.ndim != vset.dimension + 1:
        raise ValueError(f"distribution rank {f.ndim} does not match "
                         f"{vset.name}")
    if f.shape[0] != vset.q:
        raise ValueError(f"expected leading axis {vset.q} for {vset.name}")

    global _step_count
    _step_count += 1
    rho = restrict(f)
    omega = params.omega
    keep = 1.0 - omega
    out = np.empty(f.shape)
    group = min(vset.q, max(1, _BLOCK_CELLS // max(1, rho.size)))
    scratch = np.empty((group,) + rho.shape)
    for rows, local, weight, moves in params.collision_groups(group):
        post = scratch[local]
        np.multiply(keep, f[rows], out=post)
        term = out[rows]
        np.multiply(weight, rho, out=term)
        term *= omega
        post += term
        for dst, src in moves:
            out[dst] = scratch[src]
    return out


def run_lbm(f: np.ndarray, params: LbmParams, steps: int) -> np.ndarray:
    """Advance a periodic LBM simulation by the given number of steps."""
    for _ in range(steps):
        f = stream_collide(f, params)
    return f


def moments(f: np.ndarray) -> Moments:
    """D1Q3 moment transform (rho, phi, xi) of a distribution field."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"distribution rank {f.ndim} does not match D1Q3")
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
    """Pin the density of the float field f to rho0 in place, keeping all
    non-density moments; returns f.

    The correction lands entirely on the rest direction vset.rest: for
    D1Q3 this is exactly the moment-space reset of (rho, phi, xi) ->
    (rho0, phi, xi), and it generalises unchanged to D2Q5/D2Q9 (whose
    rest component enters no non-density moment of the invertible
    transform).
    """
    f[vset.rest] += rho0 - restrict(f)
    return f
