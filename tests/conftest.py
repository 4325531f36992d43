"""Shared model setups: the three benchmark parameter sets, and reference
paths that the package's fast ones are checked against."""

from fractions import Fraction

import numpy as np
import pytest

from lblift import (LbmParams, LiftCoefficients, VELOCITY_SETS,
                    constrained_smooth, equilibrium, expansion_terms,
                    restrict, run_lbm)
from lblift.stencil import _axis_stencil, central_offsets

# Relaxation rates that make the macroscopic diffusion coefficient
# exactly 1 for each benchmark model (0.9091 etc. are their roundings).
OMEGA = {
    "D1Q3": float(Fraction(10, 11)),
    "D2Q5": float(Fraction(50, 31)),
    "D2Q9": float(Fraction(125, 64)),
}
DT = {"D1Q3": 1e-3, "D2Q5": 1e-4, "D2Q9": 1e-5}


def benchmark_params(name: str, advection=()) -> LbmParams:
    """L = 10 at n = 200 cells; dt and omega per model."""
    return LbmParams(vset=VELOCITY_SETS[name], dx=0.05, dt=DT[name],
                     omega=OMEGA[name], advection=advection)


def gaussian_density(params: LbmParams, cells: int = 200) -> np.ndarray:
    x = np.arange(cells) * params.dx
    mid = cells * params.dx / 2.0
    bump = np.exp(-((x - mid) ** 2))
    if params.vset.dimension == 1:
        return bump
    return np.outer(bump, bump)


def roll_stream_collide(f, params):
    """Reference periodic BGK update: collide, then np.roll every component."""
    post = (1.0 - params.omega) * f + params.omega * equilibrium(restrict(f),
                                                                  params)
    out = np.empty_like(post)
    for k, c in enumerate(params.vset.directions):
        g = post[k]
        for axis, shift in enumerate(c):
            if shift:
                g = np.roll(g, shift, axis=axis)
        out[k] = g
    return out


def one_impulse_responses(shape, m, params):
    """The q responses R_i = constrained_smooth(e_i delta_0, 0) on a
    periodic grid of the given shape, one constrained run per unit impulse
    at cell 0: the reference for the packed probe of impulse_responses."""
    q = params.vset.q
    for i in range(q):
        impulse = np.zeros((q,) + shape)
        impulse[(i,) + (0,) * len(shape)] = 1.0
        yield constrained_smooth(impulse, np.zeros(shape), m, params)


def zero_coefficients(params: LbmParams, max_order: int) -> LiftCoefficients:
    """Zero vectors for every expansion term up to max_order."""
    terms = expansion_terms(params.vset.dimension, max_order)
    return LiftCoefficients(params.fingerprint(),
                            {s: np.zeros(params.vset.q) for s in terms})


def with_flat(coeffs: LiftCoefficients, values) -> LiftCoefficients:
    """coeffs with its spatial vectors read from values, in flatten order."""
    specs = coeffs.sorted_specs()
    parts = np.reshape(values, (len(specs), -1))
    return LiftCoefficients(
        coeffs.fingerprint, {s: part.copy() for s, part in zip(specs, parts)},
        None if coeffs.time_term is None else coeffs.time_term.copy())


@pytest.fixture(scope="session")
def d1_params():
    return benchmark_params("D1Q3")


@pytest.fixture(scope="session")
def d1_adv_params():
    return benchmark_params("D1Q3", advection=(0.66,))


@pytest.fixture(scope="session")
def d1_reference(d1_params):
    """Settled 1D state: 1000 free steps from an equilibrium start."""
    return run_lbm(equilibrium(gaussian_density(d1_params), d1_params),
                   d1_params, 1000)


@pytest.fixture(scope="session")
def d1_adv_reference(d1_adv_params):
    return run_lbm(equilibrium(gaussian_density(d1_adv_params), d1_adv_params),
                   d1_adv_params, 1000)


def derivative_at(rho, spec, dx, index):
    """spatial_derivative(rho, spec, dx)[index], evaluated only at index.

    index holds one integer array per axis, as in numpy fancy indexing,
    and wraps periodically.  One gather reads every stencil tap of every
    point; the 1D weights then reduce it axis by axis, first axis first,
    each sum running offset by offset from zero, exactly as
    spatial_derivative sums them, so the values are bit-identical.  This
    is the point-wise path that training's patch windows replaced.
    """
    rho = np.asarray(rho, dtype=float)
    if len(spec.orders) != rho.ndim:
        raise ValueError("spec arity does not match field rank")
    index = np.broadcast_arrays(*map(np.asarray, index))
    derived = [axis for axis, order in enumerate(spec.orders) if order]
    # taps[j_1, ..., j_k, *points]: rho at the points shifted by offset j_i
    # along the i-th derived axis
    gather = list(index)
    for i, axis in enumerate(derived):
        offsets = np.array(central_offsets(spec.orders[axis]))
        trailing = len(derived) - 1 - i + index[0].ndim
        gather[axis] = gather[axis] + offsets.reshape((-1,) + (1,) * trailing)
    taps = rho[tuple(ix % n for ix, n in zip(gather, rho.shape))]
    for axis in derived:
        _, w = _axis_stencil(spec.orders[axis], dx)
        out = np.zeros(taps.shape[1:])
        for wk, values in zip(w, taps):
            out += wk * values
        taps = out
    return taps


def interior_derivative(patch, spec, dx):
    """spatial_derivative(patch, spec, dx) on the cells whose stencil lies
    inside patch: each derived axis loses the stencil's half width at both
    ends.  Slices are summed axis by axis, first axis first, offset by
    offset from zero, as spatial_derivative sums them, so bit for bit.
    This is the term-by-term path that training's batched passes over
    padded stencils replaced.
    """
    out = np.asarray(patch, dtype=float)
    if len(spec.orders) != out.ndim:
        raise ValueError("spec arity does not match field rank")
    for axis, order in enumerate(spec.orders):
        if order:
            offsets, w = _axis_stencil(order, dx)
            inner = out.shape[axis] - 2 * offsets[-1]
            summed = np.zeros(out.shape[:axis] + (inner,) + out.shape[axis + 1:])
            for start, wk in enumerate(w):
                summed += wk * out[(slice(None),) * axis
                                   + (slice(start, start + inner),)]
            out = summed
    return out
