"""Shared model setups: the three benchmark parameter sets, and reference
paths that the package's fast ones are checked against."""

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import strategies as st

from lblift import (LbmParams, LiftCoefficients, VELOCITY_SETS,
                    constrained_smooth, equilibrium, expansion_terms,
                    run_lbm)
from lblift.stencil import central_offsets, fd_weights

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


@st.composite
def off_matrix_models(draw, name):
    """name's velocity set at the benchmark dx and dt, a drawn omega in
    (0.3, 1.9) and a drawn advection of up to 0.2 lattice speeds per
    axis: the models off the acceptance matrix."""
    vset = VELOCITY_SETS[name]
    speed = 0.05 / DT[name]
    return LbmParams(vset, 0.05, DT[name],
                     draw(st.floats(min_value=0.3, max_value=1.9)),
                     tuple(speed * draw(st.floats(-0.2, 0.2))
                           for _ in range(vset.dimension)))


def gaussian_density(params: LbmParams, cells: int = 200) -> np.ndarray:
    x = np.arange(cells) * params.dx
    mid = cells * params.dx / 2.0
    bump = np.exp(-((x - mid) ** 2))
    if params.vset.dimension == 1:
        return bump
    return np.outer(bump, bump)


def index_order_sum(f):
    """sum_i f_i from +0.0, one velocity at a time in index order: the
    density the package's restrict is pinned to, without calling it."""
    rho = np.zeros(np.shape(f)[1:])
    for component in f:
        rho = rho + component
    return rho


def roll_stream_collide(f, params):
    """Reference periodic BGK update: collide, then np.roll every component."""
    post = (1.0 - params.omega) * f + params.omega * equilibrium(
        index_order_sum(f), params)
    out = np.empty_like(post)
    for k, c in enumerate(params.vset.directions):
        g = post[k]
        for axis, shift in enumerate(c):
            if shift:
                g = np.roll(g, shift, axis=axis)
        out[k] = g
    return out


def roll_constrained_smooth(f, rho0, m, params):
    """Reference constrained run: m+1 roll_stream_collide steps, their
    binomial sum from zero, then an explicit reset of the rest row."""
    out = np.zeros(np.shape(f))
    for j in range(1, m + 2):
        f = roll_stream_collide(f, params)
        out = out + float((-1) ** (j + 1) * comb(m + 1, j)) * f
    rest = params.vset.rest
    out[rest] = out[rest] + (rho0 - index_order_sum(out))
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


def difference_derivative(rho, spec, dx):
    """D_T rho over a periodic field in the lift's difference form,
    sum_u w_u (rho(x + u) - rho(x)) over the taps u != 0 in sorted order,
    one np.roll per tap, summed tap by tap from zero.  w is the tensor
    product of the 1D central fd_weights over dx^order per axis."""
    rho = np.asarray(rho, dtype=float)
    if len(spec.orders) != rho.ndim:
        raise ValueError("spec arity does not match field rank")
    per_axis = [zip(central_offsets(order), fd_weights(
        order, central_offsets(order)) / dx ** order) if order
        else [(0, 1.0)] for order in spec.orders]
    out = np.zeros_like(rho)
    for pairs in sorted(product(*per_axis)):
        u = tuple(off for off, _ in pairs)
        if any(u):
            weight = np.prod([w for _, w in pairs])
            out += weight * (np.roll(rho, tuple(-off for off in u),
                                     axis=tuple(range(rho.ndim))) - rho)
    return out
