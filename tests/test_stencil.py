from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lblift import DerivSpec, spatial_derivative, time_derivative_forward
from lblift.lifting import expansion_terms
from lblift.stencil import (MAX_TOTAL_ORDER, central_offsets, derivative_at,
                            fd_weights)


def test_deriv_spec_basics():
    s = DerivSpec((2, 1))
    assert s.total == 3
    assert s.label() == "d2d1"
    with pytest.raises(ValueError):
        DerivSpec((-1,))
    with pytest.raises(ValueError):
        DerivSpec((MAX_TOTAL_ORDER + 1,))


def test_fd_weights_first_derivative_central():
    w = fd_weights(1, (-1, 0, 1))
    assert_allclose(w, [-0.5, 0.0, 0.5], atol=1e-14)
    w2 = fd_weights(2, (-1, 0, 1))
    assert_allclose(w2, [1.0, -2.0, 1.0], atol=1e-13)


def leading_error_constant(order):
    """C with D_h f = f^(k) + C h^2 f^(k+2) + O(h^4) for the d^k stencil."""
    offs = central_offsets(order)
    xs = np.array(offs, dtype=float)
    return fd_weights(order, offs) @ xs ** (order + 2) / factorial(order + 2)


def sin_derivative(order, x):
    return np.sin(x + order * np.pi / 2)


def test_fd_weights_exact_on_polynomials():
    # a second-order central stencil for d^k evaluates monomials x^p at 0
    # exactly for p < k + 2: k! when p = k, zero otherwise; x^(k+2) gives
    # the familiar leading error, f^(3)/6 for d1, f^(4)/12 for d2, ...
    leading = (1 / 6, 1 / 12, 1 / 4, 1 / 6, 1 / 3, 1 / 4)
    for order in range(1, MAX_TOTAL_ORDER + 1):
        offs = central_offsets(order)
        w = fd_weights(order, offs)
        xs = np.array(offs, dtype=float)
        for p in range(order + 2):
            expected = float(factorial(order)) if p == order else 0.0
            assert_allclose(w @ xs ** p, expected, atol=1e-8)
        assert_allclose(leading_error_constant(order), leading[order - 1],
                        rtol=1e-12)


def test_spatial_derivative_trig():
    """Every stencil's error on sin x is its leading truncation term plus
    an O(h^4) remainder, which shrinks 16-fold when h halves."""
    for order in range(1, MAX_TOTAL_ORDER + 1):
        remainders = []
        # coarse grids: at n = 128 round-off (~eps / h^6) swamps the
        # O(h^4) remainder of the d6 stencil
        for n in (32, 64):
            dx = 2 * np.pi / n
            x = np.arange(n) * dx
            d = spatial_derivative(np.sin(x), DerivSpec((order,)), dx)
            leading = leading_error_constant(order) * dx ** 2 \
                * sin_derivative(order + 2, x)
            error = d - sin_derivative(order, x)
            assert np.abs(error - leading).max() < 0.01 * np.abs(leading).max()
            remainders.append(np.abs(error - leading).max())
        rate = np.log2(remainders[0] / remainders[1])
        assert 3.9 < rate < 4.1, (order, rate)


def test_spatial_derivative_accuracy_order():
    """Halving dx shrinks the error by ~2^accuracy."""
    errs = []
    for n in (64, 128):
        dx = 2 * np.pi / n
        x = np.arange(n) * dx
        d = spatial_derivative(np.sin(x), DerivSpec((3,)), dx)
        errs.append(np.abs(d + np.cos(x)).max())
    rate = np.log2(errs[0] / errs[1])
    assert 1.7 < rate < 2.3


def test_spatial_derivative_2d_mixed():
    n = 96
    dx = 2 * np.pi / n
    x = np.arange(n) * dx
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rho = np.sin(xx) * np.cos(2 * yy)
    d = spatial_derivative(rho, DerivSpec((1, 1)), dx)
    exact = np.cos(xx) * (-2.0) * np.sin(2 * yy)
    # tensor product of two d1 stencils: h^2/6 (f_xxxy + f_xyyy) leads
    leading = dx ** 2 / 6 * (-np.cos(xx) * (-2.0) * np.sin(2 * yy)
                             + np.cos(xx) * 8.0 * np.sin(2 * yy))
    assert_allclose(d, exact + leading, atol=5e-5)


def test_zeroth_total_order_rejected():
    with pytest.raises(ValueError):
        DerivSpec((0,))
    with pytest.raises(ValueError):
        DerivSpec((0, 0))


def test_spatial_derivative_dimension_mismatch():
    with pytest.raises(ValueError):
        spatial_derivative(np.zeros(8), DerivSpec((1, 1)), 0.1)


@pytest.mark.parametrize("shape", [(9,), (9, 8), (3, 9, 8)],
                         ids=["1D", "2D", "stacked 2D"])
def test_derivative_at_is_the_field_at_the_index(shape):
    """Bit for bit spatial_derivative(...)[index] for every spec up to
    order 6, at every cell (the wrap reaches all of them on 8-9 cells), at
    indices one grid length out either way, and on broadcast index
    arrays.  The stacked case leaves its leading axis underived, as
    training stacks its test densities."""
    rho = np.random.default_rng(7).standard_normal(shape)
    grid = shape[-2:] if len(shape) == 3 else shape
    specs = expansion_terms(len(grid), MAX_TOTAL_ORDER)
    if len(shape) == 3:
        specs = [DerivSpec((0,) + s.orders) for s in specs]
    every_cell = np.indices(shape).reshape(len(shape), -1)
    for spec in specs:
        full = spatial_derivative(rho, spec, 0.05)
        at = derivative_at(rho, spec, 0.05, tuple(every_cell))
        assert at.tobytes() == full[tuple(every_cell)].tobytes(), spec
        shifted = tuple(ix + n * (-1) ** k
                        for k, (ix, n) in enumerate(zip(every_cell, shape)))
        at = derivative_at(rho, spec, 0.05, shifted)
        assert at.tobytes() == full[tuple(every_cell)].tobytes(), spec
        windows = tuple(np.arange(n)[:, None] if k == 0 else
                        np.arange(n)[None, :2] for k, n in enumerate(shape))
        assert np.array_equal(derivative_at(rho, spec, 0.05, windows),
                              full[tuple(np.broadcast_arrays(*windows))]), spec


def test_derivative_at_dimension_mismatch():
    with pytest.raises(ValueError):
        derivative_at(np.zeros(8), DerivSpec((1, 1)), 0.1, (np.arange(3),))


def test_time_derivative_forward_exact_on_polynomials():
    dt = 0.1
    t = np.arange(3) * dt
    # quadratic in t: three snapshots give the exact derivative at t = 0
    snaps = [2.0 + 3.0 * tk + 4.0 * tk ** 2 + np.zeros(5) for tk in t]
    d = time_derivative_forward(snaps, dt)
    assert_allclose(d, np.full(5, 3.0), atol=1e-12)
    # two snapshots give the plain forward difference
    assert_allclose(time_derivative_forward(snaps[:2], dt),
                    (snaps[1] - snaps[0]) / dt, rtol=1e-15)


def test_time_derivative_needs_enough_snapshots():
    with pytest.raises(ValueError):
        time_derivative_forward([np.zeros(3)], 0.1)
