"""Grid-convergence orders of the lifting routes.

D1Q3 at omega 10/11, so D = 1 at the canonical dx = 0.05 and dt = 1e-3:
a unit Gaussian on a box of 10 at dx = 0.05, 0.025 and 0.0125, with dt
scaled as dx^2 (D stays 1), settles for 1000 (0.05/dx)^2 free LBM steps
from equilibrium, the same time at every dx.  The lift of its density
misses the settled distributions by an error, in the max norm over all
cells and velocities, that falls as dx^p; p is read off each pair of
neighbouring grids as log2 of their error ratio.  The lift's order is
that of its truncated Chapman-Enskog expansion: 1 for equilibrium, and
for the analytic order-o lift o + 1, at most 3, as a (~dx) times the
O(dx^2) error of the central first-derivative stencil is O(dx^3).  A
constrained run of order m reaches 2m + 2, and trained (R, m)
coefficients min(R + 1, 2m + 2): they absorb the stencils' truncation
terms, so only the expansion and the closing run bound them.  Trained
coefficients keep their order at every dx because training runs the
model's lattice twin at dx = 0.05.  CR m = 3 and trained (6, 3) reach
the round-off floor on the finest grid, so only their first pair is
pinned to an order.
"""

from math import log2

import numpy as np
import pytest

from lblift import (VELOCITY_SETS, CoefficientLifter, CrConfig, CrLifter,
                    EquilibriumLifter, LbmParams, NceTrainConfig,
                    analytic_coefficients, equilibrium, restrict, run_lbm,
                    train_coefficients)

CELLS = (200, 400, 800)       # dx = 0.05, 0.025, 0.0125 on the box of 10

# every order is pinned within this of its expected value; the measured
# ones lie within 0.06 of it (CR m = 3: 7.94)
ORDER_TOL = 0.1


def model(cells: int, advection: tuple) -> LbmParams:
    dx = 10.0 / cells
    return LbmParams(VELOCITY_SETS["D1Q3"], dx, 1e-3 * (dx / 0.05) ** 2,
                     10 / 11, advection)


@pytest.fixture(scope="module")
def settled():
    """(params, settled distributions) per grid, per advection."""
    states = {}
    for advection in ((), (0.66,)):
        states[advection] = []
        for cells in CELLS:
            params = model(cells, advection)
            x = np.arange(cells) * params.dx
            rho0 = np.exp(-(x - 5.0) ** 2)
            steps = 1000 * (cells // CELLS[0]) ** 2
            states[advection].append(
                (params, run_lbm(equilibrium(rho0, params), params, steps)))
    return states


def errors(states, make_lifter) -> list:
    """The max-norm lift error on each grid, of the lifter built for it."""
    out = []
    for params, f_ref in states:
        lifted = make_lifter(params).lift(restrict(f_ref), params)
        out.append(float(np.abs(lifted - f_ref).max()))
    return out


def orders(errs) -> list:
    return [log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]


def assert_orders(errs, expected):
    measured = orders(errs)
    assert all(abs(p - expected) <= ORDER_TOL for p in measured), (
        measured, expected, errs)


def test_equilibrium_lift_is_first_order(settled):
    assert_orders(errors(settled[()], lambda p: EquilibriumLifter()), 1)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_analytic_lift_order(settled, order):
    assert_orders(errors(settled[()], lambda p: CoefficientLifter(
        analytic_coefficients(p, order))), min(order + 1, 3))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_constrained_runs_order(settled, m):
    errs = errors(settled[()], lambda p: CrLifter(CrConfig(m=m)))
    assert_orders(errs[:2] if m == 3 else errs, 2 * m + 2)


def trained_lifter(r: int, m: int):
    return lambda p: CoefficientLifter(train_coefficients(
        NceTrainConfig(spatial_order=r, m=m), p).coefficients)


@pytest.mark.parametrize("advection", [(), (0.66,)])
@pytest.mark.parametrize("r,m", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_trained_lift_order(settled, advection, r, m):
    assert_orders(errors(settled[advection], trained_lifter(r, m)),
                  min(r + 1, 2 * m + 2))


@pytest.mark.parametrize("advection", [(), (0.66,)])
def test_trained_six_three_gains_six_orders_then_holds(settled, advection):
    """(6, 3) falls by 2^6 or more from dx = 0.05 to 0.025, into the
    round-off floor, and does not rise again on the finest grid."""
    errs = errors(settled[advection], trained_lifter(6, 3))
    assert errs[0] / errs[1] >= 2 ** 6, errs
    assert errs[2] <= errs[1], errs
