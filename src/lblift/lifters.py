"""Interchangeable lifting operators behind one small interface.

Every lifter maps a density field to a distribution field for a given
model, via .lift(rho, params).  The hybrid solver and the benchmark
harness only ever talk to this interface, so equilibrium, closed-form
coefficients, trained coefficients, and constrained-runs lifting are
drop-in replacements for one another.  Each refuses a density of the
wrong rank, an empty grid or a non-finite density with the same
ValueError (lattice.finite_density).

Each lifter also states its reach(params): how many cells along the
first grid axis (the hybrid's split axis) on either side of a cell its
lifted distributions read, or None when a lifted cell may read the
whole grid.  A coefficient lifter reads it off the taps of its
difference stencils, without building its stencil matrix.  The hybrid
uses it to lift only the rows around its ghost cells.  A wrapper that
meters or counts lifts keeps the wrapped lifter as `inner` and must lift
exactly as `inner` does: lift_reach looks through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constrained_runs import CR_TOL, CrConfig, cr_lift
from .lattice import LbmParams, equilibrium, finite_density
from .lifting import LiftCoefficients, LiftKernel, apply_lift, lift_kernel
from .stencil import difference_stencils


class EquilibriumLifter:
    """f = f_eq(rho): the crudest lift, and the baseline everywhere."""

    name = "equilibrium"

    def lift(self, rho: np.ndarray, params: LbmParams) -> np.ndarray:
        return equilibrium(finite_density(rho, params.vset), params)

    def reach(self, params: LbmParams) -> int:
        """0: f_eq at a cell reads only the density there."""
        return 0


@dataclass
class CoefficientLifter:
    """Derivative-correction lift with fixed coefficient vectors.

    Works for closed-form and trained coefficient sets alike; the
    fingerprint check inside apply_lift refuses mismatched models.  The
    lifter holds the stencil matrix of its model (lift_kernel), built at
    its first lift and reused by every later one, so the coefficient
    vectors must not be changed after that.
    """

    coefficients: LiftCoefficients
    name: str = "coefficients"
    _kernel: Optional[LiftKernel] = field(default=None, init=False,
                                          repr=False, compare=False)

    def lift(self, rho: np.ndarray, params: LbmParams) -> np.ndarray:
        if self._kernel is None and self.coefficients.terms:
            self._kernel = lift_kernel(self.coefficients, params)
        return apply_lift(rho, self.coefficients, params, kernel=self._kernel)

    def reach(self, params: LbmParams) -> int:
        """The largest offset |u[0]| of the stencil taps, 0 for an empty
        set."""
        taps, _ = difference_stencils(tuple(self.coefficients.sorted_specs()),
                                      params.dx)
        return max((abs(u[0]) for u in taps), default=0)


@dataclass
class CrLifter:
    """Constrained-runs lift: solves for the non-rest components on the fly.

    Unlike the coefficient routes this pays LBM steps at every
    application, which is what the cost accounting is designed to show:
    m+1 per lift, the closing constrained run that checks the fixed point,
    plus a one-off probe the first time a grid shape and model come up,
    for the transfer kernel of the solve (cr_kernel): one run of m+1 LBM
    steps on any grid.  Each lift is one cr_lift call, handed the kernel kept
    for its key, and keeps the kernel that call returns.  The kernels live
    on the instance, so a fresh lifter pays its probe again.
    A lift whose closing residual misses CR_TOL raises a RuntimeError.
    """

    config: CrConfig
    name: str = "constrained-runs"
    _kernels: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def lift(self, rho: np.ndarray, params: LbmParams) -> np.ndarray:
        key = (np.shape(rho), params, self.config)
        result = cr_lift(rho, self.config, params,
                         kernel=self._kernels.get(key))
        self._kernels[key] = result.kernel
        if not result.converged:
            raise RuntimeError(
                f"constrained-runs lift missed its tolerance: closing residual "
                f"{result.residual:.3e} > tol {CR_TOL:.3e}")
        return result.f

    def reach(self, params: LbmParams) -> None:
        """None: the lift is a convolution over the whole periodic grid."""
        return None


def lift_reach(lifter, params: LbmParams) -> Optional[int]:
    """The reach of a lifter, looked up through wrappers that keep the
    wrapped lifter as `inner`; None for a lifter that states none."""
    while not hasattr(lifter, "reach"):
        lifter = getattr(lifter, "inner", None)
        if lifter is None:
            return None
    return lifter.reach(params)
