"""Interchangeable lifting operators behind one small interface.

Every lifter maps a density field to a distribution field for a given
model, via .lift(rho, params).  The hybrid solver and the benchmark
harness only ever talk to this interface, so equilibrium, closed-form
coefficients, trained coefficients, and constrained-runs lifting are
drop-in replacements for one another.  Each refuses an empty grid or a
non-finite density with the same ValueError (lattice.finite_density).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constrained_runs import CrConfig, cr_density, cr_kernel, cr_lift
from .lattice import LbmParams, equilibrium, finite_density
from .lifting import LiftCoefficients, LiftKernel, apply_lift, lift_kernel


class EquilibriumLifter:
    """f = f_eq(rho): the crudest lift, and the baseline everywhere."""

    name = "equilibrium"

    def lift(self, rho: np.ndarray, params: LbmParams) -> np.ndarray:
        return equilibrium(finite_density(rho), params)


@dataclass
class CoefficientLifter:
    """Derivative-correction lift with fixed coefficient vectors.

    Works for closed-form and trained coefficient sets alike; the
    fingerprint check inside apply_lift refuses mismatched models.  The
    lifter holds the stencil matrix of its model (lift_kernel), built at
    its first lift and reused by every later one, so the coefficient
    vectors must not be changed after that first lift.
    """

    coefficients: LiftCoefficients
    name: str = "coefficients"
    _kernel: Optional[LiftKernel] = field(default=None, init=False,
                                          repr=False, compare=False)

    def lift(self, rho: np.ndarray, params: LbmParams) -> np.ndarray:
        if self._kernel is None and self.coefficients.terms:
            self._kernel = lift_kernel(self.coefficients, params)
        return apply_lift(rho, self.coefficients, params,
                          kernel=self._kernel)


@dataclass
class CrLifter:
    """Constrained-runs lift: solves for the non-rest components on the fly.

    Unlike the coefficient routes this pays LBM steps at every
    application, which is what the cost accounting is designed to show:
    m+1 per lift, the closing constrained run that checks the fixed point,
    plus a one-off probe the first time a grid shape and model come up,
    for the transfer kernel of the solve (cr_kernel): one run of m+1 when
    the grid holds q windows of 2(m+1)+1 cells, up to q such runs on a
    smaller one.  The kernels live on the instance, so a fresh lifter pays
    its probe again.
    A lift whose closing residual misses tol raises a RuntimeError.
    """

    config: CrConfig
    name: str = "constrained-runs"
    _kernels: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def lift(self, rho: np.ndarray, params: LbmParams) -> np.ndarray:
        rho = cr_density(rho, params)
        key = (rho.shape, params, self.config)
        if key not in self._kernels:
            self._kernels[key] = cr_kernel(rho.shape, self.config, params)
        result = cr_lift(rho, self.config, params, kernel=self._kernels[key])
        if not result.converged:
            raise RuntimeError(
                f"constrained-runs lift missed its tolerance: closing residual "
                f"{result.residual:.3e} > tol {self.config.tol:.3e}")
        return result.f
