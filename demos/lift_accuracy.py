"""Restrict-then-lift accuracy on a settled state.

Reproduces the three benchmark tables for the 1D diffusion model: the
analytic expansion orders, the constrained-runs smoothing levels, and
the trained-coefficient grid.  The reference state is 1000 free LBM
steps from an equilibrium start; every error is the flat 2-norm over
nodes and velocities of (lift(restrict(f)) - f).
"""

import numpy as np

from lblift import (CrConfig, NceTrainConfig, analytic_coefficients,
                    apply_lift, cr_lift, equilibrium, restrict, run_lbm,
                    train_coefficients)
from lblift.bench import EXAMPLE_DT, EXAMPLE_OMEGA, experiment_params
from lblift import ExperimentConfig


def main():
    cfg = ExperimentConfig(kind="lift_bench")
    params = experiment_params(cfg)
    x = np.arange(200) * params.dx
    rho0 = np.exp(-((x - 5.0) ** 2))
    f_ref = run_lbm(equilibrium(rho0, params), params, 1000)
    rho = restrict(f_ref)

    def err(f):
        return np.linalg.norm(f - f_ref)

    print("analytic expansion (D1Q3, omega = 10/11, 1000-step reference)")
    for order in range(4):
        e = err(apply_lift(rho, analytic_coefficients(params, order), params))
        print(f"  order {order}:  {e:.4e}")

    print("\nconstrained runs (per-grid-point fixed point)")
    for m in range(4):
        res = cr_lift(rho, CrConfig(m=m), params)
        tag = "" if res.converged else "  (not converged)"
        print(f"  m = {m}:   {err(res.f):.4e}   "
              f"({res.lbm_steps} LBM steps, one solve){tag}")

    print("\ntrained coefficients (coefficient-space fixed point)")
    header = "  R:    " + "".join(f"{r:>12d}" for r in range(1, 7))
    print(header)
    for m in range(4):
        row = []
        for r in range(1, 7):
            res = train_coefficients(NceTrainConfig(spatial_order=r, m=m),
                                     params)
            row.append(err(apply_lift(rho, res.coefficients, params)))
        print(f"  m = {m}:" + "".join(f"{e:>12.3e}" for e in row))
    print("\nthe m = 0 rows stall at the constant-smoothing floor; higher m")
    print("tracks the slow manifold to the inner-solve floor near 1e-10")


if __name__ == "__main__":
    main()
