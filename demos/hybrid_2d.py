"""2D split-domain runs: equilibrium lift vs trained order-4 lift.

The domain splits along the first axis; the second axis stays periodic
on both halves.  For each velocity set the trained lifter cuts the peak
coupling error by an order of magnitude or more.  Pass a cell count to
run smaller (the gain shrinks with the grid, since the order-4
truncation floor scales as dx^4).
"""

import sys

from lblift import (CoefficientLifter, EquilibriumLifter, HybridSpec,
                    NceTrainConfig, analytic_pde, compare_to_reference,
                    default_split, train_coefficients)
from lblift.bench import experiment_params, initial_density
from lblift import ExperimentConfig

STEPS = 200


def peak(config, lifter):
    params = experiment_params(config)
    spec = HybridSpec(total_cells=config.cells,
                      split_index=default_split(config.cells),
                      params=params, pde=analytic_pde(params), lifter=lifter,
                      initial_density=initial_density(config))
    return compare_to_reference(spec, STEPS).max_error.max()


def main(cells=200):
    cases = [("D2Q5", None), ("D2Q9", None), ("D2Q9", (1.0, 0.5))]
    print(f"{STEPS}-step 2D hybrid at n = {cells}, peak error vs reference")
    print(f"  {'model':>6s} {'advection':>12s} {'equilibrium':>13s} "
          f"{'trained R=4':>13s} {'gain':>7s}")
    for name, adv in cases:
        config = ExperimentConfig(kind="hybrid", velocity_set=name,
                                  cells=cells, advection=adv,
                                  lifter="equilibrium")
        params = experiment_params(config)
        trained = train_coefficients(NceTrainConfig(spatial_order=4, m=1),
                                     params)
        e_eq = peak(config, EquilibriumLifter())
        e_nce = peak(config, CoefficientLifter(trained.coefficients,
                                               name="nce-4"))
        a = adv if adv else (0.0, 0.0)
        print(f"  {name:>6s} {str(a):>12s} {e_eq:>13.4e} {e_nce:>13.4e} "
              f"{e_eq / e_nce:>6.1f}x")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
