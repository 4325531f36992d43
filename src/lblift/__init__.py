"""Lifting operators and hybrid PDE coupling for lattice Boltzmann BGK models."""

from .lattice import (
    D1Q3,
    D2Q5,
    D2Q9,
    VELOCITY_SETS,
    LbmParams,
    Moments,
    VelocitySet,
    equilibrium,
    from_moments,
    lbm_step_count,
    moments,
    restrict,
    run_lbm,
    stream_collide,
)
from .stencil import DerivSpec, spatial_derivative, time_derivative_forward
from .lifting import (
    LiftCoefficients,
    analytic_coefficients,
    apply_lift,
    coefficients_from_text,
    coefficients_to_text,
    expansion_terms,
    lift_kernel,
)
from .constrained_runs import (
    CrConfig,
    CrResult,
    constrained_smooth,
    cr_kernel,
    cr_lift,
    cr_map,
)
from .macro_pde import MacroPde, analytic_pde, ftcs_step
from .training import (
    NceTrainConfig,
    TrainResult,
    augment_time_derivative,
    extract_pde,
    train_coefficients,
)
from .lifters import CoefficientLifter, CrLifter, EquilibriumLifter
from .hybrid import (
    HybridSpec,
    HybridState,
    compare_to_reference,
    default_split,
    full_density,
    hybrid_step,
    init_hybrid,
)
from .bench import (
    ExperimentConfig,
    StepCounter,
    cost_summary,
    lift_restrict_error,
    parse_config,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
