"""Stable microwave-optical quantum resources in chain-coupled hybrid systems.

Covariance-matrix simulation and analysis toolkit: effective two-mode
squeezing models reduced from chain Hamiltonians, analytic and numeric
Lyapunov dynamics, logarithmic negativity, Gaussian steering, regime and
steering-region classification, and monogamy diagnostics, with
electro-optomechanical and optomagnomechanical platform builders.
"""

from .chain import (
    ChainParams,
    EffectiveModel,
    classify_regime,
    effective_coupling,
    energy_shift,
    reduce,
    validity_report,
)
from .dynamics import (
    DriftDiffusion,
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    effective_resources,
    propagate_lti,
    squeeze_variances,
    steady_state,
)
from .errors import (
    ConfigError,
    CovarianceOverflowError,
    MochainError,
    NumericError,
    ParameterError,
    RegimeError,
    SingularCouplingError,
    UnphysicalStateError,
)
from .gaussian import (
    Regime,
    gaussian_steering,
    local_phase_rotate,
    log_negativity,
    monogamy_residuals,
    partial_transpose,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_resources,
)
from .stationary import (
    SteeringRegion,
    boundary_limits,
    stationary_entanglement,
    stationary_steering,
    steering_region,
)
from .systems import (
    CommParams,
    EomParams,
    chain_full_drift_diffusion,
    comm_to_chain,
    eom_to_chain,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "CommParams",
    "ConfigError",
    "CovarianceOverflowError",
    "DriftDiffusion",
    "EffectiveModel",
    "EomParams",
    "MochainError",
    "NumericError",
    "ParameterError",
    "Regime",
    "RegimeError",
    "SingularCouplingError",
    "SteeringRegion",
    "UnphysicalStateError",
    "analytic_effective_cm",
    "boundary_limits",
    "build_effective_drift_diffusion",
    "chain_full_drift_diffusion",
    "characteristic_time",
    "classify_regime",
    "comm_to_chain",
    "effective_coupling",
    "effective_resources",
    "energy_shift",
    "eom_to_chain",
    "gaussian_steering",
    "local_phase_rotate",
    "log_negativity",
    "monogamy_residuals",
    "partial_transpose",
    "propagate_lti",
    "reduce",
    "squeeze_variances",
    "stationary_entanglement",
    "stationary_steering",
    "steady_state",
    "steering_region",
    "symplectic_eigenvalues",
    "symplectic_form",
    "two_mode_resources",
    "validity_report",
]
