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
    matched_detunings,
    reduce,
    validity_report,
)
from .dynamics import (
    AnalyticConstants,
    DriftDiffusion,
    Trajectory,
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    lyapunov_rk4,
    propagate_lti,
    squeeze_variances,
    steady_state,
)
from .errors import (
    ConfigError,
    CovarianceOverflowError,
    CriticalPoleError,
    MochainError,
    NumericError,
    RegimeError,
    SingularCouplingError,
    UnphysicalStateError,
)
from .gaussian import (
    CovarianceMatrix,
    ModePartition,
    Regime,
    ResourceReport,
    gaussian_steering,
    is_physical,
    local_phase_rotate,
    log_negativity,
    monogamy_residuals,
    partial_transpose,
    resource_report,
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
    comm_full_drift_diffusion,
    comm_to_chain,
    eom_full_drift_diffusion,
    eom_to_chain,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticConstants",
    "ChainParams",
    "CommParams",
    "ConfigError",
    "CovarianceMatrix",
    "CovarianceOverflowError",
    "CriticalPoleError",
    "DriftDiffusion",
    "EffectiveModel",
    "EomParams",
    "MochainError",
    "ModePartition",
    "NumericError",
    "Regime",
    "RegimeError",
    "ResourceReport",
    "SingularCouplingError",
    "SteeringRegion",
    "Trajectory",
    "UnphysicalStateError",
    "analytic_effective_cm",
    "boundary_limits",
    "build_effective_drift_diffusion",
    "characteristic_time",
    "classify_regime",
    "comm_full_drift_diffusion",
    "comm_to_chain",
    "effective_coupling",
    "energy_shift",
    "eom_full_drift_diffusion",
    "eom_to_chain",
    "gaussian_steering",
    "is_physical",
    "local_phase_rotate",
    "log_negativity",
    "lyapunov_rk4",
    "matched_detunings",
    "monogamy_residuals",
    "partial_transpose",
    "propagate_lti",
    "reduce",
    "resource_report",
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
