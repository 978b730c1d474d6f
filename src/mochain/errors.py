"""Exception types shared across the package."""


class UnphysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound (a symplectic eigenvalue < 1/2)."""


class SingularCouplingError(ValueError):
    """A perturbative denominator is (numerically) resonant."""


class CriticalPoleError(ValueError):
    """Analytic covariance evaluation requested at the steady/unsteady boundary.

    The constant term of the cross correlation has a pole at g_eff^2 = kappa_a*kappa_c;
    use the exact propagator there instead.
    """


class RegimeError(RuntimeError):
    """A steady state was requested for a drift matrix that is not Hurwitz stable."""


class NumericError(ArithmeticError):
    """A numeric routine failed its internal consistency check (residual reported)."""


class ConfigError(ValueError):
    """Run configuration violates the schema; message carries the offending key path."""
