"""Exception types shared across the package.

Every library error derives from MochainError, which the command line prints
as one line instead of a traceback. Each also keeps the built-in base it had
before the common one (ValueError, ArithmeticError, ...), so callers that
catch those still do. A routine given a stack names the first bad cell or
state in its message (DriftDiffusion, dynamics.propagate_lti and
gaussian.two_mode_resources), and a run names where an error happened in
its own terms: the failing cell's axis values (sweep._swept_chunks, which
runs a failing chunk again one cell at a time) and the failing full-system
state's time (sweep._full_resources, which evaluates a failing stack of
states one state at a time).
"""


class MochainError(Exception):
    """Base of every error the library raises on purpose."""


class ParameterError(MochainError, ValueError):
    """A parameter value the physics rejects (a non-positive rate, say)."""


class UnphysicalStateError(MochainError, ValueError):
    """Covariance matrix violates the uncertainty bound (a symplectic eigenvalue < 1/2)."""


class SingularCouplingError(MochainError, ValueError):
    """A perturbative denominator is (numerically) resonant."""


class RegimeError(MochainError, RuntimeError):
    """A steady state was requested for a drift matrix that is not Hurwitz stable."""


class NumericError(MochainError, ArithmeticError):
    """A numeric routine failed its internal consistency check (residual reported)."""


class CovarianceOverflowError(MochainError, OverflowError):
    """A covariance entry left double range (deep in the divergent regime)."""


class ConfigError(MochainError, ValueError):
    """Run configuration violates the schema; message carries the offending key path."""
