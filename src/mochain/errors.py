"""Exception types shared across the package.

Every library error derives from MochainError, which the command line prints
as one line instead of a traceback. Each also keeps the built-in base it had
before the common one (ValueError, ArithmeticError, ...), so callers that
catch those still do. A check given a stack of cells or states keeps where
it failed as data: index is the flat C-order position of the first offending
item, and body the message that item alone gives, without the position the
message may spell ("state i: ", " in cell i"). A run names where an error
happened in its own terms: sweep maps the index to the failing cell's axis
values or to the failing state's time.
"""


class MochainError(Exception):
    """Base of every error the library raises on purpose; index None is one item, or
    a failure every item shares (read as item 0), and body defaults to the message."""

    def __init__(self, message: str, index: int | None = None, body: str | None = None):
        super().__init__(message)
        self.index, self.body = index, message if body is None else body


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
