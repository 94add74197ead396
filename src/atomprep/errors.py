"""Exception types shared across the package.

Validation problems (bad parameters, out-of-domain arguments, malformed
configuration) derive from DomainError; breakdowns of a numerical scheme
(non-convergence, unresolvable widths, failed path search) derive from
NumericalError.  The CLI maps the former to exit code 2 and the latter to 3.
check_count is the one validation of an integer count argument.
"""

from numbers import Integral


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class DegenerateTrapError(DomainError):
    """Trap parameters that do not produce a well with a barrier."""


class ConfigurationError(DomainError):
    """Malformed run configuration (CLI flags or config file)."""


class TrapShapeError(DomainError):
    """Trap shape leaves fewer than two resolved resonances in the scan window.

    Raised by the holding-time pipeline when a trap is too shallow (the
    excited level sits above the barrier) or too deep (widths below the
    resolution floor) to extract the two lifetimes it needs.
    """


class NumericalError(RuntimeError):
    """A numerical scheme failed to produce a trustworthy result."""


class WidthUnresolvedError(NumericalError):
    """Resonance narrower than the scan's energy resolution floor.

    Carries the bisection floor as an upper bound on the width.
    """

    def __init__(self, message: str, width_upper_bound: float):
        super().__init__(message)
        self.width_upper_bound = width_upper_bound


class PathNotFoundError(NumericalError):
    """No split path satisfies the requested minimum gap.

    Carries the best achievable bottleneck gap.
    """

    def __init__(self, message: str, bottleneck_gap: float):
        super().__init__(message)
        self.bottleneck_gap = bottleneck_gap


def check_count(name: str, value, least: int) -> None:
    """Raise DomainError unless value is an integer (Python or numpy, not a
    bool) >= least."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= least):
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
