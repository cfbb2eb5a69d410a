"""Exception hierarchy shared across the package."""


class PmplabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PmplabError, ValueError):
    """Arguments fall outside the valid domain of a congestion function
    or distribution (negative usage, zero capacity, saturated queue, ...)."""


class OrderError(PmplabError, ValueError):
    """A cutoff or price vector violates the ordering an equilibrium
    requires (decreasing cutoffs, nonincreasing nonnegative prices,
    congestion levels increasing from premium to economy)."""


class NoEquilibriumError(PmplabError, RuntimeError):
    """No user equilibrium exists for the requested prices; the message
    names the binding class."""


class ConvergenceError(PmplabError, RuntimeError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class PreconditionError(PmplabError, ValueError):
    """An operation's structural precondition does not hold (degenerate or
    empty-class equilibrium where an interior one is required, ...)."""


class BoundaryError(PmplabError, ValueError):
    """A finite-difference step would cross a price-ordering case boundary."""


class NoConvergenceError(PmplabError, RuntimeError):
    """Best-response iteration cycled or exhausted its round budget.

    Carries the visited strategy trajectory for inspection.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory or []


class ScenarioError(PmplabError, ValueError):
    """A scenario file failed to parse or validate; carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
