"""Exception hierarchy shared across the package."""


class NaadsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NaadsError, ValueError):
    """A point lies outside the state space of a map or family."""


class ConstructionError(NaadsError, ValueError):
    """Invalid data supplied when building a map or family."""


class BudgetError(NaadsError, RuntimeError):
    """A configured computation budget (horizon, denominator bits) was exceeded."""


class PreconditionError(NaadsError, ValueError):
    """A checker was invoked on inputs that violate its stated precondition."""


class UnknownNameError(NaadsError, LookupError):
    """Lookup of an unknown corpus family or task name."""


class SchemaError(NaadsError, ValueError):
    """A scenario file, CLI parameter or NAADS_BUDGET_POINTS failed validation."""
