"""Exception hierarchy shared by all gapline modules."""


class GaplineError(Exception):
    """Base class for all gapline errors."""


class InvalidSizeError(GaplineError, ValueError):
    """A generator was asked for a size outside its valid range."""


class DimensionError(GaplineError, ValueError):
    """Array or vector sizes do not match the graph."""


class DomainError(GaplineError, ValueError):
    """An input value lies outside the mathematical domain of the operation."""


class ParseError(GaplineError, ValueError):
    """A serialized document is malformed; the message names the offending field."""


class PreconditionError(GaplineError, ValueError):
    """A documented precondition of a bound or transform does not hold."""


class StructureError(PreconditionError):
    """The graph lacks a required structural property (e.g. connectivity)."""


class SolverError(GaplineError, RuntimeError):
    """The eigensolver failed to reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SizeGuardError(GaplineError, ValueError):
    """Exhaustive enumeration was requested beyond the hard size guard."""


class ConsistencyError(GaplineError, RuntimeError):
    """A constructed object violated one of its own numerical invariants."""
