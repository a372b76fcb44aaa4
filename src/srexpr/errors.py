"""Exception types shared across the package."""


class SrexprError(Exception):
    """Base class for all srexpr errors."""


class InvalidSizeError(SrexprError, ValueError):
    """A graph or expression size outside the valid range (e.g. n = 0)."""


class OrderingError(SrexprError, ValueError):
    """Sink terminal does not follow the source terminal."""


class RangeError(SrexprError, ValueError):
    """A terminal or index lies outside the bounds of the ambient graph."""


class EmptySubgraphError(SrexprError, ValueError):
    """No directed path exists between the requested endpoints."""


class BaseCaseExpectedError(SrexprError, ValueError):
    """A split was requested for a subgraph small enough to be a base case."""


class CapacityError(SrexprError, RuntimeError):
    """An exact expansion or enumeration would exceed the caller's limit."""


class UnboundLabelError(SrexprError, KeyError):
    """An edge label occurs in an expression but not in the assignment."""


class DomainError(SrexprError, ValueError):
    """Argument outside the mathematical domain of a formula (e.g. not 2**k)."""


class IntegrityError(SrexprError, RuntimeError):
    """An exact computation produced a value that violates a known identity."""


class MalformedExpressionError(SrexprError, ValueError):
    """A serialized expression node that `from_json` cannot read."""
