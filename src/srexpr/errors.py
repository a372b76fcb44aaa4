"""Exception types shared across the package."""

import math

_LONG_COUNT = 10**30


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

    @classmethod
    def exceeded(cls, count: int, noun: str, limit: int, advice: str = "") -> "CapacityError":
        """The error for `count` `noun` over `limit`.  A count of more than
        30 digits is stated by its digit count: it is no use to a reader in
        full, and `str` refuses ints of more than 4,300 digits."""
        if count < _LONG_COUNT:
            text = f"{count} {noun} exceed the limit {limit}"
        else:
            digits = int(math.log10(count)) + 1  # a float: may be one off
            while count >= 10**digits:
                digits += 1
            while count < 10 ** (digits - 1):
                digits -= 1
            text = f"a {digits}-digit number of {noun} exceeds the limit {limit}"
        return cls(f"{text}; {advice}" if advice else text)


class UnboundLabelError(SrexprError, KeyError):
    """An edge label occurs in an expression but not in the assignment."""


class DomainError(SrexprError, ValueError):
    """Argument outside the mathematical domain of a formula (e.g. not 2**k)."""


class IntegrityError(SrexprError, RuntimeError):
    """An exact computation produced a value that violates a known identity."""


class MalformedExpressionError(SrexprError, ValueError):
    """A serialized expression node that `from_json` cannot read."""
