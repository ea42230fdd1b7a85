"""Exception types shared across the package, and the finite-float guard
that turns an overflowing formula into DomainError."""

import math
from typing import Callable


class StringraphError(Exception):
    """Base class for every library-specific error."""


class DuplicateId(StringraphError):
    """Two strings in a family carry the same id."""


class UnknownVertex(StringraphError):
    """A vertex set refers to vertices outside the graph."""


class DegenerateGraph(StringraphError):
    """The requested statistic is undefined for this graph (e.g. density on n < 2)."""


class ExtractorViolation(StringraphError):
    """A coloring extractor returned an empty or non-independent set."""


class PreconditionViolated(StringraphError):
    """An operation's precondition failed; carries the refuting witness when one exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RefinementFailed(StringraphError):
    """The dense-core loop terminated without meeting its verified postcondition."""


class NoCoverFound(StringraphError):
    """Complement peeling exhausted the working set without a valid multipartite cover."""


class InternalBoundViolation(StringraphError):
    """Neither verified outcome of a dichotomy was achieved; signals a calibration bug."""


class DegenerateDrawing(StringraphError):
    """Automatic truncation radius is not well defined for this drawing."""


class DomainError(StringraphError):
    """Numeric arguments outside the formula's domain."""


def finite_value(formula: Callable[[], float], name: str) -> float:
    """formula(), or DomainError when it overflows or is not a finite float.
    A division by a power that underflowed to zero counts as an overflow."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} is not a finite float for these arguments")
    return value


class TooLarge(StringraphError):
    """Instance exceeds an exact oracle's hard size cap, or the clique search's
    node budget."""


class ParseError(StringraphError):
    """Input file is not syntactically valid; carries line information when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SchemaError(StringraphError):
    """Input file parsed but violates the format's schema; names the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class BadSpec(StringraphError):
    """Generator spec has invalid fields."""
