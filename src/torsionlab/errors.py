"""Exception hierarchy shared by all engine modules."""

from __future__ import annotations


class TorsionLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TorsionLabError):
    """Malformed input: bad configuration, wrong shapes, broken preconditions."""


class NonFiniteError(ValidationError):
    """A point with a NaN or infinite coordinate: bad input, or the end of a path reaching it."""


class DimensionMismatchError(ValidationError):
    """Expression count or coordinate length inconsistent with the chart dimension."""


class ExpressionParseError(ValidationError):
    """Syntax or name error in the expression DSL, with source location."""

    def __init__(self, message: str, line: int = 1, column: int = 0, token: str = ""):
        self.line = line
        self.column = column
        self.token = token
        super().__init__(f"{message} (line {line}, column {column})")


class EvaluationError(TorsionLabError):
    """Numeric domain failure while evaluating an expression (log of <=0, atan2 at origin, ...)."""


class SingularPointError(TorsionLabError):
    """Point rejected by a chart's domain guard."""


class DegenerateTriadError(TorsionLabError):
    """det g is within the degenerate-triad rule's margin of zero; the chart is not invertible here."""


class GridMismatchError(ValidationError):
    """Trajectory / variation inputs are not sampled on a common grid."""


class SamplingError(ValidationError):
    """Trajectory too sparsely sampled for the requested stencil."""


class GridTooCoarseError(ValidationError):
    """Propagator grid spacing is too large for the requested kernel width."""


class NumericError(TorsionLabError):
    """Solver failure: overflow, non-finite kernel entries, eigensolver breakdown."""


class MultipletMismatchError(NumericError):
    """A spectrum ladder whose degeneracy patterns differ across epsilon, so
    levels paired by index would mix unlike multiplets."""

    def __init__(self, patterns: dict):
        self.patterns = patterns  # eps -> degeneracies
        listed = "; ".join(f"eps {eps!r}: {pattern}" for eps, pattern in patterns.items())
        super().__init__(f"degeneracy patterns differ across the ladder ({listed}); "
                         "levels paired by index would mix unlike multiplets")
