"""Exception types shared across the package."""


class GxplainError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(GxplainError):
    """A node or arc index fell outside the valid range."""


class ShapeMismatch(GxplainError):
    """An array does not have the shape an operation requires."""


class InvalidGraph(GxplainError):
    """A graph object violates its structural contract."""


class EmptyDataset(GxplainError):
    """A training split contains no graphs."""


class NonFiniteLoss(GxplainError):
    """An objective value became NaN or infinite during optimization."""


class ParseError(GxplainError):
    """A file could not be parsed into the expected document shape."""


class VersionMismatch(GxplainError):
    """A file declares a format version this code does not read."""


class ValidationError(GxplainError):
    """A parsed document is well-formed but internally inconsistent."""


class UnsupportedActivation(GxplainError):
    """A layer names an activation this engine does not implement."""


class DomainError(GxplainError):
    """A numeric argument lies outside its mathematical domain."""


class NotUndirected(GxplainError):
    """An operation that needs paired arcs was given a directed graph."""


class InvalidBudget(GxplainError):
    """A node or attribute budget is malformed."""


class MissingExplanation(GxplainError):
    """Evaluation was asked to score graphs that have no explanation."""


class TooLarge(GxplainError):
    """An instance exceeds the size limit of an exhaustive oracle."""


class InvalidCount(GxplainError):
    """A requested generation count is unusable."""
