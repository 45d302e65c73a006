"""Exception types shared across the package."""

from __future__ import annotations


class NullDecompError(Exception):
    """Base class for every error raised by this package."""


class EdgeListError(NullDecompError):
    """Bad edge-list input; names the offending line when there is one."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        if line_no is not None:
            detail = f" ({line.strip()!r})" if line else ""
            message = f"line {line_no}: {message}{detail}"
        super().__init__(message)
        self.line_no = line_no
        self.line = line


class EmptyInput(EdgeListError):
    pass


class MalformedLine(EdgeListError):
    pass


class SelfLoop(EdgeListError):
    pass


class DuplicateEdge(EdgeListError):
    pass


class UnknownVertex(NullDecompError):
    pass


class NotForest(NullDecompError):
    pass


class UnsupportedGraphClass(NullDecompError):
    pass


class DimensionMismatch(NullDecompError):
    pass


class EmptyBasis(NullDecompError):
    pass


class BudgetExceeded(NullDecompError):
    pass


class SpecInvalid(NullDecompError):
    pass


class BiasUnsatisfied(NullDecompError):
    pass


class InternalCheckError(NullDecompError):
    """A guaranteed invariant failed: this signals a bug, not a user error."""


class OddNSet(InternalCheckError):
    pass


class NormalizationFailure(InternalCheckError):
    pass


class CaseContradiction(InternalCheckError):
    pass
