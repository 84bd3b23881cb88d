"""Exception hierarchy shared by all wrangle modules.

Two families matter to callers: ``DataError`` covers anything wrong with
input bytes or cell values (CSV/JSON parsing, type mismatches, bad column
references), ``WorkflowError`` covers workflow validation and node failures.
The CLI maps the families to distinct exit codes.
"""

from __future__ import annotations


class WrangleError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Data errors
# ---------------------------------------------------------------------------

class DataError(WrangleError):
    """Input data or operator argument is unusable."""


class MalformedCsv(DataError):
    """CSV input violates the dialect (unclosed quote, ragged row, ...)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyInput(DataError):
    """Input that must carry data is empty (no header row, empty list, ...)."""


class MalformedJson(DataError):
    """JSON input failed to parse or has the wrong shape."""


class MissingField(DataError):
    """A required field is absent from a document."""


class RangeError(DataError):
    """A value lies outside its permitted range (lat/lon, minutes, buffers)."""


class SchemaMismatch(DataError):
    """Two tables disagree on column names, order, or types."""


class UnknownColumn(DataError):
    """A referenced column does not exist in the target table."""


class TypeMismatch(DataError):
    """A cell or column has a kind incompatible with the operation."""


class ParseError(DataError):
    """Expression text failed to parse.

    Carries the zero-based character position and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, pos: int, expected: set[str] | None = None):
        self.pos = pos
        self.expected = frozenset(expected or ())
        detail = f"{message} at position {pos}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class EmptyTable(DataError):
    """The operation needs at least one row."""


class NegativeValue(DataError):
    """A value that must be non-negative is negative."""


class RequirementFailed(DataError):
    """A row does not meet a predicate that every row must meet."""


# ---------------------------------------------------------------------------
# Workflow errors
# ---------------------------------------------------------------------------

class WorkflowError(WrangleError):
    """Workflow validation or execution failed."""


class BadVersion(WorkflowError):
    """Workflow file declares an unsupported version."""


class UnknownOp(WorkflowError):
    """A node names an operator that is not registered."""


class DuplicateNodeId(WorkflowError):
    """Two nodes share an id."""


class DanglingReference(WorkflowError):
    """A reference points at a missing input, node, or port."""


class CycleDetected(WorkflowError):
    """The node graph is not acyclic."""


class InvalidNode(WorkflowError):
    """A node is malformed: bad id, bad ports, or params that fail validation."""


class RegistryError(WorkflowError):
    """A key issuer gave two nodes of one run the same session key."""


class NodeFailed(WorkflowError):
    """An operator raised while executing a node; downstream nodes were skipped."""

    def __init__(self, node_id: str, cause: BaseException):
        self.node_id = node_id
        self.cause = cause
        super().__init__(f"node '{node_id}' failed: {cause}")
