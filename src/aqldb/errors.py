"""Exception types raised deliberately by the engine and its tools."""

from __future__ import annotations


class AqlError(Exception):
    """Base class for every error this package raises on purpose."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class AqlSyntaxError(AqlError):
    """Malformed DDL or statement text. Carries the offset of the bad token."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {position}{suffix}")


class ValidationError(AqlError):
    """Well-formed syntax that violates a schema or statement rule."""


class InsufficientRights(AqlError):
    """Bounded counter has too little local quota. Retryable after a transfer."""


class DuplicateKey(AqlError):
    """Insert of a primary key that is already visible."""


class FkParentMissing(AqlError):
    """Referenced parent row is not visible to the writer."""


class FkRestrict(AqlError):
    """Delete of a parent with visible children and no cascade."""


class CheckViolation(AqlError):
    """A check constraint rejected the written value.

    retryable is set when the failure came from bounded-counter quota, in
    which case the transaction may succeed after rights move between replicas.
    """

    def __init__(self, message: str, retryable: bool = False):
        self.retryable = retryable
        super().__init__(message)


class LockUnavailable(AqlError):
    """Lock conflict or unreachable coordinator. The transaction should abort."""


class RowNotFound(AqlError):
    """Update or delete matched no visible row in the snapshot."""


class ScenarioError(AqlError):
    """Malformed or inconsistent simulator scenario script."""
