"""Error taxonomy shared by the store, the registry, and both protocol frontends.

Every error carries a stable machine-readable ``code`` (the value that ends up
in wire-level ``{"error": ..., "detail": ...}`` bodies), the HTTP ``status``
the REST frontend answers it with, and a human-oriented ``detail`` string.
"""

from __future__ import annotations


class ApiError(Exception):
    """Base class for all registry errors with a stable wire code."""

    code = "INTERNAL"
    status = 500

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code

    def to_body(self) -> dict:
        return {"error": self.code, "detail": self.detail}


# --- graph store ---

class EmptyLabelsError(ApiError):
    code = "EMPTY_LABELS"


class InvalidPropertyError(ApiError):
    code = "INVALID_PROPERTY"
    status = 400


class WorkFailedError(ApiError):
    """A mutation closure raised ``cause``, not an ApiError; the store was rolled back."""

    code = "WORK_FAILED"

    def __init__(self, detail: str = "", cause: BaseException | None = None):
        super().__init__(detail)
        self.cause = cause


class FileIoError(ApiError):
    code = "IO_ERROR"


class CorruptSnapshotError(ApiError):
    code = "CORRUPT_SNAPSHOT"


class EmptyQueryError(ApiError):
    code = "EMPTY_QUERY"
    status = 400


# --- card domain ---

class EmptyComponentError(ApiError):
    code = "EMPTY_COMPONENT"
    status = 400


class MalformedJsonError(ApiError):
    code = "MALFORMED_JSON"
    status = 400


class SchemaViolationError(ApiError):
    code = "SCHEMA_VIOLATION"
    status = 400

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class IdMismatchError(ApiError):
    code = "ID_MISMATCH"
    status = 400


# --- registry ---

class NotFoundError(ApiError):
    code = "NOT_FOUND"
    status = 404


class DuplicateCardError(ApiError):
    code = "DUPLICATE_CARD"
    status = 409


class DuplicateExperimentError(ApiError):
    code = "DUPLICATE_EXPERIMENT"
    status = 409


class NodeNotFoundError(ApiError):
    code = "NODE_NOT_FOUND"
    status = 404

    def __init__(self, which: str, detail: str = ""):
        super().__init__(detail or f"{which} node not found")
        self.which = which


class DuplicateEdgeError(ApiError):
    code = "DUPLICATE_EDGE"
    status = 409
