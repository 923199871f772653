"""Exception hierarchy shared by all geomedia modules."""

from __future__ import annotations


class GeoMediaError(Exception):
    """Base class for all errors raised by this package."""

    code = "Internal"


# -- codec ----------------------------------------------------------------------

class ParseError(GeoMediaError):
    """A JSON body, GeoMedia document, datetime or annotation is malformed.

    ``path`` is a JSON-pointer-style location of the offending member
    ("" for whole-document problems).
    """

    code = "BadBody"

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        if self.path:
            return f"{self.path}: {self.message}"
        return self.message


# -- store -----------------------------------------------------------------------

class DuplicateIdError(GeoMediaError):
    """Collection id already in use."""

    code = "Conflict"


class NotFoundError(GeoMediaError):
    """Collection, feature, or annotation does not exist."""

    code = "NotFound"


class StoreIoError(GeoMediaError):
    """Reading or writing the store directory failed."""


class CorruptStoreError(GeoMediaError):
    """Store files are inconsistent with the manifest."""


# -- queries ----------------------------------------------------------------------

class BadQueryError(GeoMediaError):
    """A query that cannot be answered as asked: malformed parameters
    (inverted bbox or interval, bad limit, bad feature id), or a question
    the data it names has no answer to (a time outside a moving value's
    extent, a heading of a track that never moves, the bearing between
    coincident points, a mount-relative FoV direction without a heading)."""

    code = "BadQuery"


class NotASampleError(BadQueryError):
    """Discrete-mode lookup at a time that is not a sample time."""


class WrongKindError(GeoMediaError):
    """Operation or document applied to a media kind that does not fit it."""

    code = "KindMismatch"
