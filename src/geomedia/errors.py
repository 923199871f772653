"""Exception hierarchy shared by all geomedia modules."""

from __future__ import annotations


class GeoMediaError(Exception):
    """Base class for all errors raised by this package."""

    code = "Internal"


# -- time-varying values ------------------------------------------------------

class OutOfRangeError(GeoMediaError):
    """Timestamp lies outside the temporal extent of a moving value."""

    code = "BadQuery"


class NotASampleError(GeoMediaError):
    """Discrete-mode lookup at a time that is not a sample time."""

    code = "BadQuery"


class DegenerateTrackError(GeoMediaError):
    """Heading requested on a track with no spatial motion."""

    code = "BadQuery"


# -- geometry ------------------------------------------------------------------

class CoincidentPointsError(GeoMediaError):
    """Bearing between two identical positions is undefined."""

    code = "BadQuery"


class MissingHeadingError(GeoMediaError):
    """Mount-relative FoV direction cannot be resolved without a heading."""

    code = "BadQuery"


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
    """Query parameters are malformed (inverted bbox/interval, bad limit)."""

    code = "BadQuery"


class WrongKindError(GeoMediaError):
    """Operation or document applied to a media kind that does not fit it."""

    code = "KindMismatch"
