"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "TextrapError",
    "DimensionMismatchError",
    "OracleCapError",
    "TensorFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedPayloadError",
    "DimensionOverflowError",
    "SingularFaceError",
    "FaceSvdError",
    "NumericalConsistencyError",
    "InsufficientSequenceError",
    "InvalidParameterError",
]


class TextrapError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(TextrapError, ValueError):
    """Operands have shapes incompatible with the requested operation."""


class OracleCapError(TextrapError, ValueError):
    """An oracle-only operation was invoked beyond its fixed size cap."""


class TensorFileError(TextrapError):
    """Base class for TNS3/TNS4 file format errors."""


class BadMagicError(TensorFileError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(TensorFileError):
    """The file declares a format version this build does not read."""


class TruncatedPayloadError(TensorFileError):
    """The file ends before the payload promised by its header."""


class DimensionOverflowError(TensorFileError):
    """Header dimensions are non-positive or too large to allocate."""


class SingularFaceError(TextrapError):
    """A DFT face is singular (or nearly so) where invertibility is required.

    Attributes
    ----------
    face_index : int or None
        0-based index of the offending face, when known: for the refusal
        rule, the face whose smallest singular value is least.
    cond : float or None
        For the refusal rule, the largest singular value over all faces
        divided by that face's smallest (inf if it is zero).
    """

    def __init__(self, message: str, face_index: int | None = None, cond: float | None = None):
        super().__init__(message)
        self.face_index = face_index
        self.cond = cond


class FaceSvdError(TextrapError):
    """A per-face decomposition (SVD, eigenvalues, inverse) failed or was
    refused because a face holds non-finite entries; carries the offending
    face index when known."""

    def __init__(self, message: str, face_index: int | None = None):
        super().__init__(message)
        self.face_index = face_index


class NumericalConsistencyError(TextrapError):
    """An internal identity that must hold numerically failed beyond tolerance."""


class InsufficientSequenceError(TextrapError, ValueError):
    """Not enough sequence terms are available for the requested operation."""


class InvalidParameterError(TextrapError, ValueError):
    """A numeric parameter is outside its domain (NaN, infinite or negative
    where that has no meaning); ``parameter`` names it."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter
