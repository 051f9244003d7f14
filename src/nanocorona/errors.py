"""Exception hierarchy shared across the package."""

from __future__ import annotations


class NanocoronaError(Exception):
    """Base class for all package errors."""

    code = "E_GENERIC"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class EncodingError(NanocoronaError):
    code = "E_ENCODING"


class RowShapeError(NanocoronaError):
    code = "E_ROW_SHAPE"


class BadNumberError(NanocoronaError):
    code = "E_BAD_NUMBER"


class UnknownColumnError(NanocoronaError):
    code = "E_UNKNOWN_COLUMN"


class DuplicateAccessionError(NanocoronaError):
    code = "E_DUP_ACCESSION"


class BadSequenceError(NanocoronaError):
    code = "E_BAD_SEQ"


class UnknownUnitError(NanocoronaError):
    code = "E_UNKNOWN_UNIT"


class NoDataError(NanocoronaError):
    code = "E_NO_DATA"


class MissingMolecularWeightError(NanocoronaError):
    code = "E_MISSING_MW"


class ZeroTotalError(NanocoronaError):
    code = "E_ZERO_TOTAL"


class EmptyInputError(NanocoronaError):
    code = "E_EMPTY"


class NonPositiveError(NanocoronaError):
    code = "E_NONPOSITIVE"


class OutOfRangeError(NanocoronaError):
    code = "E_OUT_OF_RANGE"


class EmptyCorpusError(NanocoronaError):
    code = "E_EMPTY_CORPUS"


class ProviderError(NanocoronaError):
    code = "E_PROVIDER"


class DimensionError(NanocoronaError):
    code = "E_DIM"


class CacheError(NanocoronaError):
    code = "E_CACHE"


class HttpError(NanocoronaError):
    code = "E_HTTP"


class TimeoutExhaustedError(NanocoronaError):
    code = "E_TIMEOUT"


class NonFiniteError(NanocoronaError):
    code = "E_NONFINITE"


class NoPositivesError(NanocoronaError):
    code = "E_NO_POSITIVES"


class ZeroVarianceError(NanocoronaError):
    code = "E_ZERO_VARIANCE"


class VersionError(NanocoronaError):
    code = "E_VERSION"


class CorruptError(NanocoronaError):
    code = "E_CORRUPT"


class SameFeatureError(NanocoronaError):
    code = "E_SAME_FEATURE"


class ViewMismatchError(NanocoronaError):
    code = "E_VIEW_MISMATCH"


class StageError(NanocoronaError):
    code = "E_STAGE"

    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
