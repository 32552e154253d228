"""Exception hierarchy shared across the package.

Every error raised by the library derives from CurvopError, so callers can
catch one type at the boundary. The CLI maps CurvopError to exit code 2.
"""


class CurvopError(Exception):
    """Base class for all errors raised by this package."""


class DimensionTooSmall(CurvopError):
    """The ambient dimension is below the minimum the operation supports."""


class IndexOutOfRange(CurvopError):
    """A 1-based tensor index is not an integer in 1..n."""


class SymmetryConflict(CurvopError):
    """Two supplied components disagree under the index symmetries."""


class BianchiViolation(CurvopError):
    """The first Bianchi identity fails beyond tolerance."""


class DimensionMismatch(CurvopError):
    """Two objects that must share a dimension do not."""


class NotSymmetric(CurvopError):
    """A matrix handed to the symmetric eigensolver is not symmetric."""


class NoConvergence(CurvopError):
    """The LAPACK eigensolver reported that it failed to converge."""


class ParameterOutOfRange(CurvopError):
    """A numeric parameter violates its documented range."""


class FrameNotOrthonormal(CurvopError):
    """A frame's Gram matrix differs from the identity beyond tolerance."""


class ValidationFailure(CurvopError):
    """A raw component array fails a structural validity check."""


class ParseError(CurvopError):
    """Malformed JSON document, model string, or predicate string."""


class IoFailure(CurvopError):
    """A file could not be read or written."""
