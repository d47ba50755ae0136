"""Exception hierarchy for the vcflr package.

Every failure mode that callers are expected to handle gets its own class so
that pipelines can react (widen a bandwidth, drop a subject, reduce the bin
count) instead of parsing message strings.
"""


class VcflrError(Exception):
    """Base class for all package-specific errors."""


class InvalidInterval(VcflrError):
    """Grid construction over an empty or reversed interval."""


class GridMismatch(VcflrError):
    """Two grid-indexed objects do not share the required grid."""


class InsufficientLocalData(VcflrError):
    """A local fit has too few (distinct) points inside the kernel window."""


class InsufficientCenters(VcflrError):
    """Fewer weighted bin centers than the local polynomial order needs."""


class NotSymmetric(VcflrError):
    """A surface that must be symmetric is not."""


class ParseError(VcflrError):
    """Malformed input file; message carries the offending line number."""


class DomainViolation(VcflrError):
    """An observation lies outside its declared domain."""


class EmptyBin(VcflrError):
    """A covariate bin holds fewer subjects than the configured minimum."""

    def __init__(self, message: str, bin_index: int | None = None):
        super().__init__(message)
        self.bin_index = bin_index


class TruncationTooLarge(VcflrError):
    """Requested more components than an eigensystem provides."""


class SingularCovariance(VcflrError):
    """A subject has no observations to condition its BLUP scores on."""


class CovariateOutOfDomain(VcflrError):
    """Prediction requested at a covariate level outside the fitted domain."""


class ModelFormatError(VcflrError):
    """A model or config document is corrupt, ill-typed or has the wrong
    format version, or a fit configuration does not fit the data's type
    (a pair of bandwidths where a scalar response needs one, or no number
    of response components for a functional response)."""
