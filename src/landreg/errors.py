"""Exception types raised across the package.

Every error the library raises deliberately derives from ``LandregError``,
so callers can catch one base class at an API boundary. Each class carries
the CLI exit code it maps to as ``exit_code``: 2 file format, 3 degenerate
data, 4 correspondence mismatch, 5 numerical degeneracy.
"""

from __future__ import annotations


class LandregError(Exception):
    """Base class for all errors raised by landreg."""

    exit_code = 1


class FormatError(LandregError):
    """A file is malformed or does not match the expected on-disk format."""

    exit_code = 2


class InvalidParameterError(LandregError):
    """A parameter value violates its invariants (non-finite, scale <= 0, ...)."""

    exit_code = 5


class InvalidDataError(LandregError):
    """Volume data violates an operation's precondition (NaN, non-binary mask)."""

    exit_code = 3


class DecompositionError(LandregError):
    """The matrix does not factor as rotation times positive diagonal scale."""

    exit_code = 5


class CorrespondenceError(LandregError):
    """Paired point sets (or samples) disagree in length or labeling."""

    exit_code = 4


class DegenerateConfigurationError(LandregError):
    """Point configuration too degenerate to fit (too few or collinear points),
    or so large that the fit, its determinant or scales, or the TRE overflow;
    or voxel spacing whose squared distances overflow or underflow."""

    exit_code = 5


class NoFeatureError(LandregError):
    """A binary mask contains no feature voxels."""

    exit_code = 3


class OutOfBoundsError(LandregError):
    """A landmark lies outside the volume it should be placed in."""

    exit_code = 3


class DegenerateGeometryError(LandregError):
    """Volume geometry too small for the requested map (single-voxel grid)."""

    exit_code = 3


class DivergenceError(LandregError):
    """Optimization produced a non-finite loss."""

    exit_code = 5

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class ConvergenceError(LandregError):
    """An iterative numerical method exhausted its iterations unconverged."""

    exit_code = 5


class InsufficientSampleError(LandregError):
    """A statistical test needs more samples than were supplied."""

    exit_code = 3


class DegenerateTestError(LandregError):
    """A statistical test is undefined for the supplied data (zero variance)."""

    exit_code = 3
