"""Closed-form least-squares similarity fit between corresponding point sets.

Finds the translation, rotation, and single uniform scale minimizing the
mean squared distance between the fixed points and the transformed moving
points. The rotation comes from the SVD of the cross-covariance with the
usual sign-correction diagonal, so the result is always a proper rotation,
even for reflective correspondences.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import AffineMatrix, PointSet, require_correspondence
from .errors import DegenerateConfigurationError

# Second singular value of the cross-covariance must exceed this fraction
# of the first, otherwise the configuration is treated as collinear.
RANK_RTOL = 1e-9


def umeyama_fit(moving: PointSet, fixed: PointSet) -> AffineMatrix:
    """Least-squares similarity transform taking ``moving`` onto ``fixed``.

    Returns the matrix T with linear part c * R (c > 0, R a proper
    rotation) and translation ``fixed centroid - c * R @ moving centroid``
    minimizing ``mean ||fixed_i - T(moving_i)||^2``.

    Requires at least 3 correspondences in a configuration of rank >= 2
    (not all collinear) whose moments, and the cube of whose fitted scale,
    neither overflow nor underflow the float range; raises
    :class:`DegenerateConfigurationError` otherwise and
    :class:`CorrespondenceError` on a size mismatch.
    """
    require_correspondence(moving, fixed)
    n = len(moving)
    if n < 3:
        raise DegenerateConfigurationError(
            f"need at least 3 correspondences to fit a similarity, got {n}"
        )
    src = moving.coords
    dst = fixed.coords
    # finite coordinates near the float range overflow here; that is
    # reported below as one error rather than as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mu_src = src.mean(axis=0)
        mu_dst = dst.mean(axis=0)
        src_c = src - mu_src
        dst_c = dst - mu_dst
        cov = dst_c.T @ src_c / n
        var_src = float((src_c * src_c).sum()) / n
    if not (np.isfinite(cov).all() and np.isfinite(var_src)):
        raise DegenerateConfigurationError(
            "coordinates too large: the cross-covariance or the moving-point "
            "variance overflows the float range"
        )

    u, d, vt = np.linalg.svd(cov)
    if d[1] <= RANK_RTOL * d[0]:
        raise DegenerateConfigurationError(
            "point configuration is collinear or collapsed "
            f"(singular values {d[0]:.3e}, {d[1]:.3e}, {d[2]:.3e})"
        )
    # past the rank check the points are distinct, so a zero variance is underflow
    if var_src == 0.0:
        raise DegenerateConfigurationError(
            "moving points too close together: their variance underflows the float range"
        )
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2] = -1.0
    rot = u @ np.diag(sign) @ vt

    # the sum is at least d[0] > 0, so the scale is positive unless the
    # quotient underflows; the transform's determinant is its cube
    scale = float((d * sign).sum()) / var_src
    determinant = scale * scale * scale
    if determinant == math.inf:
        raise DegenerateConfigurationError(
            f"optimal uniform scale is too large ({scale:.3e}): its cube, the determinant, "
            "overflows the float range; the moving points are too close together for the fixed points"
        )
    if determinant < sys.float_info.min:
        raise DegenerateConfigurationError(
            f"optimal uniform scale is too small ({scale:.3e}): its cube, the determinant, "
            "underflows the float range; the fixed points are too close together for the moving points"
        )
    translation = mu_dst - scale * rot @ mu_src
    return AffineMatrix.from_linear_translation(scale * rot, translation)
