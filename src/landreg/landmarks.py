"""Distance maps, label maps, and landmark extraction on voxel grids.

The distance transform is the exact Euclidean one, as three separable minimum
passes (Saito & Toriwaki 1994): per axis, each voxel takes the minimum over
all sites q of its line of ``g[q] + ((p - q) * step)^2``. A compiled kernel,
``_edt.c``, runs each pass as the lower envelope of those candidates
(Felzenszwalb & Huttenlocher 2012): per line it gathers the values, keeps
the sites that can be a minimum, and writes one sum per voxel, so a pass
costs a few operations per voxel whatever the number of sites, and a line
without a site costs one read of it. The result is bit-identical to taking
the minimum of every rounded candidate. Rounding is monotone, so that
minimum is the rounding of the smallest exact sum. Two sites' exact
candidates differ by an amount that falls by at least ``2 * step^2`` per
voxel, more than the rounding of the squared distances can undo on an axis
of up to 2^25 voxels, so once a later site beats an earlier one it does so
to the end of the line. The kernel finds where from the parabola formula,
to within one voxel, and settles that voxel by comparing the two exact
sums. Distances between voxel centers are in world units, so anisotropic
spacing is honored. Label maps rescale a closed form of a landmark's
distance into (0, 1] with ``exp(-10 * M / max(M))``: the landmark voxel is
exactly 1, the far corner ``exp(-10)``. Recovery is the inverse: the argmax
voxel center.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import Point3, Volume3, require_integer
from .errors import (
    DegenerateConfigurationError,
    DegenerateGeometryError,
    InvalidDataError,
    NoFeatureError,
    OutOfBoundsError,
)

LABEL_DECAY = 10.0  # exponent factor in the label map
# the longest axis on which the rounding of the squared distances cannot
# reorder two sites' candidates, so the minimum passes stay exact (_edt.c)
_MAX_EDT_AXIS = 2**25


@dataclass(frozen=True)
class BinaryMask:
    """A volume restricted to {0, 1} voxel values."""

    volume: Volume3

    def __post_init__(self):
        data = self.volume.data
        if not np.all((data == 0.0) | (data == 1.0)):
            bad = data[(data != 0.0) & (data != 1.0)]
            raise InvalidDataError(
                f"mask contains {bad.size} voxels outside {{0, 1}} (first: {float(bad.flat[0])!r})"
            )


def _check_spacing(volume: Volume3) -> None:
    """Raise unless every squared distance between voxel centers is a normal float.

    The distance transform and the label map both sum squared per-axis
    distances. The largest, ``sum(((n - 1) * s)^2)`` over the axes, must not
    overflow, and the smallest nonzero one, ``s^2`` on an axis of more than
    one voxel, must not fall below the normal range, where it loses precision
    or rounds to 0. Python floats give inf and 0 here without a warning.
    """
    dims, spacing = volume.dims, volume.spacing
    ex, ey, ez = ((n - 1) * s for n, s in zip(dims, spacing))
    if not math.isfinite(ex * ex + ey * ey + ez * ez):
        raise DegenerateConfigurationError(
            f"voxel spacing {spacing} mm is too large for a {'x'.join(map(str, dims))} grid: "
            "its squared distances overflow the float range"
        )
    if any(n > 1 and s * s < sys.float_info.min for n, s in zip(dims, spacing)):
        raise DegenerateConfigurationError(
            f"voxel spacing {spacing} mm is too small: its squared distances "
            "underflow the float range"
        )


def _check_axes(volume: Volume3) -> None:
    """Raise unless every axis is short enough for the exact minimum passes."""
    if max(volume.dims) > _MAX_EDT_AXIS:
        raise DegenerateConfigurationError(
            f"grid {'x'.join(map(str, volume.dims))} has an axis longer than the "
            f"{_MAX_EDT_AXIS} voxels on which the distance transform is exact"
        )


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled minimum pass, built on the first call if the cache lacks this version."""
    from ._native import load  # here, so importing the package loads no build code

    lib = load("_edt", "distance transform kernel")
    address, count = ctypes.c_void_p, ctypes.c_int64
    lib.landreg_edt_pass.argtypes = (address, count, count, count, ctypes.c_int, ctypes.c_double)
    lib.landreg_edt_pass.restype = ctypes.c_int
    return lib


def _envelope_pass(f: np.ndarray, step: float, axis: int) -> None:
    """In place, ``f[p] = min_q f[q] + ((p - q) * step)^2`` along ``axis`` of every line.

    ``f`` is a C-contiguous float64 (nz, ny, nx) array of squared distances
    at sites q * step and +inf where no site is. Every finite candidate must
    stay finite, and no axis may be longer than ``_MAX_EDT_AXIS``; the
    checks of :func:`distance_transform` see to both.
    """
    if f.dtype != np.float64 or f.ndim != 3 or not (f.flags.c_contiguous and f.flags.writeable):
        raise ValueError("a pass works in place on a writable C-contiguous float64 (nz, ny, nx) array")
    nz, ny, nx = f.shape
    if _kernel().landreg_edt_pass(f.ctypes.data, nz, ny, nx, axis, step):
        raise MemoryError(f"cannot allocate the scratch of a distance transform pass "
                          f"over lines of {f.shape[axis]} voxels")


def distance_transform(mask: BinaryMask) -> Volume3:
    """Exact Euclidean distance (mm) from every voxel to the nearest feature.

    Returns a volume on the mask's grid. Runs three separable minimum
    passes over squared distances (x, then y, then z), each a lower envelope
    per line in the compiled kernel, and takes one square root at the end.
    Each pass is bit-identical to the minimum over every candidate of a
    line, so the result matches a brute-force nearest-feature scan to
    floating-point accuracy.

    Raises :class:`NoFeatureError` if the mask has no feature voxel,
    :class:`DegenerateConfigurationError` if an axis is longer than 2^25
    voxels or the squared distances of the voxel spacing overflow or
    underflow the float range, ``MemoryError`` if a pass cannot allocate
    its scratch, and ``OSError`` if the kernel is not built yet and cannot
    be.
    """
    vol = mask.volume
    _check_axes(vol)
    feature = vol.data3d() > 0.5
    if not feature.any():
        raise NoFeatureError("mask contains no feature voxels")
    _check_spacing(vol)
    sx, sy, sz = vol.spacing
    d2 = np.where(feature, 0.0, np.inf)
    for step, axis in ((sx, 2), (sy, 1), (sz, 0)):  # (nz, ny, nx) layout: x first
        _envelope_pass(d2, step, axis)
    return vol._with_built_data(np.sqrt(d2, out=d2))


def make_label(landmark: Point3, template: Volume3) -> Volume3:
    """The normalized landmark map ``exp(-10 * M / max(M))`` on the grid of ``template``.

    The landmark is snapped to the nearest voxel center of ``template``
    (whose data is ignored, only its geometry is used), M is the distance
    from that center in closed form, summed as the distance transform sums
    it, z + (y + x), so it equals that voxel's distance map bit for bit, and
    max(M) is the global maximum. The landmark voxel gets exactly 1 and the
    farthest voxel exactly ``exp(-LABEL_DECAY)``.

    Raises :class:`DegenerateConfigurationError` if the squared distances
    of the voxel spacing overflow or underflow the float range,
    :class:`OutOfBoundsError` if the landmark snaps outside the grid, and
    :class:`DegenerateGeometryError` on a single-voxel volume, where
    max(M) = 0 leaves the map undefined.
    """
    _check_spacing(template)
    # window the offsets as floats before rounding: far outside the grid an
    # offset may be infinite, or round to an integer hundreds of digits long
    ix, iy, iz = (
        round(f) if -1.0 < f < n else -1
        for f, n in zip(template.voxel_offset(landmark), template.dims)
    )
    if not template.contains_voxel(ix, iy, iz):
        raise OutOfBoundsError(
            f"landmark ({landmark.x}, {landmark.y}, {landmark.z}) mm falls outside the volume "
            f"(dims {template.dims}, spacing {template.spacing} mm, origin "
            f"({template.origin.x}, {template.origin.y}, {template.origin.z}) mm)"
        )
    nx, ny, nz = template.dims
    z, y, x = np.ogrid[:nz, :ny, :nx]
    sx, sy, sz = template.spacing
    dx, dy, dz = (x - ix) * sx, (y - iy) * sy, (z - iz) * sz
    # the one full-volume array: every step below works on it in place
    dist = dz * dz + (dy * dy + dx * dx)
    np.sqrt(dist, out=dist)
    peak = dist.max()
    if peak == 0.0:
        raise DegenerateGeometryError(
            "single-voxel volume: max distance is zero, label map is undefined"
        )
    # ratio first: dist/peak is exactly 1 at the farthest voxel, so the
    # exponent never rounds below -LABEL_DECAY
    dist /= peak
    dist *= -LABEL_DECAY
    return template._with_built_data(np.exp(dist, out=dist))


def recover_landmark(heatmap: Volume3) -> Point3:
    """World coordinate of the maximum-valued voxel.

    Ties resolve to the smallest linear index. This inverts
    :func:`make_label` exactly: the recovered point is the voxel center
    the landmark was snapped to.
    """
    data = heatmap.data
    idx = int(np.argmax(data))  # the first NaN, if there is one
    if math.isnan(data[idx]):
        raise InvalidDataError("heatmap contains NaN values")
    return heatmap.voxel_center(*heatmap.voxel_of_index(idx))


def extract_extremes(mask: BinaryMask, axis: int = 0) -> tuple[Point3, Point3]:
    """Feature voxels with the smallest and largest world coordinate on ``axis``.

    Defaults to the x axis (index 0), i.e. the left-most and right-most
    feature points of an axial view. Ties resolve to the smallest linear
    index. A single-feature mask returns the same point twice.
    """
    axis = require_integer(axis, "axis", 0, 2)
    vol = mask.volume
    flat = np.flatnonzero(vol.data != 0.0)  # on a bool array: about 4x faster than on float64
    if flat.size == 0:
        raise NoFeatureError("mask contains no feature voxels")
    along = vol.voxel_of_index(flat)[axis]
    # argmin/argmax return the first occurrence; flat indices are ascending,
    # which realizes the smallest-linear-index tie-break.
    lo = int(flat[np.argmin(along)])
    hi = int(flat[np.argmax(along)])
    return (
        vol.voxel_center(*vol.voxel_of_index(lo)),
        vol.voxel_center(*vol.voxel_of_index(hi)),
    )
