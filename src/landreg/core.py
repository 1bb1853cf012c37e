"""Geometry primitives: points, point sets, volumes, and affine transforms.

World coordinates are millimeters throughout. Transforms are parameterized
either as a 4x4 homogeneous matrix (``AffineMatrix``) or as nine scalars
(``AffineParams9``): translation, Euler angles, and per-axis scales. The
two forms are converted by :func:`compose` and :func:`decompose`.

Conventions, fixed once and relied on everywhere:

* Rotations are intrinsic Z-Y-X: ``R = Rz(rz) @ Ry(ry) @ Rx(rx)``.
* Scaling is applied before rotation: the linear part is ``R @ diag(s)``,
  so a transformed point is ``R @ S @ p + t``.
* Volumes index voxels x-fastest: ``linear = x + nx * (y + ny * z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CorrespondenceError,
    DecompositionError,
    DegenerateConfigurationError,
    InvalidParameterError,
)

_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])

# Off-diagonal residue allowed in the normalized linear part before the
# matrix is rejected as sheared.
SHEAR_TOLERANCE = 1e-6

# |cos(ry)| below which Euler extraction is refused (gimbal lock).
_GIMBAL_TOLERANCE = 1e-8

# the types require_real takes: concrete, since isinstance against numbers.Real costs about 0.7 us
_REALS = (float, int, np.floating, np.integer)


def require_integer(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as a Python int; raise unless it is an integer in ``[minimum, maximum]``.

    Python and numpy integers qualify; ``bool`` and integral floats do not.
    ``maximum`` of ``None`` leaves the value unbounded above.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(f"{name} must be at most {maximum}, got {value!s:.80}")
    return int(value)


def require_real(value, name: str) -> float:
    """``value`` as a Python float; raise unless it is a finite real number.

    Python and numpy integers and floats qualify; ``bool``, strings, 0-d arrays,
    ``Fraction``, ``Decimal`` and integers too large for a float do not.
    """
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} must be finite, got an integer of {value.bit_length()} bits") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    return value


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a new float64 array; raise unless they form an integer or float array (finite or not)."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise InvalidParameterError(f"{name} must be a rectangular array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return np.array(arr, dtype=float)


def require_three(values, what: str) -> tuple:
    """The items of ``values``; raise unless there are exactly three."""
    try:
        x, y, z = values
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{what} must have exactly 3 components, got {values!r:.80}") from None
    return x, y, z


def _as_float3(values, what: str) -> tuple[float, float, float]:
    x, y, z = require_three(values, what)
    return require_real(x, what), require_real(y, what), require_real(z, what)


@dataclass(frozen=True)
class Point3:
    """A world-space point in millimeters. All components must be finite reals."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, require_real(getattr(self, name), f"point component {name}"))


class PointSet:
    """An ordered set of corresponding landmarks.

    Order carries the correspondence: index i in a moving set pairs with
    index i in the fixed set. Coordinates are held as an immutable
    (n, 3) float64 array; ``names`` optionally labels each point, and two
    named sets pair only if their names agree (:func:`require_correspondence`).
    """

    __slots__ = ("_coords", "_names")

    def __init__(self, coords, names: Sequence[str] | None = None):
        arr = real_array(coords, "point set")
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise InvalidParameterError(f"point set must be (n, 3) shaped, got {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidParameterError("point set must contain at least one point")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("point set contains non-finite coordinates")
        arr.flags.writeable = False
        self._coords = arr
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != arr.shape[0]:
                raise InvalidParameterError(
                    f"got {len(names)} names for {arr.shape[0]} points"
                )
        self._names = names

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, 3) float64 coordinate array."""
        return self._coords

    @property
    def names(self) -> tuple[str, ...] | None:
        return self._names

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)})"


@dataclass(frozen=True)
class Volume3:
    """A 3D scalar grid with anisotropic voxel spacing.

    ``data`` is a flat array indexed x-fastest: ``x + nx * (y + ny * z)``.
    The world coordinate of voxel (x, y, z) is
    ``origin + (x * sx, y * sy, z * sz)``.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: Point3 = Point3(0.0, 0.0, 0.0)
    data: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        dims = tuple(require_integer(d, "dims", 1) for d in require_three(self.dims, "dims"))
        spacing = _as_float3(self.spacing, "spacing")
        if any(s <= 0 for s in spacing):
            raise InvalidParameterError(f"spacing must be strictly positive, got {spacing}")
        n = dims[0] * dims[1] * dims[2]
        if self.data is None:
            try:
                data = np.zeros(n)
            except ValueError:  # n beyond what numpy can allocate
                raise InvalidParameterError(f"dims {dims} hold too many voxels for an array") from None
        else:
            data = real_array(self.data, "volume data").reshape(-1)  # the one owned copy
        if data.size != n:
            raise InvalidParameterError(
                f"data length {data.size} does not match dims product {n}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", data)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def voxel_of_index(self, linear: int) -> tuple[int, int, int]:
        """Voxel (x, y, z) at ``linear``; elementwise for an integer array."""
        nx, ny, _ = self.dims
        return linear % nx, (linear // nx) % ny, linear // (nx * ny)

    def voxel_center(self, ix: int, iy: int, iz: int) -> Point3:
        """World coordinate of voxel (ix, iy, iz); each index an integer on the grid."""
        nx, ny, nz = self.dims
        ix = require_integer(ix, "voxel index ix", 0, nx - 1)
        iy = require_integer(iy, "voxel index iy", 0, ny - 1)
        iz = require_integer(iz, "voxel index iz", 0, nz - 1)
        sx, sy, sz = self.spacing
        return Point3(self.origin.x + ix * sx, self.origin.y + iy * sy, self.origin.z + iz * sz)

    def voxel_offset(self, point: Point3) -> tuple[float, float, float]:
        """Position of ``point`` in voxel units from the origin, as floats.

        An offset may be infinite when ``point`` lies far outside a grid of
        fine spacing.
        """
        sx, sy, sz = self.spacing
        return (
            (point.x - self.origin.x) / sx,
            (point.y - self.origin.y) / sy,
            (point.z - self.origin.z) / sz,
        )

    def contains_voxel(self, ix: int, iy: int, iz: int) -> bool:
        nx, ny, nz = self.dims
        return 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz

    def data3d(self) -> np.ndarray:
        """The data as a (nz, ny, nx) view: element [z, y, x] is voxel (x, y, z)."""
        nx, ny, nz = self.dims
        return self.data.reshape(nz, ny, nx)

    def with_data(self, data) -> "Volume3":
        """A volume with the same geometry and new voxel values."""
        return Volume3(self.dims, self.spacing, self.origin, np.asarray(data).reshape(-1))


@dataclass(frozen=True)
class AffineParams9:
    """Nine transform parameters: translation (mm), Euler angles (rad), scales.

    Scales must be strictly positive; the parameter family deliberately
    excludes shear and reflections.
    """

    t: tuple[float, float, float]
    r: tuple[float, float, float]
    s: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "t", _as_float3(self.t, "translation"))
        object.__setattr__(self, "r", _as_float3(self.r, "rotation"))
        s = _as_float3(self.s, "scale")
        if any(v <= 0 for v in s):
            raise InvalidParameterError(f"scales must be strictly positive, got {s}")
        object.__setattr__(self, "s", s)

    @classmethod
    def identity(cls) -> "AffineParams9":
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    @classmethod
    def from_vector(cls, v) -> "AffineParams9":
        v = real_array(v, "parameter vector").reshape(-1)
        if v.size != 9:
            raise InvalidParameterError(f"parameter vector must have 9 entries, got {v.size}")
        return cls(tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]))


class AffineMatrix:
    """A 4x4 homogeneous transform with bottom row (0, 0, 0, 1).

    The upper-left 3x3 linear block must be invertible, with a determinant
    inside the float range (:class:`DegenerateConfigurationError` if it
    overflows). Instances are immutable.
    """

    __slots__ = ("_m",)

    def __init__(self, m):
        arr = real_array(m, "affine matrix")
        if arr.shape != (4, 4):
            raise InvalidParameterError(f"affine matrix must be 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("affine matrix contains non-finite entries")
        if not np.array_equal(arr[3], _BOTTOM_ROW):
            raise InvalidParameterError(f"bottom row must be (0, 0, 0, 1), got {arr[3]}")
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(arr[:3, :3])
        if det == 0.0:
            raise InvalidParameterError("linear part of affine matrix is singular")
        if not math.isfinite(det):
            raise DegenerateConfigurationError(
                "linear part of affine matrix is too large: its determinant overflows the float range"
            )
        arr.flags.writeable = False
        self._m = arr

    @classmethod
    def identity(cls) -> "AffineMatrix":
        return cls(np.eye(4))

    @classmethod
    def from_linear_translation(cls, linear, translation) -> "AffineMatrix":
        m = np.eye(4)
        m[:3, :3] = real_array(linear, "linear part")
        m[:3, 3] = real_array(translation, "translation")
        return cls(m)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only 4x4 matrix."""
        return self._m

    @property
    def linear(self) -> np.ndarray:
        """Read-only upper-left 3x3 block."""
        return self._m[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        """Read-only translation column."""
        return self._m[:3, 3]

    def __repr__(self) -> str:
        return f"AffineMatrix({self._m.tolist()})"

    def __reduce__(self):
        # rebuild through __init__, so an unpickled matrix is read-only again
        return (AffineMatrix, (self._m,))


def rotation(rx: float, ry: float, rz: float) -> tuple[float, ...]:
    """Intrinsic Z-Y-X rotation ``Rz(rz) @ Ry(ry) @ Rx(rx)``.

    Returns the nine entries in row-major order as Python floats. This is
    the one rotation: :func:`compose` and the refinement kernel both build
    R from it, so a written matrix is the one the kernel scored.
    """
    cx, snx = math.cos(rx), math.sin(rx)
    cy, sny = math.cos(ry), math.sin(ry)
    cz, snz = math.cos(rz), math.sin(rz)
    return (
        cz * cy, cz * sny * snx - snz * cx, cz * sny * cx + snz * snx,
        snz * cy, snz * sny * snx + cz * cx, snz * sny * cx - cz * snx,
        -sny, cy * snx, cy * cx,
    )


def compose(params: AffineParams9) -> AffineMatrix:
    """Build the homogeneous matrix for nine transform parameters.

    The linear part is ``Rz(rz) @ Ry(ry) @ Rx(rx) @ diag(sx, sy, sz)``;
    the translation column is ``t``. Applying the result to a point p
    yields ``R @ S @ p + t``.
    """
    if not isinstance(params, AffineParams9):
        params = AffineParams9(*params)
    linear = np.array(rotation(*params.r)).reshape(3, 3) * params.s
    return AffineMatrix.from_linear_translation(linear, params.t)


def decompose(matrix: AffineMatrix) -> AffineParams9:
    """Split a matrix back into nine parameters.

    Requires the linear part to factor as a proper rotation times a
    positive diagonal scale, which holds for every similarity transform
    and for every :func:`compose` output. Scales are the column norms of
    the linear block; angles come from the normalized rotation in Z-Y-X
    convention.

    Raises :class:`DecompositionError` for reflections, for shear above
    ``SHEAR_TOLERANCE``, and at gimbal lock (|ry| = pi/2), where Euler
    angles are not uniquely recoverable, and
    :class:`DegenerateConfigurationError` when a scale overflows the float
    range.
    """
    a = matrix.linear
    with np.errstate(over="ignore"):
        scales = np.sqrt((a * a).sum(axis=0))
    if not np.isfinite(scales).all():
        raise DegenerateConfigurationError(
            "linear part is too large: a column's squared norm overflows the float range"
        )
    if np.any(scales == 0.0):
        raise DecompositionError("linear part has a zero column; no positive scale exists")
    rot = a / scales
    if np.linalg.det(rot) < 0.0:
        raise DecompositionError("linear part contains a reflection (negative determinant)")
    residue = rot.T @ rot - np.eye(3)
    off = np.abs(residue - np.diag(np.diag(residue))).max()
    if off > SHEAR_TOLERANCE:
        raise DecompositionError(
            f"linear part is sheared (orthogonality residue {off:.3e} exceeds {SHEAR_TOLERANCE})"
        )
    cy = math.hypot(rot[0, 0], rot[1, 0])
    if cy < _GIMBAL_TOLERANCE:
        raise DecompositionError("gimbal lock: |ry| is at pi/2, Euler angles are ambiguous")
    ry = math.atan2(-rot[2, 0], cy)
    rx = math.atan2(rot[2, 1], rot[2, 2])
    rz = math.atan2(rot[1, 0], rot[0, 0])
    t = matrix.translation
    return AffineParams9(
        (t[0], t[1], t[2]), (rx, ry, rz), (scales[0], scales[1], scales[2])
    )


def transform_array(matrix: AffineMatrix, coords: np.ndarray) -> np.ndarray:
    """Map each row ``p`` of an (n, 3) array to ``linear @ p + translation``."""
    return coords @ matrix.linear.T + matrix.translation


def require_correspondence(moving: PointSet, fixed: PointSet) -> None:
    """Raise unless the two sets pair element-wise: equal names where both are named, then equal lengths.

    A named set paired with an unnamed one pairs by order alone.
    """
    if moving.names is not None and fixed.names is not None and moving.names != fixed.names:
        raise CorrespondenceError(f"landmark names disagree: {list(moving.names)} vs {list(fixed.names)}")
    if len(moving) != len(fixed):
        raise CorrespondenceError(
            f"point sets differ in size: {len(moving)} moving vs {len(fixed)} fixed"
        )
