"""Geometry primitives: validation, index conventions, compose/decompose."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from landreg.core import (
    AffineMatrix,
    AffineParams9,
    Point3,
    PointSet,
    Volume3,
    compose,
    decompose,
    require_correspondence,
    require_real,
    rotation,
    transform_array,
)
from landreg.errors import (
    CorrespondenceError,
    DecompositionError,
    DegenerateConfigurationError,
    InvalidParameterError,
)
from landreg.refine import RefineConfig
from landreg.synth import SynthConfig

angles = st.floats(-math.pi / 2 + 0.1, math.pi / 2 - 0.1)
scales = st.floats(0.5, 2.0)
shifts = st.floats(-100.0, 100.0)


def test_point_components_coerced_to_float():
    p = Point3(1, 2, 3)
    assert (p.x, p.y, p.z) == (1.0, 2.0, 3.0)
    assert isinstance(p.x, float)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite(bad):
    with pytest.raises(InvalidParameterError):
        Point3(0.0, bad, 0.0)


@pytest.mark.parametrize(
    "make",
    [lambda: RefineConfig(step_size=10**400), lambda: SynthConfig(noise_sigma=10**400), lambda: Point3(10**400, 0, 0)],
    ids=["step_size", "noise_sigma", "point"],
)
def test_integer_beyond_float_range_is_an_invalid_parameter(make):
    with pytest.raises(InvalidParameterError, match="1329 bits"):
        make()


@pytest.mark.parametrize("bad", [Fraction(1, 2), Decimal("0.5"), np.array(0.5), "0.5"], ids=repr)
def test_require_real_takes_only_python_and_numpy_reals(bad):
    with pytest.raises(InvalidParameterError, match="must be a real number"):
        require_real(bad, "value")
    assert require_real(np.float32(0.5), "value") == 0.5


def test_pointset_shape_checked():
    with pytest.raises(InvalidParameterError):
        PointSet(np.zeros((3, 2)))
    with pytest.raises(InvalidParameterError):
        PointSet(np.zeros((0, 3)))
    with pytest.raises(InvalidParameterError):
        PointSet(np.array([[0.0, 1.0, np.nan]]))


def test_pointset_coords_are_immutable():
    ps = PointSet(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 1.0


def test_pointset_does_not_alias_input():
    arr = np.zeros((2, 3))
    ps = PointSet(arr)
    arr[0, 0] = 9.0
    assert ps.coords[0, 0] == 0.0


def test_volume_does_not_alias_input():
    arr = np.zeros(8)
    vol = Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=arr)
    assert not np.shares_memory(vol.data, arr)
    arr[0] = 9.0
    assert vol.data[0] == 0.0
    with pytest.raises(ValueError):
        vol.data[0] = 1.0


def test_pointset_names_length_checked():
    with pytest.raises(InvalidParameterError):
        PointSet(np.zeros((2, 3)), names=("only",))


def test_volume_validation():
    with pytest.raises(InvalidParameterError):
        Volume3(dims=(0, 1, 1), spacing=(1, 1, 1))
    with pytest.raises(InvalidParameterError):
        Volume3(dims=(1, 1, 1), spacing=(1, 0, 1))
    with pytest.raises(InvalidParameterError):
        Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros(7))


@pytest.mark.parametrize("dims", [(2.5, 1, 1), (True, 1, 1), (1, 2.0, 1), (1, 1, "2")], ids=repr)
def test_volume_dims_must_be_integers(dims):
    with pytest.raises(InvalidParameterError, match="dims"):
        Volume3(dims=dims, spacing=(1, 1, 1))


def test_volume_linear_index_is_x_fastest():
    vol = Volume3(dims=(4, 3, 2), spacing=(1, 1, 1))
    assert vol.voxel_of_index(1) == (1, 0, 0)
    assert vol.voxel_of_index(4) == (0, 1, 0)
    assert vol.voxel_of_index(12) == (0, 0, 1)
    assert vol.voxel_of_index(3 + 4 * (2 + 3 * 1)) == (3, 2, 1)


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.integers(0, 6**3 - 1),
)
def test_volume_index_round_trip(dims, raw):
    vol = Volume3(dims=dims, spacing=(1, 1, 1))
    linear = raw % vol.n_voxels
    x, y, z = vol.voxel_of_index(linear)
    assert x + dims[0] * (y + dims[1] * z) == linear


def test_volume_voxel_center_uses_origin_and_spacing():
    vol = Volume3(dims=(3, 3, 3), spacing=(0.5, 2.0, 3.0), origin=Point3(-1.0, 10.0, 0.25))
    assert vol.voxel_center(2, 1, 1) == Point3(-1.0 + 1.0, 12.0, 3.25)
    assert vol.voxel_center(np.int64(2), np.int32(1), np.uint8(1)) == Point3(0.0, 12.0, 3.25)


@pytest.mark.parametrize("bad", ["1", 1.5, 1.0, True, None, -1, 3], ids=repr)
def test_volume_voxel_center_takes_only_indices_on_the_grid(bad):
    vol = Volume3(dims=(3, 3, 3), spacing=(1.0, 1.0, 1.0))
    for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
        with pytest.raises(InvalidParameterError, match="voxel index"):
            vol.voxel_center(*args)


def test_volume_data3d_layout_matches_linear_index():
    vol = Volume3(dims=(4, 3, 2), spacing=(1, 1, 1), data=np.arange(24.0))
    cube = vol.data3d()
    assert cube.shape == (2, 3, 4)
    assert cube[1, 2, 3] == vol.data[3 + 4 * (2 + 3 * 1)]


def test_volume_with_data_keeps_geometry():
    vol = Volume3(dims=(2, 2, 1), spacing=(1, 2, 3), origin=Point3(1, 1, 1))
    new = vol.with_data(np.ones(4))
    assert new.dims == vol.dims and new.spacing == vol.spacing and new.origin == vol.origin
    assert np.all(new.data == 1.0)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        AffineParams9((0, 0, 0), (0, 0, 0), (1, 0, 1))
    with pytest.raises(InvalidParameterError):
        AffineParams9((0, 0, 0), (0, 0, 0), (1, -1, 1))
    with pytest.raises(InvalidParameterError):
        AffineParams9((0, math.nan, 0), (0, 0, 0), (1, 1, 1))


def test_params_vector_round_trip():
    p = AffineParams9((1, 2, 3), (0.1, 0.2, 0.3), (1.5, 0.75, 2.0))
    assert AffineParams9.from_vector(p.t + p.r + p.s) == p
    assert list(p.t + p.r + p.s) == [1, 2, 3, 0.1, 0.2, 0.3, 1.5, 0.75, 2.0]


def test_affine_matrix_validation():
    with pytest.raises(InvalidParameterError):
        AffineMatrix(np.eye(3))
    bad_row = np.eye(4)
    bad_row[3, 0] = 1e-12
    with pytest.raises(InvalidParameterError):
        AffineMatrix(bad_row)
    singular = np.eye(4)
    singular[0, 0] = 0.0
    with pytest.raises(InvalidParameterError):
        AffineMatrix(singular)
    overflowing = np.diag([1e103, 1e103, 1e103, 1.0])  # finite, determinant 1e309
    with pytest.raises(DegenerateConfigurationError, match="determinant overflows"):
        AffineMatrix(overflowing)


def test_affine_matrix_is_immutable():
    m = AffineMatrix.identity()
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 2.0


def test_compose_identity():
    assert np.array_equal(compose(AffineParams9.identity()).matrix, np.eye(4))


def test_compose_scale_and_translation():
    m = compose(AffineParams9((1, 2, 3), (0, 0, 0), (2, 2, 2)))
    assert np.array_equal(m.linear, 2.0 * np.eye(3))
    assert np.array_equal(m.translation, [1.0, 2.0, 3.0])


def test_compose_quarter_turn_about_z():
    m = compose(AffineParams9((0, 0, 0), (0, 0, math.pi / 2), (1, 1, 1)))
    moved = transform_array(m, np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(moved, [[0.0, 1.0, 0.0]], atol=1e-12)


# Reference rotation: the product of the three axis matrices, in numpy.
def axis_product(rx, ry, rz):
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    mx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    my = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    mz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return mz @ my @ mx


def test_compose_scales_columns_not_rows():
    # linear part must be R @ diag(s): column j of the linear block is s_j * R[:, j]
    r = (0.2, -0.4, 0.6)
    s = (1.5, 0.5, 2.0)
    m = compose(AffineParams9((0, 0, 0), r, s))
    assert np.allclose(m.linear, axis_product(*r) @ np.diag(s), atol=1e-15)


turns = st.floats(-2 * math.pi, 2 * math.pi)


@given(st.tuples(turns, turns, turns), st.tuples(scales, scales, scales))
def test_compose_linear_is_the_shared_rotation_times_scales(r, s):
    # bit for bit: compose must write the R the refinement kernel scores
    entries = rotation(*r)
    want = np.array([[entries[3 * i + j] * s[j] for j in range(3)] for i in range(3)])
    assert compose(AffineParams9((0, 0, 0), r, s)).linear.tobytes() == want.tobytes()


@given(st.tuples(turns, turns, turns))
def test_rotation_matches_axis_product(r):
    # the two orders of rounding differ by at most 2 ulp of 1, the scale of R's entries
    got = np.array(rotation(*r)).reshape(3, 3)
    assert np.abs(got - axis_product(*r)).max() <= 2 * np.spacing(1.0)


def test_decompose_identity():
    p = decompose(AffineMatrix.identity())
    assert p == AffineParams9.identity()


def test_decompose_pure_diagonal():
    m = AffineMatrix.from_linear_translation(np.diag([2.0, 3.0, 4.0]), [0, 0, 0])
    p = decompose(m)
    assert p.s == (2.0, 3.0, 4.0)
    assert p.r == (0.0, 0.0, 0.0)
    assert p.t == (0.0, 0.0, 0.0)


def test_decompose_round_trip_example():
    p = AffineParams9((1, 0, 0), (0.1, 0.2, 0.3), (1.5, 1.5, 1.5))
    q = decompose(compose(p))
    assert np.allclose(q.t + q.r + q.s, p.t + p.r + p.s, atol=1e-9)


@given(
    st.tuples(shifts, shifts, shifts),
    st.tuples(angles, angles, angles),
    st.tuples(scales, scales, scales),
)
def test_compose_decompose_round_trip(t, r, s):
    first = compose(AffineParams9(t, r, s))
    again = compose(decompose(first))
    assert np.allclose(again.matrix, first.matrix, atol=1e-9)


@given(
    st.tuples(angles, angles, angles),
    st.tuples(scales, scales, scales),
    st.lists(st.tuples(shifts, shifts, shifts), min_size=1, max_size=6),
)
def test_apply_matches_direct_evaluation(r, s, pts):
    m = compose(AffineParams9((1.0, -2.0, 0.5), r, s))
    coords = np.asarray(pts, dtype=float)
    expected = np.array([m.linear @ p + m.translation for p in coords])
    assert np.allclose(transform_array(m, coords), expected, atol=1e-12)


def test_apply_transform_examples():
    ident = AffineMatrix.identity()
    coords = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(transform_array(ident, coords), coords)

    shift = AffineMatrix.from_linear_translation(np.eye(3), [1, 2, 3])
    assert np.array_equal(transform_array(shift, np.zeros((1, 3))), [[1, 2, 3]])

    stretch = AffineMatrix.from_linear_translation(np.diag([2.0, 1.0, 1.0]), [0, 0, 0])
    assert np.array_equal(transform_array(stretch, np.array([[3.0, 5.0, 7.0]])), [[6.0, 5.0, 7.0]])


def test_decompose_rejects_shear():
    sheared = np.eye(3)
    sheared[0, 1] = 1e-3
    m = AffineMatrix.from_linear_translation(sheared, [0, 0, 0])
    with pytest.raises(DecompositionError):
        decompose(m)


def test_decompose_rejects_overflowing_scale():
    # determinant 1, but the first column's squared norm is 1e400
    m = AffineMatrix.from_linear_translation(np.diag([1e200, 1e-200, 1.0]), [0, 0, 0])
    with pytest.raises(DegenerateConfigurationError, match="overflows"):
        decompose(m)


def test_decompose_accepts_shear_below_tolerance():
    sheared = np.eye(3)
    sheared[0, 1] = 1e-9
    decompose(AffineMatrix.from_linear_translation(sheared, [0, 0, 0]))


def test_decompose_rejects_reflection():
    m = AffineMatrix.from_linear_translation(np.diag([-1.0, 1.0, 1.0]), [0, 0, 0])
    with pytest.raises(DecompositionError):
        decompose(m)


def test_decompose_rejects_gimbal_lock():
    m = compose(AffineParams9((0, 0, 0), (0.3, math.pi / 2, -0.2), (1, 1, 1)))
    with pytest.raises(DecompositionError):
        decompose(m)


def test_require_correspondence():
    a = PointSet(np.zeros((2, 3)))
    b = PointSet(np.zeros((3, 3)))
    with pytest.raises(CorrespondenceError):
        require_correspondence(a, b)
    require_correspondence(a, PointSet(np.ones((2, 3))))


def test_require_correspondence_checks_names_before_lengths():
    coords = np.arange(9.0).reshape(3, 3)
    named = PointSet(coords, names=("a", "b", "c"))
    with pytest.raises(CorrespondenceError, match=r"^landmark names disagree: \['a', 'b', 'c'\] vs \['a', 'c', 'b'\]$"):
        require_correspondence(named, PointSet(coords, names=("a", "c", "b")))
    with pytest.raises(CorrespondenceError, match=r"^landmark names disagree: \['a', 'b', 'c'\] vs \['a', 'b'\]$"):
        require_correspondence(named, PointSet(coords[:2], names=("a", "b")))
    # a named set paired with an unnamed one pairs by order
    require_correspondence(named, PointSet(coords))
    require_correspondence(PointSet(coords), named)
    require_correspondence(named, PointSet(coords + 1.0, names=("a", "b", "c")))
