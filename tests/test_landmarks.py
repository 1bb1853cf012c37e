"""Distance transforms, label maps, and landmark extraction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landreg import landmarks
from landreg.core import Point3, Volume3
from landreg.errors import (
    DegenerateGeometryError,
    InvalidDataError,
    InvalidParameterError,
    NoFeatureError,
    OutOfBoundsError,
)
from landreg.landmarks import (
    LABEL_DECAY,
    BinaryMask,
    distance_transform,
    extract_extremes,
    make_label,
    recover_landmark,
)


def brute_force_edt(volume: Volume3) -> np.ndarray:
    """O(n * k) nearest-feature scan; the independent oracle."""
    sx, sy, sz = volume.spacing
    feature = volume.data3d() > 0.5
    zs, ys, xs = np.nonzero(feature)
    sites = np.stack([xs * sx, ys * sy, zs * sz], axis=1)
    out = np.empty(volume.n_voxels)
    for linear in range(volume.n_voxels):
        ix, iy, iz = volume.voxel_of_index(linear)
        here = np.array([ix * sx, iy * sy, iz * sz])
        delta = sites - here
        out[linear] = math.sqrt(float((delta * delta).sum(axis=1).min()))
    return out


def random_mask(rng: np.random.Generator, max_dim: int = 12) -> BinaryMask:
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=3))
    spacing = tuple(rng.uniform(0.5, 3.0, size=3))
    density = rng.uniform(0.02, 0.9)
    data = (rng.random(dims[0] * dims[1] * dims[2]) < density).astype(float)
    data[rng.integers(0, data.size)] = 1.0
    return BinaryMask(Volume3(dims=dims, spacing=spacing, data=data))


def test_binary_mask_rejects_non_binary_values():
    with pytest.raises(InvalidDataError, match=r"^mask contains 1 voxels outside \{0, 1\} \(first: 0\.5\)$"):
        BinaryMask(Volume3(dims=(2, 1, 1), spacing=(1, 1, 1), data=np.array([0.0, 0.5])))


def test_volume_functions_return_plain_volumes():
    mask = BinaryMask(Volume3(dims=(3, 1, 1), spacing=(1, 1, 1), data=np.array([1.0, 0.0, 0.0])))
    assert type(distance_transform(mask)) is Volume3
    assert type(make_label(Point3(0, 0, 0), mask.volume)) is Volume3
    assert not hasattr(landmarks, "DistanceMap") and not hasattr(landmarks, "LabelMap")


def test_all_ones_mask_maps_to_zero():
    mask = BinaryMask(Volume3(dims=(3, 2, 2), spacing=(1, 2, 3), data=np.ones(12)))
    assert np.array_equal(distance_transform(mask).data, np.zeros(12))


def test_line_mask_distances():
    mask = BinaryMask(Volume3(dims=(3, 1, 1), spacing=(1, 1, 1), data=np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(distance_transform(mask).data, [0.0, 1.0, 2.0])


def test_anisotropic_z_spacing():
    mask = BinaryMask(Volume3(dims=(1, 1, 2), spacing=(1, 1, 2), data=np.array([1.0, 0.0])))
    assert np.array_equal(distance_transform(mask).data, [0.0, 2.0])


def test_empty_mask_raises():
    mask = BinaryMask(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros(8)))
    with pytest.raises(NoFeatureError):
        distance_transform(mask)


def test_edt_matches_brute_force():
    rng = np.random.default_rng(171)
    worst = 0.0
    for _ in range(25):
        mask = random_mask(rng)
        got = distance_transform(mask).data
        want = brute_force_edt(mask.volume)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-9


@pytest.mark.parametrize("density", [None, 0.3])
def test_edt_matches_scipy(density):
    """Axes longer than the brute-force checks; scipy measures to the nearest zero."""
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(404)
    dims, spacing = (40, 33, 21), (0.8, 1.3, 2.5)
    n = dims[0] * dims[1] * dims[2]
    if density is None:  # a few seeds: long empty lines in every pass
        data = np.zeros(n)
        data[rng.integers(0, n, size=3)] = 1.0
    else:
        data = (rng.random(n) < density).astype(float)
    vol = Volume3(dims=dims, spacing=spacing, data=data)
    got = distance_transform(BinaryMask(vol)).data3d()
    want = ndimage.distance_transform_edt(vol.data3d() == 0.0, sampling=spacing[::-1])
    assert np.abs(got - want).max() <= 1e-9


def position_loop_pass(f: np.ndarray, step: float, axis: int) -> np.ndarray:
    """The minimum pass that the row loop replaced, frozen as the bit-identity oracle.

    For each output position p it forms every candidate ``f[q] + ((p - q) * step)^2``
    of every line at once and takes the minimum over q.
    """
    g = np.moveaxis(f, axis, -1)
    n = g.shape[-1]
    out = np.empty_like(g)
    for p in range(n):
        d = (p - np.arange(n)) * step
        out[..., p] = (g + d * d).min(axis=-1)
    return np.moveaxis(out, -1, axis)


def position_loop_edt(volume: Volume3) -> np.ndarray:
    """``distance_transform`` with the oracle pass: x, then y, then z, one square root."""
    sx, sy, sz = volume.spacing
    d2 = np.where(volume.data3d() > 0.5, 0.0, np.inf)
    for step, axis in ((sx, 2), (sy, 1), (sz, 0)):
        d2 = position_loop_pass(d2, step, axis)
    return np.sqrt(d2)


MASK_KINDS = ("one voxel", "three seeds", "30 %", "all ones", "full line")


def kind_mask(dims, kind: str, seed: int) -> np.ndarray:
    """A (nz, ny, nx) feature array of the given kind, sites drawn from ``seed``."""
    nx, ny, nz = dims
    rng = np.random.default_rng(seed)
    data = np.zeros((nz, ny, nx))
    if kind == "one voxel":
        data.flat[rng.integers(0, data.size)] = 1.0
    elif kind == "three seeds":
        data.flat[rng.integers(0, data.size, size=3)] = 1.0
    elif kind == "30 %":
        data[rng.random(data.shape) < 0.3] = 1.0
        data.flat[rng.integers(0, data.size)] = 1.0
    elif kind == "all ones":
        data[...] = 1.0
    else:  # one whole line along a random axis
        line = [int(rng.integers(0, d)) for d in data.shape]
        line[int(rng.integers(0, 3))] = slice(None)
        data[tuple(line)] = 1.0
    return data


@settings(max_examples=300)
@given(
    dims=st.tuples(*[st.integers(1, 12)] * 3),
    spacing=st.tuples(*[st.floats(0.3, 4.0)] * 3),
    kind=st.sampled_from(MASK_KINDS),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 150),
)
@example(dims=(1, 7, 1), spacing=(0.8, 1.3, 2.5), kind="three seeds", seed=1, block=1)
@example(dims=(9, 1, 5), spacing=(0.8, 1.3, 2.5), kind="full line", seed=2, block=20)
@example(dims=(7, 5, 11), spacing=(0.8, 1.3, 2.5), kind="30 %", seed=3, block=150)
@example(dims=(40, 33, 21), spacing=(0.8, 1.3, 2.5), kind="three seeds", seed=404, block=3000)
def test_edt_is_bit_identical_to_position_loop(dims, spacing, kind, seed, block):
    """Blocks of output rows and skipped rows without a site may not change a bit.

    Each mask runs at the real block size, where these grids fit one block,
    and again with ``block`` values to a block, so that passes span several
    blocks and may end on a short one: at 150 the 7x5x11 example's passes
    have blocks of 2, 1 and 4 rows over 7, 5 and 11 rows. The 40x33x21
    example has sites in 3 of 33 rows of its y pass.
    """
    vol = Volume3(dims=dims, spacing=spacing, data=kind_mask(dims, kind, seed).reshape(-1))
    want = position_loop_edt(vol)
    assert np.array_equal(distance_transform(BinaryMask(vol)).data3d(), want)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landmarks, "_BLOCK_VALUES", block)
        assert np.array_equal(distance_transform(BinaryMask(vol)).data3d(), want)


def test_edt_spanning_several_blocks_is_bit_identical_to_position_loop():
    """The benchmark's large grid at the real block size: every pass spans several blocks."""
    dims, spacing = (64, 64, 48), (0.8, 0.8, 2.5)
    assert landmarks._BLOCK_VALUES < 64 * 64 * 48  # a pass fits one block only if it fits the volume
    vol = Volume3(dims=dims, spacing=spacing, data=kind_mask(dims, "30 %", 64).reshape(-1))
    got = distance_transform(BinaryMask(vol)).data3d()
    assert np.array_equal(got, position_loop_edt(vol))


def test_make_label_is_edt_of_its_voxel():
    rng = np.random.default_rng(505)
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 13, size=3))
        if dims == (1, 1, 1):
            continue
        spacing = tuple(float(s) for s in rng.uniform(0.3, 4.0, size=3))
        origin = Point3(*rng.uniform(-30.0, 30.0, size=3))
        template = Volume3(dims=dims, spacing=spacing, origin=origin)
        voxel = tuple(int(rng.integers(0, d)) for d in dims)
        seed = np.zeros(dims[::-1])
        seed[voxel[::-1]] = 1.0
        d = distance_transform(BinaryMask(template.with_data(seed))).data
        label = make_label(template.voxel_center(*voxel), template)
        assert np.array_equal(label.data, np.exp(-10.0 * (d / d.max())))


def test_edt_commutes_with_axis_permutation():
    rng = np.random.default_rng(55)
    dims = (5, 4, 3)
    spacing = (0.7, 1.1, 2.3)
    data = (rng.random(60) < 0.2).astype(float)
    data[0] = 1.0
    vol = Volume3(dims=dims, spacing=spacing, data=data)
    base = distance_transform(BinaryMask(vol)).data3d()

    # swap x and z everywhere; distances must swap the same way
    swapped = Volume3(
        dims=(dims[2], dims[1], dims[0]),
        spacing=(spacing[2], spacing[1], spacing[0]),
        data=vol.data3d().transpose(2, 1, 0).reshape(-1),
    )
    other = distance_transform(BinaryMask(swapped)).data3d()
    assert np.array_equal(other, base.transpose(2, 1, 0))


def test_edt_ignores_origin():
    data = np.array([1.0, 0.0, 0.0])
    near = Volume3(dims=(3, 1, 1), spacing=(1, 1, 1), data=data)
    far = Volume3(dims=(3, 1, 1), spacing=(1, 1, 1), origin=Point3(100, -50, 7), data=data)
    assert np.array_equal(
        distance_transform(BinaryMask(near)).data,
        distance_transform(BinaryMask(far)).data,
    )


def test_make_label_two_voxel_example():
    template = Volume3(dims=(1, 1, 2), spacing=(1, 1, 1))
    label = make_label(Point3(0, 0, 0), template)
    assert label.data[0] == 1.0
    assert label.data[1] == math.exp(-10)


def test_make_label_centered_example():
    template = Volume3(dims=(3, 1, 1), spacing=(1, 1, 1))
    label = make_label(Point3(1, 0, 0), template)
    assert np.array_equal(label.data, [math.exp(-10), 1.0, math.exp(-10)])


def test_make_label_peak_is_exactly_one():
    rng = np.random.default_rng(9)
    for _ in range(10):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        spacing = tuple(rng.uniform(0.5, 2.5, size=3))
        template = Volume3(dims=dims, spacing=spacing)
        voxel = tuple(int(rng.integers(0, d)) for d in dims)
        label = make_label(template.voxel_center(*voxel), template)
        data = label.data
        assert data.max() == 1.0
        assert label.data3d()[voxel[::-1]] == 1.0
        assert data.min() >= math.exp(-LABEL_DECAY)


def test_make_label_snaps_to_nearest_center():
    template = Volume3(dims=(6, 6, 6), spacing=(1, 1, 1))
    label = make_label(Point3(3.1, 2.0, 4.9), template)
    assert recover_landmark(label) == Point3(3.0, 2.0, 5.0)


def test_make_label_out_of_bounds():
    template = Volume3(dims=(4, 4, 4), spacing=(1, 1, 1))
    with pytest.raises(OutOfBoundsError):
        make_label(Point3(10.0, 0.0, 0.0), template)
    with pytest.raises(OutOfBoundsError):
        make_label(Point3(-0.6, 0.0, 0.0), template)


def test_make_label_rejects_single_voxel_grid():
    with pytest.raises(DegenerateGeometryError):
        make_label(Point3(0, 0, 0), Volume3(dims=(1, 1, 1), spacing=(1, 1, 1)))


def test_label_monotone_in_distance():
    template = Volume3(dims=(7, 7, 7), spacing=(1, 1, 1))
    center = template.voxel_center(3, 3, 3)
    label = make_label(center, template)
    values = label.data
    radii = np.array([
        math.dist((p.x, p.y, p.z), (center.x, center.y, center.z))
        for p in (template.voxel_center(*template.voxel_of_index(i)) for i in range(template.n_voxels))
    ])
    order = np.argsort(radii, kind="stable")
    sorted_values = values[order]
    assert np.all(np.diff(sorted_values) <= 1e-15)


def test_recover_uniform_heatmap_tie_breaks_to_first_voxel():
    vol = Volume3(dims=(3, 3, 3), spacing=(1, 1, 1), origin=Point3(5, 6, 7), data=np.ones(27))
    assert recover_landmark(vol) == Point3(5, 6, 7)


def test_recover_matches_exhaustive_scan():
    rng = np.random.default_rng(31)
    for _ in range(10):
        vol = Volume3(dims=(8, 8, 8), spacing=(0.9, 1.4, 2.0), data=rng.random(512))
        best = max(range(512), key=lambda i: (vol.data[i], -i))
        assert recover_landmark(vol) == vol.voxel_center(*vol.voxel_of_index(best))


def test_recover_rejects_nan():
    data = np.zeros(8)
    data[3] = np.nan
    with pytest.raises(InvalidDataError):
        recover_landmark(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=data))


@given(
    st.floats(-2.9, 8.9),
    st.floats(-1.7, 5.2),
    st.floats(1.2, 8.7),
)
def test_recovery_inverts_generation(px, py, pz):
    template = Volume3(dims=(5, 4, 3), spacing=(1.2, 0.9, 2.0), origin=Point3(-3.0, 2.0, 1.0))
    point = Point3(
        min(max(px, template.origin.x), template.origin.x + 1.2 * 4),
        min(max(py, template.origin.y), template.origin.y + 0.9 * 3),
        min(max(pz, template.origin.z), template.origin.z + 2.0 * 2),
    )
    recovered = recover_landmark(make_label(point, template))
    # nearest-center property, robust to exact half-way tie direction
    assert abs(recovered.x - point.x) <= 1.2 / 2 + 1e-12
    assert abs(recovered.y - point.y) <= 0.9 / 2 + 1e-12
    assert abs(recovered.z - point.z) <= 2.0 / 2 + 1e-12


def test_extremes_single_feature_returned_twice():
    data = np.zeros(27)
    data[13] = 1.0
    mask = BinaryMask(Volume3(dims=(3, 3, 3), spacing=(1, 1, 1), data=data))
    lo, hi = extract_extremes(mask)
    assert lo == hi


def test_extremes_direct_extent():
    data = np.zeros(8)
    vol = Volume3(dims=(8, 1, 1), spacing=(1, 1, 1))
    data[2] = 1.0
    data[5] = 1.0
    lo, hi = extract_extremes(BinaryMask(vol.with_data(data)))
    assert (lo.x, hi.x) == (2.0, 5.0)


def test_extremes_tie_breaks_to_smallest_linear_index():
    vol = Volume3(dims=(2, 3, 1), spacing=(1, 1, 1))
    data = np.zeros((1, 3, 2))
    # features at (0, 1) and (0, 2): same x, tie resolves to the lower y row
    data[0, 1, 0] = 1.0
    data[0, 2, 0] = 1.0
    lo, hi = extract_extremes(BinaryMask(vol.with_data(data)))
    assert lo == Point3(0.0, 1.0, 0.0)
    assert hi == Point3(0.0, 1.0, 0.0)


def test_extremes_world_coordinates_include_origin():
    vol = Volume3(dims=(4, 1, 1), spacing=(2.0, 1, 1), origin=Point3(10, 0, 0))
    data = np.zeros(4)
    data[0] = 1.0
    data[3] = 1.0
    lo, hi = extract_extremes(BinaryMask(vol.with_data(data)))
    assert (lo.x, hi.x) == (10.0, 16.0)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_extremes_match_exhaustive_scan(axis):
    rng = np.random.default_rng(axis + 40)
    vol = Volume3(dims=(16, 16, 16), spacing=(0.8, 1.3, 2.2), origin=Point3(1, -2, 3))
    data = (rng.random(vol.n_voxels) < 0.03).astype(float)
    data[100] = 1.0
    mask = BinaryMask(vol.with_data(data))
    lo, hi = extract_extremes(mask, axis=axis)

    feats = np.flatnonzero(data)
    centers = [vol.voxel_center(*vol.voxel_of_index(int(i))) for i in feats]
    along = [(c.x, c.y, c.z)[axis] for c in centers]
    assert lo == centers[int(np.argmin(along))]
    assert hi == centers[int(np.argmax(along))]


def test_extremes_empty_mask_raises():
    mask = BinaryMask(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1)))
    with pytest.raises(NoFeatureError):
        extract_extremes(mask)


def test_extremes_axis_validated():
    data = np.ones(8)
    mask = BinaryMask(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=data))
    for axis in (3, -1, True, 1.0, "1", None):
        with pytest.raises(InvalidParameterError, match="axis"):
            extract_extremes(mask, axis=axis)
    assert extract_extremes(mask, axis=np.int64(2)) == extract_extremes(mask, axis=2)
