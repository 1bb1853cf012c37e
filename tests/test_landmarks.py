"""Distance transforms, label maps, and landmark extraction."""

import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landreg import landmarks
from landreg.core import Point3, Volume3
from landreg.errors import (
    DegenerateConfigurationError,
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


def test_built_volumes_own_read_only_data():
    template = Volume3(dims=(4, 3, 2), spacing=(1.0, 1.0, 2.0))
    mask = BinaryMask(template.with_data(np.eye(1, 24, 5).ravel()))
    for vol in (distance_transform(mask), make_label(Point3(1.0, 1.0, 0.0), template)):
        assert not vol.data.flags.writeable
        with pytest.raises(ValueError):
            vol.data[0] = 1.0
        with pytest.raises(ValueError):
            vol.data3d()[0, 0, 0] = 1.0
        with pytest.raises(ValueError):  # no writable array behind the view either
            vol.data.flags.writeable = True


def shell_mask(template: Volume3) -> BinaryMask:
    """The six faces of ``template``'s grid as features."""
    shell = np.ones(template.dims[::-1])
    shell[1:-1, 1:-1, 1:-1] = 0.0
    return BinaryMask(template.with_data(shell))


@pytest.mark.parametrize("build", ["make_label", "distance_transform"])
def test_a_volume_is_built_in_one_full_volume_array(build):
    """Traced peak of one call at the benchmark's large grid: its result, one float64 volume.

    The distance transform adds the mask's bool features (1/8 volume); its
    kernel's per-line scratch comes from C and is not traced.
    """
    template = Volume3(dims=(64, 64, 48), spacing=(0.8, 0.8, 2.5))
    if build == "make_label":
        call = functools.partial(make_label, Point3(20.0, 30.0, 40.0), template)
    else:
        call = functools.partial(distance_transform, shell_mask(template))
    call()  # a first distance transform builds the kernel: not part of a call's peak
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * template.n_voxels


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
    """A minimum pass as numpy takes it, frozen as the bit-identity oracle.

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
)
@example(dims=(1, 7, 1), spacing=(0.8, 1.3, 2.5), kind="three seeds", seed=1)
@example(dims=(9, 1, 5), spacing=(0.8, 1.3, 2.5), kind="full line", seed=2)
@example(dims=(7, 5, 11), spacing=(0.8, 1.3, 2.5), kind="30 %", seed=3)
@example(dims=(40, 33, 21), spacing=(0.8, 1.3, 2.5), kind="three seeds", seed=404)
@example(dims=(6, 6, 6), spacing=(1.1, 1.1, 1.1), kind="three seeds", seed=2)
def test_edt_is_bit_identical_to_position_loop(dims, spacing, kind, seed):
    """The compiled envelope passes may not change a bit of the minimum over every candidate.

    The 40x33x21 example has sites in 3 of 33 rows of its y pass, so most
    lines of that pass have no site at all. On the isotropic 6x6x6 grid two
    sites' parabolas cross exactly on a voxel, where only the exact
    comparison picks the smaller candidate: the parabola formula alone gets
    it wrong.
    """
    vol = Volume3(dims=dims, spacing=spacing, data=kind_mask(dims, kind, seed).reshape(-1))
    assert np.array_equal(distance_transform(BinaryMask(vol)).data3d(), position_loop_edt(vol))


def test_edt_of_the_benchmark_grid_is_bit_identical_to_position_loop():
    """The benchmark's large grid: its y and z passes gather lines a panel at a time."""
    dims, spacing = (64, 64, 48), (0.8, 0.8, 2.5)
    vol = Volume3(dims=dims, spacing=spacing, data=kind_mask(dims, "30 %", 64).reshape(-1))
    got = distance_transform(BinaryMask(vol)).data3d()
    assert np.array_equal(got, position_loop_edt(vol))


@st.composite
def pass_inputs(draw):
    """A pass input ``(f, step, axis)``: +inf, values up to 1e12, and values a few ulps above a base of 1e6 to 1e12."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    base = draw(st.floats(1e6, 1e12))
    near = st.integers(0, 8).map(lambda k: base + k * float(np.spacing(base)))
    values = st.one_of(st.just(math.inf), st.floats(0.0, 1e12), near)
    f = np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    return f, draw(st.floats(1e-3, 1e3)), draw(st.integers(0, 2))


def ulps_above(base: float, ks) -> list[float]:
    """``base`` plus k of its ulps for each k, and +inf for None."""
    return [math.inf if k is None else base + k * float(np.spacing(base)) for k in ks]


@settings(max_examples=500)
@given(case=pass_inputs())
# An envelope that pops a site where the new site's rounded candidate is
# no larger (<=) or smaller (<) than its own at the start of its part, and
# steps each crossing by the same rounded comparison, gets the first line
# (also gathered along z) and the third wrong. Near 1e11 one ulp is 1.5e-5
# and the squared distances of a few voxels of 1e-3 are smaller, so
# different candidates round to the same sum.
@example(case=(np.array(ulps_above(1e11, [2, None, 4, 0, 0])).reshape(1, 1, 5), 1e-3, 2))
@example(case=(np.array(ulps_above(1e11, [2, None, 4, 0, 0])).reshape(5, 1, 1), 1e-3, 0))
@example(case=(np.array(ulps_above(1e11, [3, 3, 2, 1, 0])).reshape(1, 1, 5), 1e-3, 2))
# the parabolas of sites 1 and 2 cross exactly on voxel 1, where site 1's
# 0.64 is below 0.8**2 = 0.6400000000000001: the formula alone picks site 2
@example(case=(np.array([[[math.inf, 0.64, 0.0]]]), 0.8, 2))
@example(case=(np.array([[[7.0, math.inf]]]), 1e3, 2))  # an axis of two voxels
@example(case=(np.array([[[math.inf]], [[3.0]]]), 1e-3, 1))  # an axis of one voxel
def test_envelope_pass_is_bit_identical_to_position_loop(case):
    f, step, axis = case
    got = f.copy()  # C-contiguous float64, as pass_inputs makes f
    landmarks._envelope_pass(got, step, axis)
    assert np.array_equal(got, position_loop_pass(f, step, axis))


@pytest.mark.parametrize("f", [np.zeros((2, 3, 4), np.float32), np.zeros((4, 3, 2)).T, np.zeros((3, 4)),
                               np.broadcast_to(np.zeros(1), (2, 3, 4))], ids=["float32", "strided", "2d", "read-only"])
def test_envelope_pass_refuses_an_array_it_cannot_work_on_in_place(f):
    with pytest.raises(ValueError, match="writable C-contiguous float64"):
        landmarks._envelope_pass(f, 1.0, 2)


def test_edt_refuses_an_axis_too_long_to_stay_exact():
    # only the grid's shape is read before the check, so no such grid is made
    long_axis = SimpleNamespace(volume=SimpleNamespace(dims=(1, landmarks._MAX_EDT_AXIS + 1, 1), spacing=(1, 1, 1)))
    with pytest.raises(DegenerateConfigurationError, match=r"^grid 1x33554433x1 has an axis longer than the "
                       r"33554432 voxels on which the distance transform is exact$"):
        distance_transform(long_axis)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the address space size from /proc")
def test_a_pass_that_cannot_allocate_its_scratch_raises_memory_error():
    # a child caps its own address space 16 MiB above what it has mapped, so
    # the scratch of a pass along a line of 2^20 voxels (40 MiB) cannot fit
    probe = (
        "import resource, numpy as np\n"
        "from landreg import landmarks\n"
        "landmarks._kernel()\n"
        "f = np.zeros((1, 1, 2**20))\n"
        "with open('/proc/self/statm') as fh:\n"
        "    mapped = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**24, resource.RLIM_INFINITY))\n"
        "try:\n"
        "    landmarks._envelope_pass(f, 1.0, 2)\n"
        "except MemoryError as exc:\n"
        "    print(exc, not f.any())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(landmarks.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "cannot allocate the scratch of a distance transform pass over lines of 1048576 voxels True\n"


def test_threads_running_the_edt_at_once_match_the_serial_result():
    # more threads than cores, switching often: the kernel releases the
    # interpreter lock and keeps no state, so no thread sees another's lines
    dims = (64, 64, 48)
    template = Volume3(dims=dims, spacing=(0.8, 0.8, 2.5))
    masks = [BinaryMask(template.with_data(kind_mask(dims, kind, 9))) for kind in MASK_KINDS]
    serial = [distance_transform(mask).data for mask in masks]
    start, results = threading.Barrier(len(masks), timeout=30), [None] * len(masks)

    def run(i):
        start.wait()
        for _ in range(5):
            results[i] = distance_transform(masks[i]).data

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(masks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(got, want) for got, want in zip(results, serial))


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


# dims (5, 4, 3): the largest squared distance is 29 s^2 at spacing s, and the
# smallest s^2; each spacing below lies within 0.1 % of a limit of _check_spacing
NEAR_OVERFLOW = math.sqrt(sys.float_info.max / 29) * 0.999
NEAR_UNDERFLOW = math.sqrt(sys.float_info.min) * 1.001


@pytest.mark.parametrize("voxel", [(0, 0, 0), (2, 2, 1), (4, 3, 2), (4, 0, 1)],
                         ids=["corner", "centre", "far corner", "edge"])
@pytest.mark.parametrize("spacing", [
    (0.8, 0.8, 2.5),
    (1.1, 1.1, 1.1),
    (NEAR_OVERFLOW,) * 3,
    (NEAR_UNDERFLOW,) * 3,
    (NEAR_UNDERFLOW, 1.0, 1e150),
], ids=["benchmark", "isotropic", "near overflow", "near underflow", "mixed"])
def test_make_label_is_bit_identical_to_the_whole_volume_expression(voxel, spacing):
    """The in-place chain keeps the order of operations of the expression it replaced."""
    template = Volume3(dims=(5, 4, 3), spacing=spacing)  # at the origin, so no center rounds onto another
    ix, iy, iz = voxel
    z, y, x = np.ogrid[:3, :4, :5]
    sx, sy, sz = spacing
    dx, dy, dz = (x - ix) * sx, (y - iy) * sy, (z - iz) * sz
    dist = np.sqrt(dz * dz + (dy * dy + dx * dx))
    want = np.exp(-LABEL_DECAY * (dist / dist.max()))
    got = make_label(template.voxel_center(*voxel), template)
    assert got.data.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("values", [
    {3: np.nan, 5: 1.0},
    {1: 1.0, 6: np.nan},
    {i: np.nan for i in range(8)},
    {2: np.inf, 3: np.nan},
    {2: np.nan, 3: np.inf},
    {0: np.inf, 7: np.nan},
], ids=["before the max", "after the max", "every voxel", "after +inf", "before +inf", "last, after +inf"])
def test_recover_rejects_nan_wherever_it_lies(values):
    data = np.zeros(8)
    for i, v in values.items():
        data[i] = v
    with pytest.raises(InvalidDataError, match="NaN"):
        recover_landmark(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=data))


def test_recover_takes_an_infinite_max():
    data = np.zeros(8)
    data[[2, 5]] = np.inf
    assert recover_landmark(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=data)) == Point3(0.0, 1.0, 0.0)


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


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_extremes_take_negative_zero_as_background(axis):
    rng = np.random.default_rng(axis + 70)
    vol = Volume3(dims=(6, 5, 4), spacing=(0.8, 1.3, 2.2))
    data = (rng.random(vol.n_voxels) < 0.1).astype(float)
    data[17] = 1.0
    signed = np.where(data == 1.0, 1.0, -0.0)
    assert np.signbit(signed).sum() == vol.n_voxels - data.sum()
    mask = BinaryMask(vol.with_data(signed))  # -0.0 == 0.0, so the mask takes it
    assert extract_extremes(mask, axis) == extract_extremes(BinaryMask(vol.with_data(data)), axis)


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
