"""Loss, analytic gradient, and Adam refinement."""

import contextlib
import functools
import importlib
import math
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landreg.core import (
    AffineParams9,
    PointSet,
    compose,
    decompose,
    rotation,
    transform_array,
)
from landreg.errors import CorrespondenceError, DivergenceError, InvalidParameterError
from landreg.evaluate import _run_cases, compare_methods, fit_similarity, refine_fits
from landreg.refine import (
    _MAX_CORRECTIONS,
    ADAM_EPSILON,
    BETA1,
    BETA2,
    LOSS_EPSILON,
    TRACE_STRIDE,
    RefineConfig,
    RefineResult,
    _usable_cpus,
    loss,
    loss_gradient,
    refine,
    refine_many,
)
from landreg.synth import SynthConfig, generate_cases
from landreg.umeyama import umeyama_fit

# the module, which the package's refine function hides as an attribute
refine_module = importlib.import_module("landreg.refine")

TETRA = np.array([[0.0, 0.0, 0.0], [20.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 20.0]])


def random_instance(rng: np.random.Generator, n: int | None = None):
    n = n if n is not None else int(rng.integers(3, 11))
    src = rng.uniform(-30, 30, size=(n, 3))
    dst = rng.uniform(-30, 30, size=(n, 3))
    params = AffineParams9(
        t=tuple(rng.uniform(-10, 10, 3)),
        r=tuple(rng.uniform(-1, 1, 3)),
        s=tuple(rng.uniform(0.5, 2.0, 3)),
    )
    return params, PointSet(src), PointSet(dst)


def finite_difference(params, moving, fixed, h=1e-6):
    v = np.array(params.t + params.r + params.s)
    out = np.empty(9)
    for i in range(9):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        out[i] = (
            loss(AffineParams9.from_vector(vp), moving, fixed)
            - loss(AffineParams9.from_vector(vm), moving, fixed)
        ) / (2 * h)
    return out


# The array kernel and Adam loop that the scalar ones replaced, kept as an
# oracle. R is the product of its own axis matrices, and derivatives of the
# rotation come from the axis generators, chained through the matrix product.
def rotation_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_DRX = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_DRY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
_DRZ = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def oracle_loss_and_gradient(theta, src, dst):
    t = theta[0:3]
    rx, ry, rz = theta[3:6]
    s = theta[6:9]
    mx, my, mz = rotation_x(rx), rotation_y(ry), rotation_z(rz)
    rot = mz @ my @ mx
    drot = (mz @ my @ (_DRX @ mx), mz @ (_DRY @ my) @ mx, (_DRZ @ mz) @ my @ mx)
    scaled = src * s
    resid = dst - (scaled @ rot.T + t)
    dist = np.sqrt((resid * resid).sum(axis=1) + 1e-12)
    n = src.shape[0]
    gpred = -resid / (n * dist)[:, None]
    grad = np.empty(9)
    grad[0:3] = gpred.sum(axis=0)
    for a in range(3):
        grad[3 + a] = float(((gpred @ drot[a]) * scaled).sum())
    grad[6:9] = ((gpred @ rot) * src).sum(axis=0)
    return float(dist.mean()), grad


def oracle_final_loss(init, moving, fixed, cfg=RefineConfig()):
    src, dst = moving.coords, fixed.coords
    theta = np.array(init.t + init.r + init.s)
    m = np.zeros(9)
    v = np.zeros(9)
    best, grad = oracle_loss_and_gradient(theta, src, dst)
    for k in range(1, cfg.iterations + 1):
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9**k)
        v_hat = v / (1.0 - 0.999**k)
        theta = theta - cfg.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
        value, grad = oracle_loss_and_gradient(theta, src, dst)
        best = min(best, value)
    return best


# The scalar Python kernel and Adam loop that the compiled kernel replaced,
# kept as its oracle: the C code repeats each expression in this order.
def scalar_loss_and_gradient(theta, pairs):
    tx, ty, tz, rx, ry, rz, sx, sy, sz = theta
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotation(rx, ry, rz)
    # Rz's column e_y, for dR/dry
    cz, snz = math.cos(rz), math.sin(rz)
    # linear part R @ diag(s)
    a00, a01, a02 = r00 * sx, r01 * sy, r02 * sz
    a10, a11, a12 = r10 * sx, r11 * sy, r12 * sz
    a20, a21, a22 = r20 * sx, r21 * sy, r22 * sz

    n = len(pairs)
    total = gx = gy = gz = 0.0
    h00 = h01 = h02 = h10 = h11 = h12 = h20 = h21 = h22 = 0.0
    for px, py, pz, fx, fy, fz in pairs:
        ex = fx - (a00 * px + a01 * py + a02 * pz + tx)
        ey = fy - (a10 * px + a11 * py + a12 * pz + ty)
        ez = fz - (a20 * px + a21 * py + a22 * pz + tz)
        dist = math.sqrt(ex * ex + ey * ey + ez * ez + LOSS_EPSILON)
        total += dist
        nd = n * dist
        ux, uy, uz = -ex / nd, -ey / nd, -ez / nd
        gx += ux
        gy += uy
        gz += uz
        h00 += ux * px
        h01 += ux * py
        h02 += ux * pz
        h10 += uy * px
        h11 += uy * py
        h12 += uy * pz
        h20 += uz * px
        h21 += uz * py
        h22 += uz * pz

    # M = H @ diag(s), the gradient with respect to R
    m00, m01, m02 = h00 * sx, h01 * sy, h02 * sz
    m10, m11, m12 = h10 * sx, h11 * sy, h12 * sz
    m20, m21, m22 = h20 * sx, h21 * sy, h22 * sz
    grad = [
        gx,
        gy,
        gz,
        (r02 * m01 + r12 * m11 + r22 * m21) - (r01 * m02 + r11 * m12 + r21 * m22),
        cz * (r20 * m00 + r21 * m01 + r22 * m02)
        + snz * (r20 * m10 + r21 * m11 + r22 * m12)
        - ((cz * r00 + snz * r10) * m20 + (cz * r01 + snz * r11) * m21 + (cz * r02 + snz * r12) * m22),
        (r00 * m10 + r01 * m11 + r02 * m12) - (r10 * m00 + r11 * m01 + r12 * m02),
        r00 * h00 + r10 * h10 + r20 * h20,
        r01 * h01 + r11 * h11 + r21 * h21,
        r02 * h02 + r12 * h12 + r22 * h22,
    ]
    return total / n, grad


def scalar_refine(init, moving, fixed, cfg=RefineConfig()):
    pairs = np.hstack((moving.coords, fixed.coords)).tolist()
    step_size, beta1, beta2, epsilon = cfg.step_size, BETA1, BETA2, ADAM_EPSILON
    keep1, keep2 = 1.0 - beta1, 1.0 - beta2
    theta = list(init.t + init.r + init.s)
    m = [0.0] * 9
    v = [0.0] * 9
    value, grad = scalar_loss_and_gradient(theta, pairs)
    assert math.isfinite(value)
    initial_loss = best_loss = value
    best_theta = tuple(theta)
    best_iteration = 0
    trace = [(0, value)]
    for k in range(1, cfg.iterations + 1):
        correction1 = 1.0 - beta1**k
        correction2 = 1.0 - beta2**k
        for i in range(9):
            g = grad[i]
            m[i] = beta1 * m[i] + keep1 * g
            v[i] = beta2 * v[i] + keep2 * g * g
            theta[i] = theta[i] - step_size * (m[i] / correction1) / (
                math.sqrt(v[i] / correction2) + epsilon)
        value, grad = scalar_loss_and_gradient(theta, pairs)
        assert math.isfinite(value)
        if value < best_loss and theta[6] > 0 and theta[7] > 0 and theta[8] > 0:
            best_loss = value
            best_theta = tuple(theta)
            best_iteration = k
        if k == 1 or k % TRACE_STRIDE == 0 or k == cfg.iterations:
            trace.append((k, value))
    return RefineResult(AffineParams9.from_vector(best_theta), tuple(trace), initial_loss, best_loss, best_iteration)


@pytest.mark.parametrize("n", [1, 3, 4, 12, 50])
def test_loss_and_gradient_match_array_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        params, moving, fixed = random_instance(rng, n)
        params = AffineParams9(params.t, tuple(rng.uniform(-3, 3, 3)), params.s)
        want_loss, want_grad = oracle_loss_and_gradient(np.array(params.t + params.r + params.s), moving.coords, fixed.coords)
        assert abs(loss(params, moving, fixed) - want_loss) <= 1e-12 * want_loss
        grad = loss_gradient(params, moving, fixed)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


@pytest.mark.parametrize("n", [1, 3, 4, 12, 50])
def test_loss_and_gradient_match_scalar_oracle_bit_for_bit(n):
    # the instances of the array-oracle test above
    rng = np.random.default_rng(n)
    for _ in range(50):
        params, moving, fixed = random_instance(rng, n)
        params = AffineParams9(params.t, tuple(rng.uniform(-3, 3, 3)), params.s)
        pairs = np.hstack((moving.coords, fixed.coords)).tolist()
        want_loss, want_grad = scalar_loss_and_gradient(params.t + params.r + params.s, pairs)
        assert loss(params, moving, fixed).hex() == want_loss.hex()
        assert [g.hex() for g in loss_gradient(params, moving, fixed).tolist()] == [g.hex() for g in want_grad]


def bit_pattern(result):
    """Every number of a RefineResult as exact hex text."""
    return (
        [x.hex() for x in result.params.t + result.params.r + result.params.s],
        result.initial_loss.hex(),
        result.final_loss.hex(),
        result.best_iteration,
        [(k, value.hex()) for k, value in result.loss_trace],
    )


def kernel_and_scalar_patterns(cases):
    """Each case's bit pattern refined alone, refined with the others, and by the scalar oracle."""
    starts = [decompose(umeyama_fit(case.moving, case.fixed)) for case in cases]
    movings, fixeds = [case.moving for case in cases], [case.fixed for case in cases]
    alone = [bit_pattern(refine(*args)) for args in zip(starts, movings, fixeds)]
    together = [bit_pattern(result) for result in refine_many(starts, movings, fixeds)]
    return alone, together, [bit_pattern(scalar_refine(*args)) for args in zip(starts, movings, fixeds)]


def test_refine_matches_scalar_oracle_bit_for_bit():
    # 112 cases at the paper defaults: seeds 11, 23, 5 and 7; 4, 8 and 12
    # fitting landmarks; 0 and 1 mm noise; uniform and nonuniform scales,
    # with a third case at 4 landmarks, the paper's count. Each cohort of 2
    # or 3 cases is one task on forked workers, and refines alone and
    # together: two cases in the kernel's two lanes, a third alone.
    cohorts = {
        (seed, n_fit, noise, mode): generate_cases(
            seed, 3 if n_fit == 4 else 2, SynthConfig(n_fit=n_fit, noise_sigma=noise, scale_mode=mode))
        for seed in (11, 23, 5, 7)
        for n_fit in (4, 8, 12)
        for noise in (0.0, 1.0)
        for mode in ("uniform", "nonuniform")
    }
    assert sum(map(len, cohorts.values())) >= 100
    workers = min(len(cohorts), _usable_cpus())
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        patterns = pool.map(kernel_and_scalar_patterns, cohorts.values())
        for key, (alone, together, scalar) in zip(cohorts, patterns):
            assert alone == scalar, key
            assert together == scalar, key


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(3, 12), iterations=st.integers(1, 1200), step_size=st.sampled_from([1e-5, 1e-2, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, iterations=355, step_size=1e-5, seed=0)
@example(n=4, iterations=356, step_size=1e-5, seed=0)
@example(n=12, iterations=357, step_size=1e-5, seed=1)
def test_two_lanes_equal_two_one_case_calls(n, iterations, step_size, seed):
    # 356 is the first step whose first-moment correction is exactly 1.0; the
    # larger steps overshoot, so each lane finds its best iterate on its own
    # steps, some with a negative scale left out of the family
    rng = np.random.default_rng(seed)
    cases = [random_instance(rng, n) for _ in range(2)]
    cfg = RefineConfig(iterations=iterations, step_size=step_size)
    together = refine_many(*zip(*cases), cfg)
    assert [bit_pattern(result) for result in together] == [bit_pattern(refine(*case, cfg)) for case in cases]


def refine_entries():
    """The kernel's refinement entries this CPU runs: landreg_refine, and landreg_refine_avx2 where it runs AVX2."""
    return ["landreg_refine", "landreg_refine_avx2"][:1 + refine_module._kernel().landreg_has_avx2()]


@contextlib.contextmanager
def bound_entry(entry):
    """The kernel's entry point ``entry`` bound as the one the process calls, for the duration,
    with one usable CPU, so that ``refine_many`` forms every 4-lane call it can."""
    lib = refine_module._kernel()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lib, "refine", getattr(lib, entry))
        patch.setattr(refine_module, "_usable_cpus", lambda: 1)
        yield


def test_the_process_calls_the_avx2_entry_where_the_cpu_runs_it():
    lib = refine_module._kernel()
    assert lib.landreg_has_avx2() in (0, 1)
    assert lib.refine is getattr(lib, refine_entries()[-1])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(3, 12), iterations=st.integers(1, 1200), step_size=st.sampled_from([1e-5, 1e-2, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, iterations=355, step_size=1e-5, seed=0)
@example(n=4, iterations=356, step_size=1e-5, seed=0)
@example(n=12, iterations=357, step_size=1e-5, seed=1)
def test_four_lanes_equal_four_one_case_calls(n, iterations, step_size, seed):
    # through each entry the CPU runs; the one-case calls through the process's own
    rng = np.random.default_rng(seed)
    cases = [random_instance(rng, n) for _ in range(4)]
    cfg = RefineConfig(iterations=iterations, step_size=step_size)
    alone = [bit_pattern(refine(*case, cfg)) for case in cases]
    for entry in refine_entries():
        with bound_entry(entry):
            assert [bit_pattern(result) for result in refine_many(*zip(*cases), cfg)] == alone, entry


def test_the_baseline_entry_equals_the_avx2_entry():
    if refine_entries() == ["landreg_refine"]:
        pytest.skip("this CPU does not run AVX2")
    # 4, 2 and 1 lanes at the paper defaults, and a 4-lane call of a diverging case
    cases = generate_cases(5, 7, SynthConfig(scale_mode="nonuniform", noise_sigma=1.0))
    starts = [decompose(umeyama_fit(case.moving, case.fixed)) for case in cases]
    diverging, healthy, cfg = DIVERGING["loss-at-a-step"]
    patterns = {}
    for entry in refine_entries():
        with bound_entry(entry):
            results = refine_many(starts, [case.moving for case in cases], [case.fixed for case in cases])
            outcomes = refine_module._refine_lanes(*zip(healthy, healthy, diverging, healthy), cfg)
        patterns[entry] = ([bit_pattern(result) for result in results],
                           [bit_pattern(outcome) for outcome in outcomes[:2] + outcomes[3:]],
                           error_pattern(outcomes[2]))
    assert patterns["landreg_refine"] == patterns["landreg_refine_avx2"]


def still_case(n):
    """A case at its exact fit from the identity start: every gradient is 0, so no step size moves it."""
    points = PointSet(TETRA[:n] + 1.0)
    return AffineParams9.identity(), points, points


def error_pattern(error):
    return type(error), str(error), error.iteration, type(error.__cause__)


# cases that diverge alone, each with a healthy partner of its landmark count
# and the config both refine under
DIVERGING = {
    "loss-at-the-start": (
        (AffineParams9.identity(), PointSet(np.eye(3) * 1e200), PointSet(np.eye(3))),
        random_instance(np.random.default_rng(3), 3),
        RefineConfig(iterations=300),
    ),
    "loss-at-a-step": (
        (AffineParams9.identity(), PointSet(np.eye(3) * 1e150), PointSet(np.eye(3))),
        still_case(3),
        RefineConfig(iterations=5, step_size=1e150),
    ),
    "infinite-angle": (
        (AffineParams9.identity(), PointSet(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])),
         PointSet(np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]))),
        still_case(2),
        RefineConfig(iterations=20, step_size=1.5e308),
    ),
}


@pytest.mark.parametrize("lane", [0, 1])
@pytest.mark.parametrize("scenario", list(DIVERGING))
def test_a_diverging_lane_fails_as_alone_and_leaves_the_other(scenario, lane):
    diverging, healthy, cfg = DIVERGING[scenario]
    with pytest.raises(DivergenceError) as alone:
        refine(*diverging, cfg)
    assert alone.value.iteration == {"loss-at-the-start": 0, "loss-at-a-step": 1, "infinite-angle": 2}[scenario]
    cases = [healthy, healthy]
    cases[lane] = diverging
    outcomes = refine_module._refine_lanes(*zip(*cases), cfg)
    assert error_pattern(outcomes[lane]) == error_pattern(alone.value)
    assert bit_pattern(outcomes[1 - lane]) == bit_pattern(refine(*healthy, cfg))
    with pytest.raises(DivergenceError) as together:
        refine_many(*zip(*cases), cfg)
    assert error_pattern(together.value) == error_pattern(alone.value)


@pytest.mark.parametrize("entry", ["landreg_refine", "landreg_refine_avx2"])
@pytest.mark.parametrize("lane", [0, 1, 2, 3])
@pytest.mark.parametrize("scenario", list(DIVERGING))
def test_a_diverging_lane_of_four_fails_as_alone_and_leaves_the_others(scenario, lane, entry):
    if entry not in refine_entries():
        pytest.skip("this CPU does not run AVX2")
    diverging, healthy, cfg = DIVERGING[scenario]
    with pytest.raises(DivergenceError) as alone:
        refine(*diverging, cfg)
    cases = [healthy] * 4
    cases[lane] = diverging
    with bound_entry(entry):
        outcomes = refine_module._refine_lanes(*zip(*cases), cfg)
        with pytest.raises(DivergenceError) as together:
            refine_many(*zip(*cases), cfg)
    assert error_pattern(outcomes.pop(lane)) == error_pattern(alone.value)
    assert [bit_pattern(outcome) for outcome in outcomes] == [bit_pattern(refine(*healthy, cfg))] * 3
    assert error_pattern(together.value) == error_pattern(alone.value)


def test_two_diverging_lanes_raise_the_first_case_s_error():
    # the second case fails at its start, the first at step 1: case order wins
    late, _, cfg = DIVERGING["loss-at-a-step"]
    early = (AffineParams9.identity(), PointSet(np.eye(3) * 1e200), PointSet(np.eye(3)))
    with pytest.raises(DivergenceError) as alone:
        refine(*late, cfg)
    with pytest.raises(DivergenceError) as together:
        refine_many(*zip(late, early), cfg)
    assert error_pattern(together.value) == error_pattern(alone.value)


def test_pairs_give_each_coordinate_for_both_lanes_in_turn():
    rng = np.random.default_rng(5)
    movings, fixeds = [[PointSet(rng.normal(size=(5, 3))) for _ in range(2)] for _ in range(2)]
    # rows[i, c, lane]: coordinate c of correspondence i (px, py, pz, fx, fy, fz) in that lane
    expected = np.empty((5, 6, 2))
    for lane in (0, 1):
        expected[:, :3, lane], expected[:, 3:, lane] = movings[lane].coords, fixeds[lane].coords
    for rows, want in (
        (refine_module._pairs(movings, fixeds), expected),
        (refine_module._pairs(movings[:1], fixeds[:1]), expected[:, :, [0, 0]]),
    ):
        assert rows.flags.c_contiguous and rows.dtype == np.float64 and len(rows) == 5
        assert rows.tobytes() == np.ascontiguousarray(want).tobytes()


def test_pairs_give_each_coordinate_for_four_lanes_in_turn():
    rng = np.random.default_rng(6)
    movings, fixeds = [[PointSet(rng.normal(size=(3, 3))) for _ in range(4)] for _ in range(2)]
    # rows[i, c, lane]: coordinate c of correspondence i (px, py, pz, fx, fy, fz) in that lane
    expected = np.empty((3, 6, 4))
    for lane in range(4):
        expected[:, :3, lane], expected[:, 3:, lane] = movings[lane].coords, fixeds[lane].coords
    rows = refine_module._pairs(movings, fixeds)
    assert rows.flags.c_contiguous and rows.dtype == np.float64 and rows.shape == (3, 6, 4)
    assert rows.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.fixture
def lane_calls(monkeypatch):
    """The number of cases of each kernel call, in call order."""
    calls = []
    lanes = refine_module._refine_lanes
    monkeypatch.setattr(refine_module, "_refine_lanes", lambda inits, *rest: calls.append(len(inits)) or lanes(inits, *rest))
    return calls


def test_refine_many_pairs_consecutive_cases_of_equal_count(lane_calls):
    # unequal counts and an odd case count: 5 and the last 6 refine alone
    rng = np.random.default_rng(5)
    cases = [random_instance(rng, n) for n in (4, 4, 5, 4, 4, 4, 6)]
    cfg = RefineConfig(iterations=400)
    results = refine_many(*zip(*cases), cfg)
    assert lane_calls == [2, 1, 2, 1, 1]
    assert [bit_pattern(result) for result in results] == [bit_pattern(refine(*case, cfg)) for case in cases]
    lane_calls.clear()
    (result,) = refine_many(*zip(cases[0]), cfg)
    assert lane_calls == [1]
    assert bit_pattern(result) == bit_pattern(refine(*cases[0], cfg))
    assert refine_many((), (), (), cfg) == []


EIGHT_PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7)]


@pytest.mark.parametrize(("counts", "cpus", "calls"), [
    ([4] * 9, 2, [(0, 1, 2, 3), (4, 5, 6, 7), (8,)]),
    ([4] * 7 + [6] * 2, 2, [(0, 1, 2, 3), (4, 5), (6,), (7, 8)]),
    ([4, 4, 4, 6, 6], 1, [(0, 1), (2,), (3, 4)]),
    ([4] * 8, 1, [(0, 1, 2, 3), (4, 5, 6, 7)]),
    ([4] * 8, 2, [(0, 1, 2, 3), (4, 5, 6, 7)]),
    # never fewer calls than pairs would give the usable CPUs
    ([4] * 8, 3, [(0, 1, 2, 3), (4, 5), (6, 7)]),
    ([4] * 8, 4, EIGHT_PAIRS),
    ([4] * 8, 8, EIGHT_PAIRS),
    ([4] * 9, 4, [(0, 1, 2, 3), (4, 5), (6, 7), (8,)]),
    ([4] * 9, 8, [*EIGHT_PAIRS, (8,)]),
], ids=["nine-2", "seven-and-two-2", "three-and-two-1", "eight-1", "eight-2", "eight-3", "eight-4", "eight-8",
        "nine-4", "nine-8"])
def test_refine_many_forms_fours_only_while_each_cpu_keeps_a_call(monkeypatch, counts, cpus, calls):
    monkeypatch.setattr(refine_module, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(9)
    cases = [random_instance(rng, n) for n in counts]
    cfg = RefineConfig(iterations=300)
    seen, lanes = [], refine_module._refine_lanes

    def recording(inits, movings, fixeds, config):
        seen.append(tuple(next(i for i, case in enumerate(cases) if case[1] is moving) for moving in movings))
        return lanes(inits, movings, fixeds, config)

    monkeypatch.setattr(refine_module, "_refine_lanes", recording)
    results = refine_many(*zip(*cases), cfg)
    assert sorted(seen) == calls
    assert [bit_pattern(result) for result in results] == [bit_pattern(refine(*case, cfg)) for case in cases]


def test_refine_many_checks_every_case_before_refining_any(lane_calls):
    moving = PointSet(TETRA, names=("a", "b", "c", "d"))
    fixed = PointSet(TETRA[[0, 1, 3, 2]], names=("a", "b", "d", "c"))
    start = AffineParams9.identity()
    with pytest.raises(CorrespondenceError, match="^landmark names disagree: "):
        refine_many((start, start), (moving, moving), (moving, fixed))
    with pytest.raises(CorrespondenceError, match="^refine_many needs one start per moving and fixed set"):
        refine_many((start,), (moving, moving), (moving, moving))
    assert lane_calls == []


def test_refine_many_runs_kernel_calls_at_once(monkeypatch):
    # each kernel call returns only once both calls are running
    rng = np.random.default_rng(8)
    cases = [random_instance(rng, n) for n in (4, 5)]
    cfg = RefineConfig(iterations=200)
    alone = [bit_pattern(refine(*case, cfg)) for case in cases]
    barrier, lanes = threading.Barrier(2, timeout=5), refine_module._refine_lanes

    def meeting(*args):
        barrier.wait()
        return lanes(*args)

    monkeypatch.setattr(refine_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(refine_module, "_refine_lanes", meeting)
    assert [bit_pattern(result) for result in refine_many(*zip(*cases), cfg)] == alone


def test_refine_many_raises_case_order_not_time_order(monkeypatch):
    # the second case's call fails first, then the first case's: the first case's error is raised
    early = DIVERGING["loss-at-the-start"][0]  # 3 landmarks, fails at its start
    late, _, cfg = DIVERGING["infinite-angle"]  # 2 landmarks, fails at step 2
    with pytest.raises(DivergenceError) as alone:
        refine(*early, cfg)
    late_failed, failed, lanes = threading.Event(), [], refine_module._refine_lanes

    def ordered(inits, movings, fixeds, config):
        if movings[0] is early[1]:
            late_failed.wait(timeout=5)
        outcomes = lanes(inits, movings, fixeds, config)
        failed.append("early" if movings[0] is early[1] else "late")
        late_failed.set()
        return outcomes

    monkeypatch.setattr(refine_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(refine_module, "_refine_lanes", ordered)
    with pytest.raises(DivergenceError) as together:
        refine_many(*zip(early, late), cfg)
    assert failed == ["late", "early"]
    assert error_pattern(together.value) == error_pattern(alone.value)


def test_refine_many_thread_pool_equals_one_thread(monkeypatch):
    import concurrent.futures

    cases = generate_cases(11, 7, SynthConfig(scale_mode="nonuniform", noise_sigma=1.0))
    starts = [decompose(umeyama_fit(case.moving, case.fixed)) for case in cases]
    movings, fixeds = [case.moving for case in cases], [case.fixed for case in cases]
    cfg = RefineConfig(iterations=500)
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(refine_module, "_usable_cpus", lambda: 3)
    pooled = refine_many(starts, movings, fixeds, cfg)  # 3 calls (4, 2 and 1 cases) on 3 threads
    assert len(refine_many(starts[:3], movings[:3], fixeds[:3], cfg)) == 3  # 2 calls on 2 threads
    assert len(refine_many(starts[:2], movings[:2], fixeds[:2], cfg)) == 2  # 1 call, no pool
    refine(starts[0], movings[0], fixeds[0], cfg)  # 1 call, no pool
    monkeypatch.setattr(refine_module, "_usable_cpus", lambda: 1)
    serial = refine_many(starts, movings, fixeds, cfg)

    assert sizes == [3, 2]
    assert [bit_pattern(result) for result in pooled] == [bit_pattern(result) for result in serial]


def test_refine_matches_scalar_oracle_past_the_settled_corrections():
    # 40 000 steps run past k = 37 412, from where both bias corrections are 1.0
    (case,) = generate_cases(11, 1, SynthConfig(n_fit=4, noise_sigma=1.0, scale_mode="nonuniform"))
    start = decompose(umeyama_fit(case.moving, case.fixed))
    cfg = RefineConfig(iterations=40_000)
    assert bit_pattern(refine(start, case.moving, case.fixed, cfg)) == bit_pattern(
        scalar_refine(start, case.moving, case.fixed, cfg))


@pytest.mark.parametrize(("beta", "settled", "vanished"), [(BETA1, 356, 7_073), (BETA2, 37_412, 744_761)])
def test_bias_corrections_stay_one_from_where_the_table_ends(beta, settled, vanished):
    # the table holds every correction before the first 1.0, read-only
    table = refine_module._bias_corrections()[(BETA1, BETA2).index(beta)]
    assert table.tolist() == [1.0 - beta**k for k in range(1, settled)]
    assert not table.flags.writeable
    # the kernel takes every correction past its table as exactly 1.0
    assert 1.0 - beta ** (settled - 1) != 1.0
    k = settled
    while beta**k != 0.0:
        assert 1.0 - beta**k == 1.0, k
        k += 1
    assert k == vanished
    assert settled - 1 <= _MAX_CORRECTIONS


@pytest.fixture
def fresh_corrections():
    """A process without bias correction tables yet."""
    refine_module._bias_corrections.cache_clear()
    yield
    refine_module._bias_corrections.cache_clear()


def test_concurrent_first_refinements_match_serial_ones(fresh_corrections):
    # the first refinements of a process without tables run on the pool's threads
    cases = generate_cases(3, 8, SynthConfig(n_fit=4, noise_sigma=1.0, scale_mode="nonuniform"))
    methods = {
        f"umeyama+refine@{n}": (fit_similarity, functools.partial(refine_fits, config=RefineConfig(iterations=n)))
        for n in (400, 40_000, 10, 2_000)
    }
    racing = compare_methods(cases, methods)
    # serially, every step count reads the tables one call built
    refine_module._bias_corrections.cache_clear()
    serial = [report for case in cases for report in _run_cases([case], methods)]
    assert refine_module._bias_corrections.cache_info().misses == 1
    assert repr(list(racing.reports)) == repr(serial)


def one_ulp_away(params, index):
    v = np.array(params.t + params.r + params.s)
    v[index] = np.nextafter(v[index], np.inf)
    return AffineParams9.from_vector(v)


def refine_and_oracle(case):
    start = decompose(umeyama_fit(case.moving, case.fixed))
    result = refine(start, case.moving, case.fixed)
    assert result.final_loss <= result.initial_loss
    return start, result.final_loss, oracle_final_loss(start, case.moving, case.fixed)


def test_refine_matches_array_oracle_on_nonuniform_cohort():
    # Not bit for bit: Adam normalises each gradient component, so rounding
    # noise in a near-zero component becomes a full-size step late in a run.
    # Where the default 10k-step run is still descending, that noise can move
    # the final loss by more than the 2e-3 mm tolerance; there the oracle must
    # show the same sensitivity, reaching the new result from a start one ulp
    # away while its own results spread wider than the tolerance.
    # Each case's refinement and oracle run is one task on forked workers.
    # The nine one-ulp oracle runs of a case out of tolerance are nine more
    # tasks, queued as soon as that case finishes, so no worker runs them all.
    # A failing case re-raises its own assertion here, earliest case first.
    cases = generate_cases(11, 20, SynthConfig(scale_mode="nonuniform"))
    workers = min(len(cases), _usable_cpus())
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        runs = {pool.submit(refine_and_oracle, case): case for case in cases}
        nearby = {}
        for run in as_completed(runs):
            if run.exception() is None:
                start, got, want = run.result()
                if abs(got - want) > 2e-3:
                    case = runs[run]
                    nearby[run] = [
                        pool.submit(oracle_final_loss, one_ulp_away(start, i), case.moving, case.fixed)
                        for i in range(9)
                    ]
        for run, case in runs.items():
            _, got, want = run.result()
            if run in nearby:
                losses = [neighbour.result() for neighbour in nearby[run]]
                assert max(losses + [want]) - min(losses + [want]) > 2e-3, case.case_id
                assert min(abs(got - x) for x in losses) <= 2e-3, case.case_id


def test_config_defaults():
    cfg = RefineConfig()
    assert cfg.iterations == 10_000
    assert cfg.step_size == 1e-5
    assert (BETA1, BETA2, ADAM_EPSILON, LOSS_EPSILON) == (0.9, 0.999, 1e-8, 1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"iterations": 0},
        {"iterations": -3},
        {"step_size": 0.0},
        {"step_size": -1e-5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        RefineConfig(**kwargs)


@pytest.mark.parametrize("iterations", [10.0, math.nan, math.inf, True], ids=repr)
def test_iterations_must_be_an_integer(iterations):
    with pytest.raises(InvalidParameterError):
        RefineConfig(iterations=iterations)


@pytest.mark.parametrize("step_size", ["1", True, None], ids=repr)
def test_step_size_must_be_a_real_number(step_size):
    with pytest.raises(InvalidParameterError, match="step_size"):
        RefineConfig(step_size=step_size)


def test_iterations_may_be_a_numpy_integer():
    moving = PointSet(TETRA)
    result = refine(AffineParams9.identity(), moving, moving, RefineConfig(iterations=np.int64(2)))
    assert result.loss_trace[-1][0] == 2


@pytest.mark.parametrize("iterations", [10**18, 10**400], ids=["unallocatable", "unindexable"])
def test_a_trace_too_long_to_hold_is_a_memory_error(iterations):
    moving = PointSet(TETRA)
    with pytest.raises(MemoryError, match="^cannot allocate a loss trace of "):
        refine(AffineParams9.identity(), moving, moving, RefineConfig(iterations=iterations))


def test_loss_at_exact_fit_is_epsilon_floor():
    params = AffineParams9((1, 2, 3), (0.1, -0.2, 0.3), (1.1, 0.9, 1.3))
    moving = PointSet(TETRA)
    fixed = PointSet(transform_array(compose(params), TETRA))
    assert loss(params, moving, fixed) <= 1e-6


def test_loss_three_four_five():
    value = loss(
        AffineParams9.identity(),
        PointSet(np.array([[0.0, 0.0, 0.0]])),
        PointSet(np.array([[3.0, 4.0, 0.0]])),
    )
    assert abs(value - 5.0) < 1e-6


def test_loss_is_mean_over_points():
    value = loss(
        AffineParams9.identity(),
        PointSet(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
        PointSet(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])),
    )
    assert abs(value - 1.5) < 1e-6


def test_loss_size_mismatch():
    with pytest.raises(CorrespondenceError):
        loss(AffineParams9.identity(), PointSet(TETRA), PointSet(TETRA[:2]))


@pytest.mark.parametrize("call", [loss, loss_gradient, refine])
def test_reordered_names_rejected(call):
    moving = PointSet(TETRA, names=("a", "b", "c", "d"))
    fixed = PointSet(TETRA[[0, 1, 3, 2]], names=("a", "b", "d", "c"))
    with pytest.raises(CorrespondenceError, match="^landmark names disagree: "):
        call(AffineParams9.identity(), moving, fixed)


def test_gradient_unit_translation_direction():
    grad = loss_gradient(
        AffineParams9.identity(),
        PointSet(np.array([[0.0, 0.0, 0.0]])),
        PointSet(np.array([[1.0, 0.0, 0.0]])),
    )
    assert abs(grad[0] - (-1.0)) < 1e-6
    assert np.abs(grad[1:3]).max() < 1e-9


def test_gradient_vanishes_at_exact_fit():
    params = AffineParams9((1, -1, 2), (0.2, 0.1, -0.3), (1.2, 0.8, 1.0))
    moving = PointSet(TETRA)
    fixed = PointSet(transform_array(compose(params), TETRA))
    assert np.linalg.norm(loss_gradient(params, moving, fixed)) < 1e-4


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        params, moving, fixed = random_instance(rng)
        grad = loss_gradient(params, moving, fixed)
        fd = finite_difference(params, moving, fixed)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() < 1e-4


def test_refine_stationary_at_optimum():
    moving = PointSet(TETRA)
    result = refine(AffineParams9.identity(), moving, moving, RefineConfig(iterations=50))
    assert result.params == AffineParams9.identity()
    assert result.final_loss <= result.initial_loss
    assert result.best_iteration == 0


def test_refine_beats_uniform_fit_on_diagonal_scaling():
    rng = np.random.default_rng(0)
    src = rng.uniform(-25, 25, size=(4, 3))
    dst = src * np.array([1.0, 2.0, 3.0])
    moving, fixed = PointSet(src), PointSet(dst)
    result = refine(decompose(umeyama_fit(moving, fixed)), moving, fixed)
    assert result.final_loss < 0.9 * result.initial_loss


def test_refine_does_not_regress_on_similarity_data():
    params = AffineParams9((4, -2, 1), (0.2, -0.1, 0.25), (1.15, 1.15, 1.15))
    moving = PointSet(TETRA)
    fixed = PointSet(transform_array(compose(params), TETRA))
    result = refine(decompose(umeyama_fit(moving, fixed)), moving, fixed)
    assert result.final_loss <= result.initial_loss
    assert result.initial_loss <= 1e-6
    assert result.final_loss <= 1e-6


def test_refine_final_never_exceeds_initial():
    rng = np.random.default_rng(99)
    for _ in range(5):
        params, moving, fixed = random_instance(rng, n=5)
        result = refine(params, moving, fixed, RefineConfig(iterations=300))
        assert result.final_loss <= result.initial_loss
        assert result.final_loss <= loss(params, moving, fixed)


# a 10 mm tetrahedron and its image mirrored in x: the best fit is a
# reflection, which the nine-parameter family excludes
SMALL_TETRA = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
MIRRORED = np.array([[1.0, 2.0, 3.0], [-11.0, 2.0, 3.0], [1.0, 12.0, 3.0], [1.0, 2.0, 13.0]])


def test_refine_keeps_the_best_iterate_inside_the_family():
    # large steps carry Adam through a negative x scale with a lower loss
    moving, fixed = PointSet(SMALL_TETRA), PointSet(MIRRORED)
    start = decompose(umeyama_fit(moving, fixed))
    result = refine(start, moving, fixed, RefineConfig(iterations=50, step_size=1.0))
    assert result.final_loss <= result.initial_loss
    assert all(s > 0 for s in result.params.s)
    assert result.final_loss == loss(result.params, moving, fixed)


def test_refine_is_deterministic():
    rng = np.random.default_rng(7)
    params, moving, fixed = random_instance(rng, n=6)
    cfg = RefineConfig(iterations=500)
    a = refine(params, moving, fixed, cfg)
    b = refine(params, moving, fixed, cfg)
    assert a.loss_trace == b.loss_trace
    assert a.params == b.params


def test_trace_covers_first_every_100th_and_last():
    moving = PointSet(TETRA)
    fixed = PointSet(TETRA + np.array([5.0, 0.0, 0.0]))
    result = refine(AffineParams9.identity(), moving, fixed, RefineConfig(iterations=250))
    iterations = [it for it, _ in result.loss_trace]
    assert iterations == [0, 1, 100, 200, 250]
    assert result.loss_trace[0][1] == result.initial_loss


def test_divergence_reported_with_iteration():
    small = PointSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    huge = PointSet(np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            refine(AffineParams9.identity(), huge, small, RefineConfig(iterations=5))
    assert info.value.iteration == 0

    grown = PointSet(np.array([[1e150, 0.0, 0.0], [0.0, 1e150, 0.0], [0.0, 0.0, 1e150]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            refine(
                AffineParams9.identity(), grown, small,
                RefineConfig(iterations=5, step_size=1e150),
            )
    assert info.value.iteration >= 1


def test_best_iteration_is_where_final_loss_was_reached():
    rng = np.random.default_rng(0)
    src = rng.uniform(-25, 25, size=(4, 3))
    moving, fixed = PointSet(src), PointSet(src * np.array([1.0, 2.0, 3.0]))
    start = decompose(umeyama_fit(moving, fixed))
    result = refine(start, moving, fixed, RefineConfig(iterations=300))
    assert 0 < result.best_iteration <= 300
    # the run up to best_iteration ends exactly on the best iterate
    head = refine(start, moving, fixed, RefineConfig(iterations=result.best_iteration))
    assert head.loss_trace[-1] == (result.best_iteration, result.final_loss)
    assert head.params == result.params


def test_arithmetic_failure_is_divergence_with_iteration():
    # A step this large overflows a rotation angle to infinity; cos(inf)
    # raises where array arithmetic would have produced nan.
    moving = PointSet(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    fixed = PointSet(np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]))
    with pytest.raises(DivergenceError) as info:
        refine(AffineParams9.identity(), moving, fixed, RefineConfig(iterations=20, step_size=1.5e308))
    assert info.value.iteration == 2
    assert isinstance(info.value.__cause__, ValueError)


def test_refine_result_is_frozen():
    moving = PointSet(TETRA)
    result = refine(AffineParams9.identity(), moving, moving, RefineConfig(iterations=2))
    assert isinstance(result, RefineResult)
    with pytest.raises(Exception):
        result.final_loss = 0.0
