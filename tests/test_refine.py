"""Loss, analytic gradient, and Adam refinement."""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np
import pytest

from landreg.core import (
    AffineParams9,
    PointSet,
    compose,
    decompose,
    transform_array,
)
from landreg.errors import CorrespondenceError, DivergenceError, InvalidParameterError
from landreg.evaluate import _usable_cpus
from landreg.refine import (
    ADAM_EPSILON,
    BETA1,
    BETA2,
    LOSS_EPSILON,
    RefineConfig,
    RefineResult,
    loss,
    loss_gradient,
    refine,
)
from landreg.synth import SynthConfig, generate_cases
from landreg.umeyama import umeyama_fit

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
    v = params.as_vector()
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
    theta = init.as_vector()
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


@pytest.mark.parametrize("n", [1, 3, 4, 12, 50])
def test_loss_and_gradient_match_array_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        params, moving, fixed = random_instance(rng, n)
        params = AffineParams9(params.t, tuple(rng.uniform(-3, 3, 3)), params.s)
        want_loss, want_grad = oracle_loss_and_gradient(params.as_vector(), moving.coords, fixed.coords)
        assert abs(loss(params, moving, fixed) - want_loss) <= 1e-12 * want_loss
        grad = loss_gradient(params, moving, fixed)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def one_ulp_away(params, index):
    v = params.as_vector()
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


def test_iterations_may_be_a_numpy_integer():
    moving = PointSet(TETRA)
    result = refine(AffineParams9.identity(), moving, moving, RefineConfig(iterations=np.int64(2)))
    assert result.loss_trace[-1][0] == 2


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
