"""Closed-form similarity registration."""

import numpy as np
import pytest

from landreg.core import AffineMatrix, PointSet, compose, decompose, transform_array
from landreg.errors import CorrespondenceError, DegenerateConfigurationError
from landreg.umeyama import umeyama_fit

TETRA = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        pts = rng.uniform(-50, 50, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[1] >= 0.05 * sv[0]:
            return pts


def similarity(c: float, rot: np.ndarray, t: np.ndarray) -> AffineMatrix:
    return AffineMatrix.from_linear_translation(c * rot, t)


def test_identity_on_equal_sets():
    ps = PointSet(TETRA)
    fit = umeyama_fit(ps, ps)
    assert np.allclose(fit.matrix, np.eye(4), atol=1e-12)


def test_scale_translation_example():
    fixed = PointSet(2.0 * TETRA + np.array([1.0, 2.0, 3.0]))
    fit = umeyama_fit(PointSet(TETRA), fixed)
    assert np.allclose(fit.linear, 2.0 * np.eye(3), atol=1e-12)
    assert np.allclose(fit.translation, [1.0, 2.0, 3.0], atol=1e-12)
    residual = fixed.coords - transform_array(fit, TETRA)
    assert np.abs(residual).max() < 1e-12


def test_rotation_recovery():
    angle = 0.3
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    generator = similarity(1.0, rot, np.zeros(3))
    fixed = PointSet(transform_array(generator, TETRA))
    fit = umeyama_fit(PointSet(TETRA), fixed)
    assert np.abs(fit.matrix - generator.matrix).max() < 1e-9


def test_exact_recovery_random():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(3, 21))
        src = random_cloud(rng, n)
        generator = similarity(
            float(rng.uniform(0.5, 2.0)), random_rotation(rng), rng.uniform(-50, 50, 3)
        )
        dst = transform_array(generator, src)
        fit = umeyama_fit(PointSet(src), PointSet(dst))
        assert np.abs(fit.matrix - generator.matrix).max() <= 1e-9
        tre = np.sqrt(((dst - transform_array(fit, src)) ** 2).sum(axis=1))
        assert tre.max() < 1e-9


def test_fit_is_optimal_among_similarities():
    rng = np.random.default_rng(77)
    src = random_cloud(rng, 4)
    generator = similarity(1.2, random_rotation(rng), rng.uniform(-10, 10, 3))
    dst = transform_array(generator, src) + rng.normal(0.0, 1.0, size=src.shape)

    fit = umeyama_fit(PointSet(src), PointSet(dst))
    base_mse = float(((dst - transform_array(fit, src)) ** 2).sum(axis=1).mean())

    params = decompose(fit)
    base_vec = np.array(params.t + params.r + (params.s[0],))
    for _ in range(1000):
        v = base_vec + rng.uniform(-1e-3, 1e-3, size=7)
        candidate = compose(
            type(params)(t=tuple(v[0:3]), r=tuple(v[3:6]), s=(v[6], v[6], v[6]))
        )
        mse = float(((dst - transform_array(candidate, src)) ** 2).sum(axis=1).mean())
        assert mse >= base_mse


def test_proper_rotation_on_reflected_data():
    rng = np.random.default_rng(5)
    src = random_cloud(rng, 6)
    mirrored = src * np.array([-1.0, 1.0, 1.0])
    fit = umeyama_fit(PointSet(src), PointSet(mirrored))
    assert np.linalg.det(fit.linear) > 0


def test_translation_invariance():
    rng = np.random.default_rng(8)
    src = random_cloud(rng, 5)
    generator = similarity(0.8, random_rotation(rng), rng.uniform(-5, 5, 3))
    dst = transform_array(generator, src) + rng.normal(0.0, 0.5, size=src.shape)
    shift = np.array([13.0, -7.0, 2.0])

    plain = umeyama_fit(PointSet(src), PointSet(dst))
    shifted = umeyama_fit(PointSet(src + shift), PointSet(dst + shift))
    assert np.abs(plain.linear - shifted.linear).max() < 1e-9


def test_shrinking_scale_recovered():
    fit = umeyama_fit(PointSet(TETRA), PointSet(0.5 * TETRA))
    assert np.allclose(fit.linear, 0.5 * np.eye(3), atol=1e-12)


def test_too_few_points():
    a = PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(DegenerateConfigurationError):
        umeyama_fit(a, a)


def test_collinear_points_rejected():
    line = PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    with pytest.raises(DegenerateConfigurationError):
        umeyama_fit(line, line)


@pytest.mark.parametrize(
    "moving, fixed, message",
    [
        (1e-170 * TETRA, TETRA, "variance underflows"),
        (1e-160 * TETRA, TETRA, "scale is too large .*: its cube, the determinant, overflows .*; the moving points"),
        (1e153 * TETRA, 1e-200 * TETRA, r"scale is too small \(0\.000e\+00\): .* underflows .*; the fixed points"),
    ],
    ids=["moving-variance", "scale-overflow", "scale"],
)
def test_moments_that_underflow_are_degenerate(moving, fixed, message):
    with pytest.raises(DegenerateConfigurationError, match=message):
        umeyama_fit(PointSet(moving), PointSet(fixed))


def test_size_mismatch():
    with pytest.raises(CorrespondenceError):
        umeyama_fit(PointSet(TETRA), PointSet(TETRA[:3]))


def test_reordered_names_rejected():
    moving = PointSet(TETRA, names=("a", "b", "c", "d"))
    fixed = PointSet(TETRA[[1, 0, 2, 3]], names=("b", "a", "c", "d"))
    with pytest.raises(CorrespondenceError, match="^landmark names disagree: "):
        umeyama_fit(moving, fixed)
