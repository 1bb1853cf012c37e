"""Acceptance suite: nine end-to-end correctness criteria with oracles.

Each test prints one summary line (visible with ``pytest -s``) stating
PASS or FAIL, the measured margin, and the elapsed time, then asserts.
Random draws are seeded so every run checks the same instances.
"""

import contextlib
import io
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from landreg.cli import main
from landreg.core import (
    AffineMatrix,
    AffineParams9,
    Point3,
    PointSet,
    Volume3,
    compose,
    decompose,
    transform_array,
)
from landreg.errors import (
    CorrespondenceError,
    DegenerateTestError,
    InsufficientSampleError,
)
from landreg.landmarks import BinaryMask, distance_transform, make_label, recover_landmark
from landreg.evaluate import paired_ttest, tre
from landreg.refine import loss, loss_gradient, refine
from landreg.synth import SynthConfig, generate_cases
from landreg.umeyama import umeyama_fit

LABEL_FLOOR = math.exp(-10.0)


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def nearest_feature_distances(data3d, spacing):
    """Brute-force oracle: per-voxel scan over every feature voxel."""
    nz, ny, nx = data3d.shape
    zi, yi, xi = np.nonzero(data3d)
    sites = np.stack([xi * spacing[0], yi * spacing[1], zi * spacing[2]], axis=1)
    gz, gy, gx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    centers = np.stack(
        [gx.ravel() * spacing[0], gy.ravel() * spacing[1], gz.ravel() * spacing[2]], axis=1
    )
    out = np.empty(len(centers))
    # chunked so the pairwise difference tensor stays small
    for lo in range(0, len(centers), 256):
        block = centers[lo:lo + 256]
        squared = ((block[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + 256] = np.sqrt(squared.min(axis=1))
    return out


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def conditioned_cloud(rng, n, half_extent=25.0):
    while True:
        pts = rng.uniform(-half_extent, half_extent, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[-1] >= 0.05 * sv[0]:
            return pts


def test_criterion_1_distance_transform_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 17, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
        n = dims[0] * dims[1] * dims[2]
        data = (rng.random(n) < rng.uniform(0.05, 0.9)).astype(float)
        data[rng.integers(0, n)] = 1.0
        volume = Volume3(dims=dims, spacing=spacing, data=data)
        got = distance_transform(BinaryMask(volume)).data
        want = nearest_feature_distances(volume.data3d(), spacing)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(1, ok, f"200 random masks vs brute-force scan: max |diff| = {worst:.2e} mm "
                  f"(limit 1e-9), {elapsed:.1f}s (limit 30s)")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_label_map_peak_range_and_inversion():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(50):
        while True:
            dims = tuple(int(d) for d in rng.integers(1, 13, size=3))
            if dims[0] * dims[1] * dims[2] >= 2:
                break
        spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
        origin = Point3(*rng.uniform(-20.0, 20.0, size=3))
        template = Volume3(dims=dims, spacing=spacing, origin=origin)
        ix, iy, iz = (int(rng.integers(0, d)) for d in dims)
        landmark = template.voxel_center(ix, iy, iz)

        label = make_label(landmark, template)
        values = label.data
        linear = ix + dims[0] * (iy + dims[1] * iz)
        assert values[linear] == 1.0
        assert values.max() == 1.0
        assert values.min() >= LABEL_FLOOR
        assert values.max() <= 1.0
        assert recover_landmark(label) == landmark
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(2, ok, f"50 random placements: peak exactly 1 at the landmark voxel, range "
                  f"[exp(-10), 1], exact argmax inversion, {elapsed:.1f}s (limit 10s)")
    assert elapsed < 10.0


def test_criterion_3_similarity_fit_exact_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_elem = 0.0
    worst_tre = 0.0
    for _ in range(500):
        src = conditioned_cloud(rng, 4)
        matrix = np.eye(4)
        matrix[:3, :3] = rng.uniform(0.5, 2.0) * random_rotation(rng)
        matrix[:3, 3] = rng.uniform(-50.0, 50.0, size=3)
        generator = AffineMatrix(matrix)
        dst = transform_array(generator, src)

        fitted = umeyama_fit(PointSet(src), PointSet(dst))
        worst_elem = max(worst_elem, float(np.abs(fitted.matrix - matrix).max()))
        worst_tre = max(worst_tre, tre(fitted, PointSet(src), PointSet(dst)).mean)
    elapsed = time.perf_counter() - start
    ok = worst_elem <= 1e-9 and worst_tre <= 1e-9 and elapsed < 5.0
    report(3, ok, f"500 random similarity transforms: max matrix error = {worst_elem:.2e} "
                  f"(limit 1e-9), max residual TRE = {worst_tre:.2e} mm (limit 1e-9), "
                  f"{elapsed:.1f}s (limit 5s)")
    assert worst_elem <= 1e-9
    assert worst_tre <= 1e-9
    assert elapsed < 5.0


def test_criterion_4_gradient_matches_central_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 11))
        moving = PointSet(rng.uniform(-20.0, 20.0, size=(n, 3)))
        fixed = PointSet(rng.uniform(-20.0, 20.0, size=(n, 3)))
        params = AffineParams9(
            t=rng.uniform(-10.0, 10.0, size=3),
            r=rng.uniform(-1.0, 1.0, size=3),
            s=rng.uniform(0.5, 2.0, size=3),
        )
        theta = np.array(params.t + params.r + params.s)
        numeric = np.empty(9)
        for j in range(9):
            step = np.zeros(9)
            step[j] = h
            up = loss(AffineParams9.from_vector(theta + step), moving, fixed)
            down = loss(AffineParams9.from_vector(theta - step), moving, fixed)
            numeric[j] = (up - down) / (2.0 * h)
        analytic = loss_gradient(params, moving, fixed)
        checked = np.abs(analytic) > 1e-8
        if checked.any():
            rel = np.abs(analytic - numeric)[checked] / np.abs(analytic)[checked]
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(4, ok, f"100 random instances, central differences h=1e-6: max relative "
                  f"error = {worst:.2e} (limit 1e-4), {elapsed:.1f}s (limit 5s)")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_5_nonuniform_refinement_advantage():
    start = time.perf_counter()
    cases = generate_cases(11, 20, SynthConfig(scale_mode="nonuniform"))
    improved = 0
    means = {"identity": [], "umeyama": [], "refine": []}
    for case in cases:
        closed_form = umeyama_fit(case.moving, case.fixed)
        result = refine(decompose(closed_form), case.moving, case.fixed)
        improved += result.final_loss < result.initial_loss
        means["identity"].append(tre(AffineMatrix.identity(), case.moving, case.fixed).mean)
        means["umeyama"].append(tre(closed_form, case.moving, case.fixed).mean)
        means["refine"].append(tre(compose(result.params), case.moving, case.fixed).mean)
    identity_mean = float(np.mean(means["identity"]))
    umeyama_mean = float(np.mean(means["umeyama"]))
    refine_mean = float(np.mean(means["refine"]))
    elapsed = time.perf_counter() - start
    ok = improved == 20 and refine_mean < umeyama_mean < identity_mean and elapsed < 120.0
    report(5, ok, f"20 nonuniform-scale cases: loss improved in {improved}/20, mean TRE "
                  f"refine {refine_mean:.3f} < umeyama {umeyama_mean:.3f} < identity "
                  f"{identity_mean:.3f} mm, {elapsed:.1f}s (limit 120s)")
    assert improved == 20
    assert refine_mean < umeyama_mean < identity_mean
    assert elapsed < 120.0


def test_criterion_6_uniform_cases_never_regress():
    start = time.perf_counter()
    cases = generate_cases(7, 20, SynthConfig(scale_mode="uniform"))
    worst_umeyama = 0.0
    worst_refined = 0.0
    for case in cases:
        closed_form = umeyama_fit(case.moving, case.fixed)
        result = refine(decompose(closed_form), case.moving, case.fixed)
        assert result.final_loss <= result.initial_loss
        worst_umeyama = max(worst_umeyama, tre(closed_form, case.moving, case.fixed).mean)
        worst_refined = max(
            worst_refined, tre(compose(result.params), case.moving, case.fixed).mean
        )
    elapsed = time.perf_counter() - start
    ok = worst_umeyama < 1e-6 and worst_refined < 1e-6 and elapsed < 60.0
    report(6, ok, f"20 uniform noise-free cases: refinement never increased loss, worst "
                  f"TRE umeyama {worst_umeyama:.2e} / refined {worst_refined:.2e} mm "
                  f"(limit 1e-6), {elapsed:.1f}s (limit 60s)")
    assert worst_umeyama < 1e-6
    assert worst_refined < 1e-6
    assert elapsed < 60.0


def test_criterion_7_holdout_beats_identity_with_noise():
    start = time.perf_counter()
    cases = generate_cases(23, 20, SynthConfig(noise_sigma=1.0))
    wins = 0
    for case in cases:
        closed_form = umeyama_fit(case.moving, case.fixed)
        result = refine(decompose(closed_form), case.moving, case.fixed)
        refined = compose(result.params)
        baseline = tre(AffineMatrix.identity(), case.moving_eval, case.fixed_eval).mean
        registered = tre(refined, case.moving_eval, case.fixed_eval).mean
        wins += registered < baseline
    elapsed = time.perf_counter() - start
    ok = wins >= 19 and elapsed < 120.0
    report(7, ok, f"20 cases with 1 mm landmark noise: hold-out TRE below identity in "
                  f"{wins}/20 (needs >= 19), {elapsed:.1f}s (limit 120s)")
    assert wins >= 19
    assert elapsed < 120.0


def test_criterion_8_paired_ttest_matches_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_p = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 31))
        a = rng.normal(5.0, 2.0, size=n)
        b = a + rng.normal(0.3, 1.0, size=n)
        t_stat, p_value = paired_ttest(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert abs(t_stat - ref.statistic) <= 1e-8 * max(1.0, abs(ref.statistic))
        worst_p = max(worst_p, abs(p_value - ref.pvalue))
    with pytest.raises(DegenerateTestError):
        paired_ttest([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    with pytest.raises(InsufficientSampleError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(CorrespondenceError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])
    elapsed = time.perf_counter() - start
    ok = worst_p <= 1e-8 and elapsed < 1.0
    report(8, ok, f"20 random sample pairs vs scipy.stats.ttest_rel: max |p diff| = "
                  f"{worst_p:.2e} (limit 1e-8), degenerate inputs raise, "
                  f"{elapsed:.2f}s (limit 1s)")
    assert worst_p <= 1e-8
    assert elapsed < 1.0


def run_pipeline(workdir):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        case_dir = os.path.join(workdir, "cases")
        assert main([
            "synth", case_dir,
            "--seed", "1", "--cases", "2", "--noise", "0.5", "--scale-mode", "nonuniform",
        ]) == 0
        for sub in sorted(os.listdir(case_dir)):
            full = os.path.join(case_dir, sub)
            if not os.path.isdir(full):
                continue
            transform = os.path.join(workdir, f"{sub}_transform.json")
            trace = os.path.join(workdir, f"{sub}_trace.csv")
            assert main([
                "register",
                os.path.join(full, "moving.csv"), os.path.join(full, "fixed.csv"),
                transform, "--refine", "--iters", "1000", "--trace", trace,
            ]) == 0
            assert main([
                "evaluate", transform,
                os.path.join(full, "moving_eval.csv"), os.path.join(full, "fixed_eval.csv"),
            ]) == 0
    return stream.getvalue()


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_criterion_9_pipeline_is_byte_deterministic(tmp_path):
    start = time.perf_counter()
    first_dir = tmp_path / "run_a"
    second_dir = tmp_path / "run_b"
    first_dir.mkdir()
    second_dir.mkdir()
    first_out = run_pipeline(str(first_dir))
    second_out = run_pipeline(str(second_dir))

    first_tree = tree_bytes(first_dir)
    second_tree = tree_bytes(second_dir)
    # stdout echoes the user-chosen output directory; everything else must match
    same_stdout = (
        first_out.replace(str(first_dir), "<out>")
        == second_out.replace(str(second_dir), "<out>")
    )
    same_names = sorted(first_tree) == sorted(second_tree)
    same_bytes = same_names and all(first_tree[k] == second_tree[k] for k in first_tree)
    elapsed = time.perf_counter() - start
    ok = same_stdout and same_bytes and len(first_tree) > 0
    report(9, ok, f"synth -> register --refine -> evaluate twice: {len(first_tree)} files "
                  f"byte-identical, stdout identical, {elapsed:.1f}s")
    assert same_stdout
    assert same_names
    assert same_bytes
    assert len(first_tree) > 0
