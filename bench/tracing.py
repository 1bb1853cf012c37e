"""Spans recorded from outside the package, and per-layer metrics built from them.

Nothing under ``src/`` knows about tracing. While a traced round runs, the
names each landreg module looks up at call time (``landreg.cli.refine``,
``landreg.evaluate.umeyama_fit``, ...) are replaced by wrappers that record
one span per call: layer, function, request, parent span, start and end.
Spans stay in memory; the per-layer metrics are computed from them when the
run ends. ``Volume3`` constructions are counted by wrapping the dataclass's
``__post_init__``, which every construction runs.

Per-call costs of the small public functions are measured separately by
``run_probes``: a timed loop over each function on fixed small inputs, the
same on every workload.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "synth", "fileio", "umeyama", "refine", "evaluate", "landmarks", "core")
SUBCOMMANDS = ("compare", "register", "evaluate", "make-label", "extract", "edt")
GRIDS = ("small", "large")
DENSITIES = ("seed", "shell")


def _voxels_of_arg(i):
    return lambda args, result: args[i].n_voxels


def _mask_voxels(args, result):
    return args[0].volume.n_voxels


def _iterations(args, result):
    return result.loss_trace[-1][0]


def _read_bytes(args, result):
    return result.n_voxels * 4


def _written_bytes(args, result):
    return os.path.getsize(args[1])


def _written_volume_bytes(args, result):
    path = os.fspath(args[1])
    raw = os.path.join(os.path.dirname(path), os.path.splitext(os.path.basename(path))[0] + ".raw")
    return os.path.getsize(path) + os.path.getsize(raw)


# (module that looks the name up, name, layer, work measure or None).
# Every binding through which one landreg module reaches another is listed,
# so a call into a layer is seen whichever module makes it.
WRAP_POINTS = (
    ("landreg.cli", "read_points", "fileio", None),
    ("landreg.cli", "read_transform", "fileio", None),
    ("landreg.cli", "read_volume", "fileio", _read_bytes),
    ("landreg.cli", "write_transform", "fileio", _written_bytes),
    ("landreg.cli", "write_trace", "fileio", _written_bytes),
    ("landreg.cli", "write_volume", "fileio", _written_volume_bytes),
    ("landreg.synth", "read_points", "fileio", None),
    ("landreg.cli", "BinaryMask", "landmarks", _voxels_of_arg(0)),
    ("landreg.cli", "distance_transform", "landmarks", _mask_voxels),
    ("landreg.cli", "make_label", "landmarks", _voxels_of_arg(1)),
    ("landreg.cli", "recover_landmark", "landmarks", _voxels_of_arg(0)),
    ("landreg.cli", "extract_extremes", "landmarks", _mask_voxels),
    ("landreg.cli", "refine", "refine", _iterations),
    ("landreg.evaluate", "refine", "refine", _iterations),
    ("landreg.cli", "umeyama_fit", "umeyama", None),
    ("landreg.evaluate", "umeyama_fit", "umeyama", None),
    ("landreg.cli", "compare_methods", "evaluate", None),
    ("landreg.cli", "tre", "evaluate", None),
    ("landreg.evaluate", "tre", "evaluate", None),
    ("landreg.cli", "load_cases", "synth", None),
    ("landreg.cli", "compose", "core", None),
    ("landreg.cli", "decompose", "core", None),
    ("landreg.core", "compose", "core", None),
    ("landreg.evaluate", "decompose", "core", None),
    ("landreg.fileio", "decompose", "core", None),
)


class Tracer:
    """In-memory span recorder for the rounds run under ``installed()``."""

    def __init__(self):
        # span: [id, parent id, request id, layer, name, tag, start, end, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = 0
        self.tag: dict = {}
        self.volume_constructions = 0
        self.volume_bytes = 0

    @contextmanager
    def span(self, layer: str, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.request_id,
                  layer, name, self.tag, time.perf_counter(), None, 0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[7] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, name, fn, work):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(layer, name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record[8] = work(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrap point and the ``Volume3`` counter; restore on exit."""
        from landreg.core import Volume3

        saved = []
        for module_name, attr, layer, work in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, attr, original, work))
        post_init = Volume3.__post_init__
        tracer = self

        def counted_post_init(volume):
            post_init(volume)
            tracer.volume_constructions += 1
            tracer.volume_bytes += volume.data.nbytes

        Volume3.__post_init__ = counted_post_init
        try:
            yield self
        finally:
            Volume3.__post_init__ = post_init
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, rounds: int, busy_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from the spans of ``rounds`` traced rounds.

    ``busy_s`` is the summed request time of those rounds. Counts are per
    round. A layer the workload never calls reads 0 in its counts, shares and
    rates, which is the "no change expected" prediction made visible.
    """
    spans = tracer.spans
    duration = [s[7] - s[6] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[1] is not None:
            child_time[s[1]] += d
    self_time = [d - c for d, c in zip(duration, child_time)]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s[3] == layer]
        out[f"{layer}.calls"] = (_ratio(len(idx), rounds), "count")
        out[f"{layer}.self_share"] = (_ratio(sum(self_time[i] for i in idx), busy_s), "frac")

    cli = [i for i, s in enumerate(spans) if s[3] == "cli"]
    out["cli.main_ms"] = (1e3 * _ratio(sum(duration[i] for i in cli), len(cli)), "ms")
    out["cli.self_ms"] = (1e3 * _ratio(sum(self_time[i] for i in cli), len(cli)), "ms")
    for sub in SUBCOMMANDS:
        share = _ratio(sum(duration[i] for i in cli if spans[i][4] == sub), busy_s)
        out[f"cli.{sub}.share"] = (share, "frac")

    def rate(name, **tag):
        """Work per second of busy time in ``name``: Mvox/s for voxels, MB/s for bytes."""
        idx = [i for i, s in enumerate(spans)
               if s[4] == name and all(s[5].get(k) == v for k, v in tag.items())]
        return _ratio(sum(spans[i][8] for i in idx) / 1e6, sum(duration[i] for i in idx))

    for grid in GRIDS:
        for density in DENSITIES:
            out[f"landmarks.edt.{grid}.{density}_mvox_per_s"] = (
                rate("distance_transform", grid=grid, density=density), "Mvox/s")
        out[f"landmarks.make_label.{grid}_mvox_per_s"] = (rate("make_label", grid=grid), "Mvox/s")
    out["landmarks.recover_mvox_per_s"] = (rate("recover_landmark"), "Mvox/s")
    out["landmarks.extremes_mvox_per_s"] = (rate("extract_extremes"), "Mvox/s")
    out["landmarks.binary_mask_mvox_per_s"] = (rate("BinaryMask"), "Mvox/s")
    out["fileio.read_volume_mb_per_s"] = (rate("read_volume"), "MB/s")
    out["fileio.write_volume_mb_per_s"] = (rate("write_volume"), "MB/s")
    written = sum(s[8] for s in spans if s[3] == "fileio" and s[4].startswith("write_"))
    out["fileio.bytes_written"] = (_ratio(written, rounds), "B")
    out["refine.iters"] = (_ratio(sum(s[8] for s in spans if s[3] == "refine"), rounds), "count")
    out["core.volume3_constructions"] = (_ratio(tracer.volume_constructions, rounds), "count")
    # computed, not measured: each construction copies its data once as float64
    out["core.volume_bytes_copied_computed"] = (_ratio(tracer.volume_bytes, rounds), "B")
    return out


def _per_call_s(fn, calls: int) -> float:
    """Mean time of one call over ``calls`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def run_probes(workdir: str, rng: np.random.Generator, refine_iters: int,
               cohort_cases: int, loops: int) -> dict[str, tuple[float, str]]:
    """Per-call cost of each layer's small public functions on fixed inputs."""
    from landreg.core import AffineParams9, PointSet, compose, decompose
    from landreg.evaluate import paired_ttest, tre
    from landreg.fileio import read_points, write_points, write_transform
    from landreg.refine import RefineConfig, loss_gradient, refine
    from landreg.synth import SynthConfig, generate_cases, load_cases, save_cases
    from landreg.umeyama import umeyama_fit

    moving = PointSet(rng.uniform(-25.0, 25.0, size=(4, 3)))
    truth = AffineParams9(tuple(rng.uniform(-10, 10, 3)), tuple(rng.uniform(-0.3, 0.3, 3)),
                          tuple(rng.uniform(0.8, 1.25, 3)))
    fixed = PointSet(moving.coords @ compose(truth).linear.T + compose(truth).translation
                     + rng.normal(0.0, 1.0, size=(4, 3)))
    matrix = umeyama_fit(moving, fixed)
    start = decompose(matrix)
    sample_a, sample_b = rng.normal(3.0, 1.0, 20), rng.normal(2.0, 1.0, 20)
    config = RefineConfig(iterations=refine_iters)
    points_path = os.path.join(workdir, "probe_points.csv")
    write_points(PointSet(rng.uniform(-25.0, 25.0, size=(12, 3))), points_path)
    transform_path = os.path.join(workdir, "probe_transform.json")
    synth_config = SynthConfig(n_fit=4, n_holdout=4, noise_sigma=1.0, scale_mode="nonuniform")
    cohort_dir = os.path.join(workdir, "probe_cohort")
    save_cases(generate_cases(1, cohort_cases, synth_config), cohort_dir, synth_config)

    call = _per_call_s(lambda: refine(start, moving, fixed, config), 3)
    iter_us = 1e6 * call / refine_iters
    loss_gradient_us = 1e6 * _per_call_s(lambda: loss_gradient(start, moving, fixed), loops)
    return {
        "refine.call_ms": (1e3 * call, "ms"),
        "refine.iter_us": (iter_us, "us"),
        "refine.loss_gradient_us": (loss_gradient_us, "us"),
        "refine.adam_us_per_iter": (iter_us - loss_gradient_us, "us"),
        "umeyama.fit_us": (1e6 * _per_call_s(lambda: umeyama_fit(moving, fixed), loops), "us"),
        "evaluate.tre_us": (1e6 * _per_call_s(lambda: tre(matrix, moving, fixed), loops), "us"),
        "evaluate.paired_ttest_us": (
            1e6 * _per_call_s(lambda: paired_ttest(sample_a, sample_b), loops), "us"),
        "core.compose_us": (1e6 * _per_call_s(lambda: compose(start), loops), "us"),
        "core.decompose_us": (1e6 * _per_call_s(lambda: decompose(matrix), loops), "us"),
        "fileio.read_points_us": (1e6 * _per_call_s(lambda: read_points(points_path), loops // 4), "us"),
        "fileio.write_transform_us": (
            1e6 * _per_call_s(lambda: write_transform(matrix, transform_path), loops // 4), "us"),
        "synth.generate_ms": (
            1e3 * _per_call_s(lambda: generate_cases(1, cohort_cases, synth_config), 5), "ms"),
        "synth.load_cases_ms": (1e3 * _per_call_s(lambda: load_cases(cohort_dir), 5), "ms"),
    }
