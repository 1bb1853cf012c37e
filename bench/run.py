"""Run one benchmark workload of landreg for a fixed time and print its metrics.

    python3 bench/run.py --workload cohort-compare --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory and driven
in-process through ``landreg.cli.main``, one request at a time (a closed loop
with a single client), on one thread with BLAS pinned to one thread. The
last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from a run that alternates untraced and traced
rounds. The line before it describes the machine. ``--record FILE`` also
appends both, as one JSON line, to FILE for ``bench/compare.py``.
"""

from __future__ import annotations

import os

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Sizes. "full" is the benchmark; "smoke" is a seconds-long run for the smoke test.
PROFILES = {
    "full": {"cohort_cases": 8, "single_fit": 31, "single_refine": 6, "refine_iters": None,
             "small_grid": (32, 32, 24), "landmarks": {"small": 3, "large": 1},
             "setup_reps": 9, "probe_iters": 10_000, "probe_loops": 1000},
    "smoke": {"cohort_cases": 2, "single_fit": 4, "single_refine": 1, "refine_iters": 300,
              "small_grid": (16, 16, 12), "landmarks": {"small": 1, "large": 1},
              "setup_reps": 2, "probe_iters": 300, "probe_loops": 20},
}


class Runner:
    """Runs requests, times them, and keeps what the checks need."""

    def __init__(self, main):
        self.main = main
        self.first: dict[str, tuple[str, list[str], object]] = {}
        self.instances: list[tuple[str, bool]] = []

    def execute(self, request, tracer=None) -> float:
        """Run one request; return its time in seconds (checks excluded)."""
        codes, outs, errs, busy = [], [], [], 0.0
        if tracer is not None:
            tracer.request_id += 1
            tracer.tag = request.tag
        for argv in request.argvs:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        code = self.main(argv)
                    else:
                        with tracer.span("cli", argv[0]):
                            code = self.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed request, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            busy += time.perf_counter() - t0
            codes.append(code)
            outs.append(out.getvalue())
            errs.append(err.getvalue())
            if code != 0:
                break
        ok = (codes == [0] * (len(request.argvs) - 1) + [request.expect]
              and not any("Traceback" in e for e in errs))
        digest = hashlib.sha256(json.dumps([codes, outs, errs]).encode())
        try:
            for path in request.outputs:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        except OSError:
            ok = False
        first = self.first.setdefault(request.key, (digest.hexdigest(), outs, request))
        if not ok:
            print(f"{request.key}: exit codes {codes}, expected {request.expect}: {errs[-1][-400:]}",
                  file=sys.stderr)
        elif first[0] != digest.hexdigest():
            ok = False
            print(f"{request.key}: output differs from its first run", file=sys.stderr)
        self.instances.append((request.key, ok))
        return busy

    def failures(self) -> int:
        """Run each request's content check once; count the failed request runs."""
        bad = set()
        for key, (_, outs, request) in self.first.items():
            if request.check is None:
                continue
            try:
                problem = request.check(outs)
            except Exception:
                problem = traceback.format_exc()
            if problem:
                bad.add(key)
                print(f"{key}: {problem}", file=sys.stderr)
        return sum(1 for key, ok in self.instances if not ok or key in bad)


def measure_setup(reps: int) -> float:
    """Median wall time of a fresh interpreter importing landreg.cli and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import landreg.cli; landreg.cli.build_parser()"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_record(args) -> dict:
    import numpy

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if read(os.path.join(index, "type")) in ("Data", "Unified"):
            caches["L" + read(os.path.join(index, "level"))] = read(os.path.join(index, "size"))
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "profile": args.profile,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
    }


def run(args, profile: dict, workdir: str) -> dict:
    import numpy as np

    import landreg.cli
    from tracing import Tracer, layer_metrics, run_probes
    from workloads import WORKLOADS

    setup_s = measure_setup(profile["setup_reps"]) if not args.trace else None
    workload = WORKLOADS[args.workload](workdir, args.seed, profile)
    runner = Runner(landreg.cli.main)
    for request in workload.warmup:
        runner.execute(request)

    # The host's other tenants slow this code by up to 1.9x in spells of
    # 0.1 to a few seconds, and the mix of spells drifts over minutes. A mean
    # over many repeats averages the spells; a median or a minimum of a
    # request that is shorter than a spell would jump between the two speeds.
    tracer = Tracer() if args.trace else None
    times: tuple[dict, dict] = ({}, {})  # untraced, traced: request key -> [seconds]
    traced_busy: list[float] = []  # summed request time of each traced round
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        round_start = time.perf_counter()
        busy = 0.0
        with tracer.installed() if traced else contextlib.nullcontext():
            for request in workload.round:
                seconds = runner.execute(request, tracer if traced else None)
                busy += seconds
                times[traced].setdefault(request.key, []).append(seconds)
        rounds += 1
        if traced:
            traced_busy.append(busy)
        now = time.perf_counter()
        # stop before a round that would overrun, once each mode has run
        if now - start + (now - round_start) > args.seconds and rounds >= 1 + bool(args.trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = runner.failures()

    mean_s = [{key: statistics.fmean(t) for key, t in mode.items()} for mode in times]
    wall_s = sum(mean_s[0].values())
    if args.trace:
        metrics = layer_metrics(tracer, len(traced_busy), sum(traced_busy))
        metrics["trace.overhead_frac"] = (sum(mean_s[1].values()) / wall_s - 1.0, "frac")
        fit, holdout = workload.quality()
        metrics["evaluate.refine_fit_tre_mm"] = (fit, "mm")
        metrics["evaluate.refine_holdout_tre_mm"] = (holdout, "mm")
        metrics.update(run_probes(workdir, np.random.default_rng(args.seed % 2**64),
                                  profile["probe_iters"], profile["cohort_cases"], profile["probe_loops"]))
    else:
        items = sum(request.items for request in workload.round)
        p50, p90 = np.percentile([1e3 * t for t in mean_s[0].values()], [50, 90])
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "throughput_per_s": (items / wall_s, "1/s"),
            "request_p50_ms": (float(p50), "ms"),
            "request_p90_ms": (float(p90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": len(runner.instances),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cohort-compare", "single-register", "volume-landmarks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(PROFILES), default="full")
    parser.add_argument("--record", metavar="FILE", help="append the machine and result to FILE")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "landreg", "cli.py")):
        print(f"error: no landreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        result = run(args, PROFILES[args.profile], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    machine = machine_record(args)
    print("machine: " + json.dumps(machine))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"machine": machine, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
