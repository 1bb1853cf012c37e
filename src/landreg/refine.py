"""Gradient-descent refinement of the nine transform parameters.

Starting from any parameter vector (typically the decomposed similarity
fit), Adam descends the mean point-to-point Euclidean distance between the
fixed set and the transformed moving set. Per-axis scales are free to move
independently, which is exactly the family the closed-form fit cannot
reach. The result is the best-loss iterate visited inside the family (all
scales positive), never the last one, so refinement can only match or
improve its starting point.

The loss, its gradient and the Adam loop run in one C kernel,
``_refine.c``, built with the system C compiler on the first call and
cached beside this module (``_native`` builds and loads it). It reproduces
the scalar float arithmetic of a plain Python loop operation for
operation, so its results are bit-identical to that loop's. One kernel
call refines one case, two of equal landmark count on 2-double vectors or
four on 4-double vectors, one case per lane; :func:`refine_many` forms the
calls and runs them on threads. Where the CPU runs AVX2, four-case calls
run the kernel's AVX2 build of the same loop. Adam's bias corrections come
from tables filled on first use.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import AffineParams9, PointSet, require_correspondence, require_integer, require_real
from .errors import CorrespondenceError, DivergenceError, InvalidParameterError

TRACE_STRIDE = 100

# Adam's moment decay rates and denominator guard: the optimizer's
# standard constants (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPSILON = 1e-8

# added under the square root of each distance so the loss gradient stays
# finite at exact alignment
LOSS_EPSILON = 1e-12

# 1 - BETA2**k rounds to exactly 1.0 from k = 37 412 on (1 - BETA1**k from
# k = 356), so no table of bias corrections holds more entries than this
_MAX_CORRECTIONS = 37_411


@dataclass(frozen=True)
class RefineConfig:
    """Adam's iteration count and step size. The defaults are the values
    the registration pipeline was tuned with (10^4 steps of 1e-5); the
    moment constants are fixed as :data:`BETA1`, :data:`BETA2` and
    :data:`ADAM_EPSILON`.
    """

    iterations: int = 10_000
    step_size: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "iterations", require_integer(self.iterations, "iterations", 1))
        object.__setattr__(self, "step_size", require_real(self.step_size, "step_size"))
        if not self.step_size > 0:
            raise InvalidParameterError(f"step_size must be positive, got {self.step_size}")


@dataclass(frozen=True)
class RefineResult:
    """Outcome of a refinement run.

    ``params`` and ``final_loss`` describe the best iterate visited inside
    the nine-parameter family, so ``final_loss <= initial_loss`` always;
    ``best_iteration`` is the iteration at which ``final_loss`` was first
    reached (0 for the start).
    ``loss_trace`` holds (iteration, loss) samples: iterations 0 and 1,
    every ``TRACE_STRIDE``-th (100), and the last.
    """

    params: AffineParams9
    loss_trace: tuple[tuple[int, float], ...]
    initial_loss: float
    final_loss: float
    best_iteration: int


def _pairs(movings: Sequence[PointSet], fixeds: Sequence[PointSet]) -> np.ndarray:
    """Correspondences as the kernel reads them: C-contiguous rows (px, py,
    pz, fx, fy, fz), each coordinate given for every vector lane in turn.
    Two or four cases fill one lane each; one case fills both lanes of a pair."""
    # each case's six columns side by side; several cases then move the case axis innermost
    rows = np.concatenate([points.coords for case in zip(movings, fixeds) for points in case], axis=1)
    lanes = len(movings)
    return rows.repeat(2, axis=1) if lanes == 1 else rows.reshape(len(rows), lanes, 6).swapaxes(1, 2).copy()


# landreg_refine's status codes, as _refine.c defines them
_NONFINITE_LOSS = 1
_NONFINITE_ANGLE = 2


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled kernel, built on the first call if the cache lacks this version.

    Its ``refine`` attribute is the refinement entry this process calls:
    ``landreg_refine_avx2`` where ``landreg_has_avx2()`` is 1, else ``landreg_refine``.
    """
    from ._native import load  # here, so importing the package loads no build code

    lib = load("_refine", "refinement kernel")
    # Arrays go in as bare addresses: each is a C-contiguous float64 (or
    # int64) array of the kernel's sizes, made by the caller just before
    # the call and held in a local until it returns.
    address, count = ctypes.c_void_p, ctypes.c_int64
    lib.landreg_loss_and_gradient.argtypes = (address, address, count, ctypes.c_double, address)
    lib.landreg_loss_and_gradient.restype = ctypes.c_double
    lib.landreg_bias_corrections.argtypes = (ctypes.c_double, count, address)
    lib.landreg_bias_corrections.restype = count
    lib.landreg_has_avx2.argtypes, lib.landreg_has_avx2.restype = (), ctypes.c_int
    entries = [lib.landreg_refine, *([lib.landreg_refine_avx2] if lib.landreg_has_avx2() else [])]
    for entry in entries:
        entry.argtypes = (
            count, address, count, address, count, *[ctypes.c_double] * 5, count, address, count, address, count,
            address, address, address, address,
        )
        entry.restype = count
    lib.refine = entries[-1]
    return lib


@functools.cache
def _bias_corrections() -> tuple[np.ndarray, np.ndarray]:
    """Adam's read-only bias corrections ``1 - beta**k``, k = 1, 2, ..., for BETA1 and BETA2.

    Built in full on the first call: each table ends before its first
    correction that rounds to 1.0 (355 entries for BETA1, 37 411 for
    BETA2), and the kernel takes every later correction as 1.0. Threads
    that miss the cache together each build equal tables and use their own.
    """
    tables = []
    for beta in (BETA1, BETA2):
        table = np.empty(_MAX_CORRECTIONS)
        # in place: a short table gives the rest of its buffer back
        table.resize(_kernel().landreg_bias_corrections(beta, _MAX_CORRECTIONS, table.ctypes.data))
        table.flags.writeable = False
        tables.append(table)
    return tables[0], tables[1]


def _loss_and_gradient(params: AffineParams9, moving: PointSet, fixed: PointSet) -> tuple[float, np.ndarray]:
    """Mean regularized distance at ``params`` and its 9 partial derivatives."""
    require_correspondence(moving, fixed)
    theta, pairs, grad = np.array(params.t + params.r + params.s), _pairs((moving,), (fixed,)), np.empty(9)
    value = _kernel().landreg_loss_and_gradient(
        theta.ctypes.data, pairs.ctypes.data, len(pairs), LOSS_EPSILON, grad.ctypes.data)
    return value, grad


def loss(params: AffineParams9, moving: PointSet, fixed: PointSet) -> float:
    """Mean per-correspondence Euclidean distance in mm.

    Each distance is ``sqrt(||fixed_i - T(moving_i)||^2 + LOSS_EPSILON)``,
    so the value at exact alignment is ``sqrt(LOSS_EPSILON)`` rather than
    zero. This is the quantity :func:`refine` descends, and it matches the
    registration error metric up to the regularizer.
    """
    return _loss_and_gradient(params, moving, fixed)[0]


def loss_gradient(params: AffineParams9, moving: PointSet, fixed: PointSet) -> np.ndarray:
    """Analytic partial derivatives of :func:`loss`.

    Ordered (tx, ty, tz, rx, ry, rz, sx, sy, sz), by the chain rule through
    the matrix composition. Agrees with central finite differences to a
    relative error below 1e-4 on any non-vanishing component.
    """
    return _loss_and_gradient(params, moving, fixed)[1]


def refine(init: AffineParams9, moving: PointSet, fixed: PointSet,
           config: RefineConfig | None = None) -> RefineResult:
    """Adam descent of :func:`loss` from ``init``.

    Runs exactly ``config.iterations`` bias-corrected Adam updates, records
    a loss trace, and returns the best iterate inside the nine-parameter
    family: the lowest-loss parameters visited whose three scales are all
    positive (including the start, so the result never regresses). Adam
    itself may step through non-positive scales. Deterministic: identical
    inputs produce bit-identical traces.

    Raises :class:`DivergenceError`, tagged with the iteration, if the
    loss becomes non-finite or the parameters leave the range the
    arithmetic can evaluate (an infinite angle), and ``OSError`` if the
    kernel is not built yet and cannot be.
    """
    return refine_many((init,), (moving,), (fixed,), config)[0]


def refine_many(inits: Sequence[AffineParams9], movings: Sequence[PointSet], fixeds: Sequence[PointSet],
                config: RefineConfig | None = None) -> list[RefineResult]:
    """:func:`refine` of each case ``(inits[i], movings[i], fixeds[i])``, in case order.

    The results, and the error raised when a case fails, are those of one
    :func:`refine` call per case in turn, bit for bit, except that every
    case's correspondence is checked before any case is refined. Each run
    of consecutive cases with equal landmark counts is cut into kernel
    calls of two cases and at most one of one; a call refines one case per
    vector lane, in less time than one call per case takes. Where those
    calls outnumber the usable CPUs, pairs of pair calls, earliest first,
    become calls of four cases, as long as at least one call per usable
    CPU is left. The calls run on threads, one per usable CPU up to the
    number of calls (the kernel releases the interpreter lock); a single
    call starts none.
    Sequences of unequal length are a :class:`CorrespondenceError`.
    """
    if not len(inits) == len(movings) == len(fixeds):
        raise CorrespondenceError(f"refine_many needs one start per moving and fixed set, got {len(inits)} "
                                  f"starts, {len(movings)} moving and {len(fixeds)} fixed sets")
    for moving, fixed in zip(movings, fixeds):
        require_correspondence(moving, fixed)
    cfg = config if config is not None else RefineConfig()
    runs, cpus = [len(list(run)) for _, run in itertools.groupby(map(len, movings))], _usable_cpus()
    # a 4-lane call takes less time than the two pair calls it replaces, but
    # on one thread, so it is formed only where threads would be short of calls
    fours = max(0, sum((run + 1) // 2 for run in runs) - cpus)
    calls, start = [], 0
    for run in runs:
        quads = min(run // 4, fours)
        fours -= quads
        for lanes in [4] * quads + [2] * ((run - 4 * quads) // 2) + [1] * (run % 2):
            stop = start + lanes
            calls.append((inits[start:stop], movings[start:stop], fixeds[start:stop], cfg))
            start = stop
    if (workers := min(len(calls), cpus)) > 1:
        _bias_corrections()  # loads the kernel too, so the pool's threads only read the caches
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            return _in_case_order(pool.map(_refine_lanes, *zip(*calls)))
    return _in_case_order(itertools.starmap(_refine_lanes, calls))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_case_order(per_call: Iterable[list[RefineResult | DivergenceError]]) -> list[RefineResult]:
    """The kernel calls' outcomes, read call by call: the results, or the earliest case's error."""
    results = []
    for outcome in itertools.chain.from_iterable(per_call):
        if isinstance(outcome, DivergenceError):
            raise outcome
        results.append(outcome)
    return results


def _refine_lanes(inits: Sequence[AffineParams9], movings: Sequence[PointSet], fixeds: Sequence[PointSet],
                  cfg: RefineConfig) -> list[RefineResult | DivergenceError]:
    """One kernel call over one case, or over two or four with equal landmark
    counts, one per lane: each case's result, or the error its own call raises."""
    lanes = len(inits)
    # iterations 0 and 1, every TRACE_STRIDE-th and the last
    samples = cfg.iterations // TRACE_STRIDE + 3
    try:
        trace_iterations, trace_losses = np.empty(samples, np.int64), np.empty((samples, lanes))
    except (MemoryError, ValueError) as exc:  # ValueError: more samples than an array can index
        raise MemoryError(f"cannot allocate a loss trace of {samples} samples") from exc
    pairs, theta = _pairs(movings, fixeds), np.array([init.t + init.r + init.s for init in inits])
    losses, outcomes = np.empty((lanes, 2)), np.empty((lanes, 2), np.int64)
    first, second = _bias_corrections()
    traced = _kernel().refine(
        lanes, pairs.ctypes.data, len(pairs), theta.ctypes.data, cfg.iterations,
        cfg.step_size, BETA1, BETA2, ADAM_EPSILON, LOSS_EPSILON, TRACE_STRIDE,
        first.ctypes.data, len(first), second.ctypes.data, len(second),
        trace_iterations.ctypes.data, trace_losses.ctypes.data, losses.ctypes.data, outcomes.ctypes.data,
    )
    iterations = trace_iterations[:traced].tolist()
    results: list[RefineResult | DivergenceError] = []
    for lane, (status, k) in enumerate(outcomes.tolist()):
        if status == _NONFINITE_ANGLE:
            # the error Python's math.cos raises on an infinite angle
            error = DivergenceError(f"arithmetic failed at iteration {k}: math domain error", iteration=k)
            error.__cause__ = ValueError("math domain error")
            results.append(error)
        elif status == _NONFINITE_LOSS:
            results.append(DivergenceError("loss is non-finite at the initial parameters", iteration=0) if k == 0
                           else DivergenceError(f"loss became non-finite at iteration {k}", iteration=k))
        else:
            initial, final = losses[lane].tolist()
            results.append(RefineResult(
                params=AffineParams9.from_vector(theta[lane]),
                loss_trace=tuple(zip(iterations, trace_losses[:traced, lane].tolist())),
                initial_loss=initial,
                final_loss=final,
                best_iteration=k,
            ))
    return results
