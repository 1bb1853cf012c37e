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
operation, so its results are bit-identical to that loop's. Adam's bias
corrections come from one table per process, which the kernel fills once.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .core import AffineParams9, PointSet, require_correspondence, require_integer, require_real
from .errors import DivergenceError, InvalidParameterError

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


def _pairs(moving: PointSet, fixed: PointSet) -> np.ndarray:
    """Correspondences as C-contiguous rows (px, py, pz, fx, fy, fz)."""
    return np.hstack((moving.coords, fixed.coords))


# landreg_refine's status codes, as _refine.c defines them
_NONFINITE_LOSS = 1
_NONFINITE_ANGLE = 2


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled kernel, built on the first call if the cache lacks this version."""
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
    lib.landreg_refine.argtypes = (
        address, count, address, count, *[ctypes.c_double] * 5, count, address, count, address, count,
        address, address, ctypes.POINTER(count), address, ctypes.POINTER(count),
    )
    lib.landreg_refine.restype = ctypes.c_int
    return lib


# (iterations covered, 1 - BETA1**k, 1 - BETA2**k) for k = 1, 2, ...: each
# table ends at the iterations covered or before its first 1.0. A larger
# request replaces the whole tuple, so a caller keeps the tables it took.
_corrections: tuple[int, np.ndarray, np.ndarray] = (0, np.empty(0), np.empty(0))
_corrections_lock = threading.Lock()


def _bias_corrections(iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Adam's bias corrections for the first ``iterations`` steps, up to where they round to 1.0.

    The tables are built on the first call and grow, up to
    ``_MAX_CORRECTIONS`` entries, only when a call needs more steps than
    every earlier one; the kernel takes every later correction as 1.0.
    """
    global _corrections
    wanted = min(iterations, _MAX_CORRECTIONS)
    with _corrections_lock:
        covered, first, second = _corrections
        # a table shorter than the steps covered has reached its 1.0
        if wanted > covered and max(len(first), len(second)) == covered:
            first, second = (_correction_table(beta, wanted) for beta in (BETA1, BETA2))
            _corrections = wanted, first, second
    return first, second


def _correction_table(beta: float, count: int) -> np.ndarray:
    """``1 - beta**k`` for k = 1 .. ``count``, ending before the first that rounds to 1.0; read-only."""
    table = np.empty(count)
    table = table[:_kernel().landreg_bias_corrections(beta, count, table.ctypes.data)]
    table.flags.writeable = False
    return table


def _loss_and_gradient(params: AffineParams9, moving: PointSet, fixed: PointSet) -> tuple[float, np.ndarray]:
    """Mean regularized distance at ``params`` and its 9 partial derivatives."""
    require_correspondence(moving, fixed)
    theta, pairs, grad = np.array(params.t + params.r + params.s), _pairs(moving, fixed), np.empty(9)
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
    require_correspondence(moving, fixed)
    cfg = config if config is not None else RefineConfig()
    # iterations 0 and 1, every TRACE_STRIDE-th and the last
    samples = cfg.iterations // TRACE_STRIDE + 3
    try:
        trace_iterations, trace_losses = np.empty(samples, np.int64), np.empty(samples)
    except (MemoryError, ValueError) as exc:  # ValueError: more samples than an array can index
        raise MemoryError(f"cannot allocate a loss trace of {samples} samples") from exc
    pairs, theta, losses = _pairs(moving, fixed), np.array(init.t + init.r + init.s), np.empty(2)
    first, second = _bias_corrections(cfg.iterations)
    at, traced = ctypes.c_int64(), ctypes.c_int64()
    status = _kernel().landreg_refine(
        pairs.ctypes.data, len(pairs), theta.ctypes.data, cfg.iterations,
        cfg.step_size, BETA1, BETA2, ADAM_EPSILON, LOSS_EPSILON, TRACE_STRIDE,
        first.ctypes.data, len(first), second.ctypes.data, len(second),
        trace_iterations.ctypes.data, trace_losses.ctypes.data, ctypes.byref(traced),
        losses.ctypes.data, ctypes.byref(at),
    )
    k = at.value
    if status == _NONFINITE_ANGLE:
        # the error Python's math.cos raises on an infinite angle
        raise DivergenceError(f"arithmetic failed at iteration {k}: math domain error",
                              iteration=k) from ValueError("math domain error")
    if status == _NONFINITE_LOSS:
        if k == 0:
            raise DivergenceError("loss is non-finite at the initial parameters", iteration=0)
        raise DivergenceError(f"loss became non-finite at iteration {k}", iteration=k)

    n = traced.value
    return RefineResult(
        params=AffineParams9.from_vector(theta),
        loss_trace=tuple(zip(trace_iterations[:n].tolist(), trace_losses[:n].tolist())),
        initial_loss=float(losses[0]),
        final_loss=float(losses[1]),
        best_iteration=k,
    )
