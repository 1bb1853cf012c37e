"""Registration quality metrics and the batch comparison harness.

TRE (target registration error) is the Euclidean distance in mm between a
fixed landmark and its transformed moving partner. Cohort statistics use
the sample standard deviation (n - 1). Significance between methods comes
from a two-sided paired t test whose p-value is evaluated through the
regularized incomplete beta function, accurate to well below 1e-10.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    AffineMatrix,
    PointSet,
    compose,
    decompose,
    real_array,
    require_correspondence,
    transform_array,
)
from .errors import (
    ConvergenceError,
    CorrespondenceError,
    DegenerateConfigurationError,
    DegenerateTestError,
    InsufficientSampleError,
    InvalidParameterError,
    LandregError,
)
from .refine import RefineConfig, refine
from .umeyama import umeyama_fit

# A registration method's fitter: (moving, fixed) to a transform.
Fitter = Callable[[PointSet, PointSet], AffineMatrix]


@dataclass(frozen=True)
class TREStat:
    """Mean, sample std, and the underlying per-sample TRE values (mm)."""

    mean: float
    std: float
    per_case: tuple[float, ...]

    @property
    def degenerate(self) -> bool:
        """A single-sample statistic, whose std is reported as 0 because no spread is measurable."""
        return len(self.per_case) == 1

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TREStat":
        """Summarize TRE values; :class:`DegenerateConfigurationError` if any
        value, the mean or the std is not finite (an overflowed distance)."""
        arr = real_array(values, "TRE values")
        if arr.ndim != 1:
            raise InvalidParameterError(f"TRE values must be one-dimensional, got shape {arr.shape}")
        if not arr.size:
            raise InsufficientSampleError("cannot summarize an empty TRE list")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(arr))
            std = 0.0 if arr.size == 1 else float(np.std(arr, ddof=1))
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise DegenerateConfigurationError(
                "target registration error is too large: it overflows the float range"
            )
        return cls(mean=mean, std=std, per_case=tuple(arr.tolist()))

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f} mm"


@dataclass(frozen=True)
class RegistrationReport:
    """Per-case record: which method produced which transform, and its TRE.

    ``holdout_tre`` covers landmarks that took no part in fitting; they
    must be disjoint from the fitting landmarks of the same case.
    """

    case_id: str
    method: str
    transform: AffineMatrix
    fit_tre: TREStat
    holdout_tre: TREStat | None = None


@dataclass(frozen=True)
class EvalCase:
    """One registration case: fitting landmark pairs plus optional hold-outs.

    The hold-out sets come as a pair: both or neither, else
    :class:`InvalidParameterError`. Each pair must correspond (see
    :func:`require_correspondence`), else :class:`CorrespondenceError`
    prefixed with the case id, so a bad case fails before any method runs.
    """

    case_id: str
    moving: PointSet
    fixed: PointSet
    moving_eval: PointSet | None = None
    fixed_eval: PointSet | None = None

    def __post_init__(self) -> None:
        if (self.moving_eval is None) != (self.fixed_eval is None):
            given = "moving_eval" if self.fixed_eval is None else "fixed_eval"
            raise InvalidParameterError(f"hold-out landmarks need moving_eval and fixed_eval, got {given} only")
        try:
            require_correspondence(self.moving, self.fixed)
            if self.moving_eval is not None:
                require_correspondence(self.moving_eval, self.fixed_eval)
        except CorrespondenceError as exc:
            exc.args = (f"[case {self.case_id}] {exc}",)
            raise


def tre(transform: AffineMatrix, moving_eval: PointSet, fixed_eval: PointSet) -> TREStat:
    """Per-correspondence Euclidean distances ``||fixed_i - T(moving_i)||`` in mm.

    Returns their mean and sample std. With a single correspondence the
    std is 0 and the result is flagged degenerate.
    """
    require_correspondence(moving_eval, fixed_eval)
    with np.errstate(over="ignore", invalid="ignore"):  # TREStat reports overflow
        delta = fixed_eval.coords - transform_array(transform, moving_eval.coords)
        values = np.sqrt((delta * delta).sum(axis=1))
    return TREStat.from_values(values)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta integral."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ConvergenceError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, for ``a, b > 0`` and ``x`` in [0, 1].

    Raises :class:`ConvergenceError` when the continued fraction does not
    settle within its iteration budget (very large ``a`` and ``b``).
    """
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    # the continued fraction converges fast on one side of the mean a/(a+b)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired Student t test on samples ``a`` and ``b``.

    Returns (t, p) with ``t = mean(d) / (std(d) / sqrt(n))`` for
    ``d = a - b`` and the p-value from the t distribution with n - 1
    degrees of freedom via ``I_x(nu/2, 1/2)`` at ``x = nu / (nu + t^2)``.

    Raises :class:`InvalidParameterError` unless both samples are finite
    reals, :class:`InsufficientSampleError` for n < 2 and
    :class:`DegenerateTestError` when all differences are identical or
    their spread overflows the float range.
    """
    av = real_array(a, "sample a").reshape(-1)
    bv = real_array(b, "sample b").reshape(-1)
    for name, sample in (("a", av), ("b", bv)):
        if not np.isfinite(sample).all():
            raise InvalidParameterError(f"sample {name} must be finite, got {sample.tolist()!r:.80}")
    if av.size != bv.size:
        raise CorrespondenceError(f"paired samples differ in length: {av.size} vs {bv.size}")
    n = av.size
    if n < 2:
        raise InsufficientSampleError(f"paired t test needs at least 2 pairs, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        d = av - bv
        sd = float(np.std(d, ddof=1))  # non-finite too when the mean overflows
    if not math.isfinite(sd):
        raise DegenerateTestError("differences are too large: their spread overflows the float range")
    if sd == 0.0:
        raise DegenerateTestError("differences have zero variance; t statistic is undefined")
    t = float(np.mean(d)) / (sd / math.sqrt(n))
    nu = n - 1
    p = _incomplete_beta(0.5 * nu, 0.5, nu / (nu + t * t))
    return t, p


def refined_fit(moving: PointSet, fixed: PointSet, config: RefineConfig | None = None) -> AffineMatrix:
    """Similarity fit followed by Adam refinement of all nine parameters."""
    start = decompose(umeyama_fit(moving, fixed))
    return compose(refine(start, moving, fixed, config).params)


# The registration methods by name, in the order ``compare`` runs them by default.
METHODS: dict[str, Fitter] = {
    "identity": lambda moving, fixed: AffineMatrix.identity(),
    "umeyama": umeyama_fit,
    "umeyama+refine": refined_fit,
}


@dataclass(frozen=True)
class MethodComparison:
    """Cohort table over cases for several methods, plus pairwise t tests.

    ``fit`` (and ``holdout`` where every case has hold-out landmarks, else
    empty) map method name to the TREStat over per-case mean TREs, in the
    order the methods ran. ``ttests`` maps ordered method-name pairs to
    (t, p), or None when the test is degenerate or there are fewer than 2
    cases.
    """

    fit: dict[str, TREStat]
    holdout: dict[str, TREStat]
    reports: tuple[RegistrationReport, ...]
    ttests: dict[tuple[str, str], tuple[float, float] | None]

    @property
    def methods(self) -> tuple[str, ...]:
        """Method names in the order they ran: the keys of ``fit``."""
        return tuple(self.fit)

    @property
    def n_cases(self) -> int:
        """Cases in the cohort: the per-case values of one method (case ids may repeat)."""
        return len(next(iter(self.fit.values())).per_case)

    def to_csv(self) -> str:
        """Method table as ``method,mean_mm,std_mm,n_cases`` rows (full precision)."""
        lines = ["method,mean_mm,std_mm,n_cases"]
        for name, stat in self.fit.items():
            lines.append(f"{name},{stat.mean!r},{stat.std!r},{self.n_cases}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Human-readable comparison in a Table-1-like layout."""
        width = max(len(name) for name in self.methods)
        lines = [f"registration performance over {self.n_cases} case(s); TRE in mm"]
        header = f"{'method':<{width}}  fitting landmarks"
        if self.holdout:
            header += "   hold-out landmarks"
        lines.append(header)
        for name, stat in self.fit.items():
            row = f"{name:<{width}}  {stat!s:>17}"
            if self.holdout:
                row += f"   {self.holdout[name]!s:>18}"
            lines.append(row)
        if self.ttests:
            lines.append("")
            lines.append("paired t tests on per-case mean TRE (fitting landmarks)")
            for (ma, mb), result in self.ttests.items():
                if result is None:
                    reason = "needs at least 2 cases" if self.n_cases < 2 else "degenerate (zero-variance differences)"
                    lines.append(f"{ma} vs {mb}: {reason}")
                else:
                    t, p = result
                    lines.append(f"{ma} vs {mb}: t = {t:.3f}, p = {p:.3g}")
        return "\n".join(lines) + "\n"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_case(case: EvalCase, methods: Mapping[str, Fitter]) -> list[RegistrationReport]:
    """Every method on one case: its transform, fit TRE and hold-out TRE.

    A library error is re-raised as the same object, its message prefixed
    with the case id and method name.
    """
    reports = []
    for name, fitter in methods.items():
        try:
            transform = fitter(case.moving, case.fixed)
            fit_stat = tre(transform, case.moving, case.fixed)
            holdout_stat = None
            if case.moving_eval is not None:
                holdout_stat = tre(transform, case.moving_eval, case.fixed_eval)
        except LandregError as exc:
            exc.args = (f"[case {case.case_id}, method {name}] {exc}",)
            raise
        reports.append(
            RegistrationReport(
                case_id=case.case_id,
                method=name,
                transform=transform,
                fit_tre=fit_stat,
                holdout_tre=holdout_stat,
            )
        )
    return reports


# The cohort of a forked worker process, installed right after the fork so
# that the fitters (closures, lambdas) are inherited and never pickled.
_worker_cohort: tuple[Sequence[EvalCase], Mapping[str, Fitter]] | None = None


def _install_worker_cohort(cases: Sequence[EvalCase], methods: Mapping[str, Fitter]) -> None:
    global _worker_cohort
    _worker_cohort = (cases, methods)


def _run_worker_case(index: int) -> list[RegistrationReport] | None:
    """Case ``index`` of the worker's cohort; None marks a failure for the parent to re-run."""
    cases, methods = _worker_cohort
    try:
        return _run_case(cases[index], methods)
    except Exception:
        return None


def _run_leading_cases_forked(
    cases: Sequence[EvalCase], methods: Mapping[str, Fitter], workers: int
) -> list[list[RegistrationReport]]:
    """Reports of the cases before the first failing one, run on forked workers.

    Only case indices and reports cross between processes. A worker that
    dies raises ``BrokenProcessPool``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    done: list[list[RegistrationReport]] = []
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_worker_cohort,
        initargs=(cases, methods),
    ) as pool:
        for reports in pool.map(_run_worker_case, range(len(cases))):
            if reports is None:
                pool.shutdown(cancel_futures=True)
                break
            done.append(reports)
    return done


def compare_methods(cases: Sequence[EvalCase], methods: Mapping[str, Fitter]) -> MethodComparison:
    """Run every method on every case and aggregate TRE across cases.

    ``methods`` maps each method name to its fitter, for example
    :data:`METHODS` or a selection from it. Per case, TRE is the mean over
    that case's fitting landmarks (and separately over hold-out landmarks
    when present); the cohort mean/std is then taken over cases. Pairwise
    paired t tests compare per-case means between methods; a degenerate
    pair (identical per-case results, or a single case) is recorded as None
    rather than raising. No case or no method is
    :class:`InsufficientSampleError`.

    Cases run on forked worker processes, one per usable CPU, and are
    assembled in case order, so the result equals a serial run. A case
    that fails in a worker is re-run in this process, the earliest first,
    so its error is raised here: a library error as the same object, its
    message prefixed with the case id and method name; any other exception
    propagates untouched. Ordering is deterministic: cases and methods in
    the given order.
    """
    if not cases:
        raise InsufficientSampleError("compare_methods needs at least one case")
    if not methods:
        raise InsufficientSampleError("compare_methods needs at least one method")

    workers = min(len(cases), _usable_cpus())
    forked = workers > 1 and hasattr(os, "fork")
    per_case = _run_leading_cases_forked(cases, methods, workers) if forked else []
    per_case += [_run_case(case, methods) for case in cases[len(per_case):]]
    reports = [report for case_reports in per_case for report in case_reports]

    fit = {name: TREStat.from_values([r.fit_tre.mean for r in reports if r.method == name]) for name in methods}
    holdout: dict[str, TREStat] = {}
    if all(case.moving_eval is not None for case in cases):
        holdout = {
            name: TREStat.from_values([r.holdout_tre.mean for r in reports if r.method == name]) for name in methods
        }

    ttests: dict[tuple[str, str], tuple[float, float] | None] = {}
    for ma, mb in itertools.combinations(methods, 2):
        try:
            ttests[(ma, mb)] = paired_ttest(fit[ma].per_case, fit[mb].per_case)
        except (DegenerateTestError, InsufficientSampleError):
            ttests[(ma, mb)] = None
    return MethodComparison(fit, holdout, tuple(reports), ttests)
