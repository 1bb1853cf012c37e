"""TRE statistics, the paired t test, and the method comparison harness."""

import dataclasses
import functools
import math
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.special
import scipy.stats

from landreg.core import AffineMatrix, AffineParams9, PointSet, compose, decompose, transform_array
from landreg.errors import (
    ConvergenceError,
    CorrespondenceError,
    DegenerateConfigurationError,
    DegenerateTestError,
    DivergenceError,
    InsufficientSampleError,
    InvalidParameterError,
)
from landreg import evaluate
from landreg.evaluate import (
    METHODS,
    EvalCase,
    MethodComparison,
    TREStat,
    compare_methods,
    paired_ttest,
    refined_fit,
    tre,
)
from landreg.refine import RefineConfig, refine
from landreg.synth import SynthConfig, generate_cases
from landreg.umeyama import umeyama_fit

TETRA = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])


def test_stat_recomputable_from_values():
    stat = TREStat.from_values([1.0, 2.0, 3.0, 10.0])
    assert stat.mean == np.mean(stat.per_case)
    assert stat.std == np.std(stat.per_case, ddof=1)
    assert not stat.degenerate


def test_stat_single_value_is_degenerate():
    stat = TREStat.from_values([4.5])
    assert (stat.mean, stat.std) == (4.5, 0.0)
    assert stat.degenerate


def test_stat_fields_are_its_numbers_only():
    # degenerate follows from per_case, so no caller can set it against them
    assert [f.name for f in dataclasses.fields(TREStat)] == ["mean", "std", "per_case"]
    assert TREStat(mean=1.0, std=0.0, per_case=(1.0,)).degenerate


def test_stat_empty_rejected():
    with pytest.raises(InsufficientSampleError):
        TREStat.from_values([])


@pytest.mark.parametrize("values", [[1.0, np.inf], [np.nan, 2.0], [1e308, 1e308], [1e200, 0.0]])
def test_stat_rejects_non_finite_summary(values):
    # an infinite or NaN distance, a mean that overflows, a std that overflows
    with pytest.raises(DegenerateConfigurationError, match="overflows"):
        TREStat.from_values(values)


@pytest.mark.parametrize("values", [["a"], [None], [True], [[1.0, 2.0]], 3.0], ids=repr)
def test_stat_values_must_be_a_real_array(values):
    with pytest.raises(InvalidParameterError, match="TRE values"):
        TREStat.from_values(values)


def test_stat_format():
    assert str(TREStat.from_values([1.0, 2.0])) == "1.500 ± 0.707 mm"


def test_tre_identity_on_aligned_sets():
    ps = PointSet(TETRA)
    stat = tre(AffineMatrix.identity(), ps, ps)
    assert (stat.mean, stat.std) == (0.0, 0.0)


def test_tre_three_four_five_offset():
    moving = PointSet(TETRA)
    fixed = PointSet(TETRA + np.array([3.0, 4.0, 0.0]))
    stat = tre(AffineMatrix.identity(), moving, fixed)
    assert abs(stat.mean - 5.0) < 1e-12
    assert stat.std == 0.0


def test_tre_matches_per_point_distances():
    rng = np.random.default_rng(3)
    moving = rng.uniform(-20, 20, size=(5, 3))
    fixed = rng.uniform(-20, 20, size=(5, 3))
    matrix = compose(AffineParams9((1, 2, -3), (0.1, 0.2, -0.1), (1.2, 0.9, 1.0)))
    stat = tre(matrix, PointSet(moving), PointSet(fixed))
    moved = transform_array(matrix, moving)
    expected = [float(np.linalg.norm(fixed[i] - moved[i])) for i in range(5)]
    assert np.allclose(stat.per_case, expected, atol=1e-12)
    assert stat.mean == pytest.approx(np.mean(expected))


def test_tre_size_mismatch():
    with pytest.raises(CorrespondenceError):
        tre(AffineMatrix.identity(), PointSet(TETRA), PointSet(TETRA[:2]))


def test_incomplete_beta_matches_reference():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.5, 30.0))
        b = float(rng.uniform(0.5, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        got = evaluate._incomplete_beta(a, b, x)
        want = float(scipy.special.betainc(a, b, x))
        worst = max(worst, abs(got - want))
    assert worst < 1e-10
    assert evaluate._incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert evaluate._incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_incomplete_beta_non_convergence_is_a_library_error():
    with pytest.raises(ConvergenceError) as info:
        evaluate._incomplete_beta(1e6, 1e6, 0.5)
    assert info.value.exit_code == 5


def _weyl_samples():
    a = [(i * 0.618033988749895) % 1.0 for i in range(1000)]
    b = [(i * 0.414213562373095) % 1.0 + 0.01 for i in range(1000)]
    return a, b


# exact (t, p) of the continued-fraction implementation, so a rewrite of it
# that changes any bit shows here
@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.0, 2.5], [0.5, 1.25], (2.3333333333333335, 0.25776211681831307)),
        (*_weyl_samples(), (-0.7530556989662252, 0.4515938658115606)),
        ([3.0, 1.0], [2.0, 2.0], (0.0, 1.0)),
    ],
    ids=["n=2", "n=1000", "t=0"],
)
def test_paired_ttest_pinned_floats(a, b, expected):
    assert paired_ttest(a, b) == expected


def test_paired_ttest_matches_reference():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        a = rng.normal(5.0, 2.0, size=n)
        b = a + rng.normal(0.3, 1.0, size=n)
        t, p = paired_ttest(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert abs(t - ref.statistic) < 1e-10
        assert abs(p - ref.pvalue) < 1e-10


def test_paired_ttest_antisymmetric():
    a = [1.0, 2.5, 3.0, 4.5, 5.0]
    b = [0.5, 2.7, 2.1, 4.9, 4.0]
    t_ab, p_ab = paired_ttest(a, b)
    t_ba, p_ba = paired_ttest(b, a)
    assert t_ab == -t_ba
    assert p_ab == p_ba


def test_paired_ttest_degenerate_inputs():
    with pytest.raises(DegenerateTestError):
        paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateTestError):
        paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InsufficientSampleError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(CorrespondenceError):
        paired_ttest([1.0, 2.0], [1.0])
    # differences whose spread overflows the float range
    with pytest.raises(DegenerateTestError):
        paired_ttest([1e308, -1e308], [0.0, 0.0])


@pytest.mark.parametrize(
    "a, b, sample",
    [
        (["a", "b"], [1, 2], "sample a"),
        ([math.inf, 1, 2], [1, 2, 3], "sample a"),
        ([math.nan, 1, 2], [1, 2, 3], "sample a"),
        ([True, False], [1, 2], "sample a"),
        ([1, 2], [None, 2], "sample b"),
    ],
    ids=repr,
)
def test_paired_ttest_samples_must_be_finite_reals(a, b, sample):
    with pytest.raises(InvalidParameterError, match=sample):
        paired_ttest(a, b)


@pytest.mark.parametrize("given", ["moving_eval", "fixed_eval"])
def test_eval_case_takes_both_holdout_sets_or_neither(given):
    ps = PointSet(TETRA)
    with pytest.raises(InvalidParameterError, match=f"got {given} only"):
        EvalCase(case_id="c0", moving=ps, fixed=ps, **{given: ps})


@pytest.mark.parametrize("pair", ["fit", "holdout"])
def test_eval_case_refuses_pairs_that_do_not_correspond(pair):
    named = PointSet(TETRA, names=("p0", "p1", "p2", "p3"))
    swapped = PointSet(TETRA[[1, 0, 2, 3]], names=("p1", "p0", "p2", "p3"))
    pairs = {"moving": named, "fixed": swapped if pair == "fit" else named}
    if pair == "holdout":
        pairs.update(moving_eval=named, fixed_eval=PointSet(TETRA[:3]))
    message = "landmark names disagree" if pair == "fit" else "point sets differ in size"
    with pytest.raises(CorrespondenceError, match=rf"^\[case c0\] {message}: "):
        EvalCase(case_id="c0", **pairs)


def test_methods_registry_runs_in_the_default_order():
    assert list(METHODS) == ["identity", "umeyama", "umeyama+refine"]
    case = generate_cases(6, 1, SynthConfig(scale_mode="nonuniform"))[0]
    config = RefineConfig(iterations=200)
    expected = compose(refine(decompose(umeyama_fit(case.moving, case.fixed)), case.moving, case.fixed, config).params)
    assert np.array_equal(refined_fit(case.moving, case.fixed, config).matrix, expected.matrix)
    assert np.array_equal(METHODS["identity"](case.moving, case.fixed).matrix, np.eye(4))


def test_tre_refuses_reordered_names():
    moving = PointSet(TETRA, names=("p0", "p1", "p2", "p3"))
    fixed = PointSet(TETRA[[0, 2, 1, 3]], names=("p0", "p2", "p1", "p3"))
    with pytest.raises(CorrespondenceError, match="^landmark names disagree: "):
        tre(AffineMatrix.identity(), moving, fixed)


def aligned_case(case_id="c0"):
    ps = PointSet(TETRA)
    return EvalCase(case_id=case_id, moving=ps, fixed=ps)


def test_compare_single_identity_case():
    table = compare_methods([aligned_case()], {"identity": METHODS["identity"]})
    stat = table.fit["identity"]
    assert (stat.mean, stat.std) == (0.0, 0.0)
    # the method names and the case count follow from fit, so they cannot disagree with it
    assert [f.name for f in dataclasses.fields(MethodComparison)] == ["fit", "holdout", "reports", "ttests"]
    assert (table.methods, table.n_cases) == (("identity",), 1)
    assert table.reports[0].case_id == "c0"
    assert table.ttests == {}


def test_compare_identity_vs_umeyama_on_similarity_cases():
    cases = generate_cases(2, 4, SynthConfig())
    table = compare_methods(cases, {name: METHODS[name] for name in ("identity", "umeyama")})
    assert table.fit["umeyama"].mean < 1e-9
    assert table.fit["identity"].mean > 1.0
    assert ("identity", "umeyama") in table.ttests
    assert table.holdout["umeyama"].mean < 1e-9


def test_compare_refinement_improves_nonuniform_cases():
    cfg = SynthConfig(scale_mode="nonuniform")
    cases = generate_cases(6, 4, cfg)
    refined = functools.partial(refined_fit, config=RefineConfig(iterations=3000))
    table = compare_methods(cases, {"umeyama": METHODS["umeyama"], "umeyama+refine": refined})
    assert table.fit["umeyama+refine"].mean < table.fit["umeyama"].mean


def test_compare_annotates_errors_with_case_id():
    bad = EvalCase(
        case_id="broken",
        moving=PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])),
        fixed=PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])),
    )
    with pytest.raises(DegenerateConfigurationError, match="broken"):
        compare_methods([bad], {"umeyama": METHODS["umeyama"]})


@pytest.fixture
def several_cpus(monkeypatch):
    """Pretend four usable CPUs, so cohorts of two or more cases run on forked workers."""
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 4)


def failing_at_last(case_ids, error):
    """Aligned cases with ``case_ids`` and a method that raises ``error`` on the last one only."""
    cases = [aligned_case(case_id) for case_id in case_ids]
    last = cases[-1].fixed

    def fit(moving, fixed):
        if fixed is last:
            raise error()
        return AffineMatrix.identity()

    return cases, fit


# One case runs in this process; in three, the last fails in a forked worker.
COHORTS = pytest.mark.parametrize("case_ids", [["c7"], ["c0", "c1", "c7"]], ids=["one-case", "three-cases"])


@COHORTS
def test_compare_keeps_error_class_and_attributes(case_ids, several_cpus):
    cases, diverging = failing_at_last(case_ids, lambda: DivergenceError("boom", iteration=7))

    with pytest.raises(DivergenceError) as info:
        compare_methods(cases, {"diverging": diverging})
    assert info.value.iteration == 7
    assert str(info.value) == "[case c7, method diverging] boom"


@COHORTS
def test_compare_lets_foreign_errors_propagate_untouched(case_ids, several_cpus):
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    cases, broken = failing_at_last(case_ids, lambda: original)

    with pytest.raises(UnicodeDecodeError) as info:
        compare_methods(cases, {"broken": broken})
    assert info.value is original


def test_compare_raises_the_earliest_failing_case(several_cpus):
    cases = [aligned_case(f"c{i}") for i in range(4)]
    failing = {id(cases[1].fixed): 1, id(cases[2].fixed): 2}

    def diverging(moving, fixed):
        if id(fixed) in failing:
            raise DivergenceError("boom", iteration=failing[id(fixed)])
        return AffineMatrix.identity()

    with pytest.raises(DivergenceError) as info:
        compare_methods(cases, {"diverging": diverging})
    assert info.value.iteration == 1
    assert str(info.value) == "[case c1, method diverging] boom"


def test_compare_recovers_a_case_that_fails_only_in_a_worker(several_cpus):
    cases = [aligned_case(f"c{i}") for i in range(3)]
    parent = os.getpid()

    def flaky(moving, fixed):
        if os.getpid() != parent and fixed is cases[1].fixed:
            raise MemoryError
        return AffineMatrix.identity()

    table = compare_methods(cases, {"flaky": flaky})
    assert [report.case_id for report in table.reports] == ["c0", "c1", "c2"]


def test_compare_reports_a_dead_worker(several_cpus):
    parent = os.getpid()

    def dying(moving, fixed):
        if os.getpid() != parent:
            os._exit(1)
        return AffineMatrix.identity()

    with pytest.raises(BrokenProcessPool):
        compare_methods([aligned_case("a"), aligned_case("b")], {"dying": dying})


def test_compare_forked_workers_equal_one_worker(monkeypatch):
    cfg = SynthConfig(scale_mode="nonuniform", noise_sigma=1.0)
    cases = generate_cases(11, 6, cfg)
    methods = {**METHODS, "umeyama+refine": functools.partial(refined_fit, config=RefineConfig(iterations=500))}
    forked_calls = []
    run_forked = evaluate._run_leading_cases_forked

    def spy(*args):
        forked_calls.append(run_forked(*args))
        return forked_calls[-1]

    monkeypatch.setattr(evaluate, "_run_leading_cases_forked", spy)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 3)
    forked = compare_methods(cases, methods)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
    serial = compare_methods(cases, methods)

    assert [len(done) for done in forked_calls] == [len(cases)]
    assert len(forked.reports) == len(serial.reports) == len(cases) * len(methods)
    for a, b in zip(forked.reports, serial.reports):
        assert (a.case_id, a.method) == (b.case_id, b.method)
        assert np.array_equal(a.transform.matrix, b.transform.matrix)
        assert not a.transform.matrix.flags.writeable
        assert (a.fit_tre, a.holdout_tre) == (b.fit_tre, b.holdout_tre)
    assert forked.ttests == serial.ttests
    assert forked.to_csv() == serial.to_csv()
    assert forked.to_text() == serial.to_text()


def test_compare_requires_cases():
    with pytest.raises(InsufficientSampleError):
        compare_methods([], {"identity": METHODS["identity"]})


def test_compare_requires_methods():
    with pytest.raises(InsufficientSampleError, match="^compare_methods needs at least one method$"):
        compare_methods([aligned_case()], {})


def test_compare_one_case_text_names_the_case_count():
    table = compare_methods([aligned_case()], {name: METHODS[name] for name in ("identity", "umeyama")})
    assert table.ttests == {("identity", "umeyama"): None}
    assert table.to_text().endswith("\nidentity vs umeyama: needs at least 2 cases\n")


def test_compare_degenerate_ttest_recorded_as_none():
    cases = [aligned_case("a"), aligned_case("b")]
    table = compare_methods(cases, {name: METHODS[name] for name in ("identity", "umeyama")})
    # both methods are exact on aligned data, so differences are all zero
    assert table.ttests[("identity", "umeyama")] is None
    assert table.to_text().endswith("\nidentity vs umeyama: degenerate (zero-variance differences)\n")


def test_compare_csv_and_text_output():
    cases = generate_cases(4, 3, SynthConfig())
    table = compare_methods(cases, {name: METHODS[name] for name in ("identity", "umeyama")})
    rows = [line.split(",") for line in table.to_csv().splitlines()]
    assert rows[0] == ["method", "mean_mm", "std_mm", "n_cases"]
    assert rows[1:] == [[name, repr(stat.mean), repr(stat.std), "3"] for name, stat in table.fit.items()]
    assert [name for name, *_ in rows[1:]] == ["identity", "umeyama"]

    # 3 decimals in the table, so the text does not hang on last-bit rounding
    assert table.to_text() == (
        "registration performance over 3 case(s); TRE in mm\n"
        "method    fitting landmarks   hold-out landmarks\n"
        "identity  12.276 ± 4.471 mm    12.033 ± 7.645 mm\n"
        "umeyama    0.000 ± 0.000 mm     0.000 ± 0.000 mm\n"
        "\n"
        "paired t tests on per-case mean TRE (fitting landmarks)\n"
        "identity vs umeyama: t = 4.756, p = 0.0415\n"
    )


def test_compare_skips_holdout_when_any_case_lacks_it():
    with_holdout = generate_cases(5, 1, SynthConfig())[0]
    table = compare_methods([with_holdout, aligned_case()], {"identity": METHODS["identity"]})
    assert table.holdout == {}
