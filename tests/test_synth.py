"""Seeded synthetic case generation and its on-disk layout."""

import dataclasses

import numpy as np
import pytest

from landreg.core import compose, transform_array
from landreg.errors import FormatError, InvalidParameterError
from landreg.evaluate import EvalCase
from landreg.synth import (
    BOX_MM,
    MAX_CASES,
    R_MAX,
    SCALE_MAX,
    SCALE_MIN,
    T_MAX,
    SynthConfig,
    generate_case,
    generate_cases,
    load_cases,
    save_cases,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_fit": 2},
        {"n_holdout": -1},
        {"noise_sigma": -0.5},
        {"scale_mode": "fancy"},
        # counts whose (n, 3) float64 array numpy cannot shape
        {"n_fit": 10**400},
        {"n_holdout": 10**400},
        {"n_fit": 10**18},
        {"n_holdout": np.int64(10**18)},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
        SynthConfig(**kwargs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SynthConfig(n_fit=3.5),
        lambda: SynthConfig(n_fit=4.0),
        lambda: SynthConfig(n_holdout=True),
        lambda: SynthConfig(n_holdout=1.5),
        lambda: generate_cases(1.5, 1),
        lambda: generate_cases(1, 1.5),
        lambda: generate_cases(1, True),
        lambda: generate_case(1, 0.0),
    ],
    ids=["n_fit=3.5", "n_fit=4.0", "n_holdout=True", "n_holdout=1.5", "seed=1.5", "n_cases=1.5", "n_cases=True",
         "case_index=0.0"],
)
def test_counts_and_seeds_must_be_integers(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize(
    "kwargs", [{"noise_sigma": "0"}, {"noise_sigma": True}, {"noise_sigma": None}], ids=repr
)
def test_ranges_must_be_real_numbers(kwargs):
    with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
        SynthConfig(**kwargs)


def test_counts_and_seeds_may_be_numpy_integers(tmp_path):
    config = SynthConfig(n_fit=np.int64(5), n_holdout=np.int32(2))
    assert config == SynthConfig(n_fit=5, n_holdout=2)
    cases = generate_cases(np.int64(12), np.int64(1), config)
    assert np.array_equal(cases[0].fixed.coords, generate_case(12, 0, config).fixed.coords)
    save_cases(cases, tmp_path, config)  # the manifest holds them as JSON integers
    assert [len(case.moving) for case in load_cases(tmp_path)] == [5]


def test_case_count_is_bounded_so_ids_sort_in_generation_order():
    assert MAX_CASES == 1000
    assert generate_case(0, MAX_CASES - 1).case_id == "case_999"
    with pytest.raises(InvalidParameterError, match="n_cases must be at most 1000"):
        generate_cases(0, MAX_CASES + 1)
    with pytest.raises(InvalidParameterError, match="n_cases must be at most 1000"):
        generate_cases(0, 10**400)
    with pytest.raises(InvalidParameterError, match="case_index must be at most 999"):
        generate_case(0, MAX_CASES)


def test_generation_is_deterministic():
    a = generate_case(12, 3)
    b = generate_case(12, 3)
    assert np.array_equal(a.moving.coords, b.moving.coords)
    assert np.array_equal(a.fixed.coords, b.fixed.coords)
    assert a.generator == b.generator


def test_cases_are_independent_of_batch_size():
    alone = generate_case(9, 3)
    batch = generate_cases(9, 5)
    assert np.array_equal(alone.moving.coords, batch[3].moving.coords)
    assert alone.generator == batch[3].generator


def test_negative_seed_rejected():
    with pytest.raises(InvalidParameterError):
        generate_case(-1, 0)
    with pytest.raises(InvalidParameterError):
        generate_cases(1, 0)


def test_noise_free_fixed_is_exactly_transformed_moving():
    case = generate_case(4, 0)
    matrix = compose(case.generator)
    assert np.array_equal(case.fixed.coords, transform_array(matrix, case.moving.coords))
    assert np.array_equal(case.fixed_eval.coords, transform_array(matrix, case.moving_eval.coords))


def test_noise_perturbs_fixed_points():
    clean = generate_case(4, 0, SynthConfig(noise_sigma=0.0))
    noisy = generate_case(4, 0, SynthConfig(noise_sigma=1.0))
    matrix = compose(noisy.generator)
    residual = noisy.fixed.coords - transform_array(matrix, noisy.moving.coords)
    assert np.all(residual != 0.0)
    assert np.abs(residual).max() < 6.0  # a 6-sigma excursion would be absurd
    assert np.array_equal(clean.moving.coords, noisy.moving.coords)


def test_scale_modes():
    uniform = generate_case(5, 0, SynthConfig(scale_mode="uniform"))
    assert uniform.generator.s[0] == uniform.generator.s[1] == uniform.generator.s[2]

    nonuniform = generate_case(5, 0, SynthConfig(scale_mode="nonuniform"))
    assert len(set(nonuniform.generator.s)) == 3


def test_generator_ranges_respected():
    for index in range(20):
        case = generate_case(6, index)
        assert all(abs(v) <= 10.0 for v in case.generator.t)
        assert all(abs(v) <= 0.3 for v in case.generator.r)
        assert all(0.8 <= v <= 1.25 for v in case.generator.s)
        assert np.abs(case.moving.coords).max() <= 25.0


def test_config_holds_only_what_callers_vary():
    assert [f.name for f in dataclasses.fields(SynthConfig)] == ["n_fit", "n_holdout", "noise_sigma", "scale_mode"]
    assert (BOX_MM, T_MAX, R_MAX, SCALE_MIN, SCALE_MAX) == (50.0, 10.0, 0.3, 0.8, 1.25)


def test_synthetic_case_is_an_eval_case():
    case = generate_case(1, 0)
    assert isinstance(case, EvalCase)
    assert (case.case_id, case.seed, case.noise_sigma) == ("case_000", 1, 0.0)
    with pytest.raises(InvalidParameterError, match="fixed_eval"):
        dataclasses.replace(case, moving_eval=None)


def test_point_names_and_counts():
    case = generate_case(2, 0, SynthConfig(n_fit=5, n_holdout=2))
    assert case.moving.names == ("p0", "p1", "p2", "p3", "p4")
    assert case.fixed.names == case.moving.names
    assert case.moving_eval.names == ("h0", "h1")
    assert len(case.fixed_eval) == 2


def test_no_holdout_config():
    case = generate_case(2, 0, SynthConfig(n_holdout=0))
    assert case.moving_eval is None
    assert case.fixed_eval is None


def test_moving_cloud_is_well_conditioned():
    for index in range(50):
        case = generate_case(1, index)
        pts = case.moving.coords
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        assert sv[-1] >= 0.05 * sv[0]


def test_save_load_round_trip(tmp_path):
    config = SynthConfig(noise_sigma=0.5)
    cases = generate_cases(8, 3, config)
    save_cases(cases, tmp_path, config)

    loaded = load_cases(tmp_path)
    assert [c.case_id for c in loaded] == ["case_000", "case_001", "case_002"]
    for src, back in zip(cases, loaded):
        assert np.array_equal(back.moving.coords, src.moving.coords)
        assert np.array_equal(back.fixed.coords, src.fixed.coords)
        assert np.array_equal(back.moving_eval.coords, src.moving_eval.coords)
        assert np.array_equal(back.fixed_eval.coords, src.fixed_eval.coords)
    assert (tmp_path / "manifest.json").exists()


# save_cases(generate_cases(3, 1, config), ...) for the config below, as written
# by the release before outputs were rewritten in place
GOLDEN_MANIFEST = """{
  "seed": 3,
  "n_cases": 1,
  "config": {
    "n_fit": 4,
    "n_holdout": 1,
    "box_mm": 50.0,
    "t_max": 10.0,
    "r_max": 0.3,
    "scale_min": 0.8,
    "scale_max": 1.25,
    "noise_sigma": 0.5,
    "scale_mode": "nonuniform"
  },
  "cases": [
    {
      "case_id": "case_000",
      "generator": {
        "t": [
          9.125345096721972,
          -4.315976725024171,
          2.970944141596501
        ],
        "r": [
          0.11772959800209326,
          -0.12436755059250773,
          -0.2991059498946983
        ],
        "s": [
          1.2380571236448858,
          0.934280550357594,
          0.9412937009154516
        ]
      },
      "noise_sigma": 0.5
    }
  ]
}
"""


def test_manifest_bytes_are_unchanged(tmp_path):
    config = SynthConfig(n_fit=4, n_holdout=1, noise_sigma=0.5, scale_mode="nonuniform")
    save_cases(generate_cases(3, 1, config), tmp_path, config)
    assert (tmp_path / "manifest.json").read_bytes() == GOLDEN_MANIFEST.encode("utf-8")


def test_save_is_byte_deterministic(tmp_path):
    config = SynthConfig()
    first = tmp_path / "a"
    second = tmp_path / "b"
    save_cases(generate_cases(3, 2, config), first, config)
    save_cases(generate_cases(3, 2, config), second, config)
    for rel in ("manifest.json", "case_000/moving.csv", "case_001/fixed_eval.csv"):
        assert (first / rel).read_bytes() == (second / rel).read_bytes()


def test_load_requires_cases(tmp_path):
    with pytest.raises(FormatError):
        load_cases(tmp_path)


def test_load_reads_only_case_directories(tmp_path):
    config = SynthConfig()
    save_cases(generate_cases(1, 2, config), tmp_path, config)
    for stray in ("backup", "notes"):
        (tmp_path / stray).mkdir()
        for name in ("moving.csv", "fixed.csv"):
            (tmp_path / stray / name).write_bytes((tmp_path / "case_000" / name).read_bytes())
    assert [case.case_id for case in load_cases(tmp_path)] == ["case_000", "case_001"]


def test_load_skips_holdout_when_files_missing(tmp_path):
    config = SynthConfig()
    save_cases(generate_cases(1, 1, config), tmp_path, config)
    (tmp_path / "case_000" / "moving_eval.csv").unlink()
    (tmp_path / "case_000" / "fixed_eval.csv").unlink()
    loaded = load_cases(tmp_path)
    assert loaded[0].moving_eval is None
    assert loaded[0].fixed_eval is None


@pytest.mark.parametrize("dropped", ["moving_eval.csv", "fixed_eval.csv"])
def test_load_refuses_half_a_holdout_pair(tmp_path, dropped):
    config = SynthConfig()
    save_cases(generate_cases(1, 2, config), tmp_path, config)
    (tmp_path / "case_001" / dropped).unlink()
    with pytest.raises(FormatError, match="case_001: hold-out landmarks need moving_eval and fixed_eval"):
        load_cases(tmp_path)


def test_save_refuses_stale_case_directories_before_writing(tmp_path):
    config = SynthConfig()
    save_cases(generate_cases(1, 5, config), tmp_path, config)
    manifest = (tmp_path / "manifest.json").read_bytes()
    first = (tmp_path / "case_000" / "fixed.csv").read_bytes()
    with pytest.raises(FormatError, match="case_003, case_004$"):
        save_cases(generate_cases(2, 3, config), tmp_path, config)
    assert (tmp_path / "manifest.json").read_bytes() == manifest
    assert (tmp_path / "case_000" / "fixed.csv").read_bytes() == first
    # the same count or more rewrites every stale case
    save_cases(generate_cases(2, 5, config), tmp_path, config)
    save_cases(generate_cases(3, 6, config), tmp_path, config)
    assert [case.case_id for case in load_cases(tmp_path)] == [f"case_{i:03d}" for i in range(6)]
