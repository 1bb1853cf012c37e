"""Seeded synthetic registration cases.

Each case draws a moving landmark cloud in a box, applies a random
nine-parameter transform to produce the fixed cloud, and optionally adds
Gaussian localization noise to the fixed side. Hold-out landmarks go
through the same transform but are kept apart from fitting. Everything
derives from one integer seed, so identical arguments reproduce
identical cases byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import AffineParams9, PointSet, compose, require_integer, transform_array
from .errors import DegenerateConfigurationError, FormatError, InvalidParameterError
from .evaluate import EvalCase
from .fileio import read_points, write_points

SCALE_MODES = ("uniform", "nonuniform")

# reject nearly flat landmark clouds: smallest/largest singular value of the
# centered cloud must stay above this
_CONDITIONING_FLOOR = 0.05
_MAX_DRAWS = 100


@dataclass(frozen=True)
class SynthConfig:
    """Ranges for the synthetic generator; defaults suit organ-scale anatomy in mm."""

    n_fit: int = 4
    n_holdout: int = 1
    box_mm: float = 50.0
    t_max: float = 10.0
    r_max: float = 0.3
    scale_min: float = 0.8
    scale_max: float = 1.25
    noise_sigma: float = 0.0
    scale_mode: str = "uniform"

    def __post_init__(self) -> None:
        for name in ("box_mm", "t_max", "r_max", "scale_min", "scale_max", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "n_fit", require_integer(self.n_fit, "n_fit", 3))
        object.__setattr__(self, "n_holdout", require_integer(self.n_holdout, "n_holdout", 0))
        if not self.box_mm > 0:
            raise InvalidParameterError(f"box_mm must be positive, got {self.box_mm}")
        if self.t_max < 0 or self.r_max < 0:
            raise InvalidParameterError("t_max and r_max must be non-negative")
        # the generator draws over [-max, max], whose width must be a float
        if not np.isfinite(2.0 * max(self.t_max, self.r_max)):
            raise InvalidParameterError(
                f"t_max and r_max must not exceed half the float range, got {self.t_max} and {self.r_max}"
            )
        if not 0 < self.scale_min <= self.scale_max:
            raise InvalidParameterError(
                f"need 0 < scale_min <= scale_max, got [{self.scale_min}, {self.scale_max}]"
            )
        if self.noise_sigma < 0:
            raise InvalidParameterError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.scale_mode not in SCALE_MODES:
            raise InvalidParameterError(
                f"scale_mode must be one of {SCALE_MODES}, got {self.scale_mode!r}"
            )


@dataclass(frozen=True)
class SyntheticCase:
    """One generated case with its ground-truth transform."""

    case_id: str
    moving: PointSet
    fixed: PointSet
    moving_eval: PointSet | None
    fixed_eval: PointSet | None
    generator: AffineParams9
    noise_sigma: float
    seed: int

    def as_eval_case(self) -> EvalCase:
        return EvalCase(
            case_id=self.case_id,
            moving=self.moving,
            fixed=self.fixed,
            moving_eval=self.moving_eval,
            fixed_eval=self.fixed_eval,
        )


def _draw_cloud(rng: np.random.Generator, n: int, box_mm: float) -> np.ndarray:
    half = 0.5 * box_mm
    for _ in range(_MAX_DRAWS):
        pts = rng.uniform(-half, half, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[0] > 0 and sv[-1] >= _CONDITIONING_FLOOR * sv[0]:
            return pts
    raise DegenerateConfigurationError(
        f"failed to draw a well-conditioned {n}-point cloud in {_MAX_DRAWS} attempts"
    )


def _draw_generator(rng: np.random.Generator, config: SynthConfig) -> AffineParams9:
    t = rng.uniform(-config.t_max, config.t_max, size=3)
    r = rng.uniform(-config.r_max, config.r_max, size=3)
    if config.scale_mode == "uniform":
        s = np.full(3, rng.uniform(config.scale_min, config.scale_max))
    else:
        s = rng.uniform(config.scale_min, config.scale_max, size=3)
    return AffineParams9(t=tuple(t), r=tuple(r), s=tuple(s))


def _add_noise(rng: np.random.Generator, points: np.ndarray, sigma: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        noisy = points + rng.normal(0.0, sigma, size=points.shape)
    # points that overflowed before the noise are PointSet's to reject
    if np.isfinite(points).all() and not np.isfinite(noisy).all():
        raise InvalidParameterError(
            f"noise_sigma {sigma} puts landmark coordinates outside the float range"
        )
    return noisy


def generate_case(seed: int, case_index: int, config: SynthConfig | None = None) -> SyntheticCase:
    """Generate case ``case_index`` of the stream identified by ``seed``.

    Cases are independent: each draws its randomness from
    ``SeedSequence([seed, case_index])``, so a case does not change when
    its neighbors do.
    """
    seed = require_integer(seed, "seed", 0)
    case_index = require_integer(case_index, "case_index", 0)
    cfg = config if config is not None else SynthConfig()
    rng = np.random.default_rng(np.random.SeedSequence([seed, case_index]))

    moving_fit = _draw_cloud(rng, cfg.n_fit, cfg.box_mm)
    half = 0.5 * cfg.box_mm
    moving_hold = rng.uniform(-half, half, size=(cfg.n_holdout, 3))
    generator = _draw_generator(rng, cfg)
    matrix = compose(generator)

    fixed_fit = _add_noise(rng, transform_array(matrix, moving_fit), cfg.noise_sigma)
    fixed_hold = (
        _add_noise(rng, transform_array(matrix, moving_hold), cfg.noise_sigma) if cfg.n_holdout else None
    )

    fit_names = tuple(f"p{i}" for i in range(cfg.n_fit))
    hold_names = tuple(f"h{i}" for i in range(cfg.n_holdout))
    return SyntheticCase(
        case_id=f"case_{case_index:03d}",
        moving=PointSet(moving_fit, names=fit_names),
        fixed=PointSet(fixed_fit, names=fit_names),
        moving_eval=PointSet(moving_hold, names=hold_names) if cfg.n_holdout else None,
        fixed_eval=PointSet(fixed_hold, names=hold_names) if fixed_hold is not None else None,
        generator=generator,
        noise_sigma=cfg.noise_sigma,
        seed=seed,
    )


def generate_cases(seed: int, n_cases: int, config: SynthConfig | None = None) -> list[SyntheticCase]:
    return [generate_case(seed, i, config) for i in range(require_integer(n_cases, "n_cases", 1))]


def save_cases(cases: list[SyntheticCase], out_dir: str | os.PathLike, config: SynthConfig) -> None:
    """Write one subdirectory per case plus a manifest of generator truth.

    Layout: ``<out_dir>/case_000/{moving,fixed,moving_eval,fixed_eval}.csv``
    with the eval files present only when the case has hold-out points,
    and ``<out_dir>/manifest.json`` recording the config, seed, and the
    exact generator parameters of every case.
    """
    if not cases:
        raise InvalidParameterError("save_cases needs at least one case")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for case in cases:
        case_dir = os.path.join(out_dir, case.case_id)
        os.makedirs(case_dir, exist_ok=True)
        write_points(case.moving, os.path.join(case_dir, "moving.csv"))
        write_points(case.fixed, os.path.join(case_dir, "fixed.csv"))
        if case.moving_eval is not None and case.fixed_eval is not None:
            write_points(case.moving_eval, os.path.join(case_dir, "moving_eval.csv"))
            write_points(case.fixed_eval, os.path.join(case_dir, "fixed_eval.csv"))
        entries.append(
            {
                "case_id": case.case_id,
                "generator": {
                    "t": list(case.generator.t),
                    "r": list(case.generator.r),
                    "s": list(case.generator.s),
                },
                "noise_sigma": case.noise_sigma,
            }
        )
    manifest = {
        "seed": cases[0].seed,
        "n_cases": len(cases),
        "config": dataclasses.asdict(config),
        "cases": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_cases(case_dir: str | os.PathLike) -> list[EvalCase]:
    """Load every ``case_*`` subdirectory holding moving/fixed CSVs.

    Hold-out CSVs are optional per case. Cases come back sorted by
    directory name; a directory with no cases is a format error.
    """
    case_dir = os.fspath(case_dir)
    cases: list[EvalCase] = []
    for entry in sorted(os.listdir(case_dir)):
        sub = os.path.join(case_dir, entry)
        moving_path = os.path.join(sub, "moving.csv")
        fixed_path = os.path.join(sub, "fixed.csv")
        if not (os.path.isdir(sub) and os.path.isfile(moving_path) and os.path.isfile(fixed_path)):
            continue
        moving_eval = fixed_eval = None
        me_path = os.path.join(sub, "moving_eval.csv")
        fe_path = os.path.join(sub, "fixed_eval.csv")
        if os.path.isfile(me_path) and os.path.isfile(fe_path):
            moving_eval = read_points(me_path)
            fixed_eval = read_points(fe_path)
        cases.append(
            EvalCase(
                case_id=entry,
                moving=read_points(moving_path),
                fixed=read_points(fixed_path),
                moving_eval=moving_eval,
                fixed_eval=fixed_eval,
            )
        )
    if not cases:
        raise FormatError(f"{case_dir}: no case subdirectories with moving.csv and fixed.csv")
    return cases
