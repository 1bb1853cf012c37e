"""Seeded synthetic registration cases.

Each case draws a moving landmark cloud in a box, applies a random
nine-parameter transform to produce the fixed cloud, and optionally adds
Gaussian localization noise to the fixed side. Hold-out landmarks go
through the same transform but are kept apart from fitting. Everything
derives from one integer seed, so identical arguments reproduce
identical cases byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .core import AffineParams9, PointSet, compose, require_integer, require_real, transform_array
from .errors import DegenerateConfigurationError, FormatError, InvalidParameterError
from .evaluate import EvalCase
from .fileio import read_points, write_file, write_points

SCALE_MODES = ("uniform", "nonuniform")

# generator ranges, suited to organ-scale anatomy in mm: landmarks fill a
# BOX_MM cube centered on the origin; each translation and rotation
# component is drawn from [-T_MAX, T_MAX] mm and [-R_MAX, R_MAX] rad, each
# scale from [SCALE_MIN, SCALE_MAX]
BOX_MM = 50.0
T_MAX = 10.0
R_MAX = 0.3
SCALE_MIN = 0.8
SCALE_MAX = 1.25

# case ids run case_000 ... case_999, so their names sort in generation order;
# the case directories save_cases writes and load_cases reads carry the prefix
CASE_PREFIX = "case_"
MAX_CASES = 1000

# the largest landmark count whose (n, 3) float64 array numpy can shape
_MAX_POINTS = np.iinfo(np.intp).max // (3 * np.dtype(float).itemsize)

# reject nearly flat landmark clouds: smallest/largest singular value of the
# centered cloud must stay above this
_CONDITIONING_FLOOR = 0.05
_MAX_DRAWS = 100


@dataclass(frozen=True)
class SynthConfig:
    """Landmark counts, noise and scale mode for the synthetic generator."""

    n_fit: int = 4
    n_holdout: int = 1
    noise_sigma: float = 0.0
    scale_mode: str = "uniform"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_fit", require_integer(self.n_fit, "n_fit", 3, _MAX_POINTS))
        object.__setattr__(self, "n_holdout", require_integer(self.n_holdout, "n_holdout", 0, _MAX_POINTS))
        object.__setattr__(self, "noise_sigma", require_real(self.noise_sigma, "noise_sigma"))
        if self.noise_sigma < 0:
            raise InvalidParameterError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.scale_mode not in SCALE_MODES:
            raise InvalidParameterError(
                f"scale_mode must be one of {SCALE_MODES}, got {self.scale_mode!r}"
            )


@dataclass(frozen=True, kw_only=True)
class SyntheticCase(EvalCase):
    """A generated case: an :class:`EvalCase` plus the transform, noise and seed that produced it."""

    generator: AffineParams9
    noise_sigma: float
    seed: int


def _draw_cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    half = 0.5 * BOX_MM
    for _ in range(_MAX_DRAWS):
        pts = rng.uniform(-half, half, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[0] > 0 and sv[-1] >= _CONDITIONING_FLOOR * sv[0]:
            return pts
    raise DegenerateConfigurationError(
        f"failed to draw a well-conditioned {n}-point cloud in {_MAX_DRAWS} attempts"
    )


def _draw_generator(rng: np.random.Generator, scale_mode: str) -> AffineParams9:
    t = rng.uniform(-T_MAX, T_MAX, size=3)
    r = rng.uniform(-R_MAX, R_MAX, size=3)
    if scale_mode == "uniform":
        s = np.full(3, rng.uniform(SCALE_MIN, SCALE_MAX))
    else:
        s = rng.uniform(SCALE_MIN, SCALE_MAX, size=3)
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
    its neighbors do. ``case_index`` lies in [0, ``MAX_CASES`` - 1].
    """
    seed = require_integer(seed, "seed", 0)
    case_index = require_integer(case_index, "case_index", 0, MAX_CASES - 1)
    cfg = config if config is not None else SynthConfig()
    rng = np.random.default_rng(np.random.SeedSequence([seed, case_index]))

    moving_fit = _draw_cloud(rng, cfg.n_fit)
    half = 0.5 * BOX_MM
    moving_hold = rng.uniform(-half, half, size=(cfg.n_holdout, 3))
    generator = _draw_generator(rng, cfg.scale_mode)
    matrix = compose(generator)

    fixed_fit = _add_noise(rng, transform_array(matrix, moving_fit), cfg.noise_sigma)
    fixed_hold = (
        _add_noise(rng, transform_array(matrix, moving_hold), cfg.noise_sigma) if cfg.n_holdout else None
    )

    fit_names = tuple(f"p{i}" for i in range(cfg.n_fit))
    hold_names = tuple(f"h{i}" for i in range(cfg.n_holdout))
    return SyntheticCase(
        case_id=f"{CASE_PREFIX}{case_index:03d}",
        moving=PointSet(moving_fit, names=fit_names),
        fixed=PointSet(fixed_fit, names=fit_names),
        moving_eval=PointSet(moving_hold, names=hold_names) if cfg.n_holdout else None,
        fixed_eval=PointSet(fixed_hold, names=hold_names) if fixed_hold is not None else None,
        generator=generator,
        noise_sigma=cfg.noise_sigma,
        seed=seed,
    )


def generate_cases(seed: int, n_cases: int, config: SynthConfig | None = None) -> list[SyntheticCase]:
    """Cases 0 to ``n_cases`` - 1 of the stream ``seed``, with ``n_cases`` in [1, ``MAX_CASES``]."""
    return [generate_case(seed, i, config) for i in range(require_integer(n_cases, "n_cases", 1, MAX_CASES))]


def save_cases(cases: list[SyntheticCase], out_dir: str | os.PathLike, config: SynthConfig) -> None:
    """Write one subdirectory per case plus a manifest of generator truth.

    Layout: ``<out_dir>/case_000/{moving,fixed,moving_eval,fixed_eval}.csv``
    with the eval files present only when the case has hold-out points,
    and ``<out_dir>/manifest.json`` recording the config, seed, and the
    exact generator parameters of every case.

    An ``out_dir`` that already holds ``case_*`` directories this call does
    not write is a :class:`FormatError`, raised before anything is written:
    ``load_cases`` would mix those stale cases into the new ones.
    """
    if not cases:
        raise InvalidParameterError("save_cases needs at least one case")
    out_dir = os.fspath(out_dir)
    if os.path.isdir(out_dir):
        written = {case.case_id for case in cases}
        stale = sorted(
            entry for entry in os.listdir(out_dir)
            if entry.startswith(CASE_PREFIX) and entry not in written and os.path.isdir(os.path.join(out_dir, entry))
        )
        if stale:
            raise FormatError(f"{out_dir}: holds case directories this run does not write: {', '.join(stale)}")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for case in cases:
        case_dir = os.path.join(out_dir, case.case_id)
        os.makedirs(case_dir, exist_ok=True)
        write_points(case.moving, os.path.join(case_dir, "moving.csv"))
        write_points(case.fixed, os.path.join(case_dir, "fixed.csv"))
        if case.moving_eval is not None:
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
        # the ranges stay in the manifest, so it records every generator setting
        "config": {
            "n_fit": config.n_fit, "n_holdout": config.n_holdout,
            "box_mm": BOX_MM, "t_max": T_MAX, "r_max": R_MAX, "scale_min": SCALE_MIN, "scale_max": SCALE_MAX,
            "noise_sigma": config.noise_sigma, "scale_mode": config.scale_mode,
        },
        "cases": entries,
    }
    text = json.dumps(manifest, indent=2) + "\n"
    write_file(os.path.join(out_dir, "manifest.json"), text.encode("utf-8"))


def load_cases(case_dir: str | os.PathLike) -> list[EvalCase]:
    """Load every ``case_*`` subdirectory holding moving/fixed CSVs.

    Other entries are skipped, so a directory copied aside next to the
    cases (say ``backup/``) does not join the cohort. Hold-out CSVs are
    optional per case, but come as a pair: a case with one of
    ``moving_eval.csv`` and ``fixed_eval.csv`` is a format error naming its
    directory. Cases come back sorted by directory name; a directory with no
    cases is a format error.
    """
    case_dir = os.fspath(case_dir)
    cases: list[EvalCase] = []
    for entry in sorted(os.listdir(case_dir)):
        sub = os.path.join(case_dir, entry)
        moving_path = os.path.join(sub, "moving.csv")
        fixed_path = os.path.join(sub, "fixed.csv")
        if not (entry.startswith(CASE_PREFIX) and os.path.isdir(sub)
                and os.path.isfile(moving_path) and os.path.isfile(fixed_path)):
            continue
        me_path = os.path.join(sub, "moving_eval.csv")
        fe_path = os.path.join(sub, "fixed_eval.csv")
        moving_eval = read_points(me_path) if os.path.isfile(me_path) else None
        fixed_eval = read_points(fe_path) if os.path.isfile(fe_path) else None
        moving, fixed = read_points(moving_path), read_points(fixed_path)
        try:
            cases.append(EvalCase(entry, moving, fixed, moving_eval, fixed_eval))
        except InvalidParameterError as exc:
            raise FormatError(f"{sub}: {exc}") from exc
    if not cases:
        raise FormatError(f"{case_dir}: no case subdirectories with moving.csv and fixed.csv")
    return cases
