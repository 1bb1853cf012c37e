"""The three benchmark workloads: their inputs, their requests and their checks.

Inputs are drawn here from the run's seed with the benchmark's own numpy code
and written in the documented file formats, so they do not change when the
package's own generator or writers change. Every request is one or more
``landreg`` command lines run in-process. A round is the workload's fixed list
of requests; a run repeats the round until its time is up.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SPACING = (0.8, 0.8, 2.5)
ORIGIN = (-10.0, 5.0, 2.5)
NOISE_MM = 1.0
PAPER_ITERATIONS = 10_000
PAPER_STEP = 1e-5


@dataclass
class Request:
    """One user request: command lines run back to back, then checked.

    Every command but the last must exit 0 and the last must exit with
    ``expect``. ``outputs`` are the files whose bytes must repeat from round
    to round. ``check`` looks at the stdout of each command and the output
    files once, after the run, and returns a problem or None.
    """

    key: str
    argvs: list[list[str]]
    items: float
    expect: int = 0
    outputs: tuple[str, ...] = ()
    tag: dict = field(default_factory=dict)
    check: Callable[[list[str]], str | None] | None = None


# --- file formats, written and read without the package --------------------

def write_csv(path: str, coords: np.ndarray, prefix: str = "p") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,x,y,z\n")
        for i, (x, y, z) in enumerate(coords):
            fh.write(f"{prefix}{i},{float(x)!r},{float(y)!r},{float(z)!r}\n")


def read_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:] if line.strip()]
    return np.array([[float(v) for v in row[1:]] for row in rows])


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array(json.load(fh)["matrix"], dtype=float).reshape(4, 4)


def write_volume(path: str, data_zyx: np.ndarray) -> None:
    nz, ny, nx = data_zyx.shape
    raw = os.path.splitext(os.path.basename(path))[0] + ".raw"
    header = {"dims": [nx, ny, nz], "spacing": list(SPACING), "origin": list(ORIGIN),
              "dtype": "f32", "data": raw}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(header, fh)
    data_zyx.astype("<f4").tofile(os.path.join(os.path.dirname(path), raw))


def read_volume_raw(path: str) -> np.ndarray:
    """The float32 voxels behind a volume header, as a (nz, ny, nx) array."""
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    nx, ny, nz = header["dims"]
    raw = os.path.join(os.path.dirname(path), header["data"])
    return np.fromfile(raw, dtype="<f4").reshape(nz, ny, nx)


def volume_files(path: str) -> tuple[str, str]:
    return path, os.path.splitext(path)[0] + ".raw"


# --- synthetic registration cases -------------------------------------------

def _rotation(rx: float, ry: float, rz: float) -> np.ndarray:
    cx, sx, cy, sy, cz, sz = math.cos(rx), math.sin(rx), math.cos(ry), math.sin(ry), math.cos(rz), math.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mz @ my @ mx


def draw_case(rng: np.random.Generator, n_fit: int, n_holdout: int):
    """Moving/fixed fit and hold-out landmarks under a random nonuniform-scale
    nine-parameter transform, with 1 mm noise on the fixed side."""
    rank = min(n_fit - 1, 3) - 1  # smallest singular value that must not vanish
    while True:
        moving = rng.uniform(-25.0, 25.0, size=(n_fit, 3))
        sv = np.linalg.svd(moving - moving.mean(axis=0), compute_uv=False)
        if sv[rank] >= 0.05 * sv[0]:
            break
    holdout = rng.uniform(-25.0, 25.0, size=(n_holdout, 3))
    t = rng.uniform(-10.0, 10.0, 3)
    linear = _rotation(*rng.uniform(-0.3, 0.3, 3)) * rng.uniform(0.8, 1.25, 3)
    fixed = moving @ linear.T + t + rng.normal(0.0, NOISE_MM, moving.shape)
    fixed_hold = holdout @ linear.T + t + rng.normal(0.0, NOISE_MM, holdout.shape)
    return moving, fixed, holdout, fixed_hold


def write_case(case_dir: str, case) -> None:
    os.makedirs(case_dir, exist_ok=True)
    moving, fixed, holdout, fixed_hold = case
    write_csv(os.path.join(case_dir, "moving.csv"), moving)
    write_csv(os.path.join(case_dir, "fixed.csv"), fixed)
    write_csv(os.path.join(case_dir, "moving_eval.csv"), holdout, "h")
    write_csv(os.path.join(case_dir, "fixed_eval.csv"), fixed_hold, "h")


def tre_mm(matrix: np.ndarray, moving: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    delta = fixed - (moving @ matrix[:3, :3].T + matrix[:3, 3])
    return np.sqrt((delta * delta).sum(axis=1))


def _stat_text(values: np.ndarray) -> str:
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return f"{float(np.mean(values)):.3f} ± {std:.3f} mm"


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, profile: dict):
        self.dir = workdir
        self.rng = np.random.default_rng(seed % 2**64)
        self.profile = profile
        self.warmup: list[Request] = []
        self.round: list[Request] = []

    def quality(self) -> tuple[float, float]:
        """Mean fit and hold-out TRE (mm) of the refined registrations, 0 if none."""
        return 0.0, 0.0


# --- cohort-compare ----------------------------------------------------------

_TABLE_ROW = re.compile(r"^(\S+)\s+([\d.]+) ± ([\d.]+) mm\s+([\d.]+) ± ([\d.]+) mm$")


def _read_compare_csv(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:]]
    return {row[0]: float(row[1]) for row in rows}


class CohortCompare(Workload):
    """``landreg compare`` over a synthetic nonuniform-scale cohort (Table 1)."""

    name = "cohort-compare"

    def __init__(self, workdir, seed, profile):
        super().__init__(workdir, seed, profile)
        n = profile["cohort_cases"]
        cohort = os.path.join(self.dir, "cohort")
        single = os.path.join(self.dir, "cohort_one")
        for i in range(n):
            case = draw_case(self.rng, 4, 4)
            write_case(os.path.join(cohort, f"case_{i:03d}"), case)
            if i == 0:
                write_case(os.path.join(single, "case_000"), case)
        self.case0 = os.path.join(single, "case_000")
        self.csv = os.path.join(self.dir, "cohort.csv")
        one_csv = os.path.join(self.dir, "cohort_one.csv")
        self.warmup = [Request("compare-one", [["compare", single, "--csv", one_csv]], 1,
                               outputs=(one_csv,), check=lambda outs: self._check_defaults(one_csv))]
        self.round = [Request("compare", [["compare", cohort, "--csv", self.csv]], n,
                              outputs=(self.csv,), check=self._check_table)]
        self._stdout = ""

    def _check_table(self, outs):
        self._stdout = outs[0]
        fit = _read_compare_csv(self.csv)
        if not fit["umeyama+refine"] < fit["umeyama"] < fit["identity"]:
            return f"fit TRE not ordered refine < umeyama < identity: {fit}"
        return None

    def _check_defaults(self, csv_path):
        """``compare`` must refine at the paper's settings: 10 000 Adam steps of 1e-5."""
        from landreg.core import PointSet, compose, decompose
        from landreg.evaluate import tre
        from landreg.refine import RefineConfig, refine
        from landreg.umeyama import umeyama_fit

        moving = PointSet(read_csv(os.path.join(self.case0, "moving.csv")))
        fixed = PointSet(read_csv(os.path.join(self.case0, "fixed.csv")))
        config = RefineConfig(iterations=PAPER_ITERATIONS, step_size=PAPER_STEP)
        result = refine(decompose(umeyama_fit(moving, fixed)), moving, fixed, config)
        expected = tre(compose(result.params), moving, fixed).mean
        got = _read_compare_csv(csv_path)["umeyama+refine"]
        if not abs(got - expected) <= 1e-9:
            return f"compare's refinement gives {got!r} mm, the paper settings give {expected!r} mm"
        return None

    def quality(self):
        fit = _read_compare_csv(self.csv)["umeyama+refine"]
        for line in self._stdout.splitlines():
            match = _TABLE_ROW.match(line)
            if match and match.group(1) == "umeyama+refine":
                return fit, float(match.group(4))
        return fit, 0.0


# --- single-register ---------------------------------------------------------

_LOSS = re.compile(r"^(initial loss|final loss|loss): ([\d.]+) mm$", re.M)


class SingleRegister(Workload):
    """A stream of single-case requests with 3 to 12 landmarks each."""

    name = "single-register"

    def __init__(self, workdir, seed, profile):
        super().__init__(workdir, seed, profile)
        kinds = (["fit"] * profile["single_fit"] + ["refine"] * profile["single_refine"]
                 + ["collinear", "mismatch", "malformed"])
        kinds = [kinds[i] for i in self.rng.permutation(len(kinds))]
        self.refined: list[tuple[str, str]] = []
        for i, kind in enumerate(kinds):
            self.round.append(getattr(self, "_" + kind)(f"{kind}-{i:02d}", os.path.join(self.dir, f"req_{i:02d}")))
        self.warmup = [next(r for r in self.round if r.key.startswith("fit-"))]

    def _case_request(self, key, case_dir, refine):
        write_case(case_dir, draw_case(self.rng, int(self.rng.integers(3, 13)), 3))
        m, f, me, fe = (os.path.join(case_dir, n) for n in ("moving.csv", "fixed.csv", "moving_eval.csv", "fixed_eval.csv"))
        out = os.path.join(case_dir, "transform.json")
        register = ["register", m, f, out]
        if refine:
            register.append("--refine")
            if self.profile["refine_iters"]:
                register += ["--iters", str(self.profile["refine_iters"])]
            self.refined.append((case_dir, out))

        def check(outs):
            matrix = read_matrix(out)
            fit = tre_mm(matrix, read_csv(m), read_csv(f))
            hold = tre_mm(matrix, read_csv(me), read_csv(fe))
            if outs[1].strip() != f"TRE: {_stat_text(hold)}":
                return f"evaluate printed {outs[1].strip()!r}, the transform gives {_stat_text(hold)}"
            losses = dict(_LOSS.findall(outs[0]))
            if refine:
                if not float(losses["final loss"]) <= float(losses["initial loss"]):
                    return f"refinement raised the loss: {losses}"
                if abs(float(losses["final loss"]) - fit.mean()) > 5e-4 + 1e-6:
                    return f"final loss {losses['final loss']} mm, the transform gives {fit.mean()!r} mm"
                return None
            if abs(float(losses["loss"]) - fit.mean()) > 5e-4 + 1e-6:
                return f"loss {losses['loss']} mm, the transform gives {fit.mean()!r} mm"
            # a least-squares similarity: c * proper rotation, centroids matched
            linear = matrix[:3, :3]
            c = np.linalg.norm(linear[:, 0])
            rot = linear / c
            if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9 or np.linalg.det(rot) <= 0:
                return "closed-form fit is not a scaled proper rotation"
            moving, fixed = read_csv(m), read_csv(f)
            resid = (fixed - (moving @ linear.T + matrix[:3, 3])).mean(axis=0)
            if np.abs(resid).max() > 1e-9 * (1.0 + np.abs(fixed).max()):
                return f"closed-form fit leaves the centroids {resid} apart"
            return None

        return Request(key, [register, ["evaluate", out, me, fe]], 1, outputs=(out,), check=check)

    def _fit(self, key, case_dir):
        return self._case_request(key, case_dir, refine=False)

    def _refine(self, key, case_dir):
        return self._case_request(key, case_dir, refine=True)

    def _hostile(self, key, case_dir, moving, fixed, expect):
        os.makedirs(case_dir, exist_ok=True)
        m, f = os.path.join(case_dir, "moving.csv"), os.path.join(case_dir, "fixed.csv")
        write_csv(m, moving)
        write_csv(f, fixed)
        return Request(key, [["register", m, f, os.path.join(case_dir, "transform.json")]], 1,
                       expect=expect)

    def _collinear(self, key, case_dir):
        along = np.outer(self.rng.uniform(-20.0, 20.0, 5), self.rng.normal(size=3))
        return self._hostile(key, case_dir, along, 1.1 * along + 3.0, expect=5)

    def _mismatch(self, key, case_dir):
        moving, fixed, _, _ = draw_case(self.rng, 5, 0)
        return self._hostile(key, case_dir, moving[:4], fixed, expect=4)

    def _malformed(self, key, case_dir):
        request = self._hostile(key, case_dir, *draw_case(self.rng, 4, 0)[:2], expect=2)
        fixed = request.argvs[0][2]
        with open(fixed, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = lines[2].replace(",", ",x", 1)  # a coordinate that is not a number
        with open(fixed, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return request

    def quality(self):
        fit, hold = [], []
        for case_dir, out in self.refined:
            matrix = read_matrix(out)
            fit.append(tre_mm(matrix, read_csv(os.path.join(case_dir, "moving.csv")),
                              read_csv(os.path.join(case_dir, "fixed.csv"))).mean())
            hold.append(tre_mm(matrix, read_csv(os.path.join(case_dir, "moving_eval.csv")),
                               read_csv(os.path.join(case_dir, "fixed_eval.csv"))).mean())
        return float(np.mean(fit)), float(np.mean(hold))


# --- volume-landmarks --------------------------------------------------------

def _world(index: np.ndarray, axis: int) -> float:
    return ORIGIN[axis] + int(index) * SPACING[axis]


class VolumeLandmarks(Workload):
    """Label maps and distance transforms on two anisotropic grids, 8x apart."""

    name = "volume-landmarks"

    def __init__(self, workdir, seed, profile):
        super().__init__(workdir, seed, profile)
        small = profile["small_grid"]
        grids = {"small": small, "large": tuple(2 * d for d in small)}
        for grid, dims in grids.items():
            n_landmarks = profile["landmarks"][grid]
            mvox = dims[0] * dims[1] * dims[2] / 1e6
            for j in range(n_landmarks):
                self.round += self._label_requests(f"{grid}-label{j}", grid, dims, mvox)
            for density in ("seed", "shell"):
                self.round += self._mask_requests(f"{grid}-{density}", grid, density, dims, mvox)
        self.warmup = [r for r in self.round if r.tag["grid"] == "small"][:4]

    def _label_requests(self, key, grid, dims, mvox):
        extent = [(n - 1) * s for n, s in zip(dims, SPACING)]
        point = [float(o + u * e) for o, u, e in zip(ORIGIN, self.rng.uniform(0.05, 0.95, 3), extent)]
        out = os.path.join(self.dir, key + ".json")
        snapped = tuple(_world(round((p - o) / s), a)
                        for a, (p, o, s) in enumerate(zip(point, ORIGIN, SPACING)))
        tag = {"grid": grid}

        def check_label(outs):
            data = read_volume_raw(out)
            if data.max() != np.float32(1.0) or data.min() < np.float32(math.exp(-10.0)):
                return f"label map spans [{data.min()!r}, {data.max()!r}], not [exp(-10), 1]"
            return None

        def check_extract(outs):
            expected = f"name,x,y,z\nlandmark,{snapped[0]!r},{snapped[1]!r},{snapped[2]!r}\n"
            return None if outs[0] == expected else f"extract printed {outs[0]!r}, expected {expected!r}"

        # "--opt=value" form: a value starting with "-" would otherwise read as an option
        make = ["make-label", out, "--landmark=" + ",".join(map(repr, point)),
                "--dims=" + ",".join(map(str, dims)), "--spacing=" + ",".join(map(repr, SPACING)),
                "--origin=" + ",".join(map(repr, ORIGIN))]
        return [Request(key + "-make", [make], mvox, outputs=volume_files(out), tag=tag, check=check_label),
                Request(key + "-extract", [["extract", out]], mvox, tag=tag, check=check_extract)]

    def _mask_requests(self, key, grid, density, dims, mvox):
        nx, ny, nz = dims
        if density == "seed":
            mask = np.zeros((nz, ny, nx))
            for _ in range(3):
                mask[tuple(self.rng.integers(0, n) for n in (nz, ny, nx))] = 1.0
        else:
            # ellipsoid shell about 1.5 voxels thick, centre jittered by the seed
            z, y, x = np.meshgrid(*(np.arange(n) * s for n, s in zip((nz, ny, nx), SPACING[::-1])),
                                  indexing="ij")
            extent = np.array([n * s for n, s in zip((nz, ny, nx), SPACING[::-1])])
            centre = extent / 2 + self.rng.uniform(-2.0, 2.0, 3) * np.array(SPACING[::-1])
            semi = 0.35 * extent
            rho = np.sqrt(((z - centre[0]) / semi[0]) ** 2 + ((y - centre[1]) / semi[1]) ** 2
                          + ((x - centre[2]) / semi[2]) ** 2)
            mask = (np.abs(rho - 1.0) <= 0.6 * max(np.array(SPACING[::-1]) / semi)).astype(float)
        path = os.path.join(self.dir, key + "_mask.json")
        write_volume(path, mask)
        out = os.path.join(self.dir, key + "_edt.json")
        tag = {"grid": grid, "density": density}

        def check_edt(outs):
            from scipy.ndimage import distance_transform_edt

            want = distance_transform_edt(mask == 0, sampling=SPACING[::-1])
            got = read_volume_raw(out).astype(float)
            # the file holds float32: allow its rounding plus 1e-9 mm
            slack = 0.5 * np.spacing(want.astype(np.float32)).astype(float) + 1e-9
            worst = float(np.max(np.abs(got - want) - slack))
            return None if worst <= 0.0 else f"EDT differs from scipy by {worst!r} mm beyond float32 rounding"

        requests = [Request(key + "-edt", [["edt", path, out]], mvox, outputs=volume_files(out),
                            tag=tag, check=check_edt)]
        for axis in sorted(self.rng.choice(3, size=2, replace=False)):
            requests.append(Request(f"{key}-extremes{axis}",
                                    [["extract", path, "--mode", "extremes", "--axis", "xyz"[axis]]],
                                    mvox, tag=tag, check=self._extremes_check(mask, int(axis))))
        return requests

    @staticmethod
    def _extremes_check(mask, axis):
        zyx = np.argwhere(mask > 0)  # rows in ascending linear (x-fastest) order
        along = zyx[:, 2 - axis]
        lines = ["name,x,y,z"]
        for label, row in (("lo", zyx[np.argmin(along)]), ("hi", zyx[np.argmax(along)])):
            x, y, z = (_world(row[2 - a], a) for a in range(3))
            lines.append(f"{label},{x!r},{y!r},{z!r}")
        expected = "\n".join(lines) + "\n"
        return lambda outs: None if outs[0] == expected else f"extremes printed {outs[0]!r}, expected {expected!r}"


WORKLOADS = {w.name: w for w in (CohortCompare, SingleRegister, VolumeLandmarks)}
