"""Command-line behavior: happy paths, printed formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import landreg
from landreg import evaluate, fileio, landmarks
from landreg.cli import build_parser, main
from landreg.core import AffineMatrix, Point3, PointSet, Volume3, compose
from landreg.fileio import read_points, read_transform, read_volume, write_points, write_transform, write_volume
from landreg.refine import RefineConfig
from landreg.synth import SynthConfig, generate_cases


def write_mask(path, dims, spacing, ones, origin=None):
    data = np.zeros(dims[0] * dims[1] * dims[2])
    for idx in ones:
        data[idx] = 1.0
    kwargs = {} if origin is None else {"origin": origin}
    write_volume(Volume3(dims=dims, spacing=spacing, data=data, **kwargs), path)


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_edt_line_example(tmp_path):
    mask = tmp_path / "mask.json"
    out = tmp_path / "dist.json"
    write_mask(mask, (3, 1, 1), (1, 1, 1), [0])
    assert main(["edt", str(mask), str(out)]) == 0
    assert np.array_equal(read_volume(out).data, [0.0, 1.0, 2.0])


def test_edt_all_ones(tmp_path):
    mask = tmp_path / "mask.json"
    out = tmp_path / "dist.json"
    write_mask(mask, (2, 2, 2), (1, 1, 1), range(8))
    assert main(["edt", str(mask), str(out)]) == 0
    assert np.array_equal(read_volume(out).data, np.zeros(8))


def test_edt_missing_file(tmp_path, capsys):
    assert main(["edt", str(tmp_path / "nope.json"), str(tmp_path / "out.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["edt", "extract"])
def test_edt_non_binary_volume_is_format_error(tmp_path, capsys, command):
    vol = tmp_path / "vol.json"
    write_volume(Volume3(dims=(2, 1, 1), spacing=(1, 1, 1), data=np.array([0.25, 1.0])), vol)
    argv = {
        "edt": ["edt", str(vol), str(tmp_path / "out.json")],
        "extract": ["extract", str(vol), "--mode", "extremes"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {vol}: mask contains 1 voxels outside {{0, 1}} (first: 0.25)\n"


def test_edt_empty_mask(tmp_path):
    mask = tmp_path / "mask.json"
    write_mask(mask, (2, 2, 2), (1, 1, 1), [])
    assert main(["edt", str(mask), str(tmp_path / "out.json")]) == 3


def test_edt_whose_pass_cannot_allocate_is_one_error_line(tmp_path, capsys, monkeypatch):
    class NoScratch:
        @staticmethod
        def landreg_edt_pass(*args):
            return 1  # the kernel's status when its scratch cannot be allocated

    monkeypatch.setattr(landmarks, "_kernel", lambda: NoScratch)
    mask, out = tmp_path / "mask.json", tmp_path / "dist.json"
    write_mask(mask, (3, 2, 1), (1, 1, 1), [0])
    assert main(["edt", str(mask), str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot allocate the scratch of a distance transform pass over lines of 3 voxels\n"
    assert sorted(os.listdir(tmp_path)) == ["mask.json", "mask.raw"]


def test_make_label_two_voxel_example(tmp_path):
    out = tmp_path / "label.json"
    code = main([
        "make-label", str(out),
        "--landmark", "0,0,0", "--dims", "1,1,2", "--spacing", "1,1,1",
    ])
    assert code == 0
    data = read_volume(out).data
    assert data[0] == 1.0
    assert data[1] == float(np.float32(math.exp(-10)))


def test_make_label_out_of_bounds(tmp_path):
    code = main([
        "make-label", str(tmp_path / "label.json"),
        "--landmark", "50,0,0", "--dims", "4,4,4", "--spacing", "1,1,1",
    ])
    assert code == 3


@pytest.mark.parametrize(
    "placement",
    [
        ["--landmark", "1e308,0,0", "--spacing", "1e-10,1,1"],
        ["--landmark", "1e300,0,0", "--spacing", "1,1,1"],
    ],
    ids=["offset-overflows", "offset-past-the-integers"],
)
def test_make_label_landmark_far_outside_is_out_of_bounds(tmp_path, capsys, placement):
    out = tmp_path / "label.json"
    assert main(["make-label", str(out), "--dims", "2,1,1"] + placement) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: landmark (") and "(dims (2, 1, 1), spacing (" in captured.err
    assert not out.exists() and not (tmp_path / "label.raw").exists()


# a 5x4x3 grid whose voxel centers all round to its origin (-3, 2, 1)
COLLAPSED = {"dims": [5, 4, 3], "spacing": [1.5e-154] * 3, "origin": [-3.0, 2.0, 1.0]}


@pytest.mark.parametrize("command", ["make-label", "edt"])
def test_grid_whose_voxel_centers_collapse_is_refused(tmp_path, capsys, command):
    # a parameter error on the command line, a format error in a volume header
    if command == "make-label":
        argv, code, where = ["make-label", "OUT", "--landmark=-3,2,1"] + [
            f"--{key}={','.join(map(repr, value))}" for key, value in COLLAPSED.items()], 5, ""
    else:
        mask = tmp_path / "mask.json"
        write_mask(mask, (5, 4, 3), (1, 1, 1), [0])
        header = json.loads(mask.read_text())
        header.update(COLLAPSED)
        mask.write_text(json.dumps(header))
        argv, code, where = ["edt", str(mask), "OUT"], 2, f"{mask}: "
    before = tree_bytes(tmp_path)
    assert main([str(tmp_path / "out.json") if arg == "OUT" else arg for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {where}voxel spacing (1.5e-154, 1.5e-154, 1.5e-154) mm is too fine ")
    assert "neighbouring voxel centers on the x axis round to the same coordinate" in captured.err
    assert tree_bytes(tmp_path) == before


def _never(*args):
    raise AssertionError("did work for an output name that is refused")


@pytest.mark.parametrize(
    "command, landmark",
    [("edt", None), ("make-label", "4,3,9"), ("make-label", "40,3,9")],
    ids=["edt", "make-label", "make-label-outside"],
)
def test_volume_output_named_raw_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, landmark):
    mask = tmp_path / "mask.json"
    write_mask(mask, (12, 10, 8), (1, 1, 1), [0])
    before = tree_bytes(tmp_path)
    monkeypatch.setattr("landreg.cli.distance_transform", _never)
    monkeypatch.setattr("landreg.cli.make_label", _never)
    out = str(tmp_path / "out.raw")
    if command == "edt":
        argv = ["edt", str(mask), out]
    else:
        argv = ["make-label", out, "--landmark", landmark, "--dims", "12,10,8", "--spacing", "1,1,1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}: a volume header may not end in '.raw', the extension of its raw file\n"
    assert tree_bytes(tmp_path) == before


def test_make_label_single_voxel_grid(tmp_path):
    code = main([
        "make-label", str(tmp_path / "label.json"),
        "--landmark", "0,0,0", "--dims", "1,1,1", "--spacing", "1,1,1",
    ])
    assert code == 3


def test_make_label_malformed_triple(tmp_path):
    with pytest.raises(SystemExit) as info:
        main([
            "make-label", str(tmp_path / "label.json"),
            "--landmark", "1,2", "--dims", "4,4,4", "--spacing", "1,1,1",
        ])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "landmark, dims, message",
    [
        ("1,2", "4,4,4", "argument --landmark: expected 'a,b,c', got '1,2'"),
        ("1,2,3", "1,2", "argument --dims: expected 'nx,ny,nz', got '1,2'"),
    ],
    ids=["floats", "ints"],
)
def test_triple_usage_error_names_the_expected_form(tmp_path, capsys, landmark, dims, message):
    with pytest.raises(SystemExit) as info:
        main([
            "make-label", str(tmp_path / "label.json"),
            "--landmark", landmark, "--dims", dims, "--spacing", "1,1,1",
        ])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"landreg make-label: error: {message}\n")


@pytest.mark.parametrize("command", ["edt", "make-label"])
@pytest.mark.parametrize("spacing", [(1e200, 1.0, 1.0), (1e-200, 1e-200, 1e-200)], ids=["huge", "tiny"])
def test_spacing_whose_squares_leave_the_float_range_is_numerical_degeneracy(tmp_path, capsys, command, spacing):
    out = tmp_path / "out.json"
    if command == "edt":
        mask = tmp_path / "mask.json"
        write_mask(mask, (2, 2, 2), spacing, [0])
        argv = ["edt", str(mask), str(out)]
    else:
        argv = ["make-label", str(out), "--landmark", "0,0,0", "--dims", "2,2,2",
                "--spacing", ",".join(map(repr, spacing))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 5
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: voxel spacing ") and captured.err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "out.raw").exists()


def case_files(tmp_path, seed=21, config=None):
    case = generate_cases(seed, 1, config or SynthConfig())[0]
    moving = tmp_path / "moving.csv"
    fixed = tmp_path / "fixed.csv"
    write_points(case.moving, moving)
    write_points(case.fixed, fixed)
    return case, moving, fixed


def test_register_recovers_generator(tmp_path, capsys):
    case, moving, fixed = case_files(tmp_path)
    out = tmp_path / "transform.json"
    assert main(["register", str(moving), str(fixed), str(out)]) == 0
    got = read_transform(out)
    assert np.abs(got.matrix - compose(case.generator).matrix).max() < 1e-6
    printed = capsys.readouterr().out
    assert printed == "loss: 0.000 mm\n"


def test_register_identical_files_yield_identity(tmp_path, capsys):
    _, moving, _ = case_files(tmp_path)
    out = tmp_path / "transform.json"
    assert main(["register", str(moving), str(moving), str(out)]) == 0
    assert np.allclose(read_transform(out).matrix, np.eye(4), atol=1e-12)
    assert "loss: 0.000 mm" in capsys.readouterr().out


def test_register_refine_prints_losses_and_writes_trace(tmp_path, capsys):
    cfg = SynthConfig(scale_mode="nonuniform")
    case, moving, fixed = case_files(tmp_path, seed=33, config=cfg)
    out = tmp_path / "transform.json"
    trace = tmp_path / "trace.csv"
    code = main([
        "register", str(moving), str(fixed), str(out),
        "--refine", "--iters", "400", "--trace", str(trace),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    lines = printed.strip().split("\n")
    assert lines[0].startswith("initial loss: ") and lines[0].endswith(" mm")
    assert lines[1].startswith("final loss: ") and lines[1].endswith(" mm")
    initial = float(lines[0].split()[2])
    final = float(lines[1].split()[2])
    assert final <= initial

    rows = trace.read_text().strip().split("\n")
    assert rows[0] == "iteration,loss"
    assert rows[1].startswith("0,")
    assert rows[-1].startswith("400,")
    payload = json.loads(out.read_text())
    assert "params" in payload


def test_register_name_mismatch(tmp_path, capsys):
    case, moving, fixed = case_files(tmp_path)
    renamed = PointSet(case.fixed.coords, names=("q0", "q1", "q2", "q3"))
    write_points(renamed, fixed)
    assert main(["register", str(moving), str(fixed), str(tmp_path / "t.json")]) == 4
    assert capsys.readouterr().err == (
        "error: landmark names disagree: ['p0', 'p1', 'p2', 'p3'] vs ['q0', 'q1', 'q2', 'q3']\n"
    )


def swap_rows(path, i, j):
    """Rewrite a landmark CSV with rows i and j (names and coordinates) swapped."""
    points = read_points(path)
    order = list(range(len(points)))
    order[i], order[j] = j, i
    write_points(PointSet(points.coords[order], names=[points.names[k] for k in order]), path)


def test_evaluate_refuses_swapped_rows(tmp_path, capsys):
    case, moving, fixed = case_files(tmp_path)
    transform = tmp_path / "t.json"
    write_transform(compose(case.generator), transform)
    swap_rows(fixed, 1, 2)
    assert main(["evaluate", str(transform), str(moving), str(fixed)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: landmark names disagree: ['p0', 'p1', 'p2', 'p3'] vs ['p0', 'p2', 'p1', 'p3']\n"


def test_compare_refuses_reordered_rows(tmp_path, capsys):
    case_dir = tmp_path / "cases"
    assert main(["synth", str(case_dir), "--seed", "1", "--cases", "3"]) == 0
    swap_rows(case_dir / "case_001" / "fixed.csv", 0, 3)
    capsys.readouterr()
    assert main(["compare", str(case_dir), "--csv", str(tmp_path / "table.csv")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: [case case_001] landmark names disagree: "
        "['p0', 'p1', 'p2', 'p3'] vs ['p3', 'p1', 'p2', 'p0']\n"
    )
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize(
    "csv, names",
    [("fixed.csv", "['p0', 'p1', 'p2', 'p3'] vs ['p1', 'p0', 'p2', 'p3']"), ("fixed_eval.csv", "['h0', 'h1'] vs ['h1', 'h0']")],
    ids=["fit", "holdout"],
)
def test_compare_refuses_a_mismatched_case_before_fitting_any(tmp_path, capsys, monkeypatch, csv, names):
    case_dir = tmp_path / "cases"
    assert main(["synth", str(case_dir), "--seed", "1", "--cases", "8", "--scale-mode", "nonuniform",
                 "--n-holdout", "2"]) == 0
    swap_rows(case_dir / "case_007" / csv, 0, 1)
    fitted = []

    def recording(movings, fixeds, transforms):
        fitted.extend(fixeds)
        return [AffineMatrix.identity() for _ in movings]

    for name in evaluate.METHODS:
        monkeypatch.setitem(evaluate.METHODS, name, (recording,))
    capsys.readouterr()
    assert main(["compare", str(case_dir)]) == 4
    assert capsys.readouterr().err == f"error: [case case_007] landmark names disagree: {names}\n"
    assert fitted == []


def test_register_length_mismatch(tmp_path):
    _, moving, fixed = case_files(tmp_path)
    short = read_points(fixed)
    write_points(PointSet(short.coords[:3], names=short.names[:3]), fixed)
    assert main(["register", str(moving), str(fixed), str(tmp_path / "t.json")]) == 4


def test_register_collinear_points(tmp_path):
    line = PointSet(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]),
        names=("p0", "p1", "p2", "p3"),
    )
    moving = tmp_path / "m.csv"
    write_points(line, moving)
    assert main(["register", str(moving), str(moving), str(tmp_path / "t.json")]) == 5


# finite coordinates whose squares overflow the float range
HUGE = 1e200 * np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]])


@pytest.mark.parametrize("command", ["register", "compare"])
def test_overflowing_coordinates_are_numerical_degeneracy(tmp_path, capsys, command):
    case_dir = tmp_path / "cases" / "case_000"
    case_dir.mkdir(parents=True)
    moving, fixed = case_dir / "moving.csv", case_dir / "fixed.csv"
    write_points(PointSet(HUGE), moving)
    write_points(PointSet(HUGE), fixed)
    argv = {
        "register": ["register", str(moving), str(fixed), str(tmp_path / "t.json")],
        "compare": ["compare", str(tmp_path / "cases")],
    }[command]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflows" in captured.err


# a 10 mm tetrahedron and fixed points far enough out that the closed-form
# fit succeeds but its determinant, scales or TRE overflow downstream
TETRA = 10.0 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
SIGNS = HUGE / 1e200


@pytest.mark.parametrize(
    "command, magnitude",
    [("register", 1e160), ("register --refine", 1e160), ("evaluate", 1e160), ("compare", 1e308)],
)
def test_overflow_after_the_fit_is_numerical_degeneracy(tmp_path, capsys, command, magnitude):
    case_dir = tmp_path / "cases" / "case_000"
    case_dir.mkdir(parents=True)
    moving, fixed = case_dir / "moving.csv", case_dir / "fixed.csv"
    write_points(PointSet(TETRA), moving)
    write_points(PointSet(magnitude * SIGNS), fixed)
    identity, out = tmp_path / "identity.json", tmp_path / "t.json"
    write_transform(AffineMatrix.identity(), identity)
    argv = {
        "register": ["register", str(moving), str(fixed), str(out)],
        "register --refine": ["register", "--refine", "--iters", "10", str(moving), str(fixed), str(out)],
        "evaluate": ["evaluate", str(identity), str(moving), str(fixed)],
        "compare": ["compare", str(tmp_path / "cases")],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 5
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflows the float range" in captured.err
    assert not out.exists()


def test_register_refine_survives_a_reflected_iterate(tmp_path, capsys):
    # large steps carry Adam through a negative x scale with a lower loss;
    # the written transform is still the best one with positive scales
    moving, fixed, out = tmp_path / "moving.csv", tmp_path / "fixed.csv", tmp_path / "t.json"
    write_points(PointSet(TETRA), moving)
    write_points(PointSet(TETRA * np.array([-1.2, 1.0, 1.0]) + np.array([1.0, 2.0, 3.0])), fixed)
    assert main(["register", "--refine", "--iters", "2000", "--lr", "1", str(moving), str(fixed), str(out)]) == 0
    initial, final = (float(line.split()[-2]) for line in capsys.readouterr().out.splitlines())
    assert final <= initial
    assert all(s > 0 for s in json.loads(out.read_text())["params"]["s"])


@pytest.mark.parametrize(
    "argv",
    [
        ["make-label", "out.json", "--landmark", "0,0,0", "--dims", "1000000,1000000,1000000", "--spacing", "1,1,1"],
        ["synth", "cases", "--seed", "1", "--n-fit", "100000000000000000"],
        ["synth", "cases", "--seed", "1", "--n-holdout", "100000000000000000"],
    ],
)
def test_size_too_large_to_allocate_is_a_parameter_error(tmp_path, monkeypatch, capsys, argv):
    # exabyte arrays: numpy refuses them at once, without touching memory
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) > len("error: \n")
    assert os.listdir(tmp_path) == []


def test_register_trace_requires_refine(tmp_path):
    _, moving, fixed = case_files(tmp_path)
    code = main([
        "register", str(moving), str(fixed), str(tmp_path / "t.json"),
        "--trace", str(tmp_path / "trace.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("form", ["plain", "dot-slash", "symlink", "hard-link"])
def test_register_trace_naming_the_transform_output_is_refused(tmp_path, capsys, monkeypatch, form):
    _, moving, fixed = case_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("landreg.cli.read_points", _never)
    (tmp_path / "t.json").write_text("an earlier transform\n")
    trace = {"plain": "t.json", "dot-slash": "./t.json", "symlink": "link.json", "hard-link": "link.json"}[form]
    if form == "symlink":
        os.symlink("t.json", tmp_path / "link.json")
    elif form == "hard-link":
        os.link(tmp_path / "t.json", tmp_path / "link.json")
    before = tree_bytes(tmp_path)
    code = main(["register", str(moving), str(fixed), "t.json", "--refine", "--trace", trace])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {trace}: the loss trace may not be written to the transform output\n"
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize(
    "argv, output, source",
    [
        (["M.csv", "F.csv", "M.csv"], "M.csv", "M.csv"),
        (["M.csv", "F.csv", "./F.csv"], "./F.csv", "F.csv"),
        (["F.csv", "F.csv", "F.csv"], "F.csv", "F.csv"),
        (["M.csv", "F.csv", "link.csv"], "link.csv", "M.csv"),
        (["M.csv", "F.csv", "hard.csv"], "hard.csv", "F.csv"),
        (["M.csv", "F.csv", "t.json", "--refine", "--trace", "M.csv"], "M.csv", "M.csv"),
        (["M.csv", "F.csv", "t.json", "--refine", "--trace", "sub/../F.csv"], "sub/../F.csv", "F.csv"),
    ],
    ids=["out-moving", "out-fixed", "out-both", "out-symlink", "out-hard-link", "trace-moving", "trace-fixed"],
)
def test_register_output_naming_an_input_is_refused(tmp_path, capsys, monkeypatch, argv, output, source):
    _, moving, fixed = case_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    os.rename(moving, "M.csv")
    os.rename(fixed, "F.csv")
    os.mkdir("sub")
    os.symlink("M.csv", "link.csv")
    os.link("F.csv", "hard.csv")
    monkeypatch.setattr("landreg.cli.read_points", _never)
    before = tree_bytes(tmp_path)
    assert main(["register", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {output}: an output may not overwrite the input {source}\n"
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize(
    "out, data, output, source",
    [
        ("mask.json", "mask.raw", "mask.json", "mask.json"),
        ("./mask.json", "mask.raw", "./mask.json", "mask.json"),
        ("mask.out", "mask.raw", "mask.raw", "mask.raw"),
        ("dist.json", "dist.raw", "dist.raw", "dist.raw"),
        ("payload.bin", "payload.bin", "payload.bin", "payload.bin"),
    ],
    ids=["header-header", "header-dot-slash", "raw-raw", "raw-named-by-the-mask", "header-raw"],
)
def test_edt_output_naming_the_mask_is_refused(tmp_path, capsys, monkeypatch, out, data, output, source):
    write_mask(tmp_path / "mask.json", (3, 2, 1), (1, 1, 1), [0])
    header = json.loads((tmp_path / "mask.json").read_text())
    os.rename(tmp_path / "mask.raw", tmp_path / data)
    (tmp_path / "mask.json").write_text(json.dumps({**header, "data": data}))
    monkeypatch.chdir(tmp_path)
    before = tree_bytes(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr("landreg.cli.distance_transform", _never)
        assert main(["edt", "mask.json", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {output}: an output may not overwrite the input {source}\n"
    assert tree_bytes(tmp_path) == before
    # the mask is intact: into a free name it gives its distance map
    assert main(["edt", "mask.json", "free.json"]) == 0
    assert np.array_equal(read_volume(tmp_path / "free.json").data, np.float32([0, 1, 2, 1, 2 ** 0.5, 5 ** 0.5]))


def test_edt_reads_the_mask_header_once(tmp_path, monkeypatch):
    write_mask(tmp_path / "mask.json", (3, 2, 1), (1, 1, 1), [0])
    read = []
    monkeypatch.setattr(fileio, "_read_json", lambda path, read_json=fileio._read_json: read.append(path) or read_json(path))
    assert main(["edt", str(tmp_path / "mask.json"), str(tmp_path / "dist.json")]) == 0
    assert read == [str(tmp_path / "mask.json")]


@pytest.mark.parametrize(
    "n_holdout, target",
    [
        pytest.param(1, "case_000/moving.csv", id="case_000/moving.csv"),
        pytest.param(1, "case_001/fixed.csv", id="case_001/fixed.csv"),
        pytest.param(1, "case_001/fixed_eval.csv", id="case_001/fixed_eval.csv"),
        # a cohort without hold-outs: a table there would become a hold-out file the next compare reads
        pytest.param(0, "case_000/moving_eval.csv", id="no-holdout-case_000/moving_eval.csv"),
        pytest.param(0, "case_001/fixed_eval.csv", id="no-holdout-case_001/fixed_eval.csv"),
    ],
)
def test_compare_csv_naming_a_case_file_is_refused(tmp_path, capsys, monkeypatch, n_holdout, target):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "cases", "--seed", "1", "--cases", "2", "--n-holdout", str(n_holdout)]) == 0
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr("landreg.cli.compare_methods", _never)
        assert main(["compare", "cases", "--csv", f"cases/{target}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cases/{target}: an output may not overwrite the input cases/{target}\n"
    assert tree_bytes(tmp_path) == before
    # the cases are intact: the next compare reads them
    assert main(["compare", "cases", "--methods", "identity,umeyama"]) == 0


def test_register_help_documents_defaults(capsys):
    texts = []
    for _ in range(2):  # the second call reuses the parser the first one built
        with pytest.raises(SystemExit) as info:
            main(["register", "--help"])
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert "10000" in texts[0]
    assert "1e-05" in texts[0]


def test_cli_defaults_are_the_library_defaults():
    register = build_parser().parse_args(["register", "m.csv", "f.csv", "out.json"])
    refine_defaults = RefineConfig()
    assert (register.iters, register.lr) == (refine_defaults.iterations, refine_defaults.step_size)
    synth = build_parser().parse_args(["synth", "cases", "--seed", "1"])
    synth_defaults = SynthConfig()
    assert (synth.n_fit, synth.n_holdout, synth.noise, synth.scale_mode) == (
        synth_defaults.n_fit, synth_defaults.n_holdout, synth_defaults.noise_sigma, synth_defaults.scale_mode
    )


HELP_DIR = os.path.join(os.path.dirname(__file__), "cli_help")


@pytest.mark.parametrize(
    "command", ["landreg", "edt", "make-label", "register", "evaluate", "extract", "synth", "compare"]
)
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as info:
        main(["--help"] if command == "landreg" else [command, "--help"])
    assert info.value.code == 0
    with open(os.path.join(HELP_DIR, f"{command}.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_register_options_do_not_leak_into_the_next_call(tmp_path, capsys):
    _, moving, fixed = case_files(tmp_path)
    out = str(tmp_path / "t.json")
    assert main(["register", str(moving), str(fixed), out, "--refine", "--iters", "5"]) == 0
    assert capsys.readouterr().out.startswith("initial loss: ")
    assert main(["register", str(moving), str(fixed), out]) == 0
    text = capsys.readouterr().out
    assert text.startswith("loss: ") and "initial loss" not in text


def test_compare_methods_do_not_leak_into_the_next_call(tmp_path, capsys):
    case_dir = tmp_path / "cases"
    main(["synth", str(case_dir), "--seed", "2", "--cases", "2"])
    assert main(["compare", str(case_dir), "--methods", "identity"]) == 0
    capsys.readouterr()
    assert main(["compare", str(case_dir)]) == 0
    text = capsys.readouterr().out
    for name in ("identity", "umeyama", "umeyama+refine"):
        assert f"\n{name} " in text


def test_a_usage_error_does_not_break_the_next_call(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["register"])
    assert info.value.code == 2
    capsys.readouterr()
    _, moving, fixed = case_files(tmp_path)
    assert main(["register", str(moving), str(fixed), str(tmp_path / "t.json")]) == 0
    assert capsys.readouterr().out.startswith("loss: ")


def test_evaluate_aligned(tmp_path, capsys):
    _, moving, _ = case_files(tmp_path)
    transform = tmp_path / "t.json"
    write_transform(AffineMatrix.identity(), transform)
    assert main(["evaluate", str(transform), str(moving), str(moving)]) == 0
    assert capsys.readouterr().out == "TRE: 0.000 ± 0.000 mm\n"


def test_evaluate_three_four_five(tmp_path, capsys):
    pts = PointSet(np.array([[0.0, 0, 0], [10.0, 0, 0], [0, 10.0, 0]]))
    moved = PointSet(pts.coords + np.array([3.0, 4.0, 0.0]))
    moving = tmp_path / "m.csv"
    fixed = tmp_path / "f.csv"
    write_points(pts, moving)
    write_points(moved, fixed)
    transform = tmp_path / "t.json"
    write_transform(AffineMatrix.identity(), transform)
    assert main(["evaluate", str(transform), str(moving), str(fixed)]) == 0
    assert capsys.readouterr().out == "TRE: 5.000 ± 0.000 mm\n"


def test_evaluate_malformed_transform(tmp_path, capsys):
    bad = tmp_path / "t.json"
    bad.write_text("{}")
    _, moving, _ = case_files(tmp_path)
    assert main(["evaluate", str(bad), str(moving), str(moving)]) == 2


def test_extract_landmark_from_label(tmp_path, capsys):
    label = tmp_path / "label.json"
    main([
        "make-label", str(label),
        "--landmark", "2,3,4", "--dims", "6,6,6", "--spacing", "1,1,1",
    ])
    capsys.readouterr()
    assert main(["extract", str(label)]) == 0
    out = capsys.readouterr().out
    assert out == "name,x,y,z\nlandmark,2.0,3.0,4.0\n"


def test_extract_uniform_heatmap_tie(tmp_path, capsys):
    vol = tmp_path / "vol.json"
    write_volume(
        Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), origin=Point3(5, 6, 7), data=np.ones(8)),
        vol,
    )
    assert main(["extract", str(vol)]) == 0
    assert capsys.readouterr().out == "name,x,y,z\nlandmark,5.0,6.0,7.0\n"


def test_extract_extremes(tmp_path, capsys):
    mask = tmp_path / "mask.json"
    write_mask(mask, (8, 1, 1), (2.0, 1, 1), [1, 5])
    assert main(["extract", str(mask), "--mode", "extremes", "--axis", "x"]) == 0
    out = capsys.readouterr().out
    assert out == "name,x,y,z\nlo,2.0,0.0,0.0\nhi,10.0,0.0,0.0\n"


def test_extract_extremes_empty_mask(tmp_path, capsys):
    mask = tmp_path / "mask.json"
    write_mask(mask, (2, 2, 2), (1, 1, 1), [])
    assert main(["extract", str(mask), "--mode", "extremes"]) == 3
    assert capsys.readouterr().out == ""


def test_extract_nan_heatmap(tmp_path, capsys):
    vol = tmp_path / "vol.json"
    data = np.zeros(8)
    data[3] = np.nan
    write_volume(Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=data), vol)
    assert main(["extract", str(vol)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_synth_layout_and_determinism(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ["--seed", "1", "--cases", "3", "--noise", "0.5", "--scale-mode", "nonuniform"]
    assert main(["synth", str(first)] + args) == 0
    assert main(["synth", str(second)] + args) == 0
    capsys.readouterr()

    names = sorted(tree_bytes(first))
    assert names == [
        "case_000/fixed.csv", "case_000/fixed_eval.csv",
        "case_000/moving.csv", "case_000/moving_eval.csv",
        "case_001/fixed.csv", "case_001/fixed_eval.csv",
        "case_001/moving.csv", "case_001/moving_eval.csv",
        "case_002/fixed.csv", "case_002/fixed_eval.csv",
        "case_002/moving.csv", "case_002/moving_eval.csv",
        "manifest.json",
    ]
    assert tree_bytes(first) == tree_bytes(second)
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert len(manifest["cases"]) == 3


def test_synth_rejects_unwritable_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    assert main(["synth", str(blocker / "sub"), "--seed", "1"]) == 2


def test_synth_refuses_stale_cases_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "cases"
    assert main(["synth", str(out), "--seed", "1", "--cases", "5"]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["synth", str(out), "--seed", "2", "--cases", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "case_003, case_004" in captured.err
    assert tree_bytes(out) == before
    assert main(["synth", str(out), "--seed", "2", "--cases", "5"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2


def test_synth_refuses_stale_holdouts_and_writes_nothing(tmp_path, capsys):
    # compare would report the old cohort's hold-outs next to the new fitting landmarks
    out = tmp_path / "cases"
    assert main(["synth", str(out), "--seed", "1", "--cases", "2"]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["synth", str(out), "--seed", "2", "--cases", "2", "--n-holdout", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert os.path.join("case_001", "fixed_eval.csv") in captured.err
    assert tree_bytes(out) == before


@pytest.mark.parametrize("kept", ["moving_eval.csv", "fixed_eval.csv"])
def test_compare_refuses_half_a_holdout_pair(tmp_path, capsys, kept):
    case_dir = tmp_path / "cases"
    main(["synth", str(case_dir), "--seed", "2", "--cases", "2"])
    dropped = ({"moving_eval.csv", "fixed_eval.csv"} - {kept}).pop()
    (case_dir / "case_001" / dropped).unlink()
    capsys.readouterr()
    assert main(["compare", str(case_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {case_dir / 'case_001'}: ")


@pytest.mark.parametrize("flag", ["--box", "--t-max", "--r-max", "--scale-min", "--scale-max"])
def test_synth_generator_ranges_are_not_options(tmp_path, capsys, flag):
    out = tmp_path / "cases"
    with pytest.raises(SystemExit) as info:
        main(["synth", str(out), "--seed", "1", flag, "5"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_synth_noise_that_overflows_names_noise_sigma(tmp_path, capsys):
    out = tmp_path / "cases"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["synth", str(out), "--seed", "1", "--noise", "1e308"])
    assert code == 5
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: noise_sigma ") and captured.err.count("\n") == 1
    assert not out.exists()
    assert main(["synth", str(out), "--seed", "1", "--noise", "1e200"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "OUT", "--seed", "1", "--noise", "-1"],
        ["synth", "OUT", "--seed", "1", "--n-fit", "0"],
        ["synth", "OUT", "--seed", "-1"],
        ["synth", "OUT", "--seed", "1", "--cases", "0"],
        ["synth", "OUT", "--seed", "1", "--cases", "1001"],
        ["register", "MOVING", "FIXED", "OUT", "--refine", "--lr", "0"],
        ["register", "MOVING", "FIXED", "OUT", "--refine", "--lr", "nan"],
        ["register", "MOVING", "FIXED", "OUT", "--iters", "0"],
        # a loss trace too long to allocate, not a bias correction table that long
        ["register", "MOVING", "FIXED", "OUT", "--refine", "--iters", "1000000000000000000"],
        ["make-label", "OUT", "--landmark", "0,0,0", "--dims", "0,4,4", "--spacing", "1,1,1"],
    ],
    ids=lambda argv: " ".join(argv[argv.index("OUT") + 1:]),
)
def test_out_of_range_options_are_parameter_errors(tmp_path, capsys, argv):
    _, moving, fixed = case_files(tmp_path)
    out = tmp_path / "out"
    paths = {"OUT": str(out), "MOVING": str(moving), "FIXED": str(fixed)}
    before = sorted(os.listdir(tmp_path))
    assert main([paths.get(arg, arg) for arg in argv]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


def test_non_numeric_option_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["synth", str(tmp_path / "out"), "--seed", "x"])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()


def test_compare_uniform_cases(tmp_path, capsys):
    case_dir = tmp_path / "cases"
    main(["synth", str(case_dir), "--seed", "2", "--cases", "3"])
    capsys.readouterr()
    csv_path = tmp_path / "table.csv"
    code = main([
        "compare", str(case_dir),
        "--methods", "identity,umeyama", "--csv", str(csv_path),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "registration performance over 3 case(s)" in text
    assert "hold-out" in text

    rows = csv_path.read_text().strip().split("\n")
    assert rows[0] == "method,mean_mm,std_mm,n_cases"
    by_name = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert by_name["umeyama"] < 1e-9
    assert by_name["identity"] > 1.0


def test_compare_csv_bytes_are_unchanged(tmp_path):
    # two cases offset by (3, 4, 0) and (0, 5, 12): identity TREs are exactly 5 and 13 mm
    corners = [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 10.0)]
    for case_id, offset in (("case_000", (3.0, 4.0, 0.0)), ("case_001", (0.0, 5.0, 12.0))):
        case = tmp_path / "cases" / case_id
        case.mkdir(parents=True)
        write_points(PointSet(np.array(corners)), case / "moving.csv")
        write_points(PointSet(np.array(corners) + offset), case / "fixed.csv")
    csv_path = tmp_path / "table.csv"
    assert main(["compare", str(tmp_path / "cases"), "--methods", "identity", "--csv", str(csv_path)]) == 0
    # as written by the release before outputs were rewritten in place
    assert csv_path.read_bytes() == b"method,mean_mm,std_mm,n_cases\nidentity,9.0,5.656854249492381,2\n"


def test_compare_nonuniform_ordering(tmp_path, capsys):
    case_dir = tmp_path / "cases"
    main([
        "synth", str(case_dir),
        "--seed", "6", "--cases", "4", "--scale-mode", "nonuniform",
    ])
    capsys.readouterr()
    csv_path = tmp_path / "table.csv"
    assert main(["compare", str(case_dir), "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().strip().split("\n")[1:]
    by_name = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
    assert by_name["umeyama+refine"] < by_name["umeyama"] < by_name["identity"]
    assert "p =" in capsys.readouterr().out


def test_compare_prints_the_table_once_through_a_pipe(tmp_path, capsys):
    case_dir = tmp_path / "cases"
    main(["synth", str(case_dir), "--seed", "11", "--cases", "4", "--scale-mode", "nonuniform", "--noise", "1"])
    capsys.readouterr()
    assert main(["compare", str(case_dir)]) == 0
    in_process = capsys.readouterr().out.encode()

    src = os.path.dirname(os.path.dirname(os.path.abspath(landreg.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    piped = subprocess.run(
        [sys.executable, "-m", "landreg.cli", "compare", str(case_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120, check=False,
    )
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == in_process
    assert in_process.count(b"registration performance") == 1


def test_compare_empty_directory(tmp_path):
    empty = tmp_path / "void"
    empty.mkdir()
    assert main(["compare", str(empty)]) == 2


def test_compare_unknown_method(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["compare", str(tmp_path), "--methods", "identity,wizardry"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --methods: unknown method 'wizardry' (known: identity, umeyama, umeyama+refine)\n"
    )


def test_compare_duplicate_method(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["compare", str(tmp_path), "--methods", "umeyama,umeyama"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --methods: duplicate method in 'umeyama,umeyama'\n")


def test_compare_methods_default_to_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["compare", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "comma-separated method names: identity, umeyama, umeyama+refine" in help_text
    assert "(default: ('identity', 'umeyama', 'umeyama+refine'))" in help_text
