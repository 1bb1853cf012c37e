"""The package namespace: what the README documents imports from ``landreg``."""

import contextlib
import ctypes
import importlib
import io
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import landreg
import landreg.cli
from landreg import PointSet, Volume3, _native, write_points, write_volume
from landreg.refine import LOSS_EPSILON
from landreg.synth import SynthConfig, generate_cases, save_cases

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, README, "exec"), {})
    assert printed.getvalue().strip()


def test_every_exported_name_exists():
    assert all(hasattr(landreg, name) for name in landreg.__all__)


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    """Under this project's warning filters, a generated counterexample is printed, not lost."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout


def package_copy(tmp_path):
    """A copy of the package with an empty kernel cache: the cache and an environment that imports the copy."""
    src = tmp_path / "src"
    shutil.copytree(os.path.dirname(os.path.abspath(landreg.__file__)), src / "landreg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return src / "landreg" / "__pycache__", env


def kernel_files(cache):
    """Every kernel library in the cache, and any build directory left behind: all but the bytecode."""
    return sorted(name for name in os.listdir(cache) if not name.endswith(".pyc")) if cache.exists() else []


def slow_compiler(tmp_path, env):
    """Put a ``cc`` first on ``env``'s PATH that logs each build and sleeps 0.5 s; return the log."""
    slow, log = tmp_path / "bin", tmp_path / "builds.log"
    slow.mkdir()
    (slow / "cc").write_text(f'#!/bin/sh\necho build >> "{log}"\nsleep 0.5\nexec "{shutil.which("cc")}" "$@"\n')
    (slow / "cc").chmod(0o755)
    env["PATH"] = os.pathsep.join([str(slow), env["PATH"]])
    return log


def test_importing_the_cli_loads_no_process_pool_or_scipy(tmp_path):
    # nor the kernel loader or the modules only a kernel build needs, and it builds no kernel
    cache, env = package_copy(tmp_path)
    probe = (
        "import sys, landreg.cli; "
        "print(sorted(m for m in sys.modules if m == 'landreg._native' or m.split('.')[0] in "
        "('multiprocessing', 'concurrent', 'scipy', 'hashlib', 'subprocess')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE, env=env, timeout=60, check=True, text=True
    )
    assert loaded.stdout == "[]\n"
    assert kernel_files(cache) == []


def test_processes_building_at_once_leave_one_library(tmp_path):
    cache, env = package_copy(tmp_path)
    # a compiler slow enough that both processes find the cache empty and build
    log = slow_compiler(tmp_path, env)
    probe = (
        "from landreg.core import AffineParams9, PointSet; from landreg.refine import loss; "
        "print(loss(AffineParams9.identity(), PointSet([[0.0, 0.0, 0.0]]), PointSet([[3.0, 4.0, 0.0]])))"
    )
    runs = [subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=env, text=True) for _ in range(2)]
    outputs = [(run.communicate(timeout=120), run.returncode) for run in runs]
    for (out, err), code in outputs:
        assert code == 0, err
        assert float(out) == math.sqrt(25.0 + LOSS_EPSILON)
    assert log.read_text().splitlines() == ["build", "build"]
    library = kernel_files(cache)
    assert len(library) == 1 and library[0].endswith(".so"), library


def test_threads_building_at_once_leave_one_library(tmp_path):
    cache, env = package_copy(tmp_path)
    # a compiler slow enough that both threads find the cache empty
    log = slow_compiler(tmp_path, env)
    probe = (
        "import threading\n"
        "from landreg.core import AffineParams9, PointSet\n"
        "from landreg.refine import RefineConfig, refine\n"
        "start, losses = threading.Barrier(2, timeout=30), []\n"
        "def run():\n"
        "    start.wait()\n"
        "    result = refine(AffineParams9.identity(), PointSet([[0.0, 0.0, 0.0]]), PointSet([[3.0, 4.0, 0.0]]),\n"
        "                    RefineConfig(iterations=10))\n"
        "    losses.append(result.initial_loss)\n"
        "threads = [threading.Thread(target=run) for _ in range(2)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join()\n"
        "print(losses)\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"{[math.sqrt(25.0 + LOSS_EPSILON)] * 2}\n"
    assert log.read_text().splitlines() == ["build"]
    library = kernel_files(cache)
    assert len(library) == 1 and library[0].endswith(".so"), library


def test_a_build_leaves_one_library_per_kernel(tmp_path, monkeypatch):
    # older versions of the kernel, one of them loaded as a running process holds it
    refine_module = importlib.import_module("landreg.refine")
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in ("_refine.00000000.so", "_refine.0badcafe.so", "_edt.00000000.so"):
        shutil.copy(refine_module._kernel()._name, cache / name)
    loaded = ctypes.CDLL(str(cache / "_refine.00000000.so"))
    monkeypatch.setattr(_native, "_CACHE", str(cache))
    built = _native.load("_refine", "refinement kernel")
    (library,) = set(kernel_files(cache)) - {"_edt.00000000.so"}
    assert re.fullmatch(r"_refine\.[0-9a-f]{8}\.so", library) and built._name == str(cache / library)
    assert kernel_files(cache) == sorted([library, "_edt.00000000.so"])
    # its file is gone, but the library stays mapped and callable
    assert loaded.landreg_has_avx2() == built.landreg_has_avx2()


def test_compare_loads_no_multiprocessing(tmp_path):
    cases = tmp_path / "cases"
    assert landreg.cli.main(["synth", str(cases), "--seed", "1", "--cases", "2"]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(landreg.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys; from landreg.cli import main; code = main(['compare', sys.argv[1]]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    run = subprocess.run([sys.executable, "-c", probe, str(cases)], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


def write_inputs(tmp_path):
    """A registration pair, a 4-case cohort and a 4x3x2 mask with one feature voxel, in ``tmp_path``."""
    save_cases(generate_cases(1, 4), tmp_path / "cases", SynthConfig())
    names = ("a", "b", "c", "d")
    tetra = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]
    write_points(PointSet(tetra, names), str(tmp_path / "moving.csv"))
    write_points(PointSet([[2 * x + 1 for x in row] for row in tetra], names), str(tmp_path / "fixed.csv"))
    write_volume(Volume3(dims=(4, 3, 2), spacing=(1, 1, 2), data=np.eye(1, 24, 5).ravel()), str(tmp_path / "mask.json"))


REGISTER = ["register", "moving.csv", "fixed.csv", "out.json", "--refine"]
EDT = ["edt", "mask.json", "dist.json"]
COMPARE = ["compare", "cases", "--csv", "table.csv"]


def run_cli(tmp_path, env, argv):
    return subprocess.run([sys.executable, "-m", "landreg.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def test_missing_compiler_is_one_error_line(tmp_path):
    cache, env = package_copy(tmp_path)
    env["PATH"] = str(tmp_path / "nothing")
    write_inputs(tmp_path)
    run = run_cli(tmp_path, env, REGISTER)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: cannot build the refinement kernel: no C compiler 'cc' found\n"
    assert kernel_files(cache) == []
    assert not (tmp_path / "out.json").exists()


def test_missing_compiler_for_the_edt_is_one_error_line(tmp_path):
    cache, env = package_copy(tmp_path)
    env["PATH"] = str(tmp_path / "nothing")
    write_inputs(tmp_path)
    run = run_cli(tmp_path, env, EDT)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: cannot build the distance transform kernel: no C compiler 'cc' found\n"
    assert kernel_files(cache) == []
    assert not (tmp_path / "dist.json").exists() and not (tmp_path / "dist.raw").exists()


@pytest.mark.parametrize(("argv", "title", "outputs"), [
    (REGISTER, "refinement kernel", ["out.json"]),
    (EDT, "distance transform kernel", ["dist.json", "dist.raw"]),
    (COMPARE, "refinement kernel", ["table.csv"]),
], ids=["register", "edt", "compare"])
def test_unwritable_kernel_cache_is_one_error_line_naming_the_kernel(tmp_path, argv, title, outputs):
    _, env = package_copy(tmp_path)
    write_inputs(tmp_path)
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "cache"  # under a regular file, so no one can create it
    probe = (
        "import sys, landreg._native as native; native._CACHE = sys.argv[1]; "
        "from landreg.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    run = subprocess.run([sys.executable, "-c", probe, str(cache), *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: cannot build the {title}: cannot write the kernel cache '{cache}': Not a directory\n"
    assert not any((tmp_path / name).exists() for name in outputs)


def test_compiler_that_cannot_run_is_one_error_naming_the_kernel(tmp_path, monkeypatch):
    fake = tmp_path / "bin" / "cc"
    fake.parent.mkdir()
    fake.write_text("")  # not executable, even for root
    monkeypatch.setenv("PATH", str(fake.parent))
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path / "cache"))
    with pytest.raises(OSError, match="^cannot build the refinement kernel: cannot run 'cc': Permission denied$"):
        _native.load("_refine", "refinement kernel")
    assert os.listdir(tmp_path / "cache") == []


def test_each_command_builds_only_its_own_kernel(tmp_path):
    cache, env = package_copy(tmp_path)
    write_inputs(tmp_path)
    run = run_cli(tmp_path, env, REGISTER)
    assert run.returncode == 0, run.stderr
    (refine,) = kernel_files(cache)
    run = run_cli(tmp_path, env, EDT)
    assert run.returncode == 0, run.stderr
    both = kernel_files(cache)
    (edt,) = set(both) - {refine}
    assert len(both) == 2 and re.fullmatch(r"_refine\.[0-9a-f]{8}\.so", refine) and re.fullmatch(r"_edt\.[0-9a-f]{8}\.so", edt)
