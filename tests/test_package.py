"""The package namespace: what the README documents imports from ``landreg``."""

import contextlib
import io
import os
import subprocess
import sys

import landreg

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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


def test_importing_the_cli_loads_no_process_pool_or_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(landreg.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, landreg.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent', 'scipy')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE, env=env, timeout=60, check=True, text=True
    )
    assert loaded.stdout == "[]\n"
