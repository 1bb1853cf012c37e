"""The package namespace: what the README documents imports from ``landreg``."""

import contextlib
import io
import os

import landreg

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example_runs():
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, README, "exec"), {})
    assert printed.getvalue().strip()


def test_every_exported_name_exists():
    assert all(hasattr(landreg, name) for name in landreg.__all__)
