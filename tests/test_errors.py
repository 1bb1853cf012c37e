"""The exit-code contract: each error class's code, and hostile input files.

Every malformed file the CLI reads must end in a one-line ``error:``
message and an exit code from the README table, never in a traceback.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from landreg import errors
from landreg.cli import main
from landreg.core import AffineMatrix, PointSet, Volume3
from landreg.fileio import write_points, write_transform, write_volume

# The README's "Exit codes" table, one entry per error class.
README_EXIT_CODES = {
    "LandregError": 1,
    "FormatError": 2,
    "InvalidDataError": 3,
    "NoFeatureError": 3,
    "OutOfBoundsError": 3,
    "DegenerateGeometryError": 3,
    "DegenerateTestError": 3,
    "InsufficientSampleError": 3,
    "CorrespondenceError": 4,
    "ConvergenceError": 5,
    "DegenerateConfigurationError": 5,
    "DecompositionError": 5,
    "DivergenceError": 5,
    "InvalidParameterError": 5,
}

ERROR_CLASSES = sorted(
    (obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, errors.LandregError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_declares_readme_exit_code(cls):
    assert "exit_code" in vars(cls)
    assert cls.exit_code == README_EXIT_CODES[cls.__name__]


TETRA = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])

# Files each command reads; the hostile test corrupts one of them.
TARGETS = {
    "register": ("moving.csv", "fixed.csv"),
    "evaluate": ("t.json", "moving.csv", "fixed.csv"),
    "extract": ("vol.json", "vol.raw"),
    "edt": ("vol.json", "vol.raw"),
    "compare": ("cases/case_000/moving.csv", "cases/case_000/fixed.csv"),
}


def _argv(command, root):
    def at(name):
        return os.path.join(root, name)

    return {
        "register": ["register", at("moving.csv"), at("fixed.csv"), at("out.json")],
        "evaluate": ["evaluate", at("t.json"), at("moving.csv"), at("fixed.csv")],
        "extract": ["extract", at("vol.json")],
        "edt": ["edt", at("vol.json"), at("out_vol.json")],
        "compare": ["compare", at("cases"), "--methods", "identity,umeyama"],
    }[command]


def _valid_files():
    """Bytes of one valid input set, keyed by path relative to its root."""
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "cases", "case_000"))
        for name in ("moving.csv", "fixed.csv", "cases/case_000/moving.csv", "cases/case_000/fixed.csv"):
            write_points(PointSet(TETRA), os.path.join(root, name))
        write_transform(AffineMatrix.identity(), os.path.join(root, "t.json"))
        mask = np.zeros(6)
        mask[4] = 1.0
        write_volume(Volume3(dims=(3, 2, 1), spacing=(1.0, 1.0, 2.0), data=mask), os.path.join(root, "vol.json"))
        out = {}
        for base, _, files in os.walk(root):
            for name in files:
                full = os.path.join(base, name)
                with open(full, "rb") as fh:
                    out[os.path.relpath(full, root).replace(os.sep, "/")] = fh.read()
        return out


VALID = _valid_files()
HEADER = json.loads(VALID["vol.json"])


def _not_finite_float(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# A matrix entry that is not a JSON number.
bad_entries = (
    st.none()
    | st.booleans()
    | st.text(max_size=4)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
    | st.lists(st.integers(), max_size=3)
)
junk_text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n'), max_size=12)


def _dump(value):
    return json.dumps(value).encode()


IDENTITY_ENTRIES = [float(v) for v in np.eye(4).reshape(-1)]
HUGE_CSV = b"name,x,y,z\np0,1e308,1e308,1e308\np1,-1e308,1e308,-1e308\np2,1e308,-1e308,-1e308\np3,-1e308,-1e308,1e308\n"


@st.composite
def matrices_with_bad_entry(draw):
    entries = draw(st.lists(st.integers(-3, 3), min_size=15, max_size=15))
    entries.insert(draw(st.integers(0, 15)), draw(bad_entries))
    return {"matrix": entries}


def _may_be_valid(key, value):
    """Whether ``value`` could pass for header field ``key`` (any triple might)."""
    if key == "dtype":
        return value == "f32"
    return isinstance(value, list) and len(value) == 3


@st.composite
def headers_with_bad_field(draw):
    key = draw(st.sampled_from(sorted(HEADER)))
    header = dict(HEADER)
    if draw(st.booleans()):
        del header[key]
    elif key == "data":
        header[key] = draw(st.sampled_from(["../", "/", "sub/../../"])) + draw(junk_text)
    else:
        header[key] = draw(json_values.filter(lambda v: not _may_be_valid(key, v)))
    return header


@st.composite
def hostile_content(draw, target):
    valid = VALID[target]
    cut = draw(st.integers(0, len(valid.rstrip()) - 1))
    if target.endswith(".raw"):
        # any size but the one the header declares
        junk = draw(st.binary(min_size=1, max_size=8))
        return draw(st.sampled_from([valid[:cut], valid[:cut] + junk + valid[cut:]]))
    family = draw(st.integers(0, 2))
    if family == 0:
        return valid[:cut] + b"\xff" + valid[cut:]  # not UTF-8
    if target.endswith(".csv"):
        if family == 1:
            return b"name,x,y,z\na,1,2," + draw(junk_text.filter(_not_finite_float)).encode() + b"\n"
        return ("#" + draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=24))).encode()
    if family == 1:
        return valid[:cut]  # truncated JSON
    # well-formed JSON holding a value of the wrong type or shape
    if target == "vol.json":
        return _dump(draw(headers_with_bad_field()))
    return _dump(
        draw(
            st.one_of(
                json_values.filter(lambda v: not isinstance(v, dict)),
                json_values.filter(lambda v: not isinstance(v, list) or len(v) != 16).map(lambda v: {"matrix": v}),
                matrices_with_bad_entry(),
            )
        )
    )


@st.composite
def hostile_requests(draw):
    command = draw(st.sampled_from(sorted(TARGETS)))
    target = draw(st.sampled_from(TARGETS[command]))
    return command, target, draw(hostile_content(target))


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(request=hostile_requests())
# non-UTF-8 bytes in each file kind, JSON objects as matrix entries, deep
# nesting, integers beyond float range and a CSV field over the parser's limit
@example(request=("register", "moving.csv", b"name,x,y,z\n\xff,1,2,3\n"))
@example(request=("evaluate", "t.json", b'{"matrix": "\xff"}'))
@example(request=("extract", "vol.json", b'{"dims": "\xff"}'))
@example(request=("evaluate", "t.json", _dump({"matrix": [{}] * 16})))
@example(request=("evaluate", "t.json", b'{"matrix": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"))
@example(request=("evaluate", "t.json", _dump({"matrix": [10**400] * 16})))
@example(request=("compare", "cases/case_000/moving.csv", b"name,x,y,z\n" + b"a" * 200_000 + b",1,2,3\n"))
# strings and booleans where the formats promise numbers
@example(request=("evaluate", "t.json", _dump({"matrix": ["1"] + IDENTITY_ENTRIES[1:]})))
@example(request=("evaluate", "t.json", _dump({"matrix": [True] + IDENTITY_ENTRIES[1:]})))
@example(request=("evaluate", "t.json", _dump({"matrix": ["1e0"] + IDENTITY_ENTRIES[1:]})))
@example(request=("extract", "vol.json", _dump({**HEADER, "spacing": ["1", True, "2.5"]})))
@example(request=("edt", "vol.json", _dump({**HEADER, "origin": ["1e0", 0.0, False]})))
# finite coordinates whose moments overflow the closed-form fit
@example(request=("register", "moving.csv", HUGE_CSV))
@example(request=("compare", "cases/case_000/fixed.csv", HUGE_CSV))
def test_hostile_files_exit_with_contract_code(request):
    command, target, content = request
    with tempfile.TemporaryDirectory() as root:
        for name, blob in VALID.items():
            os.makedirs(os.path.dirname(os.path.join(root, name)), exist_ok=True)
            with open(os.path.join(root, name), "wb") as fh:
                fh.write(content if name == target else blob)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(_argv(command, root))
    assert code in (2, 3, 4, 5)
    assert "Traceback" not in stderr.getvalue()
    assert stderr.getvalue().startswith("error: ")
    assert stderr.getvalue().count("\n") == 1
