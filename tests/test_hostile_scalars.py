"""Direct library calls on hostile scalars: a valid result or a library error.

The library twin of the hostile-file test in ``test_errors.py``. Each case
calls one constructor or function of ``landreg.__all__`` (or ``Point3``,
``Volume3.voxel_center``, ``extract_extremes`` and ``TREStat.from_values``,
which share its checks) with one numeric or count argument replaced by a
hostile value. The call must return or raise a ``LandregError``; a foreign
exception or a ``RuntimeWarning`` fails it. A scalar parameter must also
refuse every value that is not a Python or numpy integer or float, so a
string or a bool is never coerced without a word.
An array element is left to the array's dtype check: numpy may widen a bool
among floats, but a string, ``None`` or an integer beyond 64 bits is refused.
Path parameters are out of scope.
"""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import landreg
from landreg import (
    AffineParams9,
    PointSet,
    RefineConfig,
    SynthConfig,
    Volume3,
    compose,
    decompose,
    generate_cases,
    loss_gradient,
    paired_ttest,
    refine,
    tre,
    umeyama_fit,
)
from landreg.core import AffineMatrix, Point3
from landreg.errors import LandregError
from landreg.evaluate import TREStat
from landreg.landmarks import BinaryMask, extract_extremes

HOSTILE = st.one_of(
    st.sampled_from(
        [
            "1", "1e0", "nan", "", True, False, None, math.nan, math.inf, -math.inf, 1e308, -1e308,
            10**400, -(10**400), np.float64(math.nan), np.float32(math.inf), np.float64(1e308),
            np.float32(1.5), np.int64(-1), np.int64(2), np.uint8(3), np.array(1.0), np.array(2),
            np.array(math.nan), Fraction(1, 2), Decimal("1"), complex(1, 0),
        ]
    ),
    st.floats(),
    st.integers(-3, 3),
    st.text(max_size=3),
)

TETRA = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]
MOVING = PointSet(TETRA)
FIXED = PointSet(np.array(TETRA) * 1.5 + 2.0)
SYNTH_NUMBERS = ("n_fit", "n_holdout", "noise_sigma")
GRID = Volume3((2, 2, 2), (1.0, 1.0, 1.0), data=np.ones(8))


def _put(values, slot, value):
    values = list(values)
    values[slot % len(values)] = value
    return values


def _triples(value, slot):
    v = _put((1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 1.5, 0.75, 2.0), slot, value)
    return v[0:3], v[3:6], v[6:9]


def _params(value, slot):
    return AffineParams9(*_triples(value, slot))


def _points(value, slot):
    v = _put(np.ravel(TETRA).tolist(), slot, value)
    return PointSet([v[0:3], v[3:6], v[6:9], v[9:12]])


def _matrix(value, slot):
    v = _put(np.eye(4)[:3].ravel().tolist(), slot, value)
    return AffineMatrix([v[0:4], v[4:8], v[8:12], [0.0, 0.0, 0.0, 1.0]])


def _samples(value, slot):
    v = _put((1.5, 1.0, 2.0, 1.0, 2.0, 3.0), slot, value)
    return v[0:3], v[3:6]


def _generate_cases(value):
    # a valid count is honoured, not refused: 10**400 cases would run for ever
    assume(not (isinstance(value, (int, np.integer)) and value > 3))
    return generate_cases(0, value, SynthConfig(n_holdout=0))


SCALAR, ELEMENT = "scalar", "element"

# case -> (kind of the replaced argument, call with the hostile value in slot i)
CASES = {
    "AffineParams9": (SCALAR, _params),
    "Point3": (SCALAR, lambda v, i: Point3(*_put((1.0, 2.0, 3.0), i, v))),
    "PointSet": (ELEMENT, _points),
    "RefineConfig": (SCALAR, lambda v, i: RefineConfig(**{("iterations", "step_size")[i % 2]: v})),
    "SynthConfig": (SCALAR, lambda v, i: SynthConfig(**{SYNTH_NUMBERS[i % 3]: v})),
    "TREStat.from_values": (ELEMENT, lambda v, i: TREStat.from_values(_put((1.0, 2.0), i, v))),
    "Volume3 dims": (SCALAR, lambda v, i: Volume3(_put((2, 1, 1), i, v), (1.0, 1.0, 1.0))),
    "Volume3 spacing": (SCALAR, lambda v, i: Volume3((2, 1, 1), _put((1.0, 1.0, 1.0), i, v))),
    "Volume3 data": (ELEMENT, lambda v, i: Volume3((2, 1, 1), (1.0, 1.0, 1.0), data=_put((0.0, 1.0), i, v))),
    "Volume3.voxel_center": (SCALAR, lambda v, i: GRID.voxel_center(*_put((1, 1, 1), i, v))),
    "compose": (SCALAR, lambda v, i: compose(_triples(v, i))),
    "decompose": (ELEMENT, lambda v, i: decompose(_matrix(v, i))),
    "generate_cases seed": (SCALAR, lambda v, i: generate_cases(v, 1, SynthConfig(n_holdout=0))),
    "generate_cases n_cases": (SCALAR, lambda v, i: _generate_cases(v)),
    "generate_cases config": (SCALAR, lambda v, i: generate_cases(0, 1, SynthConfig(**{SYNTH_NUMBERS[i % 3]: v}))),
    "extract_extremes": (SCALAR, lambda v, i: extract_extremes(BinaryMask(GRID), v)),
    "loss_gradient": (SCALAR, lambda v, i: loss_gradient(_params(v, i), MOVING, FIXED)),
    "paired_ttest": (ELEMENT, lambda v, i: paired_ttest(*_samples(v, i))),
    "refine": (SCALAR, lambda v, i: refine(_params(v, i), MOVING, FIXED, RefineConfig(iterations=3))),
    "tre": (ELEMENT, lambda v, i: tre(_matrix(v, i), MOVING, FIXED)),
    "umeyama_fit": (ELEMENT, lambda v, i: umeyama_fit(_points(v, i), FIXED)),
}

# names that take no number: their parameters are paths or library objects,
# whose numbers the cases above check where they are built
TAKES_NO_NUMBER = {
    "LandregError",
    "compare_methods",
    "load_cases",
    "read_points",
    "save_cases",
    "write_points",
    "write_transform",
    "write_volume",
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def test_every_public_name_has_a_case():
    covered = {case.split()[0] for case in CASES} | TAKES_NO_NUMBER
    assert sorted(set(landreg.__all__) - covered) == []


@settings(max_examples=400)
@given(case=st.sampled_from(sorted(CASES)), slot=st.integers(0, 11), value=HOSTILE)
# strings coerced without a word
@example(case="Point3", slot=0, value="1")
@example(case="Volume3 spacing", slot=0, value="1")
@example(case="AffineParams9", slot=0, value="0")
# foreign exceptions and warnings
@example(case="PointSet", slot=0, value="a")
@example(case="paired_ttest", slot=0, value="a")
@example(case="paired_ttest", slot=0, value=math.inf)
@example(case="paired_ttest", slot=0, value=math.nan)
# integers beyond the float range
@example(case="RefineConfig", slot=1, value=10**400)
@example(case="SynthConfig", slot=2, value=10**400)
@example(case="Point3", slot=0, value=10**400)
# counts numpy cannot shape, indices and axes that are not integers, array elements that are not numbers
@example(case="generate_cases config", slot=0, value=10**400)
@example(case="generate_cases config", slot=1, value=10**400)
@example(case="Volume3.voxel_center", slot=0, value="1")
@example(case="Volume3.voxel_center", slot=1, value=1.5)
@example(case="Volume3.voxel_center", slot=2, value=True)
@example(case="extract_extremes", slot=0, value=True)
@example(case="extract_extremes", slot=0, value=1.0)
@example(case="TREStat.from_values", slot=0, value="a")
@example(case="TREStat.from_values", slot=0, value=None)
def test_hostile_scalar_gives_a_result_or_a_library_error(case, slot, value):
    kind, call = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(value, slot)
        except LandregError:
            return
    assert kind == ELEMENT or _is_real(value), f"{case} took {value!r} in slot {slot}"
