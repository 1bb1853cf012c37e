"""Landmark-based 3D registration.

Landmarks come from distance-map-style label volumes or binary masks;
registration runs in two stages, a closed-form similarity fit followed
by Adam gradient refinement of a nine-parameter affine transform
(translation, rotation, per-axis scaling); evaluation reports target
registration error with paired-t significance.
"""

from .core import (
    AffineMatrix,
    AffineParams9,
    Point3,
    PointSet,
    Volume3,
    compose,
    decompose,
    rotation_matrix,
    transform_array,
)
from .errors import (
    ConvergenceError,
    CorrespondenceError,
    DecompositionError,
    DegenerateConfigurationError,
    DegenerateGeometryError,
    DegenerateTestError,
    DivergenceError,
    FormatError,
    InsufficientSampleError,
    InvalidDataError,
    InvalidParameterError,
    LandregError,
    NoFeatureError,
    OutOfBoundsError,
)
from .evaluate import (
    EvalCase,
    MethodComparison,
    RegistrationReport,
    TREStat,
    compare_methods,
    identity_method,
    paired_ttest,
    refined_method,
    tre,
    umeyama_method,
)
from .fileio import (
    read_points,
    read_transform,
    read_volume,
    write_points,
    write_trace,
    write_transform,
    write_volume,
)
from .landmarks import (
    LABEL_DECAY,
    LABEL_FLOOR,
    BinaryMask,
    DistanceMap,
    LabelMap,
    distance_transform,
    extract_extremes,
    make_label,
    recover_landmark,
)
from .refine import RefineConfig, RefineResult, loss, loss_gradient, refine
from .synth import SynthConfig, SyntheticCase, generate_case, generate_cases, load_cases, save_cases
from .umeyama import umeyama_fit

__version__ = "0.1.0"

__all__ = [
    "AffineMatrix",
    "AffineParams9",
    "BinaryMask",
    "ConvergenceError",
    "CorrespondenceError",
    "DecompositionError",
    "DegenerateConfigurationError",
    "DegenerateGeometryError",
    "DegenerateTestError",
    "DistanceMap",
    "DivergenceError",
    "EvalCase",
    "FormatError",
    "InsufficientSampleError",
    "InvalidDataError",
    "InvalidParameterError",
    "LABEL_DECAY",
    "LABEL_FLOOR",
    "LabelMap",
    "LandregError",
    "MethodComparison",
    "NoFeatureError",
    "OutOfBoundsError",
    "Point3",
    "PointSet",
    "RefineConfig",
    "RefineResult",
    "RegistrationReport",
    "SynthConfig",
    "SyntheticCase",
    "TREStat",
    "Volume3",
    "compare_methods",
    "compose",
    "decompose",
    "distance_transform",
    "extract_extremes",
    "generate_case",
    "generate_cases",
    "identity_method",
    "load_cases",
    "loss",
    "loss_gradient",
    "make_label",
    "paired_ttest",
    "read_points",
    "read_transform",
    "read_volume",
    "recover_landmark",
    "refine",
    "refined_method",
    "rotation_matrix",
    "save_cases",
    "tre",
    "transform_array",
    "umeyama_fit",
    "umeyama_method",
    "write_points",
    "write_trace",
    "write_transform",
    "write_volume",
]
