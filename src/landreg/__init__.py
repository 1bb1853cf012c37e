"""Landmark-based 3D registration.

Landmarks come from distance-map-style label volumes or binary masks;
registration runs in two stages, a closed-form similarity fit followed
by Adam gradient refinement of a nine-parameter affine transform
(translation, rotation, per-axis scaling); evaluation reports target
registration error with paired-t significance.

The package namespace holds the names the README documents; every other
public name is imported from its submodule.
"""

from .core import AffineParams9, PointSet, Volume3, compose, decompose
from .errors import LandregError
from .evaluate import compare_methods, paired_ttest, tre
from .fileio import read_points, write_points, write_transform, write_volume
from .refine import RefineConfig, loss_gradient, refine
from .synth import SynthConfig, generate_cases, load_cases, save_cases
from .umeyama import umeyama_fit

__version__ = "0.1.0"

__all__ = [
    "AffineParams9",
    "LandregError",
    "PointSet",
    "RefineConfig",
    "SynthConfig",
    "Volume3",
    "compare_methods",
    "compose",
    "decompose",
    "generate_cases",
    "load_cases",
    "loss_gradient",
    "paired_ttest",
    "read_points",
    "refine",
    "save_cases",
    "tre",
    "umeyama_fit",
    "write_points",
    "write_transform",
    "write_volume",
]
