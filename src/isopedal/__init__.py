"""Isotropic minimal surfaces, their pedal surfaces, and grid certification.

The package generates minimal surfaces in R^n whose curvature ellipses
are circles up to a prescribed order, builds their pedal surfaces (feet
of perpendiculars from the origin to the tangent planes), transforms
them under sphere inversions, and numerically certifies the geometric
identities tying all of this together.  Everything is driven by exact
polynomial curves and truncated-Taylor (jet) arithmetic: no finite
differences anywhere.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateJet,
    IsopedalError,
    IsotropyViolation,
    NotRegular,
)
from .grid import Grid
from .weierstrass import (
    IsotropicCurve,
    IsotropicSpec,
    SurfaceEvaluator,
    holomorphic_curve,
    preset_curve,
    surface_evaluator,
    w_generate,
)

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateJet",
    "IsopedalError",
    "IsotropyViolation",
    "NotRegular",
    "Grid",
    "IsotropicCurve",
    "IsotropicSpec",
    "SurfaceEvaluator",
    "holomorphic_curve",
    "preset_curve",
    "surface_evaluator",
    "w_generate",
]
