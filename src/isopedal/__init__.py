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
