"""Hyperbolic triangle geometry with an extended length calculus.

The package has two halves that check each other.  `plane` is a constructive
kernel for the extended projective hyperbolic plane (Minkowski model:
incidence, pole/polar, extended distances and angles, cycles, model
conversions).  `trig` and `centers` carry the closed-form side: triangle
solving, Staudtians, triangular coordinates, and every classical and
pseudo center with its coordinate or radius formula.  `registry` runs both
sides against each other over seeded triangles, and `cli` exposes the whole
thing as a command line tool.
"""

from .errors import GeometryError
from .extscalar import (
    ExtLength,
    PointKind,
    PureImaginary,
    Quantum,
    ext_cosh,
    ext_tanh,
)
from .plane import (
    Cycle,
    CycleKind,
    ExtAngle,
    HLine,
    HPoint,
    LineKind,
    angle_ext,
    classify,
    classify_line,
    cycle_through,
    distance,
    distance_ext,
    join,
    meet,
    model_convert,
    pole,
    polar,
)
from .trig import (
    TriangleData,
    angular_staudtian,
    cevian_ratio,
    point_from_coords,
    solve_from_angles,
    solve_from_sides,
    solve_from_vertices,
    staudtian,
    stewart_residual,
    tri_coords,
)
from .centers import (
    CenterResult,
    centroid,
    circumcenters,
    euler_line,
    incenter_excenters,
    incenter_minimality,
    isogonal_conjugate,
    lemoine_point,
    orthocenter,
    orthocenter_conjugate,
    pseudo_centroid,
    pseudo_orthocenter,
    pseudomedian_feet_center,
    symmedian_point,
)
from .generate import Constraints, gen_triangle
from .registry import ALL_IDS, REGISTRY, run_identity, run_suite

__version__ = "0.1.0"
