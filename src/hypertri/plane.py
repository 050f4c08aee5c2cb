r"""The extended projective hyperbolic plane over the Minkowski form.

Points and lines are homogeneous triples ``(x, y, w)``; the bilinear form is

    <u, v> = u.w * v.w - u.x * v.x - u.y * v.y

so ``w`` is the timelike coordinate.  A point ``P`` lies on a line ``l``
exactly when ``<P, l> = 0``; a line is stored as the coordinate vector of its
pole, which makes pole/polar the identity on coordinates and gives both
``join`` and ``meet`` the same cross-product formula.

Classification is by the sign of the quadratic form ``Q(u) = <u, u>`` on the
max-norm-normalized triple:

    points:  Q > eps real (inside the disk), |Q| <= eps boundary (infinite),
             Q < -eps ideal (beyond the boundary);
    lines:   Q < -eps real, |Q| <= eps tangent (line at infinity),
             Q > eps ideal.

Real points normalize to ``Q = 1, w > 0``; real lines to ``Q = -1``.  With
those normalizations

    cosh dist(P, Q)        = <P, Q>          (real points)
    sinh signed_dist(P, l) = <P, l>          (real point, real line)

and everything else in the module (feet, bisectors, reflections, cycles,
extended distances and angles) is built from these two facts.  The module is
the constructive oracle against which every closed-form triangle formula in
the package is differentially tested.

All values are immutable and all functions pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CoincidentArguments,
    CoincidentLines,
    CollinearPoints,
    GeometryError,
    IdenticalPoints,
    OutOfDomain,
    ZeroVector,
)
from .extscalar import ExtLength, PointKind, PureImaginary, Quantum

EPS_CLS = 1e-9

_R, _IN, _ID = PointKind.REAL, PointKind.INFINITE, PointKind.IDEAL


class LineKind(Enum):
    REAL = "real"
    AT_INFINITY = "at_infinity"
    IDEAL = "ideal"


class CycleKind(Enum):
    CIRCLE = "circle"
    PARACYCLE = "paracycle"
    HYPERCYCLE = "hypercycle"


@dataclass(frozen=True, slots=True)
class HPoint:
    x: float
    y: float
    w: float

    def klein(self) -> tuple[float, float]:
        """Affine chart coordinates (x/w, y/w); meaningful inside the disk."""
        return (self.x / self.w, self.y / self.w)

    def to_json(self, model: str = "hyperboloid"):
        if model == "hyperboloid":
            n = normalize(self)
            return {"model": "hyperboloid", "coords": [n.x, n.y, n.w]}
        if model == "klein":
            kx, ky = self.klein()
            return {"model": "klein", "coords": [kx, ky]}
        if model == "poincare":
            px, py = model_convert(self.klein(), "klein", "poincare")
            return {"model": "poincare", "coords": [px, py]}
        raise OutOfDomain(f"unknown model {model!r}")

    @classmethod
    def from_json(cls, obj) -> "HPoint":
        model = obj["model"]
        coords = obj["coords"]
        if model == "hyperboloid":
            return cls(*coords)
        x, y = model_convert(tuple(coords), model, "klein")
        return cls(x, y, 1.0)


class UnitPoint(HPoint):
    """A real point in unit form (``Q = 1``, ``w > 0``), as `normalize` returns
    it; `normalize` hands one back unchanged."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class HLine:
    x: float
    y: float
    w: float


@dataclass(frozen=True, slots=True)
class Cycle:
    """A circumscribing cycle: circle, paracycle or hypercycle by center kind."""

    center: HPoint
    radius: ExtLength
    kind: CycleKind


def mdot(u, v) -> float:
    return u.w * v.w - u.x * v.x - u.y * v.y


def qform(u) -> float:
    return u.w * u.w - u.x * u.x - u.y * u.y


def _maxnorm(u) -> float:
    return max(abs(u.x), abs(u.y), abs(u.w))


def classify(p: HPoint) -> PointKind:
    if p.__class__ is UnitPoint:
        return _R
    m = _maxnorm(p)
    if m == 0.0:
        raise ZeroVector("cannot classify the zero triple")
    q = qform(p) / (m * m)
    if q > EPS_CLS:
        return _R
    if q < -EPS_CLS:
        return _ID
    return _IN


def classify_line(l: HLine) -> LineKind:
    m = _maxnorm(l)
    if m == 0.0:
        raise ZeroVector("cannot classify the zero triple")
    q = qform(l) / (m * m)
    if q < -EPS_CLS:
        return LineKind.REAL
    if q > EPS_CLS:
        return LineKind.IDEAL
    return LineKind.AT_INFINITY


def _mcross(u, v, error, message) -> tuple[float, float, float]:
    """Metric dual of the Euclidean cross product, G @ (u x v) with
    G = diag(-1, -1, 1); raises ``error(message)`` when u and v are
    proportional (the cross product vanishes relative to their max-norms)."""
    cx = u.y * v.w - u.w * v.y
    cy = u.w * v.x - u.x * v.w
    cw = u.x * v.y - u.y * v.x
    if max(abs(cx), abs(cy), abs(cw)) <= 1e-14 * (_maxnorm(u) * _maxnorm(v)):
        raise error(message)
    return (-cx, -cy, cw)


def join(p: HPoint, q: HPoint) -> HLine:
    """The unique line through two distinct points."""
    return HLine(*_mcross(p, q, CoincidentArguments, "join of proportional points"))


def meet(l: HLine, m: HLine) -> HPoint:
    """The common point of two distinct lines."""
    return HPoint(*_mcross(l, m, CoincidentArguments, "meet of proportional lines"))


def polar(p: HPoint) -> HLine:
    """Index-lowering by the bilinear form; same coordinates, dual type."""
    if _maxnorm(p) == 0.0:
        raise ZeroVector("polar of the zero triple")
    return HLine(p.x, p.y, p.w)


def pole(l: HLine) -> HPoint:
    if _maxnorm(l) == 0.0:
        raise ZeroVector("pole of the zero triple")
    return HPoint(l.x, l.y, l.w)


def normalize(p: HPoint) -> HPoint:
    """Canonical representative: Q = 1 and w > 0 for real points (a
    `UnitPoint`), |Q| = 1 for ideal ones, max-norm 1 for boundary points."""
    if p.__class__ is UnitPoint:
        return p
    q = qform(p)
    m = _maxnorm(p)
    if m == 0.0:
        raise ZeroVector("normalize of the zero triple")
    if q / (m * m) > EPS_CLS:
        s = 1.0 / math.sqrt(q)
        if p.w < 0:
            s = -s
        return UnitPoint(p.x * s, p.y * s, p.w * s)
    if q / (m * m) < -EPS_CLS:
        s = 1.0 / math.sqrt(-q)
        return HPoint(p.x * s, p.y * s, p.w * s)
    return HPoint(p.x / m, p.y / m, p.w / m)


def normalize_line(l: HLine) -> HLine:
    """Unit representative of a real line (Q = -1); others get max-norm 1."""
    q = qform(l)
    m = _maxnorm(l)
    if m == 0.0:
        raise ZeroVector("normalize of the zero triple")
    if q / (m * m) < -EPS_CLS:
        s = 1.0 / math.sqrt(-q)
        return HLine(l.x * s, l.y * s, l.w * s)
    if q / (m * m) > EPS_CLS:
        s = 1.0 / math.sqrt(q)
        return HLine(l.x * s, l.y * s, l.w * s)
    return HLine(l.x / m, l.y / m, l.w / m)


def acosh_clamped(x: float) -> float:
    """arccosh with rounding just below the domain absorbed to 1."""
    if x < 1.0:
        if x > 1.0 - 1e-12:
            return 0.0
        raise ValueError(f"acosh argument {x} below domain")
    return math.acosh(x)


def distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance between two real points.

    Short distances are computed from the difference vector,
    ``2 sinh(d/2) = |p - q|`` in the Minkowski norm, which keeps full
    relative precision where ``acosh`` near 1 would lose half of it.
    """
    pn, qn = normalize(p), normalize(q)
    c = mdot(pn, qn)
    if c < 1.005:
        dv = (pn.x - qn.x, pn.y - qn.y, pn.w - qn.w)
        s2 = dv[0] * dv[0] + dv[1] * dv[1] - dv[2] * dv[2]
        return 2.0 * math.asinh(0.5 * math.sqrt(max(s2, 0.0)))
    return acosh_clamped(c)


def signed_line_distance(p: HPoint, l: HLine) -> float:
    """Signed distance from a real point to a real line (sign = side)."""
    return math.asinh(mdot(normalize(p), normalize_line(l)))


def tangent_toward(p: HPoint, q: HPoint) -> tuple[float, float, float]:
    """Unit tangent vector at normalized real ``p`` pointing toward ``q``.

    sinh of the distance is taken from the difference vector (see `distance`)
    so directions stay accurate for nearby points.
    """
    pn, qn = normalize(p), normalize(q)
    c = mdot(pn, qn)
    dv = (pn.x - qn.x, pn.y - qn.y, pn.w - qn.w)
    half2 = dv[0] * dv[0] + dv[1] * dv[1] - dv[2] * dv[2]
    s = math.sqrt(max(half2 * (1.0 + 0.25 * half2), 0.0))  # 2 sinh(d/2) cosh(d/2)
    if s == 0.0:
        raise IdenticalPoints("tangent direction between coincident points")
    return ((qn.x - c * pn.x) / s, (qn.y - c * pn.y) / s, (qn.w - c * pn.w) / s)


def geodesic_point(p: HPoint, t: tuple[float, float, float], u: float) -> HPoint:
    """Point at signed arc length ``u`` from normalized ``p`` along unit tangent ``t``."""
    cu, su = math.cosh(u), math.sinh(u)
    return HPoint(cu * p.x + su * t[0], cu * p.y + su * t[1], cu * p.w + su * t[2])


def arc_coordinate(f: HPoint, t: tuple[float, float, float]) -> float:
    """Signed arc length of real ``f`` on the geodesic with unit tangent ``t``,
    measured from the point where ``t`` is taken."""
    fn = normalize(f)
    return math.asinh(-mdot(fn, HPoint(*t)))


def vertex_angle(p: HPoint, q: HPoint, r: HPoint) -> float:
    """Interior angle at real ``p`` between the geodesics toward ``q`` and ``r``."""
    tq = tangent_toward(p, q)
    tr = tangent_toward(p, r)
    c = -(tq[2] * tr[2] - tq[0] * tr[0] - tq[1] * tr[1])
    return math.acos(min(1.0, max(-1.0, c)))


def foot_of_perpendicular(p: HPoint, l: HLine) -> HPoint:
    """Foot of the perpendicular from ``p`` to ``l`` (the meet of ``l`` with the
    perpendicular through ``p``, which passes through the pole of ``l``)."""
    perp = _mcross(p, pole(l), CoincidentArguments, "point is the pole of the line")
    return meet(HLine(*perp), l)


def perpendicular_line(p: HPoint, l: HLine) -> HLine:
    """The perpendicular to ``l`` through ``p``."""
    return join(p, pole(l))


def midpoint(p: HPoint, q: HPoint) -> HPoint:
    pn, qn = normalize(p), normalize(q)
    return normalize(HPoint(pn.x + qn.x, pn.y + qn.y, pn.w + qn.w))


def perpendicular_bisector(p: HPoint, q: HPoint) -> HLine:
    """Locus of points equidistant from two real points (of the segment through
    the disk); its coordinate vector is the difference of the unit representatives."""
    pn, qn = normalize(p), normalize(q)
    l = HLine(pn.x - qn.x, pn.y - qn.y, pn.w - qn.w)
    if _maxnorm(l) <= 1e-15:
        raise IdenticalPoints("bisector of coincident points")
    return l


def complementary_bisector(p: HPoint, q: HPoint) -> HLine:
    """Perpendicular bisector of the complementary segment (sum of units)."""
    pn, qn = normalize(p), normalize(q)
    return HLine(pn.x + qn.x, pn.y + qn.y, pn.w + qn.w)


def angle_bisectors(vertex: HPoint, ray1: HLine, ray2: HLine) -> tuple[HLine, HLine]:
    """The two bisector lines of the angles formed at ``vertex`` by two lines.

    Returned as (difference, sum) of the unit line vectors; the pair is
    Minkowski-orthogonal.  Which one bisects the angle a caller cares about
    depends on the orientation of the input vectors, so callers with a
    triangle at hand should orient the side lines first.
    """
    _mcross(ray1, ray2, CoincidentLines, "bisectors of one line")
    a, b = normalize_line(ray1), normalize_line(ray2)
    return (
        HLine(a.x - b.x, a.y - b.y, a.w - b.w),
        HLine(a.x + b.x, a.y + b.y, a.w + b.w),
    )


def reflect(p: HPoint, l: HLine) -> HPoint:
    """Reflection of a point in a line; a point on the line is returned as is."""
    q = qform(l)
    if q == 0.0:
        raise ZeroVector("reflection in a degenerate (tangent) line")
    k = 2.0 * mdot(p, l) / q
    return HPoint(p.x - k * l.x, p.y - k * l.y, p.w - k * l.w)


def reflect_line(m: HLine, l: HLine) -> HLine:
    """Reflection of a line in a line (same Householder formula)."""
    q = qform(l)
    if q == 0.0:
        raise ZeroVector("reflection in a degenerate (tangent) line")
    k = 2.0 * mdot(m, l) / q
    return HLine(m.x - k * l.x, m.y - k * l.y, m.w - k * l.w)


# --------------------------------------------------------------------------
# extended distances and angles

def distance_ext(a: HPoint, b: HPoint):
    """The tabulated pair (AB, BA) of extended segment lengths of a point pair.

    Dispatches on the kinds of the two points and of their join.  Both
    components are `ExtLength` except for a pair of ideal points on an ideal
    line, whose segments are purely imaginary with free magnitude
    (`PureImaginary`).  Finite pairs always sum to ``pi * i``.
    """
    try:
        l = join(a, b)
    except CoincidentArguments:
        raise IdenticalPoints("distance between coincident projective points")
    ka, kb = classify(a), classify(b)

    if ka is _R and kb is _R:
        d = distance(a, b)
        return (ExtLength(d), ExtLength(-d, Quantum.PI))

    if (ka is _R and kb is _ID) or (ka is _ID and kb is _R):
        real_pt = a if ka is _R else b
        ideal_pt = b if ka is _R else a
        d = abs(signed_line_distance(real_pt, polar(ideal_pt)))
        return (ExtLength(d, Quantum.HALF_PI), ExtLength(-d, Quantum.HALF_PI))

    if _R in (ka, kb):
        # real with infinite
        return (ExtLength(math.inf), ExtLength(-math.inf))

    lk = classify_line(l)
    if ka is _IN and kb is _IN:
        return (ExtLength(math.inf), ExtLength(-math.inf))

    if _IN in (ka, kb):
        # infinite with ideal: on a real line the pair is (inf, -inf); on the
        # tangent line at the infinite point both segments are (pi/2) i
        if lk is LineKind.AT_INFINITY:
            h = ExtLength(0.0, Quantum.HALF_PI)
            return (h, h)
        return (ExtLength(math.inf), ExtLength(-math.inf))

    # ideal with ideal
    if lk is LineKind.REAL:
        an, bn = normalize(a), normalize(b)
        d = acosh_clamped(abs(mdot(an, bn)))
        return (ExtLength(d, Quantum.PI), ExtLength(-d))
    if lk is LineKind.AT_INFINITY:
        return (ExtLength(0.0), ExtLength(0.0, Quantum.PI))
    # ideal line: length is the angle of the polars (at a real point) times i
    m = meet(polar(a), polar(b))
    phi = _line_angle_at(polar(a), polar(b), m)
    return (PureImaginary(phi), PureImaginary(math.pi - phi))


def _line_angle_at(u: HLine, v: HLine, m: HPoint) -> float:
    """Angle in (0, pi) between two real lines at their real meet, canonically
    the acute member of the pair."""
    un, vn = normalize_line(u), normalize_line(v)
    c = abs(mdot(un, vn))
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True, slots=True)
class ExtAngle:
    """An extended angle: quantized real part plus a free ``/i`` part.

    Values are ``re + over_i / i`` (that is, ``re - over_i * i``).  Angles of
    lines meeting in a real point are plain reals (``over_i = 0``); all other
    configurations put the free channel in ``over_i`` with ``re`` one of
    {0, pi/2, pi}, or are signed infinities.  An angle times ``i`` is the
    extended distance of the poles, which is how the two calculi correspond.
    """

    re: float
    over_i: float = 0.0

    def complement(self) -> "ExtAngle":
        if math.isinf(self.re):
            return ExtAngle(-self.re)
        return ExtAngle(math.pi - self.re, -self.over_i)

    def as_complex(self) -> complex:
        return complex(self.re, -self.over_i)


def _length_to_angle(x) -> ExtAngle:
    if isinstance(x, PureImaginary):
        return ExtAngle(x.magnitude, 0.0)
    if math.isinf(x.re):
        return ExtAngle(x.re)
    return ExtAngle(x.im.radians, x.re)


def angle_ext(a: HLine, b: HLine) -> tuple[ExtAngle, ExtAngle]:
    """The tabulated pair of extended angles of two lines.

    Computed through duality: the angle pair of two lines is the extended
    distance pair of their poles divided by ``i``.  For two real lines with a
    real meet this yields the ordinary angle pair (phi, pi - phi), acute
    first; ultraparallel real lines give (p/i, pi - p/i) with ``p`` the
    common perpendicular length, and so on through the table.
    """
    _mcross(a, b, CoincidentLines, "angle of proportional lines")
    try:
        first, second = distance_ext(pole(a), pole(b))
    except IdenticalPoints:
        raise CoincidentLines("angle of proportional lines")
    if (isinstance(first, ExtLength) and first.finite
            and first.im is Quantum.PI and second.im is Quantum.ZERO):
        # pole pair on a real line: the canonical angle pair puts the free
        # part first, (p/i, pi - p/i) with p >= 0
        return (ExtAngle(0.0, first.re), ExtAngle(math.pi, -first.re))
    return (_length_to_angle(first), _length_to_angle(second))


# --------------------------------------------------------------------------
# cycles

def cycle_through(p: HPoint, q: HPoint, r: HPoint) -> Cycle:
    """The cycle through three real, non-collinear points.

    The center is the meet of two perpendicular bisectors and may be of any
    kind; the kind of the cycle (circle, paracycle, hypercycle) follows the
    kind of the center, and the radius is extended-valued accordingly.
    """
    for s in (p, q, r):
        if classify(s) is not _R:
            raise OutOfDomain("cycle construction needs three real points")
    l_pq = join(p, q)
    if abs(mdot(normalize(r), normalize_line(l_pq))) < 1e-12:
        raise CollinearPoints("cycle through collinear points")
    center = meet(perpendicular_bisector(p, q), perpendicular_bisector(q, r))
    kind = {
        _R: CycleKind.CIRCLE,
        _IN: CycleKind.PARACYCLE,
        _ID: CycleKind.HYPERCYCLE,
    }[classify(center)]
    radii = [distance_ext(center, s)[0] for s in (p, q, r)]
    radius = radii[0]
    if kind is not CycleKind.PARACYCLE:
        spread = max(abs(radius.re - other.re) for other in radii[1:])
        if spread > 1e-10:
            raise GeometryError(
                f"center is not equidistant from the three points (spread {spread:g})"
            )
    return Cycle(center=center, radius=radius, kind=kind)


# --------------------------------------------------------------------------
# model conversions

_MODELS = ("klein", "poincare", "hyperboloid")


def model_convert(coords, frm: str, to: str):
    """Convert point coordinates between the Klein disk, Poincare disk and
    hyperboloid models.

    Disk models take and return ``(x, y)`` pairs inside the open unit disk; the
    hyperboloid model uses normalized triples ``(x, y, w)`` with ``Q = 1``,
    ``w > 0``.  A point at hyperbolic distance ``a`` from the origin sits at
    Euclidean radius ``tanh a`` in the Klein disk and ``tanh(a/2)`` in the
    Poincare disk.
    """
    if frm not in _MODELS or to not in _MODELS:
        raise OutOfDomain(f"unknown model in conversion {frm!r} -> {to!r}")
    # normalize input to klein
    if frm == "hyperboloid":
        x, y, w = coords
        if w <= 0 or w * w - x * x - y * y <= 0:
            raise OutOfDomain("not a real hyperboloid point")
        kx, ky = x / w, y / w
    else:
        kx, ky = coords
        r2 = kx * kx + ky * ky
        if r2 >= 1.0:
            raise OutOfDomain(f"{frm} coordinates outside the open unit disk")
        if frm == "poincare":
            s = 2.0 / (1.0 + r2)
            kx, ky = s * kx, s * ky
    if to == "klein":
        return (kx, ky)
    s2 = 1.0 - (kx * kx + ky * ky)
    if s2 <= 0.0:
        raise OutOfDomain("point is not inside the open unit disk")
    root = math.sqrt(s2)
    if to == "poincare":
        s = 1.0 / (1.0 + root)
        return (kx * s, ky * s)
    inv = 1.0 / root
    return (kx * inv, ky * inv, inv)


def klein_point(x: float, y: float) -> HPoint:
    """Projective point from Klein chart coordinates (any radius; outside the
    unit disk gives an ideal point, on it a boundary point)."""
    return HPoint(x, y, 1.0)


def origin() -> HPoint:
    return HPoint(0.0, 0.0, 1.0)
