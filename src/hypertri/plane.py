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

All values are immutable and all functions pure.  Points and lines are
named tuples: they unpack as ``(x, y, w)`` and compare equal to any tuple
with the same coordinates, a point to a line included.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    CoincidentArguments,
    CoincidentLines,
    CollinearPoints,
    GeometryError,
    IdenticalPoints,
    OutOfDomain,
    ZeroVector,
)
from .extscalar import INF, NEG_INF, ExtLength, PointKind, PureImaginary, Quantum

EPS_CLS = 1e-9

_R, _IN, _ID = PointKind.REAL, PointKind.INFINITE, PointKind.IDEAL


class LineKind(Enum):
    REAL = "real"
    AT_INFINITY = "at_infinity"
    IDEAL = "ideal"


_REAL_LINE, _AT_INFINITY = LineKind.REAL, LineKind.AT_INFINITY


class CycleKind(Enum):
    CIRCLE = "circle"
    PARACYCLE = "paracycle"
    HYPERCYCLE = "hypercycle"


class HPoint(NamedTuple):
    """A point as a homogeneous triple."""

    x: float
    y: float
    w: float

    def klein(self) -> tuple[float, float]:
        """Affine chart coordinates (x/w, y/w); meaningful inside the disk."""
        return (self.x / self.w, self.y / self.w)

    def to_json(self):
        """The point as a Klein-disk ``{"model": ..., "coords": [...]}``
        object, the form `from_json` reads."""
        kx, ky = self.klein()
        return {"model": "klein", "coords": [kx, ky]}

    @classmethod
    def from_json(cls, obj) -> "HPoint":
        """The point of a ``{"model": ..., "coords": [...]}`` object: two
        finite numbers in a disk model, three on the hyperboloid.  Anything
        else raises OutOfDomain."""
        if not isinstance(obj, dict):
            raise OutOfDomain(f"a point must be a JSON object, got {obj!r}")
        model = obj.get("model")
        if model not in _MODELS:
            raise OutOfDomain(f"unknown point model {model!r}")
        coords = obj.get("coords")
        size = 3 if model == "hyperboloid" else 2
        if (not isinstance(coords, list) or len(coords) != size
                or not all(type(v) in (int, float) and math.isfinite(v) for v in coords)):
            raise OutOfDomain(f"a {model} point needs {size} finite numbers, got {coords!r}")
        if model == "hyperboloid":
            return cls(*coords)
        x, y = model_convert(tuple(coords), model, "klein")
        return cls(x, y, 1.0)


class UnitPoint(HPoint):
    """A real point in unit form (``Q = 1``, ``w > 0``), as `normalize` returns
    it; `normalize` hands one back unchanged."""

    __slots__ = ()


class HLine(NamedTuple):
    """A line, stored as the coordinates of its pole."""

    x: float
    y: float
    w: float


# Kernel results are built by ``_new(HPoint, (x, y, w))``: the same object
# as ``HPoint(x, y, w)`` (the named tuples validate nothing), without the
# generated ``__new__``.
_new = tuple.__new__


class Cycle(NamedTuple):
    """A circumscribing cycle: circle, paracycle or hypercycle by center kind."""

    center: HPoint
    radius: ExtLength
    kind: CycleKind


def mdot(u, v) -> float:
    ux, uy, uw = u
    vx, vy, vw = v
    return uw * vw - ux * vx - uy * vy


# The max-norm max(|x|, |y|, |w|) is spelled out as compares in the
# functions every construction calls: ``m = x if x >= 0.0 else -x``, then
# ``if a > m: m = a`` for |y| and |w|.  That is what ``max`` does, so a NaN
# lands where it did (`_rescaled` clears its sign bit, as ``abs`` did); a
# -0.0 norm comes only from a zero triple, which raises either way.  The
# builtin calls cost about three times the compares.
def _maxnorm(u) -> float:
    """max(|x|, |y|, |w|); for a `UnitPoint` that is its ``w`` exactly
    (Q > 0 forces |w| > |x|, |y|, rounding keeps the order and w > 0)."""
    if u.__class__ is UnitPoint:
        return u[2]
    x, y, w = u
    m = x if x >= 0.0 else -x
    a = y if y >= 0.0 else -y
    if a > m:
        m = a
    a = w if w >= 0.0 else -w
    if a > m:
        m = a
    return m


# A triple whose max-norm squared underflows to 0 or overflows to inf is
# divided by its max-norm first (`_rescaled`); every other triple is read as
# it is, so its bits do not depend on this rare branch.
_INF = math.inf


def _rescaled(x: float, y: float, w: float, m: float, what: str):
    """``(x, y, w) / m``, whose max-norm is 1; the zero triple (``m == 0``)
    raises ZeroVector(f"{what} the zero triple")."""
    if m == 0.0:
        raise ZeroVector(f"{what} the zero triple")
    # a NaN norm (x is NaN) comes here too; ``abs`` gives it the sign bit
    # the builtin max-norm gave, which the compares may not
    m = abs(m)
    return x / m, y / m, w / m


def classify(p: HPoint) -> PointKind:
    """The kind of ``p`` by the sign of ``Q`` over its max-norm squared (see
    `_rescaled`); a NaN triple is at infinity."""
    if p.__class__ is UnitPoint:
        return _R
    x, y, w = p
    m = x if x >= 0.0 else -x
    a = y if y >= 0.0 else -y
    if a > m:
        m = a
    a = w if w >= 0.0 else -w
    if a > m:
        m = a
    mm = m * m
    if not 0.0 < mm < _INF:
        x, y, w = _rescaled(x, y, w, m, "cannot classify")
        mm = 1.0
    r = (w * w - x * x - y * y) / mm
    if r > EPS_CLS:
        return _R
    if r < -EPS_CLS:
        return _ID
    return _IN


# a line's kind is its pole's: an ideal pole's polar is a real line, a
# boundary pole's the tangent there, and a real pole's an ideal line
_LINE_OF_POLE = {_ID: LineKind.REAL, _IN: LineKind.AT_INFINITY, _R: LineKind.IDEAL}


def classify_line(l: HLine) -> LineKind:
    return _LINE_OF_POLE[classify(l)]


def _mcross(u, v, error, message) -> tuple[float, float, float]:
    """Metric dual of the Euclidean cross product, G @ (u x v) with
    G = diag(-1, -1, 1); raises ``error(message)`` when u and v are
    proportional (the cross product vanishes relative to their max-norms)."""
    ux, uy, uw = u
    vx, vy, vw = v
    cx = uy * vw - uw * vy
    cy = uw * vx - ux * vw
    cw = ux * vy - uy * vx
    if u.__class__ is UnitPoint:
        mu = uw
    else:
        mu = ux if ux >= 0.0 else -ux
        a = uy if uy >= 0.0 else -uy
        if a > mu:
            mu = a
        a = uw if uw >= 0.0 else -uw
        if a > mu:
            mu = a
    if v.__class__ is UnitPoint:
        mv = vw
    else:
        mv = vx if vx >= 0.0 else -vx
        a = vy if vy >= 0.0 else -vy
        if a > mv:
            mv = a
        a = vw if vw >= 0.0 else -vw
        if a > mv:
            mv = a
    m = cx if cx >= 0.0 else -cx
    a = cy if cy >= 0.0 else -cy
    if a > m:
        m = a
    a = cw if cw >= 0.0 else -cw
    if a > m:
        m = a
    if m <= 1e-14 * (mu * mv):
        raise error(message)
    return (-cx, -cy, cw)


def join(p: HPoint, q: HPoint) -> HLine:
    """The unique line through two distinct points."""
    return _new(HLine, _mcross(p, q, CoincidentArguments, "join of proportional points"))


def meet(l: HLine, m: HLine) -> HPoint:
    """The common point of two distinct lines."""
    return _new(HPoint, _mcross(l, m, CoincidentArguments, "meet of proportional lines"))


def polar(p: HPoint) -> HLine:
    """Index-lowering by the bilinear form; same coordinates, dual type."""
    if _maxnorm(p) == 0.0:
        raise ZeroVector("polar of the zero triple")
    return _new(HLine, p)


def pole(l: HLine) -> HPoint:
    if _maxnorm(l) == 0.0:
        raise ZeroVector("pole of the zero triple")
    return _new(HPoint, l)


def normalize(p: HPoint) -> HPoint:
    """Canonical representative: Q = 1 and w > 0 for real points (a
    `UnitPoint`), |Q| = 1 for ideal ones, max-norm 1 for boundary points."""
    if p.__class__ is UnitPoint:
        return p
    x, y, w = p
    m = x if x >= 0.0 else -x
    a = y if y >= 0.0 else -y
    if a > m:
        m = a
    a = w if w >= 0.0 else -w
    if a > m:
        m = a
    mm = m * m
    if not 0.0 < mm < _INF:
        x, y, w = _rescaled(x, y, w, m, "normalize of")
        m = mm = 1.0
    q = w * w - x * x - y * y
    r = q / mm
    if r > EPS_CLS:
        s = 1.0 / math.sqrt(q)
        if w < 0:
            s = -s
        return _new(UnitPoint, (x * s, y * s, w * s))
    if r < -EPS_CLS:
        s = 1.0 / math.sqrt(-q)
        return _new(HPoint, (x * s, y * s, w * s))
    return _new(HPoint, (x / m, y / m, w / m))


def normalize_line(l: HLine) -> HLine:
    """Unit representative: Q = -1 for a real line, |Q| = 1 for an ideal
    one, max-norm 1 for a tangent line."""
    x, y, w = l
    m = x if x >= 0.0 else -x
    a = y if y >= 0.0 else -y
    if a > m:
        m = a
    a = w if w >= 0.0 else -w
    if a > m:
        m = a
    mm = m * m
    if not 0.0 < mm < _INF:
        x, y, w = _rescaled(x, y, w, m, "normalize of")
        m = mm = 1.0
    q = w * w - x * x - y * y
    r = q / mm
    if r < -EPS_CLS:
        s = 1.0 / math.sqrt(-q)
        return _new(HLine, (x * s, y * s, w * s))
    if r > EPS_CLS:
        s = 1.0 / math.sqrt(q)
        return _new(HLine, (x * s, y * s, w * s))
    return _new(HLine, (x / m, y / m, w / m))


def real_point(p: HPoint, error, message: str) -> UnitPoint:
    """``normalize(p)`` when ``p`` is a real point (the step that built it
    landed inside the disk); otherwise raises ``error(message)``."""
    pn = normalize(p)
    if pn.__class__ is not UnitPoint:
        raise error(message)
    return pn


def acosh_clamped(x: float) -> float:
    """arccosh with rounding just below the domain absorbed to 1; below
    that slack, OutOfDomain."""
    if x < 1.0:
        if x > 1.0 - 1e-12:
            return 0.0
        raise OutOfDomain(f"acosh argument {x} below domain")
    return math.acosh(x)


def distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance between two real points.

    Short distances are computed from the difference vector,
    ``2 sinh(d/2) = |p - q|`` in the Minkowski norm, which keeps full
    relative precision where ``acosh`` near 1 would lose half of it.
    """
    px, py, pw = p if p.__class__ is UnitPoint else normalize(p)
    qx, qy, qw = q if q.__class__ is UnitPoint else normalize(q)
    c = pw * qw - px * qx - py * qy
    if c < 1.005:
        dx, dy, dw = px - qx, py - qy, pw - qw
        s2 = dx * dx + dy * dy - dw * dw
        # max(s2, 0.0) as a compare: a NaN or -0.0 s2 is kept, as max kept it
        return 2.0 * math.asinh(0.5 * math.sqrt(0.0 if s2 < 0.0 else s2))
    return math.acosh(c)


def signed_line_distance(p: HPoint, l: HLine) -> float:
    """Signed distance from a real point to a real line (sign = side)."""
    return math.asinh(mdot(normalize(p), normalize_line(l)))


def tangent_toward(p: HPoint, q: HPoint) -> tuple[float, float, float]:
    """Unit tangent vector at normalized real ``p`` pointing toward ``q``.

    sinh of the distance is taken from the difference vector (see `distance`)
    so directions stay accurate for nearby points.
    """
    px, py, pw = p if p.__class__ is UnitPoint else normalize(p)
    qx, qy, qw = q if q.__class__ is UnitPoint else normalize(q)
    c = pw * qw - px * qx - py * qy
    dx, dy, dw = px - qx, py - qy, pw - qw
    half2 = dx * dx + dy * dy - dw * dw
    s = half2 * (1.0 + 0.25 * half2)
    s = math.sqrt(0.0 if s < 0.0 else s)  # 2 sinh(d/2) cosh(d/2)
    if s == 0.0:
        raise IdenticalPoints("tangent direction between coincident points")
    return ((qx - c * px) / s, (qy - c * py) / s, (qw - c * pw) / s)


def segment(p: HPoint, q: HPoint):
    """``(distance(p, q), tangent_toward(p, q), tangent_toward(q, p))`` bit for bit, from one
    difference vector and one (symmetric) product; the tangents are None where ``s == 0``."""
    px, py, pw = p if p.__class__ is UnitPoint else normalize(p)
    qx, qy, qw = q if q.__class__ is UnitPoint else normalize(q)
    c = pw * qw - px * qx - py * qy
    dx, dy, dw = px - qx, py - qy, pw - qw
    half2 = dx * dx + dy * dy - dw * dw
    d = (2.0 * math.asinh(0.5 * math.sqrt(0.0 if half2 < 0.0 else half2)) if c < 1.005
         else math.acosh(c))
    s = half2 * (1.0 + 0.25 * half2)
    s = math.sqrt(0.0 if s < 0.0 else s)
    if s == 0.0:
        return d, None, None
    return (d, ((qx - c * px) / s, (qy - c * py) / s, (qw - c * pw) / s),
            ((px - c * qx) / s, (py - c * qy) / s, (pw - c * qw) / s))


def geodesic_point(p: HPoint, t: tuple[float, float, float], u: float) -> HPoint:
    """Point at signed arc length ``u`` from normalized ``p`` along unit tangent ``t``."""
    cu, su = math.cosh(u), math.sinh(u)
    px, py, pw = p
    tx, ty, tw = t
    return _new(HPoint, (cu * px + su * tx, cu * py + su * ty, cu * pw + su * tw))


def arc_coordinate(f: HPoint, t: tuple[float, float, float]) -> float:
    """Signed arc length of real ``f`` on the geodesic with unit tangent ``t``,
    measured from the point where ``t`` is taken."""
    return math.asinh(-mdot(normalize(f), t))


def normal_tangent(p: HPoint, t) -> tuple[float, float, float]:
    """The unit tangent at unit ``p`` Minkowski-orthogonal to the unit tangent
    ``t`` (a quarter turn of ``t``): the metric dual of the cross product
    ``p x t``."""
    px, py, pw = p
    tx, ty, tw = t
    cx = py * tw - pw * ty
    cy = pw * tx - px * tw
    cw = px * ty - py * tx
    return (-cx, -cy, cw)


def tangent_angle(t1, t2) -> float:
    """Angle in [0, pi] between two unit tangents at one point, the ``acos``
    of ``-<t1, t2>`` clamped to its domain."""
    c = -(t1[2] * t2[2] - t1[0] * t2[0] - t1[1] * t2[1])
    # min(1.0, max(-1.0, c)) as compares: a NaN goes to -1, as there
    if not c > -1.0:
        c = -1.0
    elif c > 1.0:
        c = 1.0
    return math.acos(c)


def vertex_angle(p: HPoint, q: HPoint, r: HPoint) -> float:
    """Interior angle at real ``p`` between the geodesics toward ``q`` and ``r``."""
    return tangent_angle(tangent_toward(p, q), tangent_toward(p, r))


def perpendicular_line(p: HPoint, l: HLine) -> HLine:
    """The perpendicular to ``l`` through ``p``."""
    return join(p, pole(l))


def midpoint(p: HPoint, q: HPoint) -> HPoint:
    px, py, pw = normalize(p)
    qx, qy, qw = normalize(q)
    return normalize((px + qx, py + qy, pw + qw))


def perpendicular_bisector(p: HPoint, q: HPoint) -> HLine:
    """Locus of points equidistant from two real points (of the segment through
    the disk); its coordinate vector is the difference of the unit representatives."""
    px, py, pw = normalize(p)
    qx, qy, qw = normalize(q)
    dx, dy, dw = px - qx, py - qy, pw - qw
    m = dx if dx >= 0.0 else -dx
    a = dy if dy >= 0.0 else -dy
    if a > m:
        m = a
    a = dw if dw >= 0.0 else -dw
    if a > m:
        m = a
    if m <= 1e-15:
        raise IdenticalPoints("bisector of coincident points")
    return _new(HLine, (dx, dy, dw))


def complementary_bisector(p: HPoint, q: HPoint) -> HLine:
    """Perpendicular bisector of the complementary segment (sum of units)."""
    px, py, pw = normalize(p)
    qx, qy, qw = normalize(q)
    return _new(HLine, (px + qx, py + qy, pw + qw))


def reflect_line(m: HLine, l: HLine) -> HLine:
    """Reflection of a line in a line: the Householder reflection of the
    triple ``m`` in ``l``."""
    mx, my, mw = m
    lx, ly, lw = l
    q = lw * lw - lx * lx - ly * ly
    if q == 0.0:
        raise ZeroVector("reflection in a degenerate (tangent) line")
    k = 2.0 * (mw * lw - mx * lx - my * ly) / q
    return _new(HLine, (mx - k * lx, my - k * ly, mw - k * lw))


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
    return _segment_pair(a, b, l)


# the pair of a point at infinity with any point it does not share a
# tangent line with
_INF_PAIR = (INF, NEG_INF)
_ZERO, _PI, _HALF_PI = Quantum.ZERO, Quantum.PI, Quantum.HALF_PI


def _segment_pair(a: HPoint, b: HPoint, l: HLine):
    """`distance_ext` of ``a`` and ``b``, given their join ``l``.  A finite
    length is built with ``tuple.__new__``: `ExtLength`'s rules act only on
    a NaN or infinite real part."""
    ka = classify(a)
    kb = classify(b)
    if ka is _R or kb is _R:
        if ka is _IN or kb is _IN:
            return _INF_PAIR
        if ka is kb:
            first, im = radius_ext(a, _R, b), _PI
        else:   # a real and an ideal point
            first, im = radius_ext(b, _ID, a) if ka is _R else radius_ext(a, _ID, b), _HALF_PI
        re = -first[0]
        return (first, _new(ExtLength, (re, im)) if -_INF < re < _INF else ExtLength(re, im))

    lk = classify_line(l)
    if ka is _IN and kb is _IN:
        return _INF_PAIR

    if ka is _IN or kb is _IN:
        # infinite with ideal: on a real line the pair is (inf, -inf); on the
        # tangent line at the infinite point both segments are (pi/2) i
        if lk is _AT_INFINITY:
            h = ExtLength(0.0, _HALF_PI)
            return (h, h)
        return _INF_PAIR

    # ideal with ideal
    if lk is _REAL_LINE:
        an, bn = normalize(a), normalize(b)
        d = acosh_clamped(abs(mdot(an, bn)))
        if d < _INF:
            return (_new(ExtLength, (d, _PI)), _new(ExtLength, (-d, _ZERO)))
        return (ExtLength(d, _PI), ExtLength(-d))
    if lk is _AT_INFINITY:
        return (ExtLength(0.0), ExtLength(0.0, _PI))
    # ideal line: length is the angle of the polars (at a real point) times i
    phi = _line_angle_at(polar(a), polar(b))
    return (_new(PureImaginary, (phi,)), _new(PureImaginary, (math.pi - phi,)))


def radius_ext(center: HPoint, kind: PointKind, p: HPoint) -> ExtLength:
    """``distance_ext(center, p)[0]`` for a real point ``p`` and a
    ``center`` whose classification ``kind`` is known: the radius of the
    cycle about ``center`` through ``p``.  It is ``d`` for a real center,
    ``d + (pi/2) i`` for an ideal one (``d`` the distance from ``p`` to its
    polar) and ``inf`` for a center at infinity."""
    if kind is _R:
        re, im = distance(center, p), _ZERO
    elif kind is _ID:
        re, im = abs(signed_line_distance(p, polar(center))), _HALF_PI
    else:
        return ExtLength(math.inf)
    return _new(ExtLength, (re, im)) if -_INF < re < _INF else ExtLength(re, im)


def _line_angle_at(u: HLine, v: HLine) -> float:
    """Angle in (0, pi) between two real lines at their real meet, canonically
    the acute member of the pair."""
    un, vn = normalize_line(u), normalize_line(v)
    c = abs(mdot(un, vn))
    return math.acos(min(1.0, max(-1.0, c)))


class ExtAngle(NamedTuple):
    """An extended angle: quantized real part plus a free ``/i`` part.

    Values are ``re + over_i / i`` (that is, ``re - over_i * i``).  Angles of
    lines meeting in a real point are plain reals (``over_i = 0``); all other
    configurations put the free channel in ``over_i`` with ``re`` one of
    {0, pi/2, pi}, or are signed infinities.  An angle times ``i`` is the
    extended distance of the poles, which is how the two calculi correspond.
    """

    re: float
    over_i: float = 0.0

    def __str__(self):
        if math.isinf(self.re):
            return "inf" if self.re > 0 else "-inf"
        if self.over_i == 0.0:
            return f"{self.re:g}"
        sign = "+" if self.over_i >= 0 else "-"
        return f"{self.re:g} {sign} {abs(self.over_i):g}/i"


def _length_to_angle(x) -> ExtAngle:
    if x.__class__ is PureImaginary:
        return _new(ExtAngle, (x[0], 0.0))
    re, im = x
    if -_INF < re < _INF:   # an ExtLength's re is never NaN
        return _new(ExtAngle, (im.radians, re))
    return _new(ExtAngle, (re, 0.0))


def angle_ext(a: HLine, b: HLine) -> tuple[ExtAngle, ExtAngle]:
    """The tabulated pair of extended angles of two lines.

    Computed through duality: the angle pair of two lines is the extended
    distance pair of their poles divided by ``i``.  For two real lines with a
    real meet this yields the ordinary angle pair (phi, pi - phi), acute
    first; ultraparallel real lines give (p/i, pi - p/i) with ``p`` the
    common perpendicular length, and so on through the table.
    """
    # the poles' join is the cross product of the lines themselves
    l = _new(HLine, _mcross(a, b, CoincidentLines, "angle of proportional lines"))
    first, second = _segment_pair(pole(a), pole(b), l)
    if first.__class__ is ExtLength:
        re, im = first
        # quantum PI makes ``re`` finite: an infinite length has quantum ZERO
        if im is _PI and second[1] is _ZERO:
            # pole pair on a real line: the canonical angle pair puts the
            # free part first, (p/i, pi - p/i) with p >= 0
            return (_new(ExtAngle, (0.0, re)), _new(ExtAngle, (math.pi, -re)))
    return (_length_to_angle(first), _length_to_angle(second))


# --------------------------------------------------------------------------
# cycles

_CYCLE_KIND = {_R: CycleKind.CIRCLE, _IN: CycleKind.PARACYCLE, _ID: CycleKind.HYPERCYCLE}


def cycle_through(p: HPoint, q: HPoint, r: HPoint) -> Cycle:
    """The cycle through three real, non-collinear points.

    The center is the meet of two perpendicular bisectors and may be of any
    kind; the kind of the cycle (circle, paracycle, hypercycle) follows the
    kind of the center, and the radius is extended-valued accordingly.
    """
    p, q, r = (real_point(s, OutOfDomain, "cycle construction needs three real points")
               for s in (p, q, r))
    l_pq = join(p, q)
    if abs(mdot(normalize(r), normalize_line(l_pq))) < 1e-12:
        raise CollinearPoints("cycle through collinear points")
    center = meet(perpendicular_bisector(p, q), perpendicular_bisector(q, r))
    center_kind = classify(center)
    kind = _CYCLE_KIND[center_kind]
    radii = [radius_ext(center, center_kind, s) for s in (p, q, r)]
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

_DISKS = ("klein", "poincare")
_MODELS = (*_DISKS, "hyperboloid")


def model_convert(coords, frm: str, to: str):
    """Convert an ``(x, y)`` pair inside the open unit disk between the Klein
    and Poincare disk models.

    A point at hyperbolic distance ``a`` from the origin sits at Euclidean
    radius ``tanh a`` in the Klein disk and ``tanh(a/2)`` in the Poincare
    disk.  Hyperboloid triples are the kernel's own points: `normalize` and
    `HPoint.klein` convert them.
    """
    if frm not in _DISKS or to not in _DISKS:
        raise OutOfDomain(f"unknown model in conversion {frm!r} -> {to!r}")
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
    s = 1.0 / (1.0 + math.sqrt(s2))
    return (kx * s, ky * s)


def klein_point(x: float, y: float) -> HPoint:
    """Projective point from Klein chart coordinates (any radius; outside the
    unit disk gives an ideal point, on it a boundary point)."""
    return _new(HPoint, (x, y, 1.0))


def origin() -> HPoint:
    return HPoint(0.0, 0.0, 1.0)
