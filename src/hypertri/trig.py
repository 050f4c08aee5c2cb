"""Closed-form trigonometry of hyperbolic triangles.

Solves triangles from sides or angles, exposes the area/defect forms, the
Staudtian ``n = sqrt(sinh s sinh(s-a) sinh(s-b) sinh(s-c))`` and the angular
Staudtian ``N = sqrt(sin d sin(d+alpha) sin(d+beta) sin(d+gamma))`` (``d``
the half-defect), triangular coordinates of a point with respect to a
reference triangle, cevian section ratios, Stewart's relation, and the
Lambert quadrangle construction.  Everything that needs an actual drawing is
delegated to the `plane` module, which also serves as the independent check
on every formula here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import plane
from .errors import (
    CevianParallel,
    DegenerateTriangle,
    FootOutsideSegment,
    IdenticalPoints,
    NoSolution,
    OutOfDomain,
    OverflowRisk,
)
from .plane import (
    HLine,
    HPoint,
    _new,
    acosh_clamped,
    distance,
    join,
    mdot,
    meet,
    normalize,
    normalize_line,
    real_point,
    segment,
    tangent_angle,
    vertex_angle,
)

MAX_SIDE = 50.0

TriCoords = tuple[float, float, float]

# The index convention of every per-vertex, per-side and per-angle
# construction: index 0, 1, 2 is vertex A, B, C, side a, b, c and angle
# alpha, beta, gamma; vertex i is opposite side i and carries angle i, and
# side i runs from vertex i + 1 to vertex i + 2 (mod 3), the pair
# SIDE_ENDS[i].  Letters name vertices, sides and angles only in text.
SIDE_ENDS = ((1, 2), (2, 0), (0, 1))


class stored_property:
    """A property built on its first read and kept in the instance dict
    under its own name.  It is a non-data descriptor, so every later read
    finds the dict entry and never calls it; a raise stores nothing, and the
    next read builds again.  Unlike `functools.cached_property` on Python
    3.11, the first read takes no lock."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class _TriangleFields(NamedTuple):
    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    s: float
    delta: float
    n: float
    bign: float
    vertices: tuple[HPoint, HPoint, HPoint]


class TriangleData(_TriangleFields):
    """A solved triangle.

    Sides ``a, b, c`` are opposite the vertices ``A, B, C``; angles
    ``alpha, beta, gamma`` sit at those vertices.  ``s`` is the semiperimeter,
    ``delta`` the half-defect (the area is ``2 * delta``), ``n`` and ``bign``
    the two Staudtians.  ``vertices`` are the points A, B, C: those given to
    `solve_from_vertices`, or, for a triangle solved from its sides or
    angles, A at the origin, B on the positive x-axis and C in the upper
    half plane.  ``lines`` holds the side lines (a, b, c), derived from the
    vertices when first read, from ``side_joins``, the raw ``join`` of each
    side's ends; ``side_tangents`` holds each side's unit tangent at its
    start toward its end, from `plane.segment` (kept by a vertex solve);
    ``sides`` and ``angles`` are the triples (a, b, c) and (alpha, beta,
    gamma).  Per-vertex and per-side accessors take an index (see `SIDE_ENDS`).

    The fields are an immutable named tuple; the class has no ``__slots__``,
    so ``lines``, ``side_joins``, ``side_tangents``, ``coord_rows``,
    ``sides`` and ``angles`` are kept in the instance dict once read.
    """

    @stored_property
    def lines(self) -> tuple[HLine, HLine, HLine]:
        vs, js = self.vertices, self.side_joins
        return (_side_line(vs[0], js[0]), _side_line(vs[1], js[1]), _side_line(vs[2], js[2]))

    @stored_property
    def side_joins(self) -> tuple[HLine, HLine, HLine]:
        vs = self.vertices
        return (join(vs[1], vs[2]), join(vs[2], vs[0]), join(vs[0], vs[1]))

    @stored_property
    def side_tangents(self) -> tuple:
        return _measure(self.vertices)[1]

    @stored_property
    def coord_rows(self) -> tuple:
        """Per side ``i``: the coordinates of side line ``i`` and the factor
        ``0.5 * sinh(side i)`` of `tri_coords`, built when first read."""
        return tuple((*l, 0.5 * math.sinh(length))
                     for l, length in zip(self.lines, self.sides))

    @stored_property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @stored_property
    def angles(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)

    @property
    def area(self) -> float:
        return 2.0 * self.delta

    def side_line(self, i: int) -> HLine:
        """Line of side ``i``, unit-normalized, oriented so vertex ``i`` has
        positive signed distance."""
        return self.lines[i]

    def to_json(self):
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "s": self.s, "delta": self.delta, "n": self.n, "N": self.bign,
            "vertices": [v.to_json() for v in self.vertices],
        }


def _side_line(opposite: HPoint, joined: HLine) -> HLine:
    """The unit form of the line ``joined``, oriented toward ``opposite``."""
    l = normalize_line(joined)
    if mdot(normalize(opposite), l) < 0:
        l = _new(HLine, (-l[0], -l[1], -l[2]))
    return l


def _validate_sides(sides):
    for x in sides:
        if not (x > 0.0):
            raise DegenerateTriangle(f"side {x} is not positive")
        if x > MAX_SIDE:
            raise OverflowRisk(f"side {x} exceeds the supported range {MAX_SIDE}")
    if any(sides[i] >= sides[j] + sides[k] for i, (j, k) in enumerate(SIDE_ENDS)):
        raise DegenerateTriangle("triangle inequality violated")


def _validate_angles(angles):
    for x in angles:
        if not (0.0 < x < math.pi):
            raise DegenerateTriangle(f"angle {x} outside (0, pi)")


def staudtian(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    prod = (
        math.sinh(s) * math.sinh(s - a) * math.sinh(s - b) * math.sinh(s - c)
    )
    return math.sqrt(max(prod, 0.0))


def angular_staudtian(alpha: float, beta: float, gamma: float) -> float:
    delta = 0.5 * (math.pi - alpha - beta - gamma)
    prod = (
        math.sin(delta)
        * math.sin(delta + alpha)
        * math.sin(delta + beta)
        * math.sin(delta + gamma)
    )
    return math.sqrt(max(prod, 0.0))


def _assemble(sides, angles, vertices) -> TriangleData:
    _validate_angles(angles)
    delta = 0.5 * (math.pi - angles[0] - angles[1] - angles[2])
    if delta <= 0.0:
        raise DegenerateTriangle("angle sum reaches pi (zero defect)")
    return TriangleData(
        *sides, *angles,
        s=0.5 * sum(sides), delta=delta,
        n=staudtian(*sides),
        bign=angular_staudtian(*angles),
        vertices=vertices,
    )


def _assemble_placed(sides, angles) -> TriangleData:
    """`_assemble` with A at the origin, B on the positive x-axis and C in
    the upper half plane, each vertex stored as placed.  A vertex x from A
    has Q / max-norm^2 = 1 / cosh^2 x, below `plane.EPS_CLS` from x ~ 11.05,
    where the kernel reads it as a point at infinity: OverflowRisk."""
    b, c, alpha = sides[1], sides[2], angles[0]
    placed = (
        HPoint(math.sinh(c), 0.0, math.cosh(c)),
        HPoint(math.sinh(b) * math.cos(alpha), math.sinh(b) * math.sin(alpha), math.cosh(b)),
    )
    for v, x in zip(placed, (c, b)):
        real_point(v, OverflowRisk, f"side {x} places a vertex the kernel cannot read "
                                    "as a real point")
    return _assemble(sides, angles, (plane.origin(), *placed))


def _angle_from_sides(adj1: float, adj2: float, opposite: float) -> float:
    num = math.cosh(adj1) * math.cosh(adj2) - math.cosh(opposite)
    den = math.sinh(adj1) * math.sinh(adj2)
    return math.acos(min(1.0, max(-1.0, num / den)))


def solve_from_sides(a: float, b: float, c: float) -> TriangleData:
    """Triangle from its three side lengths (law of cosines on the sides)."""
    sides = (a, b, c)
    _validate_sides(sides)
    return _assemble_placed(sides, [_angle_from_sides(sides[j], sides[k], sides[i])
                                    for i, (j, k) in enumerate(SIDE_ENDS)])


def solve_from_angles(alpha: float, beta: float, gamma: float) -> TriangleData:
    """Triangle from its three angles (law of cosines on the angles)."""
    angles = (alpha, beta, gamma)
    _validate_angles(angles)
    if sum(angles) >= math.pi:
        raise DegenerateTriangle("angle sum must stay below pi")

    def side(opp, adj1, adj2):
        num = math.cos(opp) + math.cos(adj1) * math.cos(adj2)
        den = math.sin(adj1) * math.sin(adj2)
        return acosh_clamped(num / den)

    sides = [side(angles[i], angles[j], angles[k]) for i, (j, k) in enumerate(SIDE_ENDS)]
    _validate_sides(sides)
    return _assemble_placed(sides, angles)


def _oriented(va: HPoint, vb: HPoint, vc: HPoint) -> list:
    """The three vertices in unit form and counterclockwise in the Klein
    chart (B and C swapped if needed); raises DegenerateTriangle when one
    is not a real point or the three are (numerically) collinear."""
    pts = [real_point(v, DegenerateTriangle, "vertices must be real points")
           for v in (va, vb, vc)]
    ka, kb, kc = (p.klein() for p in pts)
    orient = (kb[0] - ka[0]) * (kc[1] - ka[1]) - (kb[1] - ka[1]) * (kc[0] - ka[0])
    if abs(orient) < 1e-14:
        raise DegenerateTriangle("vertices are (numerically) collinear")
    if orient < 0:
        pts[1], pts[2] = pts[2], pts[1]
    return pts


def _measure(vs) -> tuple:
    """Per side, its length and start tangent from one `plane.segment`; angle i, between the
    tangents at vertex i toward j and k as `vertex_angle` takes them (None if two coincide)."""
    s0, s1, s2 = segment(vs[1], vs[2]), segment(vs[2], vs[0]), segment(vs[0], vs[1])
    starts = (s0[1], s1[1], s2[1])
    angles = None if None in starts else (
        tangent_angle(s2[1], s1[2]), tangent_angle(s0[1], s2[2]), tangent_angle(s1[1], s0[2]))
    return (s0[0], s1[0], s2[0]), starts, angles


def solve_from_vertices(va: HPoint, vb: HPoint, vc: HPoint) -> TriangleData:
    """Triangle from three real points, measured entirely by the plane oracle.

    The vertex triple is normalized to counterclockwise orientation in the
    Klein chart (by swapping B and C if needed), so orientation-dependent
    constructions are well defined.
    """
    pts = _oriented(va, vb, vc)
    sides, starts, angles = _measure(pts)
    _validate_sides(sides)
    t = _assemble(sides, angles, tuple(pts))
    t.__dict__["side_tangents"] = starts
    return t


def defect(va: HPoint, vb: HPoint, vc: HPoint) -> float:
    """The defect ``pi - alpha - beta - gamma`` of the triangle on three real
    points, which is its area.  The angles are measured and summed as
    `solve_from_vertices` does, so the value is that triangle's ``area`` to
    the bit; the sides are not checked, and coincident vertices raise."""
    angles = _measure(_oriented(va, vb, vc))[2]
    if angles is None:
        raise IdenticalPoints("tangent direction between coincident points")
    return math.pi - angles[0] - angles[1] - angles[2]


# --------------------------------------------------------------------------
# area forms

def heron_parts(t: TriangleData) -> tuple[float, float]:
    """Both sides of the defect Heron form:
    tan(T/4) = sqrt(prod tanh(s/2) tanh((s-x)/2))."""
    lhs = math.tan(t.area / 4.0)
    prod = (
        math.tanh(t.s / 2.0)
        * math.tanh((t.s - t.a) / 2.0)
        * math.tanh((t.s - t.b) / 2.0)
        * math.tanh((t.s - t.c) / 2.0)
    )
    rhs = math.sqrt(max(prod, 0.0))
    return lhs, rhs


# --------------------------------------------------------------------------
# triangular coordinates

def tri_coords(x: HPoint, t: TriangleData) -> TriCoords:
    """Signed triangular coordinates (n_A : n_B : n_C) of a point.

    ``n_A`` is the Staudtian of the triangle X-B-C, i.e. half of
    ``sinh(dist to line BC) * sinh a``, with positive sign when X lies on the
    same side of BC as A.  Points on a side line get a zero coordinate.  For
    an ideal X the three values share a factor ``i`` which is dropped, so the
    triple stays a real projective triple.
    """
    xx, xy, xw = normalize(x)
    (x0, y0, w0, h0), (x1, y1, w1, h1), (x2, y2, w2, h2) = t.coord_rows
    return ((xw * w0 - xx * x0 - xy * y0) * h0,
            (xw * w1 - xx * x1 - xy * y1) * h1,
            (xw * w2 - xx * x2 - xy * y2) * h2)


def _solve_sinh_ratio(length: float, rho: float) -> float:
    """Solve sinh(u) / sinh(length - u) = rho for the signed arc u.

    With u = L/2 + v the ratio is (tanh(L/2) + tanh v) / (tanh(L/2) - tanh v),
    so u = L/2 + artanh(tanh(L/2) (rho - 1) / (rho + 1)).  Every factor stays
    bounded, so the form holds its accuracy on sides of any length.  Raises
    NoSolution when no real u exists (rho = -1, or the artanh argument
    leaves (-1, 1)).
    """
    half = 0.5 * length
    if rho == -1.0 or not -1.0 < (arg := math.tanh(half) * (rho - 1.0) / (rho + 1.0)) < 1.0:
        raise NoSolution(f"no real foot for ratio {rho:g} on length {length:g}")
    return half + math.atanh(arg)


def point_from_coords(k: TriCoords, t: TriangleData) -> HPoint:
    """The point with triangular coordinates ``k``: the vertex sum
    ``k_A A + k_B B + k_C C`` over the unit vertices.

    Each unit vertex lies on the two side lines through it, and
    ``<V_i, l_i> sinh(side i) = 2n`` on every side, so the sum has
    coordinates proportional to ``k``.  Every nonzero triple gives its point,
    real, ideal or at infinity; the zero triple raises ZeroVector.
    """
    return normalize(HPoint(*(sum(ki * u for ki, u in zip(k, us))
                              for us in zip(*t.vertices))))


def relative_residual(lhs, rhs) -> float:
    """Mismatch of two real or complex values: relative where either side
    reaches 1e-6 in magnitude, absolute otherwise."""
    a, b = abs(lhs), abs(rhs)
    m = b if b > a else a   # max(a, b), which keeps a NaN only when it is a
    return abs(lhs - rhs) if m < 1e-6 else abs(lhs - rhs) / m


def proportionality_residual(u, v) -> float:
    """Scale-free mismatch of two triples viewed projectively."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    if uu == 0.0 or vv == 0.0:
        return math.inf
    cross = max(
        abs(u0 * v1 - u1 * v0),
        abs(u0 * v2 - u2 * v0),
        abs(u1 * v2 - u2 * v1),
    )
    return cross / math.sqrt(uu * vv)


def worst_residual(*parts) -> float:
    """The worst of the non-negative residual ``parts``: the largest, 0.0
    when there are none, and a NaN part as it is (`max` drops a NaN unless
    it comes first).  Every check made of several parts reduces them here."""
    largest = 0.0
    for part in parts:
        if not part <= largest:
            if part != part:
                return part
            largest = part
    return largest


def cevian_ratio(x: HPoint, t: TriangleData, i: int) -> float:
    """Section ratio sinh(BF)/sinh(FC) of the cevian through ``x`` from
    vertex ``i`` to its foot F on side ``i``; B and C stand for the start
    and end of the side (they are B and C for i = 0).

    The ratio is signed: a foot outside the closed segment makes one factor
    negative.
    """
    cev = join(t.vertices[i], normalize(x))
    foot = real_point(meet(cev, t.side_joins[i]), CevianParallel,
                      "cevian meets the side line in a non-real point")
    u = plane.arc_coordinate(foot, t.side_tangents[i])
    denom = math.sinh(t.sides[i] - u)
    if denom == 0.0:
        raise CevianParallel("cevian foot coincides with the far endpoint")
    return math.sinh(u) / denom


def stewart_residual(t: TriangleData, aprime: HPoint) -> float:
    """Absolute residual of Stewart's relation for a point on side BC:

        cosh(AB) sinh(A'C) + cosh(AC) sinh(BA') - cosh(AA') sinh(BC)
    """
    p = real_point(aprime, FootOutsideSegment, "the point must be a real point of side BC")
    if abs(mdot(p, t.lines[0])) > 1e-9:
        raise FootOutsideSegment("the point is not on line BC")
    u = plane.arc_coordinate(p, t.side_tangents[0])
    if u < -1e-12 or u > t.a + 1e-12:
        raise FootOutsideSegment("the point lies outside segment BC")
    lhs = math.cosh(t.c) * math.sinh(t.a - u) + math.cosh(t.b) * math.sinh(u)
    rhs = math.cosh(distance(t.vertices[0], p)) * math.sinh(t.a)
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# Lambert quadrangle

class LambertQuadrangle(NamedTuple):
    """A quadrangle with right angles at A, B and D; phi is the angle at C.

    Side names: AB = a, BC = b, CD = c, DA = d.
    """

    a: float
    b: float
    c: float
    d: float
    phi: float


def lambert_from_legs(a: float, d: float) -> LambertQuadrangle:
    """Construct a Lambert quadrangle from the two sides at the right-angled
    corner A and measure the rest with the plane oracle.

    Exists only while sinh(a) sinh(d) < 1 (the two perpendiculars erected at
    B and D must still intersect in a real point).
    """
    if a <= 0 or d <= 0:
        raise OutOfDomain("legs must be positive")
    if math.sinh(a) * math.sinh(d) >= 1.0:
        raise OutOfDomain("legs too long, the far vertex is not a real point")
    va = plane.origin()
    vb = HPoint(math.sinh(a), 0.0, math.cosh(a))
    vd = HPoint(0.0, math.sinh(d), math.cosh(d))
    side_ab = join(va, vb)
    side_ad = join(va, vd)
    line_bc = plane.perpendicular_line(vb, side_ab)
    line_dc = plane.perpendicular_line(vd, side_ad)
    vcn = real_point(meet(line_bc, line_dc), OutOfDomain, "far vertex is not a real point")
    return LambertQuadrangle(
        a=a,
        b=distance(vb, vcn),
        c=distance(vcn, vd),
        d=d,
        phi=vertex_angle(vcn, vb, vd),
    )


def lambert_relations(q: LambertQuadrangle) -> dict[str, float]:
    """Absolute residuals of the seven side/angle relations of the quadrangle."""
    a, b, c, d, phi = q.a, q.b, q.c, q.d, q.phi
    return {
        "tanh_b": abs(math.tanh(b) - math.tanh(d) * math.cosh(a)),
        "tanh_c": abs(math.tanh(c) - math.tanh(a) * math.cosh(d)),
        "sinh_b": abs(math.sinh(b) - math.sinh(d) * math.cosh(c)),
        "sinh_c": abs(math.sinh(c) - math.sinh(a) * math.cosh(b)),
        "cos_phi": worst_residual(
            abs(math.cos(phi) - math.tanh(b) * math.tanh(c)),
            abs(math.cos(phi) - math.sinh(a) * math.sinh(d)),
        ),
        "sin_phi": worst_residual(
            abs(math.sin(phi) - math.cosh(d) / math.cosh(b)),
            abs(math.sin(phi) - math.cosh(a) / math.cosh(c)),
        ),
        "tan_phi": worst_residual(
            abs(math.tan(phi) - 1.0 / (math.tanh(a) * math.sinh(b))),
            abs(math.tan(phi) - 1.0 / (math.tanh(d) * math.sinh(c))),
        ),
    }
