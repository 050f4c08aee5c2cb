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
from dataclasses import dataclass, field, replace

from . import plane
from .errors import (
    CevianParallel,
    DegenerateTriangle,
    FootOutsideSegment,
    InconsistentCoords,
    NoSolution,
    OutOfDomain,
    OverflowRisk,
)
from .extscalar import PointKind
from .plane import (
    HLine,
    HPoint,
    acosh_clamped,
    classify,
    distance,
    geodesic_point,
    join,
    mdot,
    meet,
    normalize,
    normalize_line,
    tangent_toward,
    vertex_angle,
)

MAX_SIDE = 50.0

TriCoords = tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class TriangleData:
    """A solved triangle.

    Sides ``a, b, c`` are opposite the vertices ``A, B, C``; angles
    ``alpha, beta, gamma`` sit at those vertices.  ``s`` is the semiperimeter,
    ``delta`` the half-defect (the area is ``2 * delta``), ``n`` and ``bign``
    the two Staudtians.  ``vertices`` is filled when the triangle was built
    from, or embedded into, the plane; constructive operations require it.
    ``lines`` holds the side lines (a, b, c), derived from the vertices when
    first read.
    """

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
    vertices: tuple[HPoint, HPoint, HPoint] | None = None
    _lines: tuple[HLine, HLine, HLine] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def lines(self) -> tuple[HLine, HLine, HLine]:
        if self._lines is None:
            va, vb, vc = self.require_vertices()
            lines = (_side_line(va, vb, vc), _side_line(vb, vc, va), _side_line(vc, va, vb))
            object.__setattr__(self, "_lines", lines)
        return self._lines

    @property
    def area(self) -> float:
        return 2.0 * self.delta

    def height(self, side: str) -> float:
        """Altitude length onto the named side ('a', 'b' or 'c')."""
        return math.asinh(2.0 * self.n / math.sinh(getattr(self, side)))

    def require_vertices(self) -> tuple[HPoint, HPoint, HPoint]:
        if self.vertices is None:
            raise DegenerateTriangle("operation needs a triangle with vertices")
        return self.vertices

    def side_line(self, side: str) -> HLine:
        """Line of the named side, unit-normalized, oriented so the opposite
        vertex has positive signed distance."""
        return self.lines["abc".index(side)]

    def to_json(self):
        data = {
            "a": self.a, "b": self.b, "c": self.c,
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "s": self.s, "delta": self.delta, "n": self.n, "N": self.bign,
        }
        if self.vertices is not None:
            data["vertices"] = [v.to_json("klein") for v in self.vertices]
        return data


def _side_line(opposite: HPoint, p: HPoint, q: HPoint) -> HLine:
    """Unit line through p and q, oriented toward ``opposite``."""
    l = normalize_line(join(p, q))
    if mdot(normalize(opposite), l) < 0:
        l = HLine(-l.x, -l.y, -l.w)
    return l


def _validate_sides(a: float, b: float, c: float):
    for x in (a, b, c):
        if not (x > 0.0):
            raise DegenerateTriangle(f"side {x} is not positive")
        if x > MAX_SIDE:
            raise OverflowRisk(f"side {x} exceeds the supported range {MAX_SIDE}")
    if a >= b + c or b >= a + c or c >= a + b:
        raise DegenerateTriangle("triangle inequality violated")


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


def _assemble(a, b, c, alpha, beta, gamma, vertices=None) -> TriangleData:
    delta = 0.5 * (math.pi - alpha - beta - gamma)
    if delta <= 0.0:
        raise DegenerateTriangle("angle sum reaches pi (zero defect)")
    return TriangleData(
        a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma,
        s=0.5 * (a + b + c), delta=delta,
        n=staudtian(a, b, c),
        bign=angular_staudtian(alpha, beta, gamma),
        vertices=vertices,
    )


def _angle_from_sides(adj1: float, adj2: float, opposite: float) -> float:
    num = math.cosh(adj1) * math.cosh(adj2) - math.cosh(opposite)
    den = math.sinh(adj1) * math.sinh(adj2)
    return math.acos(min(1.0, max(-1.0, num / den)))


def solve_from_sides(a: float, b: float, c: float) -> TriangleData:
    """Triangle from its three side lengths (law of cosines on the sides)."""
    _validate_sides(a, b, c)
    alpha = _angle_from_sides(b, c, a)
    beta = _angle_from_sides(a, c, b)
    gamma = _angle_from_sides(a, b, c)
    return _assemble(a, b, c, alpha, beta, gamma)


def solve_from_angles(alpha: float, beta: float, gamma: float) -> TriangleData:
    """Triangle from its three angles (law of cosines on the angles)."""
    for x in (alpha, beta, gamma):
        if not (0.0 < x < math.pi):
            raise DegenerateTriangle(f"angle {x} outside (0, pi)")
    if alpha + beta + gamma >= math.pi:
        raise DegenerateTriangle("angle sum must stay below pi")

    def side(opp, adj1, adj2):
        num = math.cos(opp) + math.cos(adj1) * math.cos(adj2)
        den = math.sin(adj1) * math.sin(adj2)
        return acosh_clamped(num / den)

    a = side(alpha, beta, gamma)
    b = side(beta, alpha, gamma)
    c = side(gamma, alpha, beta)
    _validate_sides(a, b, c)
    return _assemble(a, b, c, alpha, beta, gamma)


def solve_from_vertices(va: HPoint, vb: HPoint, vc: HPoint) -> TriangleData:
    """Triangle from three real points, measured entirely by the plane oracle.

    The vertex triple is normalized to counterclockwise orientation in the
    Klein chart (by swapping B and C if needed), so orientation-dependent
    constructions are well defined.
    """
    pts = [normalize(v) for v in (va, vb, vc)]
    for p in pts:
        if classify(p) is not PointKind.REAL:
            raise DegenerateTriangle("vertices must be real points")
    ka, kb, kc = (p.klein() for p in pts)
    orient = (kb[0] - ka[0]) * (kc[1] - ka[1]) - (kb[1] - ka[1]) * (kc[0] - ka[0])
    if abs(orient) < 1e-14:
        raise DegenerateTriangle("vertices are (numerically) collinear")
    if orient < 0:
        pts[1], pts[2] = pts[2], pts[1]
    va, vb, vc = pts
    a = distance(vb, vc)
    b = distance(vc, va)
    c = distance(va, vb)
    _validate_sides(a, b, c)
    alpha = vertex_angle(va, vb, vc)
    beta = vertex_angle(vb, vc, va)
    gamma = vertex_angle(vc, va, vb)
    return _assemble(a, b, c, alpha, beta, gamma, vertices=(va, vb, vc))


def embed(t: TriangleData) -> TriangleData:
    """Give a side-solved triangle canonical vertices: A at the origin, B on
    the positive x-axis, C in the upper half plane."""
    if t.vertices is not None:
        return t
    va = plane.origin()
    vb = HPoint(math.sinh(t.c), 0.0, math.cosh(t.c))
    vc = HPoint(
        math.sinh(t.b) * math.cos(t.alpha),
        math.sinh(t.b) * math.sin(t.alpha),
        math.cosh(t.b),
    )
    return replace(t, vertices=(va, vb, vc))


# --------------------------------------------------------------------------
# area forms

def area(t: TriangleData) -> float:
    """The area, i.e. the defect ``pi - (alpha + beta + gamma)``."""
    return t.area


def tan_half_area_from_height(t: TriangleData) -> tuple[float, float]:
    """Both sides of the height form of the area.

    The altitude from A splits the triangle into two right triangles whose
    half-areas T_i satisfy tan(T_i/2) = tanh(a_i/2) tanh(m_a/2), with ``m_a``
    the altitude and ``a1, a2`` the signed pieces into which its foot splits
    side a.  Composing by the tangent addition rule:

        tan(T/2) = (x1 + x2) / (1 - x1 x2),   x_i = tanh(a_i/2) tanh(m_a/2)

    Needs vertices.
    """
    va, vb, vc = t.require_vertices()
    la = t.side_line("a")
    foot = normalize(plane.foot_of_perpendicular(va, la))
    u = plane.arc_coordinate(foot, tangent_toward(vb, vc))
    a1, a2 = u, t.a - u
    m_a = distance(va, foot)
    x1 = math.tanh(a1 / 2.0) * math.tanh(m_a / 2.0)
    x2 = math.tanh(a2 / 2.0) * math.tanh(m_a / 2.0)
    lhs = math.tan(t.area / 2.0)
    rhs = (x1 + x2) / (1.0 - x1 * x2)
    return lhs, rhs


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
    xn = normalize(x)
    return tuple(0.5 * mdot(xn, l) * math.sinh(length)
                 for l, length in zip(t.lines, (t.a, t.b, t.c)))


def _log_sinh(u: float) -> float:
    if u > 20.0:
        return u + math.log1p(-math.exp(-2.0 * u)) - math.log(2.0)
    return math.log(math.sinh(u))


def _solve_sinh_ratio(length: float, rho: float) -> float:
    """Solve sinh(u) / sinh(length - u) = rho for the signed arc u.

    Closed form u = artanh(rho sinh L / (1 + rho cosh L)); for very long
    sides the closed form overflows in sinh/cosh, so a monotone bisection on
    the log form takes over (interior roots only there).
    """
    if length <= 30.0:
        arg = rho * math.sinh(length) / (1.0 + rho * math.cosh(length))
        if not -1.0 < arg < 1.0:
            raise NoSolution(f"no real foot for ratio {rho:g} on length {length:g}")
        return math.atanh(arg)
    if rho <= 0.0:
        raise NoSolution("exterior foot with an extreme side length")
    target = math.log(rho)

    def g(u):
        return _log_sinh(u) - _log_sinh(length - u) - target

    lo, hi = 1e-12, length - 1e-12
    if g(lo) > 0.0 or g(hi) < 0.0:
        raise NoSolution("ratio out of range for the interior of the side")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def point_from_coords(k: TriCoords, t: TriangleData) -> HPoint:
    """Reconstruct the point with triangular coordinates ``k``.

    Two cevian feet are found by solving the sinh section-ratio equations on
    two sides, the cevians are intersected, and the third cevian is checked
    to pass through the result.  At most one component of ``k`` may be
    nonpositive.
    """
    va, vb, vc = t.require_vertices()
    zero = [i for i, v in enumerate(k) if v == 0.0]
    if len(zero) == 3:
        raise InconsistentCoords("all three coordinates are zero")
    if len(zero) == 2:
        return (va, vb, vc)[3 - zero[0] - zero[1]]
    if sum(1 for v in k if v <= 0.0) > 1:
        raise InconsistentCoords("at most one nonpositive coordinate is supported")

    verts = (va, vb, vc)
    sides = ("a", "b", "c")
    # cevian from vertex i crosses the opposite side with ratio k[next2]/k[next1]
    cevians = []
    for i in (0, 1, 2):
        j, kk = (i + 1) % 3, (i + 2) % 3
        if k[j] == 0.0 or k[kk] == 0.0:
            continue
        rho = k[kk] / k[j]
        length = getattr(t, sides[i])
        try:
            u = _solve_sinh_ratio(length, rho)
        except NoSolution:
            continue
        start, end = normalize(verts[j]), normalize(verts[kk])
        foot = geodesic_point(start, tangent_toward(start, end), u)
        cevians.append(join(verts[i], foot))
        if len(cevians) == 3:
            break
    if len(cevians) < 2:
        raise NoSolution("fewer than two cevians could be constructed")
    x = meet(cevians[0], cevians[1])
    if classify(x) is not PointKind.REAL:
        raise NoSolution("cevians meet in a non-real point")
    xn = normalize(x)
    if len(cevians) == 3:
        miss = abs(mdot(xn, normalize_line(cevians[2])))
        if miss > 1e-9:
            raise InconsistentCoords(f"third cevian misses the meet by {miss:g}")
    got = tri_coords(xn, t)
    if proportionality_residual(got, k) > 1e-9:
        raise InconsistentCoords("reconstructed point does not reproduce the coordinates")
    return xn


def relative_residual(lhs, rhs) -> float:
    """Mismatch of two real or complex values: relative where either side
    reaches 1e-6 in magnitude, absolute otherwise."""
    m = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) if m < 1e-6 else abs(lhs - rhs) / m


def proportionality_residual(u, v) -> float:
    """Scale-free mismatch of two triples viewed projectively."""
    uu = sum(x * x for x in u)
    uv = sum(x * y for x, y in zip(u, v))
    vv = sum(y * y for y in v)
    if uu == 0.0 or vv == 0.0:
        return math.inf
    cross = max(
        abs(u[0] * v[1] - u[1] * v[0]),
        abs(u[0] * v[2] - u[2] * v[0]),
        abs(u[1] * v[2] - u[2] * v[1]),
    )
    return cross / math.sqrt(uu * vv)


def cevian_ratio(x: HPoint, t: TriangleData, side: str) -> float:
    """Section ratio sinh(BF)/sinh(FC) of the cevian through ``x`` from the
    vertex opposite ``side`` (names cycled accordingly for 'b' and 'c').

    The ratio is signed: a foot outside the closed segment makes one factor
    negative.
    """
    va, vb, vc = t.require_vertices()
    vertex, start, end = {
        "a": (va, vb, vc),
        "b": (vb, vc, va),
        "c": (vc, va, vb),
    }[side]
    length = getattr(t, side)
    xn = normalize(x)
    line_side = join(start, end)
    cev = join(vertex, xn)
    foot = meet(cev, line_side)
    if classify(foot) is not PointKind.REAL:
        raise CevianParallel("cevian meets the side line in a non-real point")
    u = plane.arc_coordinate(foot, tangent_toward(start, end))
    denom = math.sinh(length - u)
    if denom == 0.0:
        raise CevianParallel("cevian foot coincides with the far endpoint")
    return math.sinh(u) / denom


def stewart_residual(t: TriangleData, aprime: HPoint) -> float:
    """Absolute residual of Stewart's relation for a point on side BC:

        cosh(AB) sinh(A'C) + cosh(AC) sinh(BA') - cosh(AA') sinh(BC)
    """
    va, vb, vc = t.require_vertices()
    p = normalize(aprime)
    if classify(p) is not PointKind.REAL:
        raise FootOutsideSegment("the point must be a real point of side BC")
    on_line = abs(mdot(p, normalize_line(join(vb, vc))))
    if on_line > 1e-9:
        raise FootOutsideSegment("the point is not on line BC")
    u = plane.arc_coordinate(p, tangent_toward(vb, vc))
    if u < -1e-12 or u > t.a + 1e-12:
        raise FootOutsideSegment("the point lies outside segment BC")
    lhs = math.cosh(t.c) * math.sinh(t.a - u) + math.cosh(t.b) * math.sinh(u)
    rhs = math.cosh(distance(va, p)) * math.sinh(t.a)
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# Lambert quadrangle

@dataclass(frozen=True, slots=True)
class LambertQuadrangle:
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
    vc = meet(line_bc, line_dc)
    if classify(vc) is not PointKind.REAL:
        raise OutOfDomain("far vertex is not a real point")
    vcn = normalize(vc)
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
        "cos_phi": max(
            abs(math.cos(phi) - math.tanh(b) * math.tanh(c)),
            abs(math.cos(phi) - math.sinh(a) * math.sinh(d)),
        ),
        "sin_phi": max(
            abs(math.sin(phi) - math.cosh(d) / math.cosh(b)),
            abs(math.sin(phi) - math.cosh(a) / math.cosh(c)),
        ),
        "tan_phi": max(
            abs(math.tan(phi) - 1.0 / (math.tanh(a) * math.sinh(b))),
            abs(math.tan(phi) - 1.0 / (math.tanh(d) * math.sinh(c))),
        ),
    }
