"""Triangle centers, each computed two ways where a closed form exists.

Every center has a constructive definition (meets of medians, bisectors,
altitudes, tangents...) carried out by the `plane` incidence kernel, and most
have closed-form triangular coordinates or radius formulas.  The registry
module compares the two routes; this module provides both.

Conventions: triangles are counterclockwise in the Klein chart (enforced at
construction), side lines are oriented so the opposite vertex has positive
signed distance, and the four circumcenters are ordered (O, O_A, O_B, O_C)
by which side keeps its real length.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import plane, trig
from .errors import (
    ConjugateAtInfinity,
    DegenerateTriangle,
    NoRootFound,
    OnSideLine,
)
from .extscalar import ExtLength, PointKind, Quantum, ext_tanh
from .plane import (
    HLine,
    HPoint,
    classify,
    distance,
    distance_ext,
    foot_of_perpendicular,
    geodesic_point,
    join,
    mdot,
    meet,
    midpoint,
    normalize,
    normalize_line,
    perpendicular_bisector,
    perpendicular_line,
    signed_line_distance,
    tangent_toward,
    vertex_angle,
)
from .trig import TriangleData, relative_residual, tri_coords


@dataclass(frozen=True, slots=True)
class CenterResult:
    """A computed center: its point, triangular coordinates, classification,
    and a map of named scalars (radii, common ratios...) tied to it."""

    name: str
    point: HPoint
    coords: tuple[float, float, float]
    classification: PointKind
    aux: dict = field(default_factory=dict)

    def to_json(self):
        if any(math.isnan(v) for v in self.coords):
            coords = None
        else:
            m = max(abs(v) for v in self.coords)
            coords = [v / m for v in self.coords] if m > 0 else list(self.coords)
        return {
            "name": self.name,
            "point": self.point.to_json("hyperboloid")
            if self.classification is PointKind.REAL
            else {"model": "hyperboloid", "coords": [self.point.x, self.point.y, self.point.w]},
            "coords": coords,
            "classification": self.classification.value,
            "aux": dict(sorted(self.aux.items())),
        }


def _line_sub(p: HLine, q: HLine) -> HLine:
    return HLine(p.x - q.x, p.y - q.y, p.w - q.w)


def _line_add(p: HLine, q: HLine) -> HLine:
    return HLine(p.x + q.x, p.y + q.y, p.w + q.w)


class Frame:
    """The one per-triangle handle: shared constructive scaffolding, built
    lazily.

    Vertices are unit-normalized, side lines unit and oriented toward the
    opposite vertex.  Everything downstream (bisectors, feet, and every
    center builder's result) is cached here, so a batch of identity checks
    constructs each object once.  Every builder takes a triangle or its
    frame (see `Frame.of`); only successful builds are cached.
    """

    def __init__(self, t: TriangleData):
        if t.vertices is None:
            t = trig.embed(t)
        self.t = t
        self.A, self.B, self.C = t.vertices
        self.lA, self.lB, self.lC = t.lines
        self._cache: dict = {}

    @staticmethod
    def of(tri: TriangleData | Frame) -> Frame:
        """``tri`` itself if it is a frame, else a new frame of the triangle."""
        return tri if isinstance(tri, Frame) else Frame(tri)

    def get(self, key, build):
        """``build()`` once per frame, then the stored value.  Nothing is
        stored when ``build`` raises."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- bisector lines: at vertex A the adjacent side lines are lB (= AC)
    # and lC (= AB); the interior is where both signed distances are positive.
    def internal_bisector(self, vertex: str) -> HLine:
        return self.get(f"bis_int_{vertex}", lambda: {
            "A": _line_sub(self.lC, self.lB),
            "B": _line_sub(self.lA, self.lC),
            "C": _line_sub(self.lB, self.lA),
        }[vertex])

    def external_bisector(self, vertex: str) -> HLine:
        return self.get(f"bis_ext_{vertex}", lambda: {
            "A": _line_add(self.lC, self.lB),
            "B": _line_add(self.lA, self.lC),
            "C": _line_add(self.lB, self.lA),
        }[vertex])

    def side_tangent(self, side: str):
        """Unit tangent along the named side from its first vertex
        (a: B->C, b: C->A, c: A->B)."""
        def build():
            start, end = {
                "a": (self.B, self.C), "b": (self.C, self.A), "c": (self.A, self.B)
            }[side]
            return tangent_toward(start, end)
        return self.get(f"tangent_{side}", build)

    def side_start(self, side: str) -> HPoint:
        return {"a": self.B, "b": self.C, "c": self.A}[side]

    def altitude_foot(self, vertex: str) -> HPoint:
        def build():
            v, l = {"A": (self.A, self.lA), "B": (self.B, self.lB), "C": (self.C, self.lC)}[vertex]
            return normalize(foot_of_perpendicular(v, l))
        return self.get(f"alt_foot_{vertex}", build)

    def bisector_foot(self, vertex: str) -> HPoint:
        def build():
            l = {"A": self.lA, "B": self.lB, "C": self.lC}[vertex]
            return normalize(meet(self.internal_bisector(vertex), l))
        return self.get(f"bis_foot_{vertex}", build)


def _memo(build):
    """Turn ``build(frame)`` into the builder ``name(tri)``, which takes a
    triangle or its frame and caches the result in the frame under the
    builder's name.

    A GeometryError raised by ``build`` is not cached: it propagates, and a
    later request builds again.  Every caller receives the same object, so
    callers must not mutate it.
    """
    key = build.__name__

    def builder(tri: TriangleData | Frame):
        f = Frame.of(tri)
        return f.get(key, lambda: build(f))

    builder.__name__ = builder.__qualname__ = key
    builder.__doc__ = build.__doc__
    return builder


def _result(name: str, point: HPoint, t: TriangleData, aux=None) -> CenterResult:
    kind = classify(point)
    pt = normalize(point) if kind is PointKind.REAL else point
    coords = tri_coords(pt, t) if kind is not PointKind.INFINITE else (
        math.nan, math.nan, math.nan)
    return CenterResult(name=name, point=pt, coords=coords,
                        classification=kind, aux=aux or {})


def _radius_ext(center: HPoint, to: HPoint) -> ExtLength:
    return distance_ext(center, to)[0]


# --------------------------------------------------------------------------
# centroid

@_memo
def centroid(f: Frame) -> CenterResult:
    """Meet of the medians; coordinates (1 : 1 : 1)."""
    ma = midpoint(f.B, f.C)
    mb = midpoint(f.C, f.A)
    m = meet(join(f.A, ma), join(f.B, mb))
    if classify(m) is not PointKind.REAL:
        raise DegenerateTriangle("median meet is not a real point")
    mn = normalize(m)
    ratio = math.sinh(distance(f.A, mn)) / math.sinh(distance(mn, ma))
    return _result("M", mn, f.t, aux={"median_section_ratio": ratio})


# --------------------------------------------------------------------------
# circumcenters

@_memo
def circumcenters(f: Frame):
    """The four perpendicular-bisector meets (O, O_A, O_B, O_C).

    O uses the bisectors of the real segments; O_X keeps side x real and
    takes the complementary bisectors of the other two sides.  For real
    triangles the O_X are centers of hypercycles, so their radii carry
    imaginary quantum pi/2.
    """
    pab = perpendicular_bisector(f.A, f.B)
    pbc = perpendicular_bisector(f.B, f.C)
    pca = perpendicular_bisector(f.C, f.A)
    qab = plane.complementary_bisector(f.A, f.B)
    qbc = plane.complementary_bisector(f.B, f.C)
    o = meet(pab, pbc)
    oa = meet(pbc, qab)
    ob = meet(pca, qab)
    oc = meet(pab, qbc)
    out = []
    for name, center in (("O", o), ("O_A", oa), ("O_B", ob), ("O_C", oc)):
        radius = _radius_ext(center if classify(center) is not PointKind.REAL
                             else normalize(center), f.A)
        out.append(_result(name, center, f.t, aux={
            "tanh_R": ext_tanh(radius).real,
            "radius_re": radius.re,
            "radius_quantum": radius.im.radians,
        }))
    return tuple(out)


# --------------------------------------------------------------------------
# incenter and excenters

@_memo
def incenter_excenters(f: Frame):
    """Bisector meets (I, I_A, I_B, I_C) with extended-valued radii.

    The incenter is always real; excenters may be real, at infinity or ideal
    (their classification is reported and the radius becomes extended)."""
    i_pt = meet(f.internal_bisector("A"), f.internal_bisector("B"))
    ia = meet(f.internal_bisector("A"), f.external_bisector("B"))
    ib = meet(f.internal_bisector("B"), f.external_bisector("C"))
    ic = meet(f.internal_bisector("C"), f.external_bisector("A"))
    out = []
    for name, center in (("I", i_pt), ("I_A", ia), ("I_B", ib), ("I_C", ic)):
        kind = classify(center)
        aux = {}
        if kind is PointKind.REAL:
            cn = normalize(center)
            d = abs(signed_line_distance(cn, f.lA))
            aux = {"tanh_r": math.tanh(d), "radius_re": d, "radius_quantum": 0.0}
        elif kind is PointKind.IDEAL:
            cn = normalize(center)
            v = abs(mdot(cn, f.lA))
            d = plane.acosh_clamped(max(v, 1.0))
            r = ExtLength(d, Quantum.HALF_PI)
            aux = {"tanh_r": ext_tanh(r).real, "radius_re": d,
                   "radius_quantum": r.im.radians}
        out.append(_result(name, center, f.t, aux=aux))
    return tuple(out)


# --------------------------------------------------------------------------
# radius identities (the inter-radius formulas)

@_memo
def radius_identities(f: Frame) -> dict[str, float]:
    """Relative residuals of the six identities tying r, r_A, r_B, r_C and R.

    Evaluated from oracle radii: tanh/coth of the measured distances from the
    bisector meets to the side lines, extended arithmetic for ideal excenters
    (where coth of the complex radius is the real tanh of its real part).
    """
    td = f.t
    centers = incenter_excenters(f)
    tvals = [c.aux["tanh_r"] for c in centers]  # tanh r, tanh r_A, ...
    tr, tra, trb, trc = tvals
    o = circumcenters(f)[0]
    tR = o.aux["tanh_R"]
    a, b, c, s = td.a, td.b, td.c, td.s
    sh = math.sinh
    rel = relative_residual

    res = {}
    res["coth_sum_vs_tanh_R"] = rel(-1 / tra - 1 / trb - 1 / trc + 1 / tr, 2 * tR)
    res["coth_products"] = rel(
        1 / (tra * trb) + 1 / (tra * trc) + 1 / (trb * trc),
        1 / (sh(s) * sh(s - a)) + 1 / (sh(s) * sh(s - b)) + 1 / (sh(s) * sh(s - c)),
    )
    res["tanh_products"] = rel(
        tra * trb + tra * trc + trb * trc,
        0.5 * (math.cosh(a + b) + math.cosh(a + c) + math.cosh(b + c)
               - math.cosh(a) - math.cosh(b) - math.cosh(c)),
    )
    res["coth_sum"] = rel(
        1 / tra + 1 / trb + 1 / trc,
        (math.cosh(a) + math.cosh(b) + math.cosh(c)
         - (sh(a) + sh(b) + sh(c)) / math.tanh(s)) / tr,
    )
    res["tanh_sum"] = rel(
        tra + trb + trc,
        (math.cosh(a) + math.cosh(b) + math.cosh(c)
         - math.cosh(b - a) - math.cosh(c - a) - math.cosh(c - b)) / (2 * tr),
    )
    res["sinh_products"] = rel(
        sh(a) * sh(b) + sh(a) * sh(c) + sh(b) * sh(c),
        tr * (tra + trb + trc) + tra * trb + tra * trc + trb * trc,
    )
    return res


# --------------------------------------------------------------------------
# orthocenter

@_memo
def orthocenter(f: Frame) -> CenterResult:
    """Meet of the altitudes.  May be real, at infinity or ideal; the common
    value h = tanh(HX) tanh(HH_X) is attached when the meet is real."""
    alt_a = perpendicular_line(f.A, f.lA)
    alt_b = perpendicular_line(f.B, f.lB)
    h = meet(alt_a, alt_b)
    aux = {}
    if classify(h) is PointKind.REAL:
        hn = normalize(h)
        ha = distance(hn, f.A)
        hha = distance(hn, f.altitude_foot("A"))
        aux["h"] = math.tanh(ha) * math.tanh(hha)
        h = hn
    return _result("H", h, f.t, aux=aux)


# --------------------------------------------------------------------------
# isogonal conjugation

def isogonal_conjugate(x: HPoint, tri: TriangleData | Frame) -> HPoint:
    """Reflect the cevians through ``x`` in the internal bisectors at two
    vertices and intersect the reflected lines.

    Raises OnSideLine for points of a side line (their conjugate cevians
    degenerate) and ConjugateAtInfinity when the reflected cevians meet in a
    non-real point.
    """
    f = Frame.of(tri)
    xn = normalize(x)
    coords = tri_coords(xn, f.t)
    if min(abs(v) for v in coords) < 1e-13:
        raise OnSideLine("isogonal conjugate of a point on a side line")
    la = plane.reflect_line(join(f.A, xn), normalize_line(f.internal_bisector("A")))
    lb = plane.reflect_line(join(f.B, xn), normalize_line(f.internal_bisector("B")))
    conj = meet(la, lb)
    if classify(conj) is not PointKind.REAL:
        raise ConjugateAtInfinity("reflected cevians meet in a non-real point")
    return normalize(conj)


@_memo
def symmedian_point(f: Frame) -> CenterResult:
    """Isogonal conjugate of the centroid; coordinates
    (sinh^2 a : sinh^2 b : sinh^2 c)."""
    m = centroid(f)
    mp = isogonal_conjugate(m.point, f)
    return _result("M'", mp, f.t)


@_memo
def lemoine_point(f: Frame) -> CenterResult:
    """Meet of the cevians to the tangent triangle of the circumscribed cycle;
    coordinates (cosh a - 1 : cosh b - 1 : cosh c - 1).

    The tangent triangle vertices (meets of pairs of tangents at the triangle
    vertices) may be ideal; the cevians through them are still real lines.
    """
    o = circumcenters(f)[0].point
    tan_a = perpendicular_line(f.A, join(o, f.A))
    tan_b = perpendicular_line(f.B, join(o, f.B))
    tan_c = perpendicular_line(f.C, join(o, f.C))
    ap = meet(tan_b, tan_c)
    bp = meet(tan_a, tan_c)
    cp = meet(tan_a, tan_b)
    l = meet(join(f.A, ap), join(f.B, bp))
    if classify(l) is not PointKind.REAL:
        raise DegenerateTriangle("tangent-triangle cevians meet in a non-real point")
    ln = normalize(l)
    third = abs(mdot(ln, normalize_line(join(f.C, cp))))
    return _result("L", ln, f.t, aux={"third_cevian_residual": third})


# --------------------------------------------------------------------------
# pseudo-centroid (area-bisecting cevians)

def _pseudomedian_foot_arc(half_len: float, rho: float) -> float:
    """Arc from the side's first vertex to the pseudomedian foot, from the
    half-angle ratio equation sinh(u/2)/sinh((L-u)/2) = rho."""
    arg = rho * math.sinh(half_len) / (1.0 + rho * math.cosh(half_len))
    return 2.0 * math.atanh(arg)


@_memo
def pseudo_centroid(f: Frame):
    """Meet of the three area-bisecting cevians, with their feet.

    The foot on side c (from C) satisfies
    sinh(AN_C/2) : sinh(N_CB/2) = cosh(b/2) : cosh(a/2), and cyclically; the
    coordinates are the reciprocals of cosh-half products.  Returns
    (CenterResult, (N_A, N_B, N_C)) with N_X the foot on side x.
    """
    td = f.t
    ch = {s: math.cosh(getattr(td, s) / 2.0) for s in "abc"}
    # foot on a (from A, measured from B): sinh(BN_A/2):sinh(N_AC/2) = cosh(c/2):cosh(b/2)
    arcs = {
        "a": _pseudomedian_foot_arc(td.a / 2.0, ch["c"] / ch["b"]),
        "b": _pseudomedian_foot_arc(td.b / 2.0, ch["a"] / ch["c"]),
        "c": _pseudomedian_foot_arc(td.c / 2.0, ch["b"] / ch["a"]),
    }
    feet = {}
    for side in "abc":
        start = f.side_start(side)
        feet[side] = normalize(geodesic_point(start, f.side_tangent(side), arcs[side]))
    pm_a = join(f.A, feet["a"])
    pm_b = join(f.B, feet["b"])
    s_pt = meet(pm_a, pm_b)
    if classify(s_pt) is not PointKind.REAL:
        raise DegenerateTriangle("pseudomedians meet in a non-real point")
    sn = normalize(s_pt)
    third = abs(mdot(sn, normalize_line(join(f.C, feet["c"]))))
    res = _result("S", sn, td, aux={
        "third_cevian_residual": third,
        "foot_arc_a": arcs["a"], "foot_arc_b": arcs["b"], "foot_arc_c": arcs["c"],
    })
    return res, (feet["a"], feet["b"], feet["c"])


# --------------------------------------------------------------------------
# pseudo-orthocenter (directed-angle balance cevians)

def _pseudoaltitude_g(f: Frame, vertex: str, u: float) -> float:
    """Directed-angle balance for the cevian from ``vertex`` with foot at arc
    ``u`` along the opposite side.

    For the cevian AZ with Z on BC the balance is
    (AZB - ZBA - BAZ) - (CZA - ZAC - ACZ), all angles read as interior angles
    of the two sub-triangles with the triangle counterclockwise; it reduces
    to 2*theta - pi + alpha - beta + gamma - 2*phi with theta the angle AZB
    and phi the angle BAZ.
    """
    td = f.t
    apex, side = {"A": (f.A, "a"), "B": (f.B, "b"), "C": (f.C, "c")}[vertex]
    start = f.side_start(side)
    t0 = f.side_tangent(side)
    z = geodesic_point(start, t0, u)
    # tangent at z pointing back toward the side's start vertex, by parallel
    # transport (stable even when z sits next to the vertex)
    cu, su = math.cosh(u), math.sinh(u)
    back = (-(su * start.x + cu * t0[0]),
            -(su * start.y + cu * t0[1]),
            -(su * start.w + cu * t0[2]))
    t_apex = tangent_toward(z, apex)
    cth = -(t_apex[2] * back[2] - t_apex[0] * back[0] - t_apex[1] * back[1])
    theta = math.acos(min(1.0, max(-1.0, cth)))
    phi = vertex_angle(apex, start, z)
    ang = {"A": (td.alpha, td.beta, td.gamma),
           "B": (td.beta, td.gamma, td.alpha),
           "C": (td.gamma, td.alpha, td.beta)}[vertex]
    return 2.0 * theta - math.pi + ang[0] - ang[1] + ang[2] - 2.0 * phi


def _pseudoaltitude_ends(f: Frame, vertex: str) -> tuple[float, float]:
    """The open side opposite ``vertex`` as the arc interval (eps, L - eps),
    eps = 1e-9 L, on which its foot is searched."""
    length = getattr(f.t, vertex.lower())
    eps = 1e-9 * length
    return eps, length - eps


def _pseudoaltitude_profile(f: Frame, vertex: str) -> list:
    """The balance function on 65 evenly spaced arcs of the open side, as
    (arc, value) pairs."""
    lo, hi = _pseudoaltitude_ends(f, vertex)
    us = [lo + (hi - lo) * i / 64 for i in range(65)]
    return [(u, _pseudoaltitude_g(f, vertex, u)) for u in us]


def _brent(g, a: float, b: float, fa: float, fb: float) -> float:
    """Root of ``g`` in the bracket [a, b], where ``fa = g(a)`` and
    ``fb = g(b)`` have opposite signs, by Brent's method (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4): inverse
    quadratic or secant steps, with a bisection step whenever these would
    leave the bracket or shrink it too slowly.  Stops at an exact zero or
    once the bracket is about 1e-13 wide.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5e-13
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)


@_memo
def pseudo_orthocenter(f: Frame):
    """Meet of the three pseudoaltitudes, with their feet.

    Returns (CenterResult, (Z_A, Z_B, Z_C)).  The balance function of each
    vertex decreases strictly along the open side, so its foot exists exactly
    when the values at the two ends differ in sign.  All three brackets are
    checked before any foot is solved, and the first vertex without one
    raises NoRootFound, whose scanned profile is computed when it is read.
    Every obtuse triangle raises, as do acute ones with a large defect.
    """
    brackets = {}
    for vertex in "ABC":
        lo, hi = _pseudoaltitude_ends(f, vertex)
        glo, ghi = _pseudoaltitude_g(f, vertex, lo), _pseudoaltitude_g(f, vertex, hi)
        if not (glo == 0.0 or glo * ghi < 0.0):
            raise NoRootFound(
                f"no sign change for the pseudoaltitude from {vertex}",
                profile=lambda: _pseudoaltitude_profile(f, vertex),
            )
        brackets[vertex] = (lo, hi, glo, ghi)
    feet = {}
    for vertex, side in (("A", "a"), ("B", "b"), ("C", "c")):
        lo, hi, glo, ghi = brackets[vertex]
        u = _brent(lambda x: _pseudoaltitude_g(f, vertex, x), lo, hi, glo, ghi)
        feet[vertex] = normalize(
            geodesic_point(f.side_start(side), f.side_tangent(side), u))
    z = meet(join(f.A, feet["A"]), join(f.B, feet["B"]))
    if classify(z) is not PointKind.REAL:
        raise DegenerateTriangle("pseudoaltitudes meet in a non-real point")
    zn = normalize(z)
    third = abs(mdot(zn, normalize_line(join(f.C, feet["C"]))))
    res = _result("Z", zn, f.t, aux={"third_cevian_residual": third})
    return res, (feet["A"], feet["B"], feet["C"])


# --------------------------------------------------------------------------
# the bisector-feet cycle and the Euler line

def _cycle_center_result(name: str, pts, t: TriangleData) -> CenterResult:
    cyc = plane.cycle_through(*pts)
    return _result(name, cyc.center, t, aux={
        "cycle_kind": {"circle": 0.0, "paracycle": 1.0, "hypercycle": 2.0}[cyc.kind.value],
        "radius_re": cyc.radius.re,
        "radius_quantum": cyc.radius.im.radians,
    })


@_memo
def pseudomedian_feet_center(f: Frame) -> CenterResult:
    """Center F of the cycle through the feet of the pseudomedians.

    This is the fourth point of the four-center line: differential testing
    puts it on the line through O, S and Z to machine precision, while the
    center of the bisector-feet cycle is measurably off that line (see
    `bisector_feet_center`).
    """
    return _cycle_center_result("F", pseudo_centroid(f)[1], f.t)


@_memo
def bisector_feet_center(f: Frame) -> CenterResult:
    """Center of the cycle through the feet of the internal bisectors.

    A natural cycle of the triangle, kept for comparison; it does not lie on
    the four-center line."""
    return _cycle_center_result(
        "F_bis",
        (f.bisector_foot("A"), f.bisector_foot("B"), f.bisector_foot("C")),
        f.t,
    )


def collinearity_residual(p: HPoint, q: HPoint, r: HPoint) -> float:
    """Scale-free |det| of the three homogeneous triples (max-norm rows),
    as the triple product p . (q x r)."""
    rows = []
    for v in (p, q, r):
        m = max(abs(v.x), abs(v.y), abs(v.w))
        rows.append((v.x / m, v.y / m, v.w / m))
    (a, b, c), (d, e, g), (h, i, k) = rows
    return abs(a * (e * k - g * i) - b * (d * k - g * h) + c * (d * i - e * h))


@dataclass(frozen=True, slots=True)
class EulerLineReport:
    """Collinearity diagnostics for the four-center line (O, F, S, Z) and the
    classical O, M, H test."""

    residuals: dict
    classical_det: float
    isosceles_measure: float
    missing: tuple = ()

    @property
    def max_line_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else math.nan


@_memo
def euler_line(f: Frame) -> EulerLineReport:
    """Check that O (circumcenter), F (pseudomedian-feet cycle center), S
    (pseudo-centroid) and Z (pseudo-orthocenter) are collinear, and report
    the classical det(O, M, H) with the isosceles shape measure."""
    td = f.t
    o = circumcenters(f)[0].point
    fc = pseudomedian_feet_center(f).point
    s = pseudo_centroid(f)[0].point
    missing = []
    residuals = {"OFS": collinearity_residual(o, fc, s)}
    try:
        z = pseudo_orthocenter(f)[0].point
        residuals["OFZ"] = collinearity_residual(o, fc, z)
        residuals["OSZ"] = collinearity_residual(o, s, z)
        residuals["FSZ"] = collinearity_residual(fc, s, z)
    except NoRootFound:
        missing.append("Z")
    m = centroid(f).point
    h = orthocenter(f).point
    classical = collinearity_residual(o, m, h)
    iso = min(abs(td.a - td.b), abs(td.b - td.c), abs(td.a - td.c))
    return EulerLineReport(
        residuals=residuals,
        classical_det=classical,
        isosceles_measure=iso,
        missing=tuple(missing),
    )


# --------------------------------------------------------------------------
# minimality of coordinate sums

@dataclass(frozen=True, slots=True)
class MinimalityReport:
    """Grid verdicts for the two coordinate-sum minimality statements.

    ``incenter_min_ok`` / ``incenter_closed_residual`` refer to the printed
    claim that Sum n_X(P) is minimized at the incenter with value
    (N/2) cosh(PI).  The verified behaviour of that sum is
    Sum n_X(P) = (n / cosh R) cosh(P O): minimized at the circumcenter;
    ``circumcenter_min_ok`` / ``circumcenter_closed_residual`` report it.
    ``centroid_min_ok`` checks that Sum cosh(YX) is minimized at the
    centroid, with the closed form Sum cosh(YX) = (n / n_A(M)) cosh(YM).
    """

    incenter_min_ok: bool
    incenter_closed_residual: float
    circumcenter_min_ok: bool
    circumcenter_closed_residual: float
    centroid_min_ok: bool
    centroid_closed_residual: float


def coordinate_sum_functional(t: TriangleData) -> HLine:
    """The coordinate sum as one linear functional:
    Sum n_X(P) = <P, V> for unit P, with V = Sum 1/2 sinh(x) l_X built from
    the side lines."""
    la, lb, lc = t.lines
    ka, kb, kc = (0.5 * math.sinh(x) for x in (t.a, t.b, t.c))
    return HLine(ka * la.x + kb * lb.x + kc * lc.x,
                 ka * la.y + kb * lb.y + kc * lc.y,
                 ka * la.w + kb * lb.w + kc * lc.w)


_GRID_RADII = (1e-3, 1e-2, 1e-1)
_GRID_HYP = tuple((math.cosh(r), math.sinh(r)) for r in _GRID_RADII)


def _grid_minimum(p: HPoint, w, scale: float, directions, closed: float = 0.0):
    """Check ``<X, w>`` on the radial grid of unit points X around real ``p``.

    ``directions`` holds (cos th, sin th) pairs; each direction is the unit
    tangent d = (cos th t1 + sin th t2) / |.|, from a reference tangent t1
    and its normal t2, taken at each radius r of `_GRID_RADII`.  A sample
    is X = cosh r p + sinh r d, so <X, w> and cosh XP = <X, p> are scalar
    sums of <p, .>, <t1, .> and <t2, .>.  Returns whether every sample
    exceeds <p, w>, and the largest relative gap between <X, w> and
    ``scale * cosh XP`` (starting from ``closed``).
    """
    pn = normalize(p)
    k = pn.klein()
    ref = plane.origin() if (k[0] ** 2 + k[1] ** 2) > 1e-4 else plane.klein_point(0.3, 0.0)
    t1 = HPoint(*tangent_toward(pn, ref))
    # second tangent: metric dual of the cross product of p and t1
    t2 = HPoint(-(pn.y * t1.w - pn.w * t1.y), -(pn.w * t1.x - pn.x * t1.w),
                pn.x * t1.y - pn.y * t1.x)
    w0, w1, w2 = mdot(pn, w), mdot(t1, w), mdot(t2, w)
    p0, p1, p2 = mdot(pn, pn), mdot(t1, pn), mdot(t2, pn)
    ok = True
    for c, s in directions:
        dx, dy, dw = c * t1.x + s * t2.x, c * t1.y + s * t2.y, c * t1.w + s * t2.w
        nrm = math.sqrt(abs(dw * dw - dx * dx - dy * dy))
        d_w, d_p = (c * w1 + s * w2) / nrm, (c * p1 + s * p2) / nrm
        for ch, sh in _GRID_HYP:
            fx = ch * w0 + sh * d_w
            if fx <= w0:
                ok = False
            want = scale * (ch * p0 + sh * d_p)
            gap = abs(fx - want) / max(abs(fx), abs(want))
            if gap > closed:
                closed = gap
    return ok, closed


def incenter_minimality(tri: TriangleData | Frame, samples: int = 24) -> MinimalityReport:
    """Evaluate the coordinate-sum minimality claims on a radial grid.

    ``samples`` points are spread over ``samples // 3`` geodesic directions
    at radii 1e-3, 1e-2, 1e-1 around each tested center.  The coordinate sum
    is evaluated as the functional `coordinate_sum_functional` of the side
    lines, Sum cosh(YX) over the vertices Y as <X, A + B + C>; the centers
    come from their constructions.
    """
    f = Frame.of(tri)
    td = f.t
    n_dir = max(1, samples // 3)
    angles = [2.0 * math.pi * i / n_dir for i in range(n_dir)]
    directions = [(math.cos(th), math.sin(th)) for th in angles]
    v = coordinate_sum_functional(td)

    i_res = incenter_excenters(f)[0]
    o_res = circumcenters(f)[0]
    m_res = centroid(f)

    # printed claim: minimum at I with value (N/2) cosh(PI)
    inc_ok, inc_closed = _grid_minimum(i_res.point, v, td.bign / 2.0, directions)

    # verified behaviour: minimum at O with value (n / cosh R) cosh(PO)
    circ_ok = False
    circ_closed = math.inf
    if o_res.classification is PointKind.REAL and abs(o_res.aux["tanh_R"]) < 1.0:
        cosh_r = math.cosh(math.atanh(o_res.aux["tanh_R"]))
        f_o = mdot(o_res.point, v)
        circ_ok, circ_closed = _grid_minimum(
            o_res.point, v, td.n / cosh_r, directions,
            closed=abs(f_o - td.n / cosh_r) / max(f_o, td.n / cosh_r))

    # centroid claim: Sum cosh(YX) minimized at M, closed form via the
    # median section ratio n / n_A(M)
    a, b, c = (normalize(x) for x in (f.A, f.B, f.C))
    vertex_sum = HPoint(a.x + b.x + c.x, a.y + b.y + c.y, a.w + b.w + c.w)
    cen_ok, cen_closed = _grid_minimum(m_res.point, vertex_sum, td.n / m_res.coords[0],
                                       directions)

    return MinimalityReport(
        incenter_min_ok=inc_ok,
        incenter_closed_residual=inc_closed,
        circumcenter_min_ok=circ_ok,
        circumcenter_closed_residual=circ_closed,
        centroid_min_ok=cen_ok,
        centroid_closed_residual=cen_closed,
    )
