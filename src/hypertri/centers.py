"""Triangle centers, each computed two ways where a closed form exists.

Every center has a constructive definition (meets of medians, bisectors,
altitudes, tangents...) carried out by the `plane` incidence kernel, and most
have closed-form triangular coordinates or radius formulas.  This module
builds the constructions and the radius formulas; the closed-form
coordinates are the ``coords`` of the `registry.CENTERS` rows, and the
registry compares the two routes.

Conventions: triangles are counterclockwise in the Klein chart (enforced at
construction), side lines are oriented so the opposite vertex has positive
signed distance, and the four circumcenters are ordered (O, O_A, O_B, O_C)
by which side keeps its real length.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    UnitPoint,
    _new,
    classify,
    distance,
    geodesic_point,
    join,
    mdot,
    meet,
    midpoint,
    normalize,
    normalize_line,
    perpendicular_bisector,
    perpendicular_line,
    real_point,
    signed_line_distance,
    tangent_angle,
    tangent_toward,
    vertex_angle,
)
from .trig import SIDE_ENDS, TriangleData, relative_residual, tri_coords, worst_residual

_R, _IN = PointKind.REAL, PointKind.INFINITE


class CenterResult(NamedTuple):
    """A computed center: its point, triangular coordinates, classification,
    and a map of named scalars (radii, common ratios...) tied to it.  A
    real point is stored in unit form, any other point as constructed; a
    point at infinity has no coordinates (None)."""

    name: str
    point: HPoint
    coords: tuple[float, float, float] | None
    classification: PointKind
    aux: dict

    def to_json(self):
        name, point, coords, kind, aux = self
        if coords is not None:
            c0, c1, c2 = coords
            m = max(abs(c0), abs(c1), abs(c2))
            coords = [c0 / m, c1 / m, c2 / m] if m > 0 else [c0, c1, c2]
        return {
            "name": name,
            "point": {"model": "hyperboloid", "coords": list(point)},
            "coords": coords,
            "classification": _KIND_JSON[kind],
            "aux": dict(sorted(aux.items())),
        }


_KIND_JSON = {kind: kind.value for kind in PointKind}


_MISSING = object()


class Frame:
    """The one per-triangle handle: the triangle's vertices, side lines and
    the per-index objects every construction shares.

    Vertices are unit-normalized, side lines unit and oriented toward the
    opposite vertex.  The bisector lines, altitudes, their feet and lengths
    (``heights``) and the side midpoints are built here, once, as triples
    indexed like `trig.SIDE_ENDS`: entry ``i`` belongs to vertex ``i`` or
    to side ``i``, which runs from vertex ``j`` to vertex ``k`` with
    (j, k) = SIDE_ENDS[i]; the side tangents are the triangle's own, and
    ``unit_bisectors`` the unit forms of internal bisectors 0 and 1.  Every
    center builder takes a triangle or its frame (see `Frame.of`) and stores
    its result in the frame's instance dict under its own name, so a batch of
    identity checks builds each center once; only successful builds are stored.
    """

    def __init__(self, t: TriangleData):
        self.t = t
        self.vertices, self.lines = vs, ls = t.vertices, t.lines
        self.A, self.B, self.C = vs
        internal, external = [], []
        altitudes, feet, heights, mids = [], [], [], []
        for i, (j, k) in enumerate(SIDE_ENDS):
            # the sides at vertex i are lines[k] (toward vertex j) and
            # lines[j]; the interior is where both signed distances are
            # positive
            (px, py, pw), (qx, qy, qw) = ls[k], ls[j]
            internal.append(_new(HLine, (px - qx, py - qy, pw - qw)))
            external.append(_new(HLine, (px + qx, py + qy, pw + qw)))
            altitudes.append(perpendicular_line(vs[i], ls[i]))
            feet.append(normalize(meet(altitudes[i], ls[i])))
            heights.append(distance(vs[i], feet[i]))
            mids.append(midpoint(vs[j], vs[k]))
        self.internal_bisectors = tuple(internal)
        self.unit_bisectors = (normalize_line(internal[0]), normalize_line(internal[1]))
        self.external_bisectors = tuple(external)
        self.side_tangents = t.side_tangents
        self.altitudes = tuple(altitudes)
        self.altitude_feet = tuple(feet)
        self.heights = tuple(heights)
        self.midpoints = tuple(mids)

    @staticmethod
    def of(tri: TriangleData | Frame) -> Frame:
        """``tri`` itself if it is a frame, else a new frame of the triangle."""
        return tri if isinstance(tri, Frame) else Frame(tri)


def _memo(build):
    """Turn ``build(frame)`` into the builder ``name(tri)``, which takes a
    triangle or its frame and stores the result in the frame's instance
    dict under the builder's name.

    A GeometryError raised by ``build`` is not stored: it propagates, and a
    later request builds again.  Every caller receives the same object, so
    callers must not mutate it.
    """
    key = build.__name__

    def builder(tri: TriangleData | Frame):
        # `Frame.of` written out, one call layer less: every center check
        # comes through here
        f = tri if isinstance(tri, Frame) else Frame(tri)
        stored = f.__dict__
        value = stored.get(key, _MISSING)
        if value is _MISSING:
            value = stored[key] = build(f)
        return value

    builder.__name__ = builder.__qualname__ = key
    builder.__doc__ = build.__doc__
    return builder


def _result(name: str, point: HPoint, t: TriangleData, aux=None) -> CenterResult:
    """The center ``name`` at ``point`` of the triangle ``t``, with ``aux``
    (a new empty dict when None).  The one place a constructed center is
    classified: a `UnitPoint` is taken as it is; any other point is
    classified, and normalized when real.  A point at infinity has no
    coordinates (None)."""
    if point.__class__ is UnitPoint:
        kind = _R
    else:
        kind = classify(point)
        if kind is _R:
            point = normalize(point)
    coords = None if kind is _IN else tri_coords(point, t)
    return _new(CenterResult, (name, point, coords, kind, {} if aux is None else aux))


# --------------------------------------------------------------------------
# centroid

@_memo
def centroid(f: Frame) -> CenterResult:
    """Meet of the medians; coordinates (1 : 1 : 1)."""
    ma, mb, _ = f.midpoints
    mn = real_point(meet(join(f.A, ma), join(f.B, mb)), DegenerateTriangle,
                    "median meet is not a real point")
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
        res = _result(name, center, f.t)
        radius = plane.radius_ext(res.point, res.classification, f.A)
        res.aux.update(tanh_R=ext_tanh(radius), radius_re=radius.re,
                       radius_quantum=radius.im.radians)
        out.append(res)
    return tuple(out)


# --------------------------------------------------------------------------
# incenter and excenters

@_memo
def incenter_excenters(f: Frame):
    """Bisector meets (I, I_A, I_B, I_C) with extended-valued radii.

    The incenter is always real; excenters may be real, at infinity or ideal
    (their classification is reported and the radius becomes extended; a
    center at infinity has none)."""
    i_pt = meet(f.internal_bisectors[0], f.internal_bisectors[1])
    ia = meet(f.internal_bisectors[0], f.external_bisectors[1])
    ib = meet(f.internal_bisectors[1], f.external_bisectors[2])
    ic = meet(f.internal_bisectors[2], f.external_bisectors[0])
    out = []
    for name, center in (("I", i_pt), ("I_A", ia), ("I_B", ib), ("I_C", ic)):
        res = _result(name, center, f.t)
        out.append(res)
        kind = res.classification
        if kind is _IN:
            continue  # no radius
        if kind is _R:
            radius = ExtLength(abs(signed_line_distance(res.point, f.lines[0])))
        else:
            v = abs(mdot(normalize(center), f.lines[0]))
            radius = ExtLength(plane.acosh_clamped(max(v, 1.0)), Quantum.HALF_PI)
        res.aux.update(tanh_r=ext_tanh(radius), radius_re=radius.re,
                       radius_quantum=radius.im.radians)
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
    tr, *tex = (c.aux["tanh_r"] for c in incenter_excenters(f))  # tanh r, tanh r_X
    tR = circumcenters(f)[0].aux["tanh_R"]
    x, s = f.t.sides, f.t.s
    sh, ch = math.sinh, math.cosh
    rel = relative_residual
    # every sum adds its terms left to right in the order the identity is
    # written, so each residual keeps its bits
    pairs = ((0, 1), (0, 2), (1, 2))
    tex_pairs = [tex[i] * tex[j] for i, j in pairs]
    cosh_sum = sum(map(ch, x))
    coth_ex = sum(1 / v for v in tex)
    res = {}
    res["coth_sum_vs_tanh_R"] = rel(-coth_ex + 1 / tr, 2 * tR)
    res["coth_products"] = rel(
        sum(1 / v for v in tex_pairs),
        sum(1 / (sh(s) * sh(s - v)) for v in x),
    )
    res["tanh_products"] = rel(
        sum(tex_pairs),
        0.5 * sum((-ch(v) for v in x), sum(ch(x[i] + x[j]) for i, j in pairs)),
    )
    res["coth_sum"] = rel(
        coth_ex,
        (cosh_sum - sum(map(sh, x)) / math.tanh(s)) / tr,
    )
    res["tanh_sum"] = rel(
        sum(tex),
        sum((-ch(x[j] - x[i]) for i, j in pairs), cosh_sum) / (2 * tr),
    )
    res["sinh_products"] = rel(
        sum(sh(x[i]) * sh(x[j]) for i, j in pairs),
        sum(tex_pairs, tr * sum(tex)),
    )
    return res


# --------------------------------------------------------------------------
# orthocenter

@_memo
def orthocenter(f: Frame) -> CenterResult:
    """Meet of the altitudes.  May be real, at infinity or ideal; the common
    value h = tanh(HX) tanh(HH_X) is attached when the meet is real."""
    res = _result("H", meet(f.altitudes[0], f.altitudes[1]), f.t)
    if res.classification is _R:
        h = res.point
        res.aux["h"] = math.tanh(distance(h, f.A)) * math.tanh(distance(h, f.altitude_feet[0]))
    return res


@_memo
def orthocenter_distances(f: Frame):
    """A real H's distances ((HA, HB, HC), (HF_0, HF_1, HF_2)) to the vertices and feet."""
    h = orthocenter(f).point
    return tuple(distance(h, v) for v in f.vertices), tuple(distance(h, x) for x in f.altitude_feet)


# --------------------------------------------------------------------------
# isogonal conjugation

def side_tol(coords) -> float:
    """Where a triangular coordinate counts as zero, i.e. the point as on a
    side line: 1e-13 of the largest coordinate in absolute value.  The
    threshold is relative, so it does not depend on the triangle's size."""
    c0, c1, c2 = coords
    return 1e-13 * max(abs(c0), abs(c1), abs(c2))


def isogonal_conjugate(x: HPoint | CenterResult, tri: TriangleData | Frame) -> HPoint:
    """Reflect the cevians through ``x`` in the internal bisectors at two
    vertices and intersect the reflected lines.  ``x`` is a point, or a
    center of the triangle whose stored coordinates are read instead of
    computed again.

    Raises OnSideLine for points of a side line, a coordinate within
    `side_tol` of zero (their conjugate cevians degenerate), and
    ConjugateAtInfinity when the reflected cevians meet in a non-real point.
    """
    f = Frame.of(tri)
    coords = None
    if x.__class__ is CenterResult:
        x, coords = x.point, x.coords
    xn = normalize(x)
    if coords is None:
        coords = tri_coords(xn, f.t)
    if min(map(abs, coords)) <= side_tol(coords):
        raise OnSideLine("isogonal conjugate of a point on a side line")
    la = plane.reflect_line(join(f.A, xn), f.unit_bisectors[0])
    lb = plane.reflect_line(join(f.B, xn), f.unit_bisectors[1])
    return real_point(meet(la, lb), ConjugateAtInfinity,
                      "reflected cevians meet in a non-real point")


def _cevian_meet(f: Frame, targets, what: str) -> tuple[HPoint, float]:
    """The real meet of the cevians from A and B toward ``targets[0]`` and
    ``targets[1]``, and by how much the cevian from C toward ``targets[2]``
    misses it; DegenerateTriangle names ``what`` when the meet is not real."""
    p = real_point(meet(join(f.A, targets[0]), join(f.B, targets[1])),
                   DegenerateTriangle, f"{what} meet in a non-real point")
    return p, abs(mdot(p, normalize_line(join(f.C, targets[2]))))


@_memo
def symmedian_point(f: Frame) -> CenterResult:
    """Isogonal conjugate of the centroid; coordinates
    (sinh^2 a : sinh^2 b : sinh^2 c)."""
    return _result("M'", isogonal_conjugate(centroid(f), f), f.t)


@_memo
def orthocenter_conjugate(f: Frame) -> CenterResult:
    """H', the isogonal conjugate of the orthocenter; coordinates
    (sin 2 alpha : sin 2 beta : sin 2 gamma)."""
    return _result("H'", isogonal_conjugate(orthocenter(f), f), f.t)


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
    tangent_triangle = (meet(tan_b, tan_c), meet(tan_a, tan_c), meet(tan_a, tan_b))
    ln, third = _cevian_meet(f, tangent_triangle, "tangent-triangle cevians")
    return _result("L", ln, f.t, aux={"third_cevian_residual": third})


# --------------------------------------------------------------------------
# pseudo-centroid (area-bisecting cevians)

@_memo
def pseudo_centroid(f: Frame):
    """Meet of the three area-bisecting cevians, with their feet.

    The foot on side c (from C) satisfies
    sinh(AN_C/2) : sinh(N_CB/2) = cosh(b/2) : cosh(a/2), and cyclically; the
    coordinates are the reciprocals of cosh-half products.  Returns
    (CenterResult, (N_A, N_B, N_C)) with N_X the foot on side x.
    """
    td = f.t
    sides = td.sides
    ch = [math.cosh(x / 2.0) for x in sides]
    # foot on side i from vertex i, at arc u from vertex j (SIDE_ENDS[i] = (j, k)):
    # sinh(u/2) : sinh((side i - u)/2) = cosh(side k/2) : cosh(side j/2),
    # a sinh ratio on the half side
    arcs = [2.0 * trig._solve_sinh_ratio(sides[i] / 2.0, ch[k] / ch[j])
            for i, (j, k) in enumerate(SIDE_ENDS)]
    feet = tuple(normalize(geodesic_point(f.vertices[j], t0, u))
                 for (j, _), t0, u in zip(SIDE_ENDS, f.side_tangents, arcs))
    sn, third = _cevian_meet(f, feet, "pseudomedians")
    res = _result("S", sn, td, aux={
        "third_cevian_residual": third,
        "foot_arc_a": arcs[0], "foot_arc_b": arcs[1], "foot_arc_c": arcs[2],
    })
    return res, feet


# --------------------------------------------------------------------------
# pseudo-orthocenter (directed-angle balance cevians)

def _pseudoaltitude_g(f: Frame, i: int, u: float) -> float:
    """Directed-angle balance for the cevian from vertex ``i`` with foot at
    arc ``u`` along side ``i``.

    For the cevian AZ with Z on BC the balance is
    (AZB - ZBA - BAZ) - (CZA - ZAC - ACZ), all angles read as interior angles
    of the two sub-triangles with the triangle counterclockwise; it reduces
    to 2*theta - pi + alpha - beta + gamma - 2*phi with theta the angle AZB
    and phi the angle BAZ.
    """
    j, k = SIDE_ENDS[i]
    apex, start = f.vertices[i], f.vertices[j]
    t0 = f.side_tangents[i]
    z = geodesic_point(start, t0, u)
    # tangent at z pointing back toward the side's start vertex, by parallel
    # transport (stable even when z sits next to the vertex)
    cu, su = math.cosh(u), math.sinh(u)
    back = (-(su * start.x + cu * t0[0]),
            -(su * start.y + cu * t0[1]),
            -(su * start.w + cu * t0[2]))
    theta = tangent_angle(tangent_toward(z, apex), back)
    phi = vertex_angle(apex, start, z)
    ang = f.t.angles
    return 2.0 * theta - math.pi + ang[i] - ang[j] + ang[k] - 2.0 * phi


def _pseudoaltitude_arc(t: TriangleData, i: int) -> float:
    """Arc from vertex ``j`` to the zero of the balance function of the
    cevian from vertex ``i``, with (j, k) = SIDE_ENDS[i]; the foot exists
    exactly when it lies in (0, side i).

    The zero fixes theta - phi = (pi - ang_i + ang_j - ang_k) / 2 in the
    triangle (i, j, foot), and Napier's analogy there gives
    tanh(u/2) = tanh(side_k/2) (1 - rho) / (1 + rho), with
    rho = tan((theta - phi)/2) tan(ang_j/2) > 0.
    """
    j, k = SIDE_ENDS[i]
    ang = t.angles
    rho = math.tan((math.pi - ang[i] + ang[j] - ang[k]) / 4.0) * math.tan(ang[j] / 2.0)
    return 2.0 * math.atanh(math.tanh(t.sides[k] / 2.0) * (1.0 - rho) / (1.0 + rho))


@_memo
def pseudo_orthocenter(f: Frame):
    """Meet of the three pseudoaltitudes, with their feet.

    Returns (CenterResult, (Z_A, Z_B, Z_C)).  Each foot is placed at its
    closed-form arc (`_pseudoaltitude_arc`); the first vertex whose arc
    falls outside its open side raises NoRootFound.  Every obtuse triangle
    raises, as do acute ones with a large defect.
    """
    feet = []
    for i, (j, _) in enumerate(SIDE_ENDS):
        u = _pseudoaltitude_arc(f.t, i)
        if not 0.0 < u < f.t.sides[i]:
            raise NoRootFound(f"no sign change for the pseudoaltitude from {'ABC'[i]}")
        feet.append(normalize(geodesic_point(f.vertices[j], f.side_tangents[i], u)))
    zn, third = _cevian_meet(f, feet, "pseudoaltitudes")
    res = _result("Z", zn, f.t, aux={"third_cevian_residual": third})
    return res, tuple(feet)


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
    feet = [normalize(meet(b, l)) for b, l in zip(f.internal_bisectors, f.lines)]
    return _cycle_center_result("F_bis", feet, f.t)


def collinearity_residual(p: HPoint, q: HPoint, r: HPoint) -> float:
    """Scale-free |det| of the three homogeneous triples (max-norm rows),
    as the triple product p . (q x r)."""
    rows = []
    for x, y, w in (p, q, r):
        # max(|x|, |y|, |w|) as compares, as in `plane._maxnorm`: a NaN
        # norm may differ from it in its sign bit only, which the closing
        # abs clears, and a -0.0 norm needs a zero triple, which raises
        m = x if x >= 0.0 else -x
        a = y if y >= 0.0 else -y
        if a > m:
            m = a
        a = w if w >= 0.0 else -w
        if a > m:
            m = a
        rows.append((x / m, y / m, w / m))
    (a, b, c), (d, e, g), (h, i, k) = rows
    return abs(a * (e * k - g * i) - b * (d * k - g * h) + c * (d * i - e * h))


class EulerLineReport(NamedTuple):
    """Collinearity diagnostics for the four-center line (O, F, S, Z) and the
    classical O, M, H test."""

    residuals: dict
    classical_det: float
    missing: tuple = ()

    @property
    def max_line_residual(self) -> float:
        return worst_residual(*self.residuals.values())


@_memo
def euler_line(f: Frame) -> EulerLineReport:
    """Check that O (circumcenter), F (pseudomedian-feet cycle center), S
    (pseudo-centroid) and Z (pseudo-orthocenter) are collinear, and report
    the classical det(O, M, H)."""
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
    return EulerLineReport(
        residuals=residuals,
        classical_det=classical,
        missing=tuple(missing),
    )


# --------------------------------------------------------------------------
# minimality of coordinate sums

class MinimalityReport(NamedTuple):
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
    *components, ks = zip(*t.coord_rows)
    return HLine(*(sum(k * u for k, u in zip(ks, us)) for us in components))


_GRID_RADII = (1e-3, 1e-2, 1e-1)
_GRID_HYP = tuple((math.cosh(r), math.sinh(r)) for r in _GRID_RADII)
_GRID_DIRECTIONS = tuple((math.cos(th), math.sin(th))
                         for th in (2.0 * math.pi * i / 8 for i in range(8)))


def _grid_minimum(p: HPoint, w, scale: float, closed: float = 0.0):
    """Check ``<X, w>`` on the radial grid of unit points X around real ``p``.

    Each (cos th, sin th) of `_GRID_DIRECTIONS` gives the unit tangent
    d = (cos th t1 + sin th t2) / |.|, from a reference tangent t1 and its
    normal t2, taken at each radius r of `_GRID_RADII`.  A sample
    is X = cosh r p + sinh r d, so <X, w> and cosh XP = <X, p> are scalar
    sums of <p, .>, <t1, .> and <t2, .>.  Returns whether every sample
    exceeds <p, w>, and the worst of ``closed`` and the relative gaps
    between <X, w> and ``scale * cosh XP``.
    """
    pn = normalize(p)
    k = pn.klein()
    ref = plane.origin() if (k[0] ** 2 + k[1] ** 2) > 1e-4 else plane.klein_point(0.3, 0.0)
    t1 = HPoint(*tangent_toward(pn, ref))
    t2 = HPoint(*plane.normal_tangent(pn, t1))
    w0, w1, w2 = mdot(pn, w), mdot(t1, w), mdot(t2, w)
    p0, p1, p2 = mdot(pn, pn), mdot(t1, pn), mdot(t2, pn)
    # |.| and max are spelled as compares, which give the builtins' values
    # except that a NaN gap (from a NaN argument) may keep a sign bit that
    # abs cleared
    ok, gaps = True, []
    for c, s in _GRID_DIRECTIONS:
        dx, dy, dw = c * t1.x + s * t2.x, c * t1.y + s * t2.y, c * t1.w + s * t2.w
        q = dw * dw - dx * dx - dy * dy
        nrm = math.sqrt(-q if q < 0.0 else q)
        d_w, d_p = (c * w1 + s * w2) / nrm, (c * p1 + s * p2) / nrm
        for ch, sh in _GRID_HYP:
            fx = ch * w0 + sh * d_w
            if fx <= w0:
                ok = False
            want = scale * (ch * p0 + sh * d_p)
            gap = fx - want
            m = fx if fx >= 0.0 else -fx
            a = want if want >= 0.0 else -want
            if a > m:
                m = a
            gaps.append((-gap if gap < 0.0 else gap) / m)
    return ok, worst_residual(closed, *gaps)


@_memo
def incenter_minimality(f: Frame) -> MinimalityReport:
    """Evaluate the coordinate-sum minimality claims on a radial grid.

    The grid takes 8 geodesic directions at radii 1e-3, 1e-2, 1e-1 around
    each tested center.  The coordinate sum is evaluated as the functional
    `coordinate_sum_functional` of the side lines, Sum cosh(YX) over the
    vertices Y as <X, A + B + C>; the centers come from their constructions.
    """
    td = f.t
    v = coordinate_sum_functional(td)

    i_res = incenter_excenters(f)[0]
    o_res = circumcenters(f)[0]
    m_res = centroid(f)

    # printed claim: minimum at I with value (N/2) cosh(PI)
    inc_ok, inc_closed = _grid_minimum(i_res.point, v, td.bign / 2.0)

    # verified behaviour: minimum at O with value (n / cosh R) cosh(PO)
    circ_ok = False
    circ_closed = math.inf
    if o_res.classification is PointKind.REAL and abs(o_res.aux["tanh_R"]) < 1.0:
        cosh_r = math.cosh(math.atanh(o_res.aux["tanh_R"]))
        f_o = mdot(o_res.point, v)
        circ_ok, circ_closed = _grid_minimum(
            o_res.point, v, td.n / cosh_r,
            closed=abs(f_o - td.n / cosh_r) / max(f_o, td.n / cosh_r))

    # centroid claim: Sum cosh(YX) minimized at M, closed form via the
    # median section ratio n / n_A(M)
    vertex_sum = HPoint(*map(sum, zip(*f.vertices)))
    cen_ok, cen_closed = _grid_minimum(m_res.point, vertex_sum, td.n / m_res.coords[0])

    return MinimalityReport(
        incenter_min_ok=inc_ok,
        incenter_closed_residual=inc_closed,
        circumcenter_min_ok=circ_ok,
        circumcenter_closed_residual=circ_closed,
        centroid_min_ok=cen_ok,
        centroid_closed_residual=cen_closed,
    )
