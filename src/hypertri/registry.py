"""Data-driven registry of the closed-form identities and their oracles.

Each identity has a short code, a plain-language description, a tolerance and
an evaluator that returns a residual (relative where both sides are larger
than 1e-6 in magnitude, absolute otherwise).  Evaluators may also declare a
skip with a reason for configurations where the identity's objects do not
exist (ideal excenters, a non-real orthocenter, pseudoaltitude feet leaving
the open side...).  One registry entry is expected to fail and is marked
accordingly: the printed form of the coordinate-sum minimality statement
names the wrong center (see MIN1 vs MIN1C), and the failure is kept visible
rather than hidden.

`run_suite` evaluates every identity on one seeded triangle and produces a
deterministic `TrialReport`; reports serialize as JSON lines.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from . import centers as ct
from . import plane, trig
from .errors import (
    GeometryError,
    IdenticalPoints,
    NoRootFound,
    UnknownCenter,
    UnknownIdentity,
)
from .extscalar import (
    ExtLength,
    PointKind,
    Quantum,
    ext_cosh,
    segment_lengths,
)
from .generate import gen_triangle
from .plane import (
    HPoint,
    distance,
    distance_ext,
    geodesic_point,
    join,
    klein_point,
    mdot,
    meet,
    midpoint,
    normalize,
    normalize_line,
    signed_line_distance,
)
from .trig import TriangleData, tri_coords, relative_residual as _rel

cosh, sinh, tanh = math.cosh, math.sinh, math.tanh
sin, cos, tan = math.sin, math.cos, math.tan

# one encoder for every report line; json.dumps would build one per call
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def _prop(u, v) -> float:
    return trig.proportionality_residual(tuple(u), tuple(v))


class _Skip(Exception):
    def __init__(self, reason):
        self.reason = reason


def _dist_ext_or_zero(p, q):
    """Extended distance, with coincident projective points giving zero."""
    try:
        return distance_ext(p, q)[0]
    except IdenticalPoints:
        return ExtLength(0.0)


@dataclass(frozen=True, slots=True)
class IdentityRecord:
    id: str
    name: str
    residual: float | None
    status: str  # "pass" | "fail" | "skipped"
    tolerance: float
    reason: str | None = None

    def to_json(self):
        out = {
            "id": self.id,
            "name": self.name,
            "residual": self.residual,
            "status": self.status,
            "tolerance": self.tolerance,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


class TrialContext(ct.Frame):
    """The frame of one triangle under test, with its seed and random streams.

    Centers and other derived objects are cached in the context itself, so
    each is built once per trial.  Each identity gets its own derived random
    stream, seeded from the trial seed and the identity code (set by
    `use_stream`), so results do not depend on which subset of identities
    runs or in which order.  The stream is built when `rng` is first read,
    so identities that draw nothing pay nothing for it.
    """

    def __init__(self, seed: int, t: TriangleData):
        super().__init__(t)
        self.seed = seed
        self._tag = None
        self._rng = None

    def use_stream(self, tag: str):
        self._tag = tag
        self._rng = None

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(f"aux:{self.seed}:{self._tag}")
        return self._rng

    # shared constructions -------------------------------------------------
    @property
    def M(self):
        return ct.centroid(self)

    @property
    def O4(self):
        return ct.circumcenters(self)

    @property
    def I4(self):
        return ct.incenter_excenters(self)

    @property
    def H(self):
        return ct.orthocenter(self)

    @property
    def S(self):
        return ct.pseudo_centroid(self)

    @property
    def Z(self):
        return ct.pseudo_orthocenter(self)

    @property
    def random_interior(self) -> HPoint:
        def build():
            rng = random.Random(f"aux:{self.seed}:interior")
            w = [rng.random() + 0.05 for _ in range(3)]
            return normalize(HPoint(
                w[0] * self.A.x + w[1] * self.B.x + w[2] * self.C.x,
                w[0] * self.A.y + w[1] * self.B.y + w[2] * self.C.y,
                w[0] * self.A.w + w[1] * self.B.w + w[2] * self.C.w,
            ))
        return self.get("random_interior", build)

    def random_real_point(self, maxr=0.9) -> HPoint:
        r = maxr * math.sqrt(self.rng.random())
        th = 2.0 * math.pi * self.rng.random()
        return klein_point(r * math.cos(th), r * math.sin(th))


def _need_real_orthocenter(c: TrialContext):
    if c.H.classification is not PointKind.REAL:
        raise _Skip("orthocenter is not a real point")
    return c.H


def _orthocenter_conjugate_point(c: TrialContext) -> HPoint:
    """H', the isogonal conjugate of the orthocenter, built once per trial."""
    _need_real_orthocenter(c)
    if max(c.t.alpha, c.t.beta, c.t.gamma) >= math.pi / 2:
        raise _Skip("conjugate of an exterior orthocenter is not constructible")
    return c.get("H'", lambda: ct.isogonal_conjugate(c.H.point, c))


def _need_Z(c: TrialContext):
    try:
        return c.Z
    except NoRootFound:
        raise _Skip(
            "pseudoaltitude foot leaves the open side "
            "(exists only when max angle < pi/2 - delta/2)"
        )


# --------------------------------------------------------------------------
# evaluators
# Each returns a residual; raise _Skip(reason) for declared non-configurations.

def _law_of_sines(c):
    t = c.t
    r = [sinh(t.a) / sin(t.alpha), sinh(t.b) / sin(t.beta), sinh(t.c) / sin(t.gamma)]
    return max(_rel(r[0], r[1]), _rel(r[1], r[2]))


def _law_of_cosines(c):
    t = c.t
    worst = 0.0
    for (x, y, z, w) in ((t.a, t.b, t.c, t.gamma), (t.b, t.c, t.a, t.alpha),
                         (t.c, t.a, t.b, t.beta)):
        worst = max(worst, _rel(cosh(z), cosh(x) * cosh(y) - sinh(x) * sinh(y) * cos(w)))
    return worst


def _law_of_cosines_angles(c):
    t = c.t
    worst = 0.0
    for (al, be, ga, z) in ((t.alpha, t.beta, t.gamma, t.c),
                            (t.beta, t.gamma, t.alpha, t.a),
                            (t.gamma, t.alpha, t.beta, t.b)):
        worst = max(worst, _rel(cos(ga), -cos(al) * cos(be) + sin(al) * sin(be) * cosh(z)))
    return worst


def _area_defect(c):
    # angle route (stored) against the side route (law of cosines from sides)
    t = c.t
    t2 = trig.solve_from_sides(t.a, t.b, t.c)
    return _rel(t.area, t2.area)


def _area_height_form(c):
    lhs, rhs = trig.tan_half_area_from_height(c.t)
    return _rel(lhs, rhs)


def _heron(c):
    lhs, rhs = trig.heron_parts(c.t)
    return _rel(lhs, rhs)


def _lambert(key):
    def ev(c):
        def build():
            rng = random.Random(f"aux:{c.seed}:lambert")
            leg_a = 0.15 + 0.5 * rng.random()
            leg_d = 0.15 + 0.5 * rng.random()
            if math.sinh(leg_a) * math.sinh(leg_d) >= 0.98:
                leg_a = leg_d = 0.4
            return trig.lambert_relations(trig.lambert_from_legs(leg_a, leg_d))
        return c.get("lambert", build)[key]
    return ev


def _staudtian_product(c):
    t = c.t
    lhs = sin(t.alpha / 2) * sin(t.beta / 2) * sin(t.gamma / 2)
    rhs = t.n ** 2 / (sinh(t.s) * sinh(t.a) * sinh(t.b) * sinh(t.c))
    return _rel(lhs, rhs)


def _staudtian_sines(c):
    t = c.t
    return max(
        _rel(sin(t.alpha), 2 * t.n / (sinh(t.b) * sinh(t.c))),
        _rel(sin(t.beta), 2 * t.n / (sinh(t.a) * sinh(t.c))),
        _rel(sin(t.gamma), 2 * t.n / (sinh(t.a) * sinh(t.b))),
    )


def _staudtian_height(c):
    t = c.t
    h_c = distance(c.C, c.altitude_foot("C"))
    return max(
        _rel(t.n, 0.5 * sin(t.alpha) * sinh(t.b) * sinh(t.c)),
        _rel(t.n, 0.5 * sinh(h_c) * sinh(t.c)),
    )


def _section_ratio(c):
    t = c.t
    x = c.random_interior
    k = tri_coords(x, t)
    worst = 0.0
    for side, (num, den) in (("a", (2, 1)), ("b", (0, 2)), ("c", (1, 0))):
        ratio = trig.cevian_ratio(x, t, side)
        worst = max(worst, _rel(ratio, k[num] / k[den]))
    return worst


def _half_side_sinh(c):
    t = c.t
    worst = 0.0
    for (z, ga, al, be) in ((t.c, t.gamma, t.alpha, t.beta),
                            (t.a, t.alpha, t.beta, t.gamma),
                            (t.b, t.beta, t.gamma, t.alpha)):
        rhs = math.sqrt(sin(t.delta) * sin(t.delta + ga) / (sin(al) * sin(be)))
        worst = max(worst, _rel(sinh(z / 2), rhs))
    return worst


def _half_side_cosh(c):
    t = c.t
    worst = 0.0
    for (z, ga, al, be) in ((t.c, t.gamma, t.alpha, t.beta),
                            (t.a, t.alpha, t.beta, t.gamma),
                            (t.b, t.beta, t.gamma, t.alpha)):
        rhs = math.sqrt(sin(t.delta + be) * sin(t.delta + al) / (sin(al) * sin(be)))
        worst = max(worst, _rel(cosh(z / 2), rhs))
    return worst


def _half_side_product(c):
    t = c.t
    lhs = cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2)
    rhs = t.bign ** 2 / (sin(t.alpha) * sin(t.beta) * sin(t.gamma) * sin(t.delta))
    return _rel(lhs, rhs)


def _angular_sinh(c):
    t = c.t
    return max(
        _rel(sinh(t.a), 2 * t.bign / (sin(t.beta) * sin(t.gamma))),
        _rel(sinh(t.b), 2 * t.bign / (sin(t.alpha) * sin(t.gamma))),
        _rel(sinh(t.c), 2 * t.bign / (sin(t.alpha) * sin(t.beta))),
    )


def _angular_height(c):
    t = c.t
    h_c = distance(c.C, c.altitude_foot("C"))
    return max(
        _rel(t.bign, 0.5 * sinh(t.a) * sin(t.beta) * sin(t.gamma)),
        _rel(t.bign, 0.5 * sinh(h_c) * sin(t.gamma)),
    )


def _staudtian_link(c):
    t = c.t
    return _rel(2 * t.n ** 2, t.bign * sinh(t.a) * sinh(t.b) * sinh(t.c))


def _staudtian_quotient(c):
    t = c.t
    return _rel(t.bign / t.n, sin(t.alpha) / sinh(t.a))


# -- centroid ---------------------------------------------------------------

def _centroid_coords(c):
    return _prop(c.M.coords, (1.0, 1.0, 1.0))


def _centroid_section(c):
    t = c.t
    m = c.M.point
    worst = 0.0
    for v, other1, other2, side in ((c.A, c.B, c.C, "a"), (c.B, c.C, c.A, "b"),
                                    (c.C, c.A, c.B, "c")):
        foot = midpoint(other1, other2)
        ratio = sinh(distance(v, m)) / sinh(distance(m, foot))
        worst = max(worst, _rel(ratio, 2 * cosh(getattr(t, side) / 2)))
    return worst


def _centroid_common_ratio(c):
    t = c.t
    m = c.M.point
    n_m = tri_coords(m, t)
    ratios = []
    for v, other1, other2 in ((c.A, c.B, c.C), (c.B, c.C, c.A), (c.C, c.A, c.B)):
        foot = midpoint(other1, other2)
        ratios.append(sinh(distance(v, foot)) / sinh(distance(m, foot)))
    worst = max(_rel(ratios[0], ratios[1]), _rel(ratios[1], ratios[2]))
    return max(worst, _rel(ratios[0], t.n / n_m[0]))


def _centroid_gravity_line(c):
    t = c.t
    p1 = c.random_real_point(0.6)
    p2 = c.random_real_point(0.6)
    try:
        y = normalize_line(join(p1, p2))
    except GeometryError:
        raise _Skip("auxiliary random line degenerated")
    m = c.M.point
    d_m = mdot(normalize(m), y)
    total = sum(mdot(normalize(v), y) for v in (c.A, c.B, c.C))
    denom = math.sqrt(1 + 2 * (1 + cosh(t.a) + cosh(t.b) + cosh(t.c)))
    return _rel(d_m, total / denom)


def _centroid_minimality_form(c):
    t = c.t
    y = c.random_real_point()
    m = c.M.point
    ratio = t.n / tri_coords(m, t)[0]
    lhs = cosh(distance(y, m))
    rhs = sum(cosh(distance(y, v)) for v in (c.A, c.B, c.C)) / ratio
    return _rel(lhs, rhs)


# -- circumcenters ----------------------------------------------------------

def _circumradius_oracle(c):
    t = c.t
    worst = 0.0
    closed = [
        sin(t.delta) / t.bign,
        sin(t.delta + t.alpha) / t.bign,
        sin(t.delta + t.beta) / t.bign,
        sin(t.delta + t.gamma) / t.bign,
    ]
    for res, want in zip(c.O4, closed):
        worst = max(worst, _rel(res.aux["tanh_R"], want))
    return worst


def _circumradius_forms(c):
    t = c.t
    worst = _rel(sin(t.delta) / t.bign,
                 2 * sinh(t.a / 2) * sinh(t.b / 2) * sinh(t.c / 2) / t.n)
    worst = max(worst, _rel(sin(t.delta + t.alpha) / t.bign,
                            2 * sinh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2) / t.n))
    return worst


def _circumcenter_coords(c):
    t = c.t
    o = c.O4[0]
    if o.classification is PointKind.INFINITE:
        raise _Skip("circumcenter at infinity (paracycle): coordinates blow up")
    target = (cos(t.delta + t.alpha) * sinh(t.a),
              cos(t.delta + t.beta) * sinh(t.b),
              cos(t.delta + t.gamma) * sinh(t.c))
    return _prop(o.coords, target)


# -- incenter / excenters ----------------------------------------------------

def _skip_infinite_excenter(c):
    for res in c.I4[1:]:
        if res.classification is PointKind.INFINITE:
            raise _Skip(f"excenter {res.name} is a point at infinity")


def _inradius_oracle(c):
    t = c.t
    _skip_infinite_excenter(c)
    closed = [t.n / sinh(t.s), t.n / sinh(t.s - t.a),
              t.n / sinh(t.s - t.b), t.n / sinh(t.s - t.c)]
    return max(_rel(res.aux["tanh_r"], want) for res, want in zip(c.I4, closed))


def _inradius_angular(c):
    t = c.t
    rhs = t.bign / (2 * cos(t.alpha / 2) * cos(t.beta / 2) * cos(t.gamma / 2))
    return _rel(c.I4[0].aux["tanh_r"], rhs)


def _inradius_coth(c):
    t = c.t
    lhs = 1.0 / c.I4[0].aux["tanh_r"]
    rhs = (sin(t.delta + t.alpha) + sin(t.delta + t.beta)
           + sin(t.delta + t.gamma) + sin(t.delta)) / (2 * t.bign)
    return _rel(lhs, rhs)


def _exradius_coth(c):
    t = c.t
    _skip_infinite_excenter(c)
    d, al, be, ga = t.delta, t.alpha, t.beta, t.gamma
    targets = [
        (-sin(d + al) + sin(d + be) + sin(d + ga) - sin(d)) / (2 * t.bign),
        (sin(d + al) - sin(d + be) + sin(d + ga) - sin(d)) / (2 * t.bign),
        (sin(d + al) + sin(d + be) - sin(d + ga) - sin(d)) / (2 * t.bign),
    ]
    return max(_rel(1.0 / res.aux["tanh_r"], want)
               for res, want in zip(c.I4[1:], targets))


def _mixed_radius_relations(c):
    _skip_infinite_excenter(c)
    tr, tra, trb, trc = (res.aux["tanh_r"] for res in c.I4)
    tR, tRA, tRB, tRC = (res.aux["tanh_R"] for res in c.O4)
    # corrected first line: tanh R_A - tanh R = coth r_B + coth r_C
    worst = _rel(tRA - tR, 1 / trb + 1 / trc)
    worst = max(worst, _rel(tRB + tRC, 1 / tr + 1 / tra))
    # corrected third line: coth r = (sum of the four tanh R values) / 2
    worst = max(worst, _rel(1 / tr, 0.5 * (tR + tRA + tRB + tRC)))
    return worst


def _incenter_coords(c):
    t = c.t
    return _prop(c.I4[0].coords, (sinh(t.a), sinh(t.b), sinh(t.c)))


def _excenter_coords(c):
    t = c.t
    _skip_infinite_excenter(c)
    sa, sb, sc = sinh(t.a), sinh(t.b), sinh(t.c)
    targets = [(-sa, sb, sc), (sa, -sb, sc), (sa, sb, -sc)]
    return max(_prop(res.coords, want) for res, want in zip(c.I4[1:], targets))


def _radius_identity(key):
    def ev(c):
        _skip_infinite_excenter(c)
        return ct.radius_identities(c)[key]
    return ev


def _circumradius(o: ct.CenterResult) -> ExtLength:
    """Circumradius of the circumcenter result ``o`` as an extended length."""
    return ExtLength(o.aux["radius_re"], Quantum.ZERO
                     if o.aux["radius_quantum"] == 0.0 else Quantum.HALF_PI)


def _oi_distance(c):
    t = c.t
    o, i_res = c.O4[0], c.I4[0]
    if o.classification is PointKind.INFINITE:
        raise _Skip("circumcenter at infinity (paracycle)")
    r_len = math.atanh(i_res.aux["tanh_r"])
    radius = _circumradius(o)
    lhs = ext_cosh(_dist_ext_or_zero(o.point, i_res.point))
    cosh_R = ext_cosh(radius)
    cosh_R_minus_r = ext_cosh(ExtLength(radius.re - r_len, radius.im))
    # sign corrected: the second product is subtracted
    rhs = (2 * cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2)
           * cosh(r_len) * cosh_R - cosh(t.s) * cosh_R_minus_r)
    return _rel(lhs, rhs)


# -- orthocenter -------------------------------------------------------------

def _orthocenter_products(c):
    _need_real_orthocenter(c)
    h = c.H.point
    vals = []
    for v in "ABC":
        vert = {"A": c.A, "B": c.B, "C": c.C}[v]
        vals.append(tanh(distance(h, vert)) * tanh(distance(h, c.altitude_foot(v))))
    return max(_rel(vals[0], vals[1]), _rel(vals[1], vals[2]))


def _orthocenter_sinh_products(c):
    _need_real_orthocenter(c)
    h = c.H.point
    prods, heights = [], []
    for v in "ABC":
        vert = {"A": c.A, "B": c.B, "C": c.C}[v]
        foot = c.altitude_foot(v)
        prods.append(sinh(distance(h, vert)) * sinh(distance(h, foot)))
        heights.append(cosh(distance(vert, foot)))
    return _prop(prods, heights)


def _orthocenter_coords(c):
    _need_real_orthocenter(c)
    t = c.t
    return _prop(c.H.coords, (tan(t.alpha), tan(t.beta), tan(t.gamma)))


def _orthocenter_random_point(c):
    _need_real_orthocenter(c)
    t = c.t
    h = c.H.point
    p = c.random_real_point()
    n_h = c.H.coords
    lhs = (n_h[0] * cosh(distance(p, c.A)) + n_h[1] * cosh(distance(p, c.B))
           + n_h[2] * cosh(distance(p, c.C)))
    return _rel(lhs, t.n * cosh(distance(p, h)))


def _altitude_stewart(c):
    t = c.t
    foot = c.altitude_foot("A")
    u = plane.arc_coordinate(foot, c.side_tangent("a"))
    h_a = distance(c.A, foot)
    lhs = cosh(t.c) * sinh(t.a - u) + cosh(t.b) * sinh(u)
    return _rel(lhs, cosh(h_a) * sinh(t.a))


def _orthocenter_euler_distance(c):
    _need_real_orthocenter(c)
    t = c.t
    if max(t.alpha, t.beta, t.gamma) >= math.pi / 2:
        raise _Skip("altitude chain h_x = HX + HF_x needs an acute triangle")
    o = c.O4[0]
    h = c.H.point
    hval = c.H.aux["h"]
    acc = 0.0
    for v in "ABC":
        vert = {"A": c.A, "B": c.B, "C": c.C}[v]
        hx = distance(vert, c.altitude_foot(v))
        acc += (1.0 / tanh(hx)) / sinh(distance(h, vert))
    radius = _circumradius(o)
    lhs = (1.0 / hval + 1.0) * ext_cosh(_dist_ext_or_zero(o.point, h))
    rhs = acc * ext_cosh(radius)
    return _rel(lhs, rhs)


def _orthocenter_circumcenter_form(c):
    _need_real_orthocenter(c)
    t = c.t
    o = c.O4[0]
    h = c.H.point
    n_h = c.H.coords
    radius = _circumradius(o)
    lhs = sum(n_h) * ext_cosh(radius)
    rhs = t.n * ext_cosh(_dist_ext_or_zero(o.point, h))
    return _rel(lhs, rhs)


# -- Stewart ------------------------------------------------------------------

def _stewart(c):
    t = c.t
    u = (0.05 + 0.9 * c.rng.random()) * t.a
    p = geodesic_point(c.B, c.side_tangent("a"), u)
    return trig.stewart_residual(t, p)


def _stewart_euclidean_limit(c):
    # fixed shape scaled down; the residual of the euclidean Stewart relation
    # evaluated on hyperbolic lengths must vanish at order >= 4 in the scale
    logs = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        a, b, cc = 1.0 * eps, 0.8 * eps, 0.7 * eps
        u = a / 2.0
        cosB = (cosh(cc) * cosh(a) - cosh(b)) / (sinh(cc) * sinh(a))
        cosh_aa = cosh(cc) * cosh(u) - sinh(cc) * sinh(u) * cosB
        aa = plane.acosh_clamped(cosh_aa)
        resid = abs((aa * aa + u * (a - u)) * a - (b * b * u + cc * cc * (a - u)))
        logs.append(math.log10(max(resid, 1e-300)))
    # least-squares order over the four scales; the smallest scale sits at the
    # double-precision noise floor, which the fit absorbs
    xs = [-1.0, -2.0, -3.0, -4.0]
    mx = sum(xs) / 4.0
    my = sum(logs) / 4.0
    order = (sum((x - mx) * (y - my) for x, y in zip(xs, logs))
             / sum((x - mx) ** 2 for x in xs))
    return max(0.0, 4.0 - order)


# -- isogonal conjugation ------------------------------------------------------

def _isogonal_inverse_ratio(c):
    t = c.t
    x = c.random_interior
    xp = ct.isogonal_conjugate(x, c)
    worst = 0.0
    for side, (p, q), (sfrom, sto) in (("a", (c.B, c.C), (t.c, t.b)),):
        r1 = trig.cevian_ratio(x, t, side)
        r2 = trig.cevian_ratio(xp, t, side)
        worst = max(worst, _rel(r1 * r2, sinh(sfrom) ** 2 / sinh(sto) ** 2))
    return worst


def _isogonal_coords(c):
    t = c.t
    x = c.random_interior
    xp = ct.isogonal_conjugate(x, c)
    k = tri_coords(x, t)
    target = (sinh(t.a) ** 2 / k[0], sinh(t.b) ** 2 / k[1], sinh(t.c) ** 2 / k[2])
    return _prop(tri_coords(xp, t), target)


def _orthocenter_conjugate_coords(c):
    hp = _orthocenter_conjugate_point(c)
    t = c.t
    target = (sin(2 * t.alpha), sin(2 * t.beta), sin(2 * t.gamma))
    return _prop(tri_coords(hp, t), target)


def _generalized_center_form(c):
    t = c.t
    q = c.random_interior
    p = c.random_real_point()
    n_q = tri_coords(q, t)
    lhs = (n_q[0] * cosh(distance(p, c.A)) + n_q[1] * cosh(distance(p, c.B))
           + n_q[2] * cosh(distance(p, c.C)))
    return _rel(lhs, t.n * cosh(distance(p, q)))


def _coordinate_sum_minimality(c):
    # the printed claim: sum minimized at the incenter with value (N/2) cosh(PI);
    # expected to fail, kept verbatim so the defect stays visible
    rep = c.get("minrep", lambda: ct.incenter_minimality(c))
    if not rep.incenter_min_ok:
        return 1.0
    return rep.incenter_closed_residual


def _coordinate_sum_minimality_corrected(c):
    # verified behaviour: minimized at the circumcenter with value (n / cosh R) cosh(PO)
    o = c.O4[0]
    if o.classification is not PointKind.REAL:
        raise _Skip("circumcenter not real: the coordinate sum has no interior minimum")
    rep = c.get("minrep", lambda: ct.incenter_minimality(c))
    if not rep.circumcenter_min_ok:
        return 1.0
    return rep.circumcenter_closed_residual


# -- symmedian / Lemoine -------------------------------------------------------

def _symmedian_coords(c):
    t = c.t
    mp = ct.symmedian_point(c)
    return _prop(mp.coords, (sinh(t.a) ** 2, sinh(t.b) ** 2, sinh(t.c) ** 2))


def _symmedian_distances(c):
    t = c.t
    mp = ct.symmedian_point(c)
    d = [sinh(abs(signed_line_distance(mp.point, l)))
         for l in (c.lA, c.lB, c.lC)]
    return _prop(d, (sinh(t.a), sinh(t.b), sinh(t.c)))


def _lemoine_coords(c):
    t = c.t
    lp = ct.lemoine_point(c)
    return _prop(lp.coords, (cosh(t.a) - 1, cosh(t.b) - 1, cosh(t.c) - 1))


def _lemoine_vs_symmedian(c):
    t = c.t
    mp = ct.symmedian_point(c)
    lp = ct.lemoine_point(c)
    gap = distance(mp.point, lp.point)
    spread = max(abs(t.a - t.b), abs(t.b - t.c), abs(t.a - t.c))
    if spread < 1e-9:
        return gap  # equilateral: the two centers must coincide
    if spread > 0.1:
        return 0.0 if gap > 1e-6 else 1.0
    return 0.0  # nearly regular: no sharp claim either way


# -- pseudomedians / pseudoaltitudes -------------------------------------------

def _pseudomedian_feet(c):
    t = c.t
    s_res, feet = c.S
    worst = s_res.aux["third_cevian_residual"]
    # defining property: each cevian halves the defect
    for vertex, foot, other in (("A", feet[0], c.C), ("B", feet[1], c.A),
                                ("C", feet[2], c.B)):
        apex = {"A": c.A, "B": c.B, "C": c.C}[vertex]
        sub = trig.solve_from_vertices(apex, foot, other)
        worst = max(worst, abs(sub.area - t.delta))
    # the stated half-angle ratios
    ch = {s: cosh(getattr(t, s) / 2) for s in "abc"}
    for side, foot, rho in (("a", feet[0], ch["c"] / ch["b"]),
                            ("b", feet[1], ch["a"] / ch["c"]),
                            ("c", feet[2], ch["b"] / ch["a"])):
        u = plane.arc_coordinate(foot, c.side_tangent(side))
        length = getattr(t, side)
        worst = max(worst, _rel(sinh(u / 2) / sinh((length - u) / 2), rho))
    return worst


def _pseudocentroid_coords(c):
    t = c.t
    s_res, _ = c.S
    ch = {s: cosh(getattr(t, s) / 2) for s in "abc"}
    prod = ch["a"] * ch["b"] * ch["c"]
    target = (1 / (ch["b"] ** 2 * ch["c"] ** 2 + prod),
              1 / (ch["a"] ** 2 * ch["c"] ** 2 + prod),
              1 / (ch["a"] ** 2 * ch["b"] ** 2 + prod))
    return _prop(s_res.coords, target)


def _cagnoli_sin_delta(c):
    t = c.t
    rhs = t.n / (2 * cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2))
    return _rel(sin(t.delta), rhs)


def _cagnoli_sin_delta_alpha(c):
    t = c.t
    worst = 0.0
    for (x, y, z, al) in ((t.a, t.b, t.c, t.alpha), (t.b, t.a, t.c, t.beta),
                          (t.c, t.a, t.b, t.gamma)):
        rhs = t.n / (2 * cosh(x / 2) * sinh(y / 2) * sinh(z / 2))
        worst = max(worst, _rel(sin(t.delta + al), rhs))
    return worst


def _cagnoli_ratio(c):
    t = c.t
    lhs = sin(t.delta + t.alpha) / sin(t.delta)
    mid = cos(t.alpha) + sin(t.alpha) / math.tan(t.delta)
    rhs = 1.0 / (tanh(t.b / 2) * tanh(t.c / 2))
    return max(_rel(lhs, mid), _rel(mid, rhs))


def _pseudomedian_product(c):
    t = c.t
    _, feet = c.S
    lhs = rhs = 1.0
    for side, foot in zip("abc", feet):
        u = plane.arc_coordinate(foot, c.side_tangent(side))
        length = getattr(t, side)
        lhs *= sinh(u / 2)
        rhs *= sinh((length - u) / 2)
    return _rel(lhs, rhs)


# -- the four-center line -------------------------------------------------------

def _euler_line(c):
    _need_Z(c)
    return max(ct.euler_line(c).residuals.values())


def _classical_line_dichotomy(c):
    t = c.t
    det = ct.collinearity_residual(c.O4[0].point, c.M.point, c.H.point)
    iso = min(abs(t.a - t.b), abs(t.b - t.c), abs(t.a - t.c))
    if iso < 1e-9:
        return det
    if iso > 0.1:
        return 0.0 if det > 1e-4 else 1.0
    return 0.0  # in-between shapes carry no sharp claim


# -- segment tables ---------------------------------------------------------------

def _quantum_matches(value: ExtLength, re: float, quantum: Quantum) -> float:
    if value.im is not quantum:
        return 1.0
    if math.isinf(re):
        return 0.0 if value.re == re else 1.0
    return abs(value.re - re)


def _table_real_line(c):
    d = 0.2 + 1.3 * c.rng.random()
    v = 0.2 + 1.0 * c.rng.random()
    worst = 0.0
    # real-real on the x axis
    p = klein_point(math.tanh(d), 0.0)
    got = distance_ext(plane.origin(), p)
    worst = max(worst, _quantum_matches(got[0], d, Quantum.ZERO))
    worst = max(worst, _quantum_matches(got[1], -d, Quantum.PI))
    # real-infinite
    got = distance_ext(plane.origin(), HPoint(1.0, 0.0, 1.0))
    worst = max(worst, _quantum_matches(got[0], math.inf, Quantum.ZERO))
    worst = max(worst, _quantum_matches(got[1], -math.inf, Quantum.ZERO))
    # real-ideal: ideal point with polar chord at distance v
    ideal = HPoint(1.0, 0.0, math.tanh(v))
    got = distance_ext(plane.origin(), ideal)
    worst = max(worst, _quantum_matches(got[0], v, Quantum.HALF_PI))
    worst = max(worst, _quantum_matches(got[1], -v, Quantum.HALF_PI))
    # infinite-infinite, infinite-ideal
    got = distance_ext(HPoint(1.0, 0.0, 1.0), HPoint(-1.0, 0.0, 1.0))
    worst = max(worst, _quantum_matches(got[0], math.inf, Quantum.ZERO))
    got = distance_ext(HPoint(1.0, 0.0, 1.0), ideal)
    worst = max(worst, _quantum_matches(got[0], math.inf, Quantum.ZERO))
    # ideal-ideal with real join: two poles of ultraparallel chords
    i2 = HPoint(1.0, 0.0, math.tanh(v + d))
    got = distance_ext(ideal, i2)
    worst = max(worst, _quantum_matches(got[0], d, Quantum.PI))
    worst = max(worst, _quantum_matches(got[1], -d, Quantum.ZERO))
    # tabulated builders agree with the geometric dispatch
    pair = segment_lengths(PointKind.REAL, PointKind.IDEAL, d=v)
    worst = max(worst, _quantum_matches(pair[0], v, Quantum.HALF_PI))
    return worst


def _table_infinity_line(c):
    worst = 0.0
    tangent_pt = HPoint(1.0, 0.0, 1.0)
    ideal_on_tangent = HPoint(1.0, 0.8, 1.0)
    ideal2 = HPoint(1.0, -0.5, 1.0)
    got = distance_ext(tangent_pt, ideal_on_tangent)
    worst = max(worst, _quantum_matches(got[0], 0.0, Quantum.HALF_PI))
    worst = max(worst, _quantum_matches(got[1], 0.0, Quantum.HALF_PI))
    got = distance_ext(ideal_on_tangent, ideal2)
    worst = max(worst, _quantum_matches(got[0], 0.0, Quantum.ZERO))
    worst = max(worst, _quantum_matches(got[1], 0.0, Quantum.PI))
    pair = segment_lengths(PointKind.INFINITE, PointKind.INFINITE)
    worst = max(worst, _quantum_matches(pair[0], 0.0, Quantum.ZERO))
    worst = max(worst, _quantum_matches(pair[1], 0.0, Quantum.PI))
    return worst


def _angle_value_matches(a, re: float, over_i: float) -> float:
    if math.isinf(a.re):
        return 0.0 if a.re == re else 1.0
    return max(abs(a.re - re), abs(a.over_i - over_i))


def _table_angles(c):
    worst = 0.0
    phi = 0.3 + 2.0 * c.rng.random() / 2
    v1 = 0.2 + 0.6 * c.rng.random()
    v2 = v1 + 0.3 + 0.5 * c.rng.random()
    x_axis = plane.HLine(0.0, 1.0, 0.0)
    through = plane.HLine(math.sin(phi), -math.cos(phi), 0.0)
    a1, a2 = plane.angle_ext(x_axis, through)
    lo, hi = min(phi, math.pi - phi), max(phi, math.pi - phi)
    worst = max(worst, _angle_value_matches(a1, lo, 0.0))
    worst = max(worst, _angle_value_matches(a2, hi, 0.0))
    # two chords sharing a boundary point
    l1 = plane.join(HPoint(1.0, 0.0, 1.0), plane.origin())
    l2 = plane.join(HPoint(1.0, 0.0, 1.0), klein_point(0.0, 0.4))
    b1, b2 = plane.angle_ext(l1, l2)
    worst = max(worst, _angle_value_matches(b1, 0.0, 0.0))
    worst = max(worst, _angle_value_matches(b2, math.pi, 0.0))
    # ultraparallel chords x = tanh v1, x = tanh v2
    c1 = plane.HLine(1.0, 0.0, math.tanh(v1))
    c2 = plane.HLine(1.0, 0.0, math.tanh(v2))
    d1, d2 = plane.angle_ext(c1, c2)
    worst = max(worst, _angle_value_matches(d1, 0.0, v2 - v1))
    worst = max(worst, _angle_value_matches(d2, math.pi, -(v2 - v1)))
    # chord and the tangent at its endpoint
    tangent = plane.HLine(1.0, 0.0, 1.0)
    e1, e2 = plane.angle_ext(l1, tangent)
    worst = max(worst, _angle_value_matches(e1, math.pi / 2, 0.0))
    worst = max(worst, _angle_value_matches(e2, math.pi / 2, 0.0))
    # chord and a tangent elsewhere
    f1, f2 = plane.angle_ext(plane.HLine(0.0, 1.0, 0.0), plane.HLine(0.0, 1.0, 1.0))
    worst = max(worst, _angle_value_matches(f1, math.inf, 0.0))
    worst = max(worst, _angle_value_matches(f2, -math.inf, 0.0))
    # real chord against an ideal line (polar of an interior point off the chord)
    ideal_line = plane.polar(klein_point(0.3, 0.2))
    g1, g2 = plane.angle_ext(x_axis, ideal_line)
    d_pole = abs(signed_line_distance(klein_point(0.3, 0.2), x_axis))
    worst = max(worst, _angle_value_matches(g1, math.pi / 2, d_pole))
    worst = max(worst, _angle_value_matches(g2, math.pi / 2, -d_pole))
    # two tangents
    h1, h2 = plane.angle_ext(plane.HLine(1.0, 0.0, 1.0), plane.HLine(-1.0, 0.0, 1.0))
    worst = max(worst, _angle_value_matches(h1, math.inf, 0.0))
    # tangent against ideal line
    i1, i2 = plane.angle_ext(plane.HLine(1.0, 0.0, 1.0), ideal_line)
    worst = max(worst, _angle_value_matches(i1, math.inf, 0.0))
    # two ideal lines: angle pair (p/i, pi - p/i) with p the pole distance
    p1, p2 = klein_point(0.25, 0.1), klein_point(-0.2, 0.3)
    j1, j2 = plane.angle_ext(plane.polar(p1), plane.polar(p2))
    p_dist = distance(p1, p2)
    worst = max(worst, _angle_value_matches(j1, 0.0, p_dist))
    worst = max(worst, _angle_value_matches(j2, math.pi, -p_dist))
    return worst


def _ideal_vertex_medians(c):
    # three pairwise-ultraparallel chords; their poles are ideal "vertices"
    # joined by real lines; the median feet halve the extended side lengths
    # and the three medians are concurrent
    off = 0.75 + 0.3 * c.rng.random()
    chords = []
    for k in range(3):
        th = 2.0 * math.pi * (k / 3.0) + 0.2
        nx, ny = math.cos(th), math.sin(th)
        chords.append(plane.HLine(nx, ny, math.tanh(off)))
    poles = [plane.pole(normalize_line(l)) for l in chords]
    sides = {}
    feet = {}
    for (i, j) in ((0, 1), (1, 2), (0, 2)):
        line = join(poles[i], poles[j])
        if plane.classify_line(line) is not plane.LineKind.REAL:
            raise _Skip("chords not pairwise ultraparallel for this draw")
        f1 = normalize(meet(line, chords[i]))
        f2 = normalize(meet(line, chords[j]))
        sides[(i, j)] = distance_ext(poles[i], poles[j])[0]
        feet[(i, j)] = midpoint(f1, f2)
    worst = 0.0
    for (i, j), m in feet.items():
        full = sides[(i, j)]
        half1 = distance_ext(poles[i], m)[0]
        half2 = distance_ext(m, poles[j])[0]
        worst = max(worst, abs(half1.re - full.re / 2), abs(half2.re - full.re / 2))
        if half1.im is not Quantum.HALF_PI or half2.im is not Quantum.HALF_PI:
            worst = max(worst, 1.0)
    medians = [join(poles[k], feet[pair])
               for k, pair in ((2, (0, 1)), ((0), (1, 2)), (1, (0, 2)))]
    x = meet(medians[0], medians[1])
    m = max(abs(x.x), abs(x.y), abs(x.w))
    worst = max(worst, abs(mdot(x, normalize_line(medians[2]))) / m)
    return worst


# --------------------------------------------------------------------------
# the registry table

@dataclass(frozen=True, slots=True)
class IdentityDef:
    id: str
    name: str
    evaluator: object
    tolerance: float = 1e-9
    expected_to_fail: bool = False


_DEFS = [
    IdentityDef("LS", "law of sines", _law_of_sines),
    IdentityDef("LC1", "law of cosines (sides)", _law_of_cosines),
    IdentityDef("LC2", "law of cosines (angles)", _law_of_cosines_angles),
    IdentityDef("AR1", "area equals the defect (side route vs angle route)", _area_defect),
    IdentityDef("AR2", "area from the altitude split (tangent addition form)", _area_height_form),
    IdentityDef("HER", "defect Heron form", _heron),
    IdentityDef("LQ1", "Lambert quadrangle: tanh b = tanh d cosh a", _lambert("tanh_b")),
    IdentityDef("LQ2", "Lambert quadrangle: tanh c = tanh a cosh d", _lambert("tanh_c")),
    IdentityDef("LQ3", "Lambert quadrangle: sinh b = sinh d cosh c", _lambert("sinh_b")),
    IdentityDef("LQ4", "Lambert quadrangle: sinh c = sinh a cosh b", _lambert("sinh_c")),
    IdentityDef("LQ5", "Lambert quadrangle: cos phi forms", _lambert("cos_phi")),
    IdentityDef("LQ6", "Lambert quadrangle: sin phi forms", _lambert("sin_phi")),
    IdentityDef("LQ7", "Lambert quadrangle: tan phi forms", _lambert("tan_phi")),
    IdentityDef("ST1", "half-angle sine product over the Staudtian", _staudtian_product),
    IdentityDef("ST2", "sines from the Staudtian", _staudtian_sines),
    IdentityDef("ST3", "Staudtian from a height", _staudtian_height),
    IdentityDef("ST4", "cevian section ratio from coordinates", _section_ratio),
    IdentityDef("AS1", "half side sinh from the angular Staudtian", _half_side_sinh),
    IdentityDef("AS2", "half side cosh from the angular Staudtian", _half_side_cosh),
    IdentityDef("AS3", "half side cosh product", _half_side_product),
    IdentityDef("AS4", "side sinh from the angular Staudtian", _angular_sinh),
    IdentityDef("AS5", "angular Staudtian from a height", _angular_height),
    IdentityDef("AS6", "link between the two Staudtians", _staudtian_link),
    IdentityDef("AS7", "Staudtian quotient", _staudtian_quotient),
    IdentityDef("CE1", "centroid coordinates are equal", _centroid_coords),
    IdentityDef("CE2", "median section ratio 2 cosh(side/2)", _centroid_section),
    IdentityDef("CE3", "common median ratio", _centroid_common_ratio),
    IdentityDef("CE4", "center-of-gravity line relation", _centroid_gravity_line),
    IdentityDef("CE5", "centroid cosh-sum form", _centroid_minimality_form),
    IdentityDef("CR1", "circumradius tanh forms vs oracle distances", _circumradius_oracle),
    IdentityDef("CR2", "two circumradius closed forms agree", _circumradius_forms, 1e-11),
    IdentityDef("CR3", "circumcenter coordinates", _circumcenter_coords),
    IdentityDef("IN1", "in/ex-radius from the Staudtian vs oracle", _inradius_oracle),
    IdentityDef("IN2", "inradius from the angular Staudtian", _inradius_angular),
    IdentityDef("IN3", "coth of the inradius", _inradius_coth),
    IdentityDef("IN4", "coth of the exradii", _exradius_coth),
    IdentityDef("IN5", "mixed circum/in-radius relations (signs corrected)", _mixed_radius_relations),
    IdentityDef("IN6", "incenter coordinates", _incenter_coords),
    IdentityDef("IN7", "excenter coordinates", _excenter_coords),
    IdentityDef("RI1", "radius relation: coth sum vs 2 tanh R", _radius_identity("coth_sum_vs_tanh_R")),
    IdentityDef("RI2", "radius relation: coth pair products", _radius_identity("coth_products")),
    IdentityDef("RI3", "radius relation: tanh pair products", _radius_identity("tanh_products")),
    IdentityDef("RI4", "radius relation: coth sum", _radius_identity("coth_sum")),
    IdentityDef("RI5", "radius relation: tanh sum", _radius_identity("tanh_sum")),
    IdentityDef("RI6", "radius relation: sinh pair products (factor corrected)", _radius_identity("sinh_products")),
    IdentityDef("OI1", "incenter-circumcenter distance (sign corrected)", _oi_distance),
    IdentityDef("OR1", "orthocenter tanh products share one value", _orthocenter_products, 1e-8),
    IdentityDef("OR2", "orthocenter sinh products vs height coshes", _orthocenter_sinh_products, 1e-8),
    IdentityDef("OR3", "orthocenter coordinates (tan ratios)", _orthocenter_coords),
    IdentityDef("OR4", "orthocenter coordinate identity at a random point", _orthocenter_random_point),
    IdentityDef("OR5", "Stewart relation at an altitude foot", _altitude_stewart),
    IdentityDef("OR6", "orthocenter-circumcenter distance chain (factor corrected)", _orthocenter_euler_distance, 1e-8),
    IdentityDef("STW", "Stewart relation at a random interior foot", _stewart),
    IdentityDef("STW-EU", "euclidean limit order of the Stewart relation", _stewart_euclidean_limit, 1e-6),
    IdentityDef("ORP", "orthocenter identity specialized to the circumcenter", _orthocenter_circumcenter_form),
    IdentityDef("IS1", "isogonal conjugate inverts section ratios", _isogonal_inverse_ratio),
    IdentityDef("IS2", "isogonal conjugate coordinate inversion", _isogonal_coords),
    IdentityDef("IS3", "conjugate of the orthocenter (sin 2x coordinates)", _orthocenter_conjugate_coords),
    IdentityDef("IS4", "generalized center identity for random points", _generalized_center_form),
    IdentityDef("MIN1", "coordinate sum minimal at the incenter (printed claim)",
                _coordinate_sum_minimality, 1e-10, expected_to_fail=True),
    IdentityDef("MIN1C", "coordinate sum minimal at the circumcenter (verified form)",
                _coordinate_sum_minimality_corrected, 1e-10),
    IdentityDef("SY1", "symmedian coordinates (sinh^2)", _symmedian_coords, 1e-9),
    IdentityDef("SY2", "symmedian distances proportional to side sinhs", _symmedian_distances),
    IdentityDef("LE1", "Lemoine point coordinates (cosh - 1)", _lemoine_coords),
    IdentityDef("LE2", "symmedian equals Lemoine only when equilateral", _lemoine_vs_symmedian, 1e-6),
    IdentityDef("PM1", "pseudomedian feet: ratios, area halving, concurrency", _pseudomedian_feet),
    IdentityDef("PM2", "pseudo-centroid coordinates", _pseudocentroid_coords),
    IdentityDef("CG1", "Cagnoli analog: sin(delta)", _cagnoli_sin_delta),
    IdentityDef("CG2", "Cagnoli analog: sin(delta + angle)", _cagnoli_sin_delta_alpha),
    IdentityDef("CG3", "tangent product for fixed area and angle", _cagnoli_ratio),
    IdentityDef("PMF", "pseudomedian half-arc product identity", _pseudomedian_product),
    IdentityDef("EU1", "four-center line (O, F, S, Z)", _euler_line, 1e-8),
    IdentityDef("EU0", "classical O-M-H line iff isosceles", _classical_line_dichotomy, 1e-9),
    IdentityDef("TBL1", "segment table of the real line", _table_real_line, 1e-12),
    IdentityDef("TBL2", "segment table of the line at infinity", _table_infinity_line, 1e-12),
    IdentityDef("TBL3", "angle table of line pairs", _table_angles, 1e-12),
    IdentityDef("FIG2", "medians of an ideal-vertex triangle halve the sides", _ideal_vertex_medians, 1e-9),
]

REGISTRY = {d.id: d for d in _DEFS}
ALL_IDS = [d.id for d in _DEFS]
EXPECTED_FAILURES = tuple(d.id for d in _DEFS if d.expected_to_fail)


def run_identity(identity_id: str, ctx_or_triangle, seed: int = 0) -> IdentityRecord:
    """Evaluate one identity on a triangle (or prebuilt TrialContext)."""
    d = REGISTRY.get(identity_id)
    if d is None:
        raise UnknownIdentity(identity_id)
    ctx = (ctx_or_triangle if isinstance(ctx_or_triangle, TrialContext)
           else TrialContext(seed=seed, t=ctx_or_triangle))
    ctx.use_stream(identity_id)
    try:
        residual = d.evaluator(ctx)
    except _Skip as s:
        return IdentityRecord(d.id, d.name, None, "skipped", d.tolerance, s.reason)
    status = "pass" if residual < d.tolerance else "fail"
    return IdentityRecord(d.id, d.name, float(residual), status, d.tolerance)


@dataclass(frozen=True, slots=True)
class TrialReport:
    seed: int
    records: tuple
    centers: tuple

    def summary(self) -> dict:
        count = {"pass": 0, "fail": 0, "skipped": 0}
        failed = []
        for r in self.records:
            count[r.status] += 1
            if r.status == "fail":
                failed.append(r.id)
        return {"seed": self.seed, **count, "failed_ids": failed}

    def to_jsonl(self) -> str:
        encode = _COMPACT_JSON.encode
        lines = [encode({"seed": self.seed, **r.to_json()}) for r in self.records]
        lines.append(encode({"summary": self.summary()}))
        return "\n".join(lines)


_CENTER_BUILDERS = (
    ("M", lambda c: c.M),
    ("O", lambda c: c.O4[0]), ("O_A", lambda c: c.O4[1]),
    ("O_B", lambda c: c.O4[2]), ("O_C", lambda c: c.O4[3]),
    ("I", lambda c: c.I4[0]), ("I_A", lambda c: c.I4[1]),
    ("I_B", lambda c: c.I4[2]), ("I_C", lambda c: c.I4[3]),
    ("H", lambda c: c.H),
    ("H'", lambda c: ct._result("H'", _orthocenter_conjugate_point(c), c.t)),
    # builders are looked up on `ct` at call time, so a rebound module
    # attribute (as perfbench's tracer installs) also sees these calls
    ("M'", lambda c: ct.symmedian_point(c)),
    ("L", lambda c: ct.lemoine_point(c)),
    ("S", lambda c: c.S[0]),
    ("Z", lambda c: _need_Z(c)[0]),
    ("F", lambda c: ct.pseudomedian_feet_center(c)),
)
_CENTER_NAMES = frozenset(name for name, _ in _CENTER_BUILDERS)


def center_table(ctx: TrialContext, which: list[str] | None = None) -> list[dict]:
    """Serialized center results for a triangle; unavailable centers carry an
    explanatory status instead of a point.  A name in ``which`` that is not
    a center raises UnknownCenter before anything is built."""
    for name in which or ():
        if name not in _CENTER_NAMES:
            raise UnknownCenter(f"unknown center {name!r}")
    rows = []
    for name, builder in _CENTER_BUILDERS:
        if which is not None and name not in which:
            continue
        try:
            rows.append(builder(ctx).to_json())
        except _Skip as s:
            rows.append({"name": name, "status": f"unavailable: {s.reason}"})
        except GeometryError as e:
            rows.append({"name": name, "status": f"unavailable: {e}"})
    return rows


def run_suite(seed: int, ids: list[str] | None = None, shape: str = "any",
              include_centers: bool = True,
              triangle: TriangleData | None = None) -> TrialReport:
    """Evaluate identities on the seeded triangle (or a supplied one);
    deterministic per (seed, identity set)."""
    t = triangle if triangle is not None else gen_triangle(seed, shape=shape)
    ctx = TrialContext(seed=seed, t=t)
    use = ALL_IDS if ids is None else ids
    records = []
    for identity_id in use:
        if identity_id not in REGISTRY:
            raise UnknownIdentity(identity_id)
        records.append(run_identity(identity_id, ctx))
    table = tuple(center_table(ctx)) if include_centers else ()
    return TrialReport(seed=seed, records=tuple(records), centers=table)


def triangle_json(t: TriangleData, seed: int | None = None) -> dict:
    out = {
        "vertices": [v.to_json("klein") for v in t.require_vertices()],
        "model": "klein",
        "meta": {},
        "data": t.to_json(),
    }
    if seed is not None:
        out["meta"]["seed"] = seed
    return out


def triangle_from_json(obj) -> TriangleData:
    pts = [HPoint.from_json(p) for p in obj["vertices"]]
    return trig.solve_from_vertices(*pts)
