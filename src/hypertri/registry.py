"""Data-driven registry of the closed-form identities and their oracles.

Each identity has a short code, a plain-language description, a tolerance and
an evaluator that returns a residual (`trig.relative_residual`: relative
once either side reaches 1e-6 in magnitude, absolute otherwise; a check of
several parts reports their worst, `trig.worst_residual`, which keeps a NaN
part).  Evaluators may also declare a skip with a reason for configurations
where the identity's objects do not exist (ideal excenters, a non-real
orthocenter, pseudoaltitude feet leaving the open side...).  One registry
entry is expected to fail and is marked accordingly: the printed form of the
coordinate-sum minimality statement names the wrong center (see MIN1 vs
MIN1C), and the failure is kept visible rather than hidden.

`run_suite` evaluates every identity on one seeded triangle and produces a
deterministic `TrialReport`; reports serialize as JSON lines.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from . import centers as ct
from . import plane, trig
from .errors import (
    GeometryError,
    NoRootFound,
    OutOfDomain,
    UnknownCenter,
    UnknownIdentity,
)
from .extscalar import (
    INF,
    NEG_INF,
    ExtLength,
    PointKind,
    Quantum,
    ext_cosh,
)
from .generate import gen_triangle, sample_disk_point
from .plane import (
    HPoint,
    _new,
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
from .trig import (
    SIDE_ENDS,
    TriangleData,
    proportionality_residual as _prop,
    relative_residual as _rel,
    stored_property,
    tri_coords,
    worst_residual,
)

cosh, sinh, tanh = math.cosh, math.sinh, math.tanh
sin, cos, tan = math.sin, math.cos, math.tan
_INF = math.inf

# one encoder for every report line; json.dumps would build one per call
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


class _Skip(GeometryError):
    """A declared non-configuration; the message is the skip reason.  A
    handler that tells skips from errors must catch it before
    GeometryError."""


class IdentityRecord(NamedTuple):
    id: str
    name: str
    residual: float | None
    status: str  # "pass" | "fail" | "skipped"
    tolerance: float
    reason: str | None = None


_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer: a bijection of 64-bit words in which every
    input bit reaches every output bit."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _tag_key(tag: str) -> int:
    return _mix64(zlib.crc32(tag.encode()))


class _Stream:
    """The SplitMix64 generator (Steele, Lea and Flood, "Fast Splittable
    Pseudorandom Number Generators", OOPSLA 2014) of one trial seed and tag.

    The start state is the finalizer applied to the seed (mod 2**64) XOR a
    stable key of the tag, itself the finalizer of the tag's CRC-32 (`hash`
    of a string changes from one process to the next), so the streams of
    neighbouring seeds or tags are not shifted copies of one Weyl
    sequence; the registry's own tags are keyed once (`_TAG_KEYS`), any
    other on each use.  Keying one costs about 0.7 µs, where seeding a
    `random.Random` from a string costs about 5 µs.  `random` draws the top
    53 bits of the next output over 2**53.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, tag: str):
        key = _TAG_KEYS.get(tag)
        self._state = _mix64((seed ^ (_tag_key(tag) if key is None else key)) & _MASK64)

    def random(self) -> float:
        self._state = state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return (_mix64(state) >> 11) * 2.0 ** -53


class TrialContext(ct.Frame):
    """The frame of one triangle under test, with its seed and random streams.

    Centers and the per-seed draws below are stored in the context itself,
    so each is built once per trial.  Each identity gets its own derived
    random stream, a `_Stream` keyed by the trial seed and the identity code
    (set by `use_stream`; the empty tag before that), so results do not
    depend on which subset of identities runs or in which order.  The
    stream is built when `rng` is first read, so identities that draw
    nothing pay nothing for it.
    """

    def __init__(self, seed: int, t: TriangleData):
        super().__init__(t)
        self.seed = seed
        self._tag = ""
        self._rng = None

    def use_stream(self, tag: str):
        self._tag = tag
        self._rng = None

    @property
    def rng(self) -> _Stream:
        if self._rng is None:
            self._rng = _Stream(self.seed, self._tag)
        return self._rng

    @stored_property
    def random_interior(self) -> HPoint:
        """A point inside the triangle, drawn from the seed's own stream."""
        rng = _Stream(self.seed, "interior")
        w = (rng.random() + 0.05, rng.random() + 0.05, rng.random() + 0.05)
        return trig.point_from_coords(w, self.t)

    @stored_property
    def interior_ratios(self) -> tuple[float, float, float]:
        """`trig.cevian_ratio` of `random_interior` on each side; a raise is not stored."""
        x, t = self.random_interior, self.t
        return (trig.cevian_ratio(x, t, 0), trig.cevian_ratio(x, t, 1), trig.cevian_ratio(x, t, 2))

    @stored_property
    def random_conjugate(self) -> HPoint:
        """The isogonal conjugate of `random_interior`; a raise is not stored."""
        return ct.isogonal_conjugate(self.random_interior, self)

    @stored_property
    def lambert_relations(self) -> dict[str, float]:
        """The residuals of `trig.lambert_relations` on a Lambert quadrangle
        whose legs are drawn from the seed's own stream."""
        rng = _Stream(self.seed, "lambert")
        leg_a = 0.15 + 0.5 * rng.random()
        leg_d = 0.15 + 0.5 * rng.random()
        # both legs below 0.65: sinh(leg_a) sinh(leg_d) < 0.49 < 1, so the
        # quadrilateral exists
        return trig.lambert_relations(trig.lambert_from_legs(leg_a, leg_d))


def _need_center(c: TrialContext, name: str) -> ct.CenterResult:
    """The center ``name`` of the triangle; a declared skip when the skip
    rule of its `CENTERS` row applies."""
    spec = CENTER_BY_NAME[name]
    res = spec.build(c)
    if spec.skip is not None and res.classification in spec.skip[0]:
        raise _Skip(spec.skip[1])
    return res


def _on_vertex(h) -> bool:
    """Whether H sits on a vertex, as at a right angle: two coordinates
    within `centers.side_tol` of zero."""
    tol = ct.side_tol(h.coords)
    return sum(abs(x) <= tol for x in h.coords) >= 2


def _need_inner_orthocenter(c: TrialContext, reason: str):
    """H when it is a real point strictly inside the triangle: every
    coordinate above `centers.side_tol`.  A right angle is stored a
    rounding error short of pi/2, so an angle test misses the right vertex;
    this test sees H on it."""
    h = _need_center(c, "H")
    if min(h.coords) <= ct.side_tol(h.coords):
        raise _Skip(reason)
    return h


def _orthocenter_conjugate(c: TrialContext) -> ct.CenterResult:
    """H', the isogonal conjugate of the orthocenter; a declared skip when H
    sits on a vertex or outside the triangle."""
    if _on_vertex(_need_center(c, "H")):
        raise _Skip("orthocenter on a vertex (right angle): its conjugate is not constructible")
    _need_inner_orthocenter(c, "conjugate of an exterior orthocenter is not constructible")
    return ct.orthocenter_conjugate(c)


def _need_Z(c: TrialContext):
    try:
        return ct.pseudo_orthocenter(c)
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
    r = [sinh(x) / sin(ang) for x, ang in zip(t.sides, t.angles)]
    return worst_residual(_rel(r[0], r[1]), _rel(r[1], r[2]))


def _law_of_cosines(c):
    x, ang = c.t.sides, c.t.angles
    return worst_residual(*[
        _rel(cosh(x[i]), cosh(x[j]) * cosh(x[k]) - sinh(x[j]) * sinh(x[k]) * cos(ang[i]))
        for i, (j, k) in enumerate(SIDE_ENDS)])


def _law_of_cosines_angles(c):
    x, ang = c.t.sides, c.t.angles
    return worst_residual(*[
        _rel(cos(ang[i]), -cos(ang[j]) * cos(ang[k]) + sin(ang[j]) * sin(ang[k]) * cosh(x[i]))
        for i, (j, k) in enumerate(SIDE_ENDS)])


def _area_defect(c):
    # angle route (stored) against the side route (law of cosines from sides)
    t = c.t
    t2 = trig.solve_from_sides(t.a, t.b, t.c)
    return _rel(t.area, t2.area)


def _area_height_form(c):
    # the altitude from A splits the triangle into two right triangles whose
    # half-areas T_i satisfy tan(T_i/2) = tanh(a_i/2) tanh(h_a/2), with a1, a2
    # the signed pieces into which its foot splits side a; composed by the
    # tangent addition rule, tan(T/2) = (x1 + x2) / (1 - x1 x2)
    t = c.t
    a1 = plane.arc_coordinate(c.altitude_feet[0], c.side_tangents[0])
    half = tanh(c.heights[0] / 2.0)
    x1 = tanh(a1 / 2.0) * half
    x2 = tanh((t.a - a1) / 2.0) * half
    return _rel(tan(t.area / 2.0), (x1 + x2) / (1.0 - x1 * x2))


def _heron(c):
    lhs, rhs = trig.heron_parts(c.t)
    return _rel(lhs, rhs)


def _lambert(key):
    def ev(c):
        return c.lambert_relations[key]
    return ev


def _staudtian_product(c):
    t = c.t
    lhs = sin(t.alpha / 2) * sin(t.beta / 2) * sin(t.gamma / 2)
    rhs = t.n ** 2 / (sinh(t.s) * sinh(t.a) * sinh(t.b) * sinh(t.c))
    return _rel(lhs, rhs)


def _staudtian_sines(c):
    t = c.t
    x = t.sides
    return worst_residual(*[_rel(sin(t.angles[i]), 2 * t.n / (sinh(x[j]) * sinh(x[k])))
                            for i, (j, k) in enumerate(SIDE_ENDS)])


def _staudtian_height(c):
    t = c.t
    return worst_residual(
        _rel(t.n, 0.5 * sin(t.alpha) * sinh(t.b) * sinh(t.c)),
        _rel(t.n, 0.5 * sinh(c.heights[2]) * sinh(t.c)))


def _section_ratio(c):
    ratios = c.interior_ratios
    k = tri_coords(c.random_interior, c.t)
    return worst_residual(*[_rel(ratios[i], k[kk] / k[j]) for i, (j, kk) in enumerate(SIDE_ENDS)])


def _half_side_sinh(c):
    t = c.t
    ang = t.angles
    return worst_residual(*[
        _rel(sinh(t.sides[i] / 2),
             math.sqrt(sin(t.delta) * sin(t.delta + ang[i]) / (sin(ang[j]) * sin(ang[k]))))
        for i, (j, k) in enumerate(SIDE_ENDS)])


def _half_side_cosh(c):
    t = c.t
    ang = t.angles
    return worst_residual(*[
        _rel(cosh(t.sides[i] / 2),
             math.sqrt(sin(t.delta + ang[j]) * sin(t.delta + ang[k])
                       / (sin(ang[j]) * sin(ang[k]))))
        for i, (j, k) in enumerate(SIDE_ENDS)])


def _half_side_product(c):
    t = c.t
    lhs = cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2)
    rhs = t.bign ** 2 / (sin(t.alpha) * sin(t.beta) * sin(t.gamma) * sin(t.delta))
    return _rel(lhs, rhs)


def _angular_sinh(c):
    t = c.t
    ang = t.angles
    return worst_residual(*[_rel(sinh(t.sides[i]), 2 * t.bign / (sin(ang[j]) * sin(ang[k])))
                            for i, (j, k) in enumerate(SIDE_ENDS)])


def _angular_height(c):
    t = c.t
    return worst_residual(
        _rel(t.bign, 0.5 * sinh(t.a) * sin(t.beta) * sin(t.gamma)),
        _rel(t.bign, 0.5 * sinh(c.heights[2]) * sin(t.gamma)))


def _staudtian_link(c):
    t = c.t
    return _rel(2 * t.n ** 2, t.bign * sinh(t.a) * sinh(t.b) * sinh(t.c))


def _staudtian_quotient(c):
    t = c.t
    return _rel(t.bign / t.n, sin(t.alpha) / sinh(t.a))


# -- centroid ---------------------------------------------------------------

def _centroid_section(c):
    t = c.t
    res = ct.centroid(c)
    m = res.point
    # the builder's own ratio at vertex A is checked with the three here
    return worst_residual(_rel(res.aux["median_section_ratio"], 2 * cosh(t.a / 2)), *[
        _rel(sinh(distance(v, m)) / sinh(distance(m, foot)), 2 * cosh(x / 2))
        for v, foot, x in zip(c.vertices, c.midpoints, t.sides)])


def _centroid_common_ratio(c):
    t = c.t
    m = ct.centroid(c)
    r = [sinh(distance(v, foot)) / sinh(distance(m.point, foot))
         for v, foot in zip(c.vertices, c.midpoints)]
    return worst_residual(_rel(r[0], r[1]), _rel(r[1], r[2]), _rel(r[0], t.n / m.coords[0]))


def _centroid_gravity_line(c):
    t = c.t
    p1 = sample_disk_point(c.rng, 0.6)
    p2 = sample_disk_point(c.rng, 0.6)
    try:
        y = normalize_line(join(p1, p2))
    except GeometryError:
        raise _Skip("auxiliary random line degenerated")
    m = ct.centroid(c).point
    d_m = mdot(normalize(m), y)
    total = sum(mdot(normalize(v), y) for v in c.vertices)
    denom = math.sqrt(1 + 2 * sum(map(cosh, t.sides), 1))
    return _rel(d_m, total / denom)


def _centroid_minimality_form(c):
    t = c.t
    y = sample_disk_point(c.rng, 0.9)
    m = ct.centroid(c)
    ratio = t.n / m.coords[0]
    lhs = cosh(distance(y, m.point))
    rhs = sum(cosh(distance(y, v)) for v in c.vertices) / ratio
    return _rel(lhs, rhs)


# -- circumcenters ----------------------------------------------------------

def _circumradius_oracle(c):
    t = c.t
    # O, then O_A, O_B, O_C
    closed = [sin(t.delta) / t.bign] + [sin(t.delta + ang) / t.bign for ang in t.angles]
    return worst_residual(*[_rel(res.aux["tanh_R"], want)
                            for res, want in zip(ct.circumcenters(c), closed)])


def _circumradius_forms(c):
    t = c.t
    return worst_residual(
        _rel(sin(t.delta) / t.bign, 2 * sinh(t.a / 2) * sinh(t.b / 2) * sinh(t.c / 2) / t.n),
        _rel(sin(t.delta + t.alpha) / t.bign,
             2 * sinh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2) / t.n))


# -- incenter / excenters ----------------------------------------------------

def _skip_infinite_excenter(c):
    for name in ("I_A", "I_B", "I_C"):
        _need_center(c, name)


def _inradius_oracle(c):
    t = c.t
    _skip_infinite_excenter(c)
    # I, then I_A, I_B, I_C
    closed = [t.n / sinh(t.s)] + [t.n / sinh(t.s - x) for x in t.sides]
    return worst_residual(*[_rel(res.aux["tanh_r"], want)
                            for res, want in zip(ct.incenter_excenters(c), closed)])


def _inradius_angular(c):
    t = c.t
    rhs = t.bign / (2 * cos(t.alpha / 2) * cos(t.beta / 2) * cos(t.gamma / 2))
    return _rel(ct.incenter_excenters(c)[0].aux["tanh_r"], rhs)


def _inradius_coth(c):
    t = c.t
    lhs = 1.0 / ct.incenter_excenters(c)[0].aux["tanh_r"]
    rhs = (sin(t.delta + t.alpha) + sin(t.delta + t.beta)
           + sin(t.delta + t.gamma) + sin(t.delta)) / (2 * t.bign)
    return _rel(lhs, rhs)


def _exradius_coth(c):
    t = c.t
    _skip_infinite_excenter(c)
    terms = [sin(t.delta + ang) for ang in t.angles]
    # coth r_X: the sin(delta + angle) terms summed with the one at X negated,
    # less sin(delta), over 2N
    targets = [(sum(-v if j == i else v for j, v in enumerate(terms)) - sin(t.delta))
               / (2 * t.bign) for i in range(3)]
    return worst_residual(*[_rel(1.0 / res.aux["tanh_r"], want)
                            for res, want in zip(ct.incenter_excenters(c)[1:], targets)])


def _mixed_radius_relations(c):
    _skip_infinite_excenter(c)
    tr, tra, trb, trc = (res.aux["tanh_r"] for res in ct.incenter_excenters(c))
    tR, tRA, tRB, tRC = (res.aux["tanh_R"] for res in ct.circumcenters(c))
    return worst_residual(
        # corrected first line: tanh R_A - tanh R = coth r_B + coth r_C
        _rel(tRA - tR, 1 / trb + 1 / trc),
        _rel(tRB + tRC, 1 / tr + 1 / tra),
        # corrected third line: coth r = (sum of the four tanh R values) / 2
        _rel(1 / tr, 0.5 * (tR + tRA + tRB + tRC)))


def _radius_identity(key):
    def ev(c):
        _skip_infinite_excenter(c)
        return ct.radius_identities(c)[key]
    return ev


def _oi_distance(c):
    t = c.t
    o, i_res = ct.circumcenters(c)[0], ct.incenter_excenters(c)[0]
    if o.classification is PointKind.INFINITE:
        raise _Skip("circumcenter at infinity (paracycle)")
    r_len = math.atanh(i_res.aux["tanh_r"])
    radius = plane.radius_ext(o.point, o.classification, c.A)
    lhs = ext_cosh(plane.radius_ext(o.point, o.classification, i_res.point))
    cosh_R = ext_cosh(radius)
    cosh_R_minus_r = ext_cosh(ExtLength(radius.re - r_len, radius.im))
    # sign corrected: the second product is subtracted
    rhs = (2 * cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2)
           * cosh(r_len) * cosh_R - cosh(t.s) * cosh_R_minus_r)
    return _rel(lhs, rhs)


# -- orthocenter -------------------------------------------------------------

def _orthocenter_products(c):
    _need_center(c, "H")
    vals = [tanh(hv) * tanh(hf) for hv, hf in zip(*ct.orthocenter_distances(c))]
    return worst_residual(_rel(vals[0], vals[1]), _rel(vals[1], vals[2]))


def _orthocenter_sinh_products(c):
    h_res = _need_center(c, "H")
    # H on a vertex: two coordinates vanish, and with them every product
    if _on_vertex(h_res):
        raise _Skip("orthocenter on a vertex (right angle): the sinh products vanish")
    prods = [sinh(hv) * sinh(hf) for hv, hf in zip(*ct.orthocenter_distances(c))]
    return _prop(prods, [cosh(x) for x in c.heights])


def _center_form(c, q: HPoint, n_q) -> float:
    """Residual of Sum n_X(Q) cosh(PX) = n cosh(PQ) at a random real point
    P, for the point ``q`` with triangular coordinates ``n_q``."""
    p = sample_disk_point(c.rng, 0.9)
    lhs = sum(n * cosh(distance(p, v)) for n, v in zip(n_q, c.vertices))
    return _rel(lhs, c.t.n * cosh(distance(p, q)))


def _orthocenter_random_point(c):
    h = _need_center(c, "H")
    return _center_form(c, h.point, h.coords)


def _altitude_stewart(c):
    t = c.t
    u = plane.arc_coordinate(c.altitude_feet[0], c.side_tangents[0])
    lhs = cosh(t.c) * sinh(t.a - u) + cosh(t.b) * sinh(u)
    return _rel(lhs, cosh(c.heights[0]) * sinh(t.a))


def _orthocenter_euler_distance(c):
    h_res = _need_inner_orthocenter(c, "altitude chain h_x = HX + HF_x needs an acute triangle")
    o = ct.circumcenters(c)[0]
    acc = 0.0
    for hv, hx in zip(ct.orthocenter_distances(c)[0], c.heights):
        acc += (1.0 / tanh(hx)) / sinh(hv)
    radius = plane.radius_ext(o.point, o.classification, c.A)
    h_radius = plane.radius_ext(o.point, o.classification, h_res.point)
    lhs = (1.0 / h_res.aux["h"] + 1.0) * ext_cosh(h_radius)
    rhs = acc * ext_cosh(radius)
    return _rel(lhs, rhs)


def _orthocenter_circumcenter_form(c):
    h = _need_center(c, "H")
    t = c.t
    o = ct.circumcenters(c)[0]
    radius = plane.radius_ext(o.point, o.classification, c.A)
    lhs = sum(h.coords) * ext_cosh(radius)
    rhs = t.n * ext_cosh(plane.radius_ext(o.point, o.classification, h.point))
    return _rel(lhs, rhs)


# -- Stewart ------------------------------------------------------------------

def _stewart(c):
    t = c.t
    u = (0.05 + 0.9 * c.rng.random()) * t.a
    p = geodesic_point(c.B, c.side_tangents[0], u)
    return trig.stewart_residual(t, p)


def _stewart_euclidean_limit(c):
    return _stewart_euclidean_order_gap()


@functools.cache
def _stewart_euclidean_order_gap() -> float:
    # fixed shape scaled down; the residual of the euclidean Stewart relation
    # evaluated on hyperbolic lengths must vanish at order >= 4 in the scale.
    # Nothing depends on the triangle under test, so it is computed once per
    # process.
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
    ratios, xp = c.interior_ratios, c.random_conjugate
    return worst_residual(*[
        _rel(ratios[i] * trig.cevian_ratio(xp, t, i),
             sinh(t.sides[k]) ** 2 / sinh(t.sides[j]) ** 2)
        for i, (j, k) in enumerate(SIDE_ENDS)])


def _isogonal_coords(c):
    t = c.t
    x, xp = c.random_interior, c.random_conjugate
    target = [sinh(side) ** 2 / k for side, k in zip(t.sides, tri_coords(x, t))]
    return _prop(tri_coords(xp, t), target)


def _generalized_center_form(c):
    q = c.random_interior
    return _center_form(c, q, tri_coords(q, c.t))


def _coordinate_sum_minimality(c):
    # the printed claim: sum minimized at the incenter with value (N/2) cosh(PI);
    # expected to fail, kept verbatim so the defect stays visible
    rep = ct.incenter_minimality(c)
    if not rep.incenter_min_ok:
        return 1.0
    return rep.incenter_closed_residual


def _coordinate_sum_minimality_corrected(c):
    # verified behaviour: minimized at the circumcenter with value (n / cosh R) cosh(PO)
    o = ct.circumcenters(c)[0]
    if o.classification is not PointKind.REAL:
        raise _Skip("circumcenter not real: the coordinate sum has no interior minimum")
    rep = ct.incenter_minimality(c)
    if not rep.circumcenter_min_ok:
        return 1.0
    return rep.circumcenter_closed_residual


# -- symmedian / Lemoine -------------------------------------------------------

def _side_gaps(t: TriangleData):
    """|side j - side k| for each pair of sides."""
    x = t.sides
    return [abs(x[j] - x[k]) for j, k in SIDE_ENDS]


def _dichotomy(measured: float, spread: float, threshold: float) -> float:
    """Residual of "``measured`` vanishes exactly when ``spread`` does": at a
    spread below 1e-9, ``measured`` itself; above 0.1, 0 when ``measured``
    exceeds ``threshold`` and 1 when not; in between, no sharp claim (0)."""
    if spread < 1e-9:
        return measured
    if spread > 0.1:
        return 0.0 if measured > threshold else 1.0
    return 0.0


def _symmedian_distances(c):
    t = c.t
    mp = ct.symmedian_point(c)
    d = [sinh(abs(signed_line_distance(mp.point, l))) for l in c.lines]
    return _prop(d, [sinh(x) for x in t.sides])


def _lemoine_vs_symmedian(c):
    t = c.t
    mp = ct.symmedian_point(c)
    lp = ct.lemoine_point(c)
    # equilateral exactly when the two centers coincide
    return _dichotomy(distance(mp.point, lp.point), max(_side_gaps(t)), 1e-6)


# -- pseudomedians / pseudoaltitudes -------------------------------------------

def _pseudomedian_feet(c):
    t = c.t
    s_res, feet = ct.pseudo_centroid(c)
    # defining property: each cevian halves the defect
    halving = [abs(trig.defect(c.vertices[i], feet[i], c.vertices[k]) - t.delta)
               for i, (_, k) in enumerate(SIDE_ENDS)]
    # the stated half-angle ratios
    ch = [cosh(x / 2) for x in t.sides]
    arcs = [plane.arc_coordinate(foot, c.side_tangents[i]) for i, foot in enumerate(feet)]
    return worst_residual(s_res.aux["third_cevian_residual"], *halving,
                          *[_rel(sinh(u / 2) / sinh((x - u) / 2), ch[k] / ch[j])
                            for u, x, (j, k) in zip(arcs, t.sides, SIDE_ENDS)])


def _cagnoli_sin_delta(c):
    t = c.t
    rhs = t.n / (2 * cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2))
    return _rel(sin(t.delta), rhs)


def _cagnoli_sin_delta_alpha(c):
    t = c.t
    x = t.sides
    # the two other sides in index order
    return worst_residual(*[
        _rel(sin(t.delta + t.angles[i]),
             t.n / (2 * cosh(x[i] / 2) * sinh(x[j] / 2) * sinh(x[k] / 2)))
        for i, (j, k) in enumerate(map(sorted, SIDE_ENDS))])


def _cagnoli_ratio(c):
    t = c.t
    lhs = sin(t.delta + t.alpha) / sin(t.delta)
    mid = cos(t.alpha) + sin(t.alpha) / math.tan(t.delta)
    rhs = 1.0 / (tanh(t.b / 2) * tanh(t.c / 2))
    return worst_residual(_rel(lhs, mid), _rel(mid, rhs))


def _pseudomedian_product(c):
    t = c.t
    _, feet = ct.pseudo_centroid(c)
    lhs = rhs = 1.0
    for i, foot in enumerate(feet):
        u = plane.arc_coordinate(foot, c.side_tangents[i])
        length = t.sides[i]
        lhs *= sinh(u / 2)
        rhs *= sinh((length - u) / 2)
    return _rel(lhs, rhs)


# -- the four-center line -------------------------------------------------------

def _euler_line(c):
    _need_Z(c)
    return ct.euler_line(c).max_line_residual


def _classical_line_dichotomy(c):
    det = ct.collinearity_residual(ct.circumcenters(c)[0].point, ct.centroid(c).point,
                                   ct.orthocenter(c).point)
    # isosceles exactly when O, M and H are collinear
    return _dichotomy(det, min(_side_gaps(c.t)), 1e-4)


# -- segment and angle tables ----------------------------------------------
#
# One catalogue of the extended length calculus, read by TBL1-TBL3 and by
# `hypertri tables`.  Every cell ends in its expected entry.  A segment cell
# is (carrier line, points(d), expected(d)): a point pair whose
# `distance_ext` pair is the expected (AB, BA) lengths, or None when no pair
# realizes the cell.  The lengths hold for d >= 0; the pairs meet TBL1's
# 1e-12 on about 2e-4 <= d <= 5.  At d = 0 the pairs of RR, IdId, InId@inf
# and IdId@inf coincide (IdenticalPoints); below sqrt(plane.EPS_CLS) the @inf
# pairs read as points at infinity; IdId's acosh loses digits at small d,
# and RR, RId and IdId lose them at large d (5.5e-9 at d = 10).  An
# angle cell is (lines(d), expected(d)): a line pair and its `angle_ext`
# pair as (re, over_i) values, for 0 < d < pi/2.  An entry that is the same
# for every d is a `_Fixed`, and a cell takes d exactly when its expected
# entry is not (`case_takes_d`).

_EAST = HPoint(1.0, 0.0, 1.0)           # boundary point (1, 0)
_X_AXIS = plane.HLine(0.0, 1.0, 0.0)
_EAST_TANGENT = plane.HLine(1.0, 0.0, 1.0)   # tangent line at _EAST


class _Fixed:
    """A catalogue entry that does not depend on d: called with any d, it
    returns ``value``.  TBL1-TBL3 check a cell whose entries are all fixed
    once per process."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __call__(self, _d):
        return self.value


def _chord_pole(d: float) -> HPoint:
    """The pole of the chord x = tanh d: an ideal point on the x axis whose
    polar lies at distance d from the origin."""
    return HPoint(1.0, 0.0, math.tanh(d))


_INF_LENGTHS = _Fixed((INF, NEG_INF))
_ZERO_PI_LENGTHS = _Fixed((ExtLength(0.0), ExtLength(0.0, Quantum.PI)))

SEGMENT_CASES = {
    "RR": ("real", lambda d: (plane.origin(), klein_point(math.tanh(d), 0.0)),
           lambda d: (ExtLength(d), ExtLength(-d, Quantum.PI))),
    "RIn": ("real", _Fixed((plane.origin(), _EAST)), _INF_LENGTHS),
    "RId": ("real", lambda d: (plane.origin(), _chord_pole(d)),
            lambda d: (ExtLength(d, Quantum.HALF_PI), ExtLength(-d, Quantum.HALF_PI))),
    "InIn": ("real", _Fixed((_EAST, HPoint(-1.0, 0.0, 1.0))), _INF_LENGTHS),
    "InId": ("real", lambda d: (_EAST, _chord_pole(d)), _INF_LENGTHS),
    "IdId": ("real", lambda d: (_chord_pole(0.0), _chord_pole(d)),
             lambda d: (ExtLength(d, Quantum.PI), ExtLength(-d))),
    # a tangent line meets the boundary once, so no pair realizes InIn there
    "InIn@inf": ("infinity", None, _ZERO_PI_LENGTHS),
    "InId@inf": ("infinity", lambda d: (_EAST, HPoint(1.0, d, 1.0)),
                 _Fixed((ExtLength(0.0, Quantum.HALF_PI), ExtLength(0.0, Quantum.HALF_PI)))),
    "IdId@inf": ("infinity", lambda d: (HPoint(1.0, d, 1.0), HPoint(1.0, -d, 1.0)),
                 _ZERO_PI_LENGTHS),
}

_INF_ANGLES = _Fixed(((math.inf, 0.0), (-math.inf, 0.0)))

ANGLE_CASES = {
    "aRR-R": (lambda d: (_X_AXIS, plane.HLine(math.sin(d), -math.cos(d), 0.0)),
              lambda d: ((d, 0.0), (math.pi - d, 0.0))),
    "aRR-In": (_Fixed((join(_EAST, plane.origin()), join(_EAST, HPoint(0.0, 0.4, 1.0)))),
               _Fixed(((0.0, 0.0), (math.pi, 0.0)))),
    "aRR-Id": (lambda d: (plane.HLine(1.0, 0.0, 0.0), plane.HLine(1.0, 0.0, math.tanh(d))),
               lambda d: ((0.0, d), (math.pi, -d))),
    "aRIn-In": (_Fixed((join(_EAST, plane.origin()), _EAST_TANGENT)),
                _Fixed(((math.pi / 2, 0.0), (math.pi / 2, 0.0)))),
    "aRIn-Id": (_Fixed((_X_AXIS, plane.HLine(0.0, 1.0, 1.0))), _INF_ANGLES),
    "aRId": (lambda d: (_X_AXIS, plane.polar(HPoint(0.0, math.tanh(d), 1.0))),
             lambda d: ((math.pi / 2, d), (math.pi / 2, -d))),
    "aInIn": (_Fixed((_EAST_TANGENT, plane.HLine(-1.0, 0.0, 1.0))), _INF_ANGLES),
    "aInId": (_Fixed((_EAST_TANGENT, plane.polar(HPoint(0.3, 0.2, 1.0)))), _INF_ANGLES),
    "aIdId": (lambda d: (plane.polar(plane.origin()),
                         plane.polar(HPoint(math.tanh(d), 0.0, 1.0))),
              lambda d: ((0.0, d), (math.pi, -d))),
}


def case_takes_d(name: str) -> bool:
    """Whether the catalogue cell ``name`` depends on d: a segment cell then
    holds for d >= 0, an angle cell for 0 < d < pi/2."""
    return not isinstance((SEGMENT_CASES.get(name) or ANGLE_CASES[name])[-1], _Fixed)


def _table_d(c) -> float:
    return 0.2 + 1.3 * c.rng.random()


def _table_check(cells, residual):
    """A TBL evaluator: for one drawn d, the worst ``residual(*entries, d)``
    over the ``cells``' entries.  A cell whose entries are all `_Fixed` is
    checked on the first call only (with d = None), and every call's worst
    includes the worst of those."""
    fixed = [cell for cell in cells if all(isinstance(e, _Fixed) for e in cell)]
    varying = [cell for cell in cells if cell not in fixed]
    # the varying cells' entries as columns: `map` builds no frame per call
    columns, count = tuple(zip(*varying)), len(varying)

    @functools.cache
    def fixed_worst():
        return worst_residual(*[residual(*cell, None) for cell in fixed])

    def evaluate(c):
        return worst_residual(fixed_worst(), *map(residual, *columns, [_table_d(c)] * count))
    return evaluate


def _quantum_matches(value: ExtLength, re: float, quantum: Quantum) -> float:
    if value.im is not quantum:
        return 1.0
    if math.isinf(re):
        return 0.0 if value.re == re else 1.0
    return abs(value.re - re)


def _segment_residual(points, expected, d):
    (got_ab, got_ba), (want_ab, want_ba) = distance_ext(*points(d)), expected(d)
    return worst_residual(_quantum_matches(got_ab, *want_ab), _quantum_matches(got_ba, *want_ba))


def _segment_table(line: str):
    """Evaluator of the `SEGMENT_CASES` cells on ``line`` that a point pair
    realizes: each pair's `distance_ext` against the cell's expected pair."""
    cells = [(points, expected) for carrier, points, expected in SEGMENT_CASES.values()
             if carrier == line and points is not None]
    return _table_check(cells, _segment_residual)


def _angle_value_matches(a, re: float, over_i: float) -> float:
    if math.isinf(a.re):
        return 0.0 if a.re == re else 1.0
    return worst_residual(abs(a.re - re), abs(a.over_i - over_i))


def _angle_residual(lines, expected, d):
    (got_ab, got_ba), (want_ab, want_ba) = plane.angle_ext(*lines(d)), expected(d)
    return worst_residual(_angle_value_matches(got_ab, *want_ab),
                          _angle_value_matches(got_ba, *want_ba))


_table_angles = _table_check(list(ANGLE_CASES.values()), _angle_residual)


def _ideal_vertex_medians(c):
    # three pairwise-ultraparallel chords; their poles are ideal "vertices"
    # joined by real lines; the median feet halve the extended side lengths
    # and the three medians are concurrent.  Two of the chords meet at Klein
    # radius 2 tanh(off) >= 1.27, outside the disk, for every draw
    off = 0.75 + 0.3 * c.rng.random()
    chords = [plane.HLine(math.cos(th), math.sin(th), math.tanh(off))
              for th in (2.0 * math.pi * (k / 3.0) + 0.2 for k in range(3))]
    poles = [plane.pole(normalize_line(l)) for l in chords]
    medians, parts = [], []
    for i, j in ((0, 1), (1, 2), (0, 2)):
        line = join(poles[i], poles[j])
        foot = midpoint(normalize(meet(line, chords[i])), normalize(meet(line, chords[j])))
        medians.append(join(poles[3 - i - j], foot))   # from the third pole
        full = distance_ext(poles[i], poles[j])[0]
        half1 = distance_ext(poles[i], foot)[0]
        half2 = distance_ext(foot, poles[j])[0]
        parts += [abs(half1.re - full.re / 2), abs(half2.re - full.re / 2)]
        if half1.im is not Quantum.HALF_PI or half2.im is not Quantum.HALF_PI:
            parts.append(1.0)
    x = meet(medians[0], medians[1])
    m = max(abs(x.x), abs(x.y), abs(x.w))
    return worst_residual(*parts, abs(mdot(x, normalize_line(medians[2]))) / m)


# --------------------------------------------------------------------------
# the center table

class CenterSpec(NamedTuple):
    """One center of the catalogue, a row of `CENTERS`.

    ``build(ctx)`` gives the center's `centers.CenterResult` on a
    `TrialContext`, or raises `_Skip` or a GeometryError; it looks its
    builder up on `centers` when called, so a rebound module attribute (as
    perfbench's tracer installs) also sees the call.  ``coords(t)`` gives
    the closed-form triangular coordinates, or is None when the center has
    no coordinate check.  ``skip`` is None or ``(kinds, reason)``: a check
    that needs the center (`_need_center`) is a declared skip with
    ``reason`` when its classification is one of ``kinds``.  ``color``
    fills the center's marker and label (the name) in rendered figures.
    """

    name: str
    build: Callable
    coords: Callable | None
    skip: tuple | None
    color: str


def _pseudo_centroid_coords(t: TriangleData) -> list:
    ch = [cosh(x / 2) for x in t.sides]
    prod = ch[0] * ch[1] * ch[2]
    # the two other sides in index order
    return [1 / (ch[j] ** 2 * ch[k] ** 2 + prod) for j, k in map(sorted, SIDE_ENDS)]


_AT_INFINITY = (PointKind.INFINITE,)
_NOT_REAL = (PointKind.INFINITE, PointKind.IDEAL)


def _excenter_spec(i: int) -> CenterSpec:
    """The row of the excenter opposite vertex ``i``: coordinates
    (sinh a : sinh b : sinh c) with the sign of entry ``i`` flipped."""
    name = "I_" + "ABC"[i]
    return CenterSpec(name, lambda c: ct.incenter_excenters(c)[1 + i],
                      lambda t: [-sinh(x) if j == i else sinh(x) for j, x in enumerate(t.sides)],
                      (_AT_INFINITY, f"excenter {name} is a point at infinity"), "#2ca02c")


# the center table, in report order; adding a center is adding a row
CENTERS = (
    CenterSpec("M", lambda c: ct.centroid(c), lambda t: (1.0, 1.0, 1.0), None, "#1f77b4"),
    CenterSpec("O", lambda c: ct.circumcenters(c)[0],
               lambda t: [cos(t.delta + ang) * sinh(x) for ang, x in zip(t.angles, t.sides)],
               (_AT_INFINITY, "circumcenter at infinity (paracycle): coordinates blow up"),
               "#d62728"),
    CenterSpec("O_A", lambda c: ct.circumcenters(c)[1], None, None, "#d62728"),
    CenterSpec("O_B", lambda c: ct.circumcenters(c)[2], None, None, "#d62728"),
    CenterSpec("O_C", lambda c: ct.circumcenters(c)[3], None, None, "#d62728"),
    CenterSpec("I", lambda c: ct.incenter_excenters(c)[0],
               lambda t: [sinh(x) for x in t.sides], None, "#2ca02c"),
    *map(_excenter_spec, range(3)),
    CenterSpec("H", lambda c: ct.orthocenter(c), lambda t: [tan(ang) for ang in t.angles],
               (_NOT_REAL, "orthocenter is not a real point"), "#9467bd"),
    CenterSpec("H'", _orthocenter_conjugate, lambda t: [sin(2 * ang) for ang in t.angles],
               None, "#000000"),
    CenterSpec("M'", lambda c: ct.symmedian_point(c), lambda t: [sinh(x) ** 2 for x in t.sides],
               None, "#8c564b"),
    CenterSpec("L", lambda c: ct.lemoine_point(c), lambda t: [cosh(x) - 1 for x in t.sides],
               None, "#e377c2"),
    CenterSpec("S", lambda c: ct.pseudo_centroid(c)[0], _pseudo_centroid_coords, None,
               "#ff7f0e"),
    CenterSpec("Z", lambda c: _need_Z(c)[0], None, None, "#17becf"),
    CenterSpec("F", lambda c: ct.pseudomedian_feet_center(c), None, None, "#bcbd22"),
)
CENTER_BY_NAME = {spec.name: spec for spec in CENTERS}


def _center_coords(*names):
    """The coordinate check of the named centers: the worst proportionality
    residual between a center's triangular coordinates and the closed form
    of its row.  Every named center is built and passed through its row's
    skip rule before any residual is taken."""
    closed = [CENTER_BY_NAME[name].coords for name in names]

    def ev(c):
        # loops, not comprehensions, which would build a frame on each call
        built = []
        for name in names:
            built.append(_need_center(c, name))
        parts = []
        for res, coords in zip(built, closed):
            parts.append(_prop(res.coords, coords(c.t)))
        return worst_residual(*parts)
    return ev


# --------------------------------------------------------------------------
# the registry table

class IdentityDef(NamedTuple):
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
    IdentityDef("CE1", "centroid coordinates are equal", _center_coords("M")),
    IdentityDef("CE2", "median section ratio 2 cosh(side/2)", _centroid_section),
    IdentityDef("CE3", "common median ratio", _centroid_common_ratio),
    IdentityDef("CE4", "center-of-gravity line relation", _centroid_gravity_line),
    IdentityDef("CE5", "centroid cosh-sum form", _centroid_minimality_form),
    IdentityDef("CR1", "circumradius tanh forms vs oracle distances", _circumradius_oracle),
    IdentityDef("CR2", "two circumradius closed forms agree", _circumradius_forms, 1e-11),
    IdentityDef("CR3", "circumcenter coordinates", _center_coords("O")),
    IdentityDef("IN1", "in/ex-radius from the Staudtian vs oracle", _inradius_oracle),
    IdentityDef("IN2", "inradius from the angular Staudtian", _inradius_angular),
    IdentityDef("IN3", "coth of the inradius", _inradius_coth),
    IdentityDef("IN4", "coth of the exradii", _exradius_coth),
    IdentityDef("IN5", "mixed circum/in-radius relations (signs corrected)", _mixed_radius_relations),
    IdentityDef("IN6", "incenter coordinates", _center_coords("I")),
    IdentityDef("IN7", "excenter coordinates", _center_coords("I_A", "I_B", "I_C")),
    IdentityDef("RI1", "radius relation: coth sum vs 2 tanh R", _radius_identity("coth_sum_vs_tanh_R")),
    IdentityDef("RI2", "radius relation: coth pair products", _radius_identity("coth_products")),
    IdentityDef("RI3", "radius relation: tanh pair products", _radius_identity("tanh_products")),
    IdentityDef("RI4", "radius relation: coth sum", _radius_identity("coth_sum")),
    IdentityDef("RI5", "radius relation: tanh sum", _radius_identity("tanh_sum")),
    IdentityDef("RI6", "radius relation: sinh pair products (factor corrected)", _radius_identity("sinh_products")),
    IdentityDef("OI1", "incenter-circumcenter distance (sign corrected)", _oi_distance),
    IdentityDef("OR1", "orthocenter tanh products share one value", _orthocenter_products, 1e-8),
    IdentityDef("OR2", "orthocenter sinh products vs height coshes", _orthocenter_sinh_products, 1e-8),
    IdentityDef("OR3", "orthocenter coordinates (tan ratios)", _center_coords("H")),
    IdentityDef("OR4", "orthocenter coordinate identity at a random point", _orthocenter_random_point),
    IdentityDef("OR5", "Stewart relation at an altitude foot", _altitude_stewart),
    IdentityDef("OR6", "orthocenter-circumcenter distance chain (factor corrected)", _orthocenter_euler_distance, 1e-8),
    IdentityDef("STW", "Stewart relation at a random interior foot", _stewart),
    IdentityDef("STW-EU", "euclidean limit order of the Stewart relation", _stewart_euclidean_limit, 1e-6),
    IdentityDef("ORP", "orthocenter identity specialized to the circumcenter", _orthocenter_circumcenter_form),
    IdentityDef("IS1", "isogonal conjugate inverts section ratios", _isogonal_inverse_ratio),
    IdentityDef("IS2", "isogonal conjugate coordinate inversion", _isogonal_coords),
    IdentityDef("IS3", "conjugate of the orthocenter (sin 2x coordinates)", _center_coords("H'")),
    IdentityDef("IS4", "generalized center identity for random points", _generalized_center_form),
    IdentityDef("MIN1", "coordinate sum minimal at the incenter (printed claim)",
                _coordinate_sum_minimality, 1e-10, expected_to_fail=True),
    IdentityDef("MIN1C", "coordinate sum minimal at the circumcenter (verified form)",
                _coordinate_sum_minimality_corrected, 1e-10),
    IdentityDef("SY1", "symmedian coordinates (sinh^2)", _center_coords("M'"), 1e-9),
    IdentityDef("SY2", "symmedian distances proportional to side sinhs", _symmedian_distances),
    IdentityDef("LE1", "Lemoine point coordinates (cosh - 1)", _center_coords("L")),
    IdentityDef("LE2", "symmedian equals Lemoine only when equilateral", _lemoine_vs_symmedian, 1e-6),
    IdentityDef("PM1", "pseudomedian feet: ratios, area halving, concurrency", _pseudomedian_feet),
    IdentityDef("PM2", "pseudo-centroid coordinates", _center_coords("S")),
    IdentityDef("CG1", "Cagnoli analog: sin(delta)", _cagnoli_sin_delta),
    IdentityDef("CG2", "Cagnoli analog: sin(delta + angle)", _cagnoli_sin_delta_alpha),
    IdentityDef("CG3", "tangent product for fixed area and angle", _cagnoli_ratio),
    IdentityDef("PMF", "pseudomedian half-arc product identity", _pseudomedian_product),
    IdentityDef("EU1", "four-center line (O, F, S, Z)", _euler_line, 1e-8),
    IdentityDef("EU0", "classical O-M-H line iff isosceles", _classical_line_dichotomy, 1e-9),
    IdentityDef("TBL1", "segment table of the real line", _segment_table("real"), 1e-12),
    IdentityDef("TBL2", "segment table of the line at infinity", _segment_table("infinity"), 1e-12),
    IdentityDef("TBL3", "angle table of line pairs", _table_angles, 1e-12),
    IdentityDef("FIG2", "medians of an ideal-vertex triangle halve the sides", _ideal_vertex_medians, 1e-9),
]

REGISTRY = {d.id: d for d in _DEFS}
ALL_IDS = [d.id for d in _DEFS]
# the `_Stream` key of each tag the registry draws under (the empty one before `use_stream`)
_TAG_KEYS = {tag: _tag_key(tag) for tag in ("", "interior", "lambert", *ALL_IDS)}
EXPECTED_FAILURES = tuple(d.id for d in _DEFS if d.expected_to_fail)


def run_identity(identity_id: str, ctx_or_triangle, seed: int = 0) -> IdentityRecord:
    """Evaluate one identity on a triangle (or prebuilt TrialContext).

    A declared non-configuration (`_Skip`) is a ``skipped`` record; any
    other GeometryError the evaluator raises is a ``fail`` record with no
    residual and the reason ``"<Class>: <message>"``, and so is a residual
    that is not finite, with the reason ``"non-finite residual <value>"``."""
    d = REGISTRY.get(identity_id)
    if d is None:
        raise UnknownIdentity(f"unknown identity {identity_id!r}")
    did, name, evaluator, tolerance, _ = d
    ctx = (ctx_or_triangle if isinstance(ctx_or_triangle, TrialContext)
           else TrialContext(seed=seed, t=ctx_or_triangle))
    ctx.use_stream(identity_id)
    # every record is built with tuple.__new__ (the named tuple's generated
    # constructor is one more Python call)
    try:
        residual = evaluator(ctx)
    except _Skip as s:
        return _new(IdentityRecord, (did, name, None, "skipped", tolerance, str(s)))
    except GeometryError as e:
        return _new(IdentityRecord, (did, name, None, "fail", tolerance,
                                     f"{type(e).__name__}: {e}"))
    if residual.__class__ is not float:
        residual = float(residual)
    if not -_INF < residual < _INF:
        return _new(IdentityRecord, (did, name, None, "fail", tolerance,
                                     f"non-finite residual {residual}"))
    return _new(IdentityRecord, (did, name, residual,
                                 "pass" if residual < tolerance else "fail", tolerance, None))


def _line_parts(identity_id: str, name: str, tolerance: float) -> tuple[str, str]:
    """The constant text of a record's report line: from after the seed to
    the residual, and from after the status to the reason."""
    return (f',"id":{_json_str(identity_id)},"name":{_json_str(name)},"residual":',
            f',"tolerance":{_COMPACT_JSON.encode(tolerance)}')


# (name, tolerance, *line parts) of each registered identity, built once
_LINE_PARTS = {d.id: (d.name, d.tolerance, *_line_parts(d.id, d.name, d.tolerance))
               for d in _DEFS}
# the status field of a report line; any other status is a KeyError, as
# in the summary's count
_STATUS_PARTS = {status: ',"status":' + _json_str(status)
                 for status in ("pass", "fail", "skipped")}


class _TrialFields(NamedTuple):
    seed: int
    records: tuple
    centers: tuple


class TrialReport(_TrialFields):
    """The records and center table of one trial.  The fields are an
    immutable named tuple; the class has no ``__slots__``, so the summary
    is kept in the instance dict once built."""

    def summary(self) -> dict:
        """Counts by status and the failed ids.  Built on the first call;
        later calls return the same dict."""
        return self._summary

    @stored_property
    def _summary(self) -> dict:
        count = {"pass": 0, "fail": 0, "skipped": 0}
        failed = []
        for r in self.records:
            count[r.status] += 1
            if r.status == "fail":
                failed.append(r.id)
        return {"seed": self.seed, **count, "failed_ids": failed}

    def to_jsonl(self) -> str:
        """One compact JSON line per record, then the summary line.  A record
        line is the text `json` writes for ``{"seed": seed, "id": ...,
        "name": ..., "residual": ..., "status": ..., "tolerance": ...}``,
        plus ``"reason"`` when set, assembled from per-identity parts."""
        encode = _COMPACT_JSON.encode
        seed = '{"seed":' + encode(self.seed)
        lines = []
        for rid, name, res, status, tolerance, reason in self.records:
            parts = _LINE_PARTS.get(rid)
            if parts is not None and parts[0] is name and parts[1] is tolerance:
                head, tail = parts[2], parts[3]
            else:
                head, tail = _line_parts(rid, name, tolerance)
            # json writes a finite float as float.__repr__; None, inf and
            # nan take the encoder's spelling
            res = (repr(res) if res.__class__ is float and -_INF < res < _INF
                   else encode(res))
            reason = "" if reason is None else ',"reason":' + _json_str(reason)
            lines.append(f'{seed}{head}{res}{_STATUS_PARTS[status]}{tail}{reason}}}')
        lines.append(encode({"summary": self.summary()}))
        return "\n".join(lines)


def center_table(ctx: ct.Frame, which: list[str] | None = None) -> list[dict]:
    """Serialized center results for a triangle; unavailable centers carry an
    explanatory status instead of a point.  A name in ``which`` that is not
    a center raises UnknownCenter before anything is built."""
    for name in which or ():
        if name not in CENTER_BY_NAME:
            raise UnknownCenter(f"unknown center {name!r}")
    rows = []
    for spec in CENTERS:
        if which is not None and spec.name not in which:
            continue
        try:
            rows.append(spec.build(ctx).to_json())
        except GeometryError as e:
            rows.append({"name": spec.name, "status": f"unavailable: {e}"})
    return rows


def run_suite(seed: int, ids: list[str] | None = None, shape: str = "any",
              include_centers: bool = False,
              triangle: TriangleData | None = None) -> TrialReport:
    """Evaluate identities on the seeded triangle (or a supplied one);
    deterministic per (seed, identity set).  The report's center table is
    empty unless ``include_centers`` asks for it.  Each identity runs
    through the module's ``run_identity``, so a wrapper bound to that name
    sees every call."""
    t = triangle if triangle is not None else gen_triangle(seed, shape=shape)
    ctx = TrialContext(seed=seed, t=t)
    records = tuple([run_identity(identity_id, ctx)
                     for identity_id in (ALL_IDS if ids is None else ids)])
    table = tuple(center_table(ctx)) if include_centers else ()
    return TrialReport(seed=seed, records=records, centers=table)


def triangle_json(t: TriangleData, seed: int | None = None) -> dict:
    out = {
        "vertices": [v.to_json() for v in t.vertices],
        "model": "klein",
        "meta": {},
        "data": t.to_json(),
    }
    if seed is not None:
        out["meta"]["seed"] = seed
    return out


def triangle_from_json(obj) -> TriangleData:
    """The triangle of a `triangle_json` object, solved from its three
    vertices.  An object without a list of exactly three vertices raises
    OutOfDomain, as does a vertex that is not a point object."""
    vertices = obj.get("vertices") if isinstance(obj, dict) else None
    if not isinstance(vertices, list) or len(vertices) != 3:
        raise OutOfDomain("a triangle must be a JSON object whose 'vertices' "
                          "is a list of exactly three points")
    return trig.solve_from_vertices(*map(HPoint.from_json, vertices))
