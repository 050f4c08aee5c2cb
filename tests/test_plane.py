import math
import pickle
import random
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypertri import plane
from hypertri.errors import (
    CoincidentArguments,
    CoincidentLines,
    CollinearPoints,
    GeometryError,
    IdenticalPoints,
    OutOfDomain,
    ZeroVector,
)
from hypertri.extscalar import ExtLength, PointKind, PureImaginary, Quantum
from hypertri.plane import (
    CycleKind,
    HLine,
    HPoint,
    angle_ext,
    classify,
    classify_line,
    cycle_through,
    distance,
    distance_ext,
    join,
    klein_point,
    LineKind,
    mdot,
    meet,
    model_convert,
    normalize,
    normalize_line,
    origin,
    perpendicular_bisector,
    polar,
    pole,
    signed_line_distance,
    UnitPoint,
)

from outcomes import image, outcome

INF = math.inf

disk_xy = st.floats(min_value=-0.85, max_value=0.85)


def klein_points(max_r=0.9):
    def build(x, y):
        return klein_point(x, y)
    return st.builds(build, disk_xy, disk_xy).filter(
        lambda p: p.x ** 2 + p.y ** 2 < max_r ** 2)


# any finite float: huge, subnormal, signed zeros and tiny ones included
FINITE_TRIPLES = st.tuples(*3 * [st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-290, 1e-290),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-160, 1e160, 1e308, -1.7e308]))])

# every public `plane` function whose arguments are triples, with what each
# triple is passed as: a point, a line or a tangent (a plain tuple)
_P, _L, _T = HPoint._make, HLine._make, tuple
TRIPLE_FUNCTIONS = (
    ("polar", (_P,)), ("pole", (_L,)), ("join", (_P, _P)), ("meet", (_L, _L)),
    ("real_point", (_P,)), ("distance", (_P, _P)), ("signed_line_distance", (_P, _L)),
    ("tangent_toward", (_P, _P)), ("vertex_angle", (_P, _P, _P)),
    ("tangent_angle", (_T, _T)), ("normal_tangent", (_P, _T)), ("arc_coordinate", (_P, _T)),
    ("perpendicular_line", (_P, _L)),
    ("midpoint", (_P, _P)), ("perpendicular_bisector", (_P, _P)),
    ("complementary_bisector", (_P, _P)), ("reflect_line", (_L, _L)),
    ("distance_ext", (_P, _P)),
    *((f"radius_ext/{kind.value}", (_P, _P)) for kind in PointKind),
    ("angle_ext", (_L, _L)), ("cycle_through", (_P, _P, _P)),
)
# the calls that take more than triples
TRIPLE_FUNCTION_CALLS = {
    "real_point": lambda p: plane.real_point(p, OutOfDomain, "not a real point"),
    **{f"radius_ext/{kind.value}": (lambda c, p, kind=kind: plane.radius_ext(c, kind, p))
       for kind in PointKind},
}


class TestClassification:
    def test_examples(self):
        assert classify(origin()) is PointKind.REAL
        assert classify(HPoint(1, 0, 1)) is PointKind.INFINITE
        # Q = 1 - 4 = -3 < 0
        assert classify(klein_point(2, 0)) is PointKind.IDEAL

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            classify(HPoint(0, 0, 0))

    def test_line_kinds(self):
        assert classify_line(HLine(0, 1, 0)) is LineKind.REAL
        assert classify_line(HLine(1, 0, 1)) is LineKind.AT_INFINITY
        assert classify_line(HLine(0, 0, 1)) is LineKind.IDEAL

    def test_tiny_triples_are_rescaled(self):
        # the max-norm squared underflows to zero; the triple is the
        # boundary point (1, 0, 1) scaled down
        p = HPoint(1e-300, 0.0, 1e-300)
        assert classify(p) is PointKind.INFINITE
        assert normalize(p) == (1.0, 0.0, 1.0)
        assert classify_line(HLine(0.0, 1e-300, 0.0)) is LineKind.REAL
        assert normalize_line(HLine(0.0, 1e-300, 0.0)) == (0.0, 1.0, 0.0)

    @given(FINITE_TRIPLES)
    @settings(max_examples=300)
    def test_any_finite_triple_gives_a_value_or_a_geometry_error(self, triple):
        for fn, kind in ((normalize, HPoint), (classify, HPoint),
                         (normalize_line, HLine), (classify_line, HLine)):
            try:
                got = fn(kind(*triple))
            except GeometryError:
                continue
            if isinstance(got, tuple):
                assert all(map(math.isfinite, got)), (fn.__name__, triple, got)

    @given(st.tuples(FINITE_TRIPLES, FINITE_TRIPLES, FINITE_TRIPLES))
    @settings(max_examples=300)
    def test_every_triple_function_gives_a_value_or_a_geometry_error(self, triples):
        for name, kinds in TRIPLE_FUNCTIONS:
            fn = TRIPLE_FUNCTION_CALLS.get(name) or getattr(plane, name)
            args = [kind(triple) for kind, triple in zip(kinds, triples)]
            try:
                fn(*args)
            except GeometryError:
                pass



class TestUnitPoint:
    def test_real_points_normalize_to_unit_points(self):
        for p in (origin(), klein_point(0.3, -0.4), HPoint(-0.2, 0.1, -2.0)):
            u = normalize(p)
            assert u.__class__ is UnitPoint
            assert mdot(u, u) == pytest.approx(1.0, rel=1e-15) and u.w > 0

    def test_unit_point_is_returned_unchanged(self):
        u = normalize(klein_point(0.3, -0.4))
        assert normalize(u) is u
        assert classify(u) is PointKind.REAL

    @pytest.mark.parametrize("p", [klein_point(2.0, 0.5), HPoint(1.0, 0.0, 1.0),
                                   HPoint(0.6, 0.8, -1.0)])
    def test_ideal_and_boundary_points_stay_plain(self, p):
        n = normalize(p)
        assert n.__class__ is HPoint
        assert classify(n) is classify(p) is not PointKind.REAL

    def test_real_point_is_the_unit_point(self):
        p = HPoint(-0.2, 0.1, -2.0)
        got = plane.real_point(p, CollinearPoints, "unused")
        assert got.__class__ is UnitPoint and got == normalize(p)

    @pytest.mark.parametrize("p", [klein_point(2.0, 0.5), HPoint(1.0, 0.0, 1.0)])
    def test_real_point_raises_the_given_error(self, p):
        # an ideal point and a boundary point
        with pytest.raises(CollinearPoints, match="^the step left the disk$"):
            plane.real_point(p, CollinearPoints, "the step left the disk")

    def test_unit_point_survives_pickling(self):
        u = normalize(klein_point(0.3, -0.4))
        back = pickle.loads(pickle.dumps(u))
        assert back.__class__ is UnitPoint and back == u


class TestValueTypes:
    @pytest.mark.parametrize("v", [HPoint(0.1, 0.2, 1.0), HLine(0.0, 1.0, 0.0),
                                   normalize(klein_point(0.3, -0.4))])
    def test_immutable(self, v):
        with pytest.raises(AttributeError):
            v.x = 0.5
        with pytest.raises(AttributeError):
            v.z = 0.5

    def test_equal_coordinates_give_equal_hashes(self):
        u = normalize(klein_point(0.3, -0.4))
        p = HPoint(u.x, u.y, u.w)
        assert p == u and hash(p) == hash(u)
        assert HLine(0.0, 1.0, 0.0) == HLine(0.0, 1.0, 0.0)
        assert hash(HLine(0.0, 1.0, 0.0)) == hash(HLine(-0.0, 1.0, 0.0))
        assert {p: 1}[u] == 1

    def test_tuple_semantics(self):
        # points and lines are plain tuples of coordinates, so a point equals
        # the line with the same coordinates
        p = HPoint(0.1, 0.2, 1.0)
        x, y, w = p
        assert (x, y, w) == p == (0.1, 0.2, 1.0) == HLine(0.1, 0.2, 1.0)
        assert polar(p) == p and polar(p).__class__ is HLine

    @pytest.mark.parametrize("v", [HPoint(0.1, 0.2, 1.0), HLine(0.0, 1.0, 0.0),
                                   normalize(klein_point(2.0, 0.5))])
    def test_pickling_keeps_the_type(self, v):
        back = pickle.loads(pickle.dumps(v))
        assert back.__class__ is v.__class__ and back == v


class TestIncidence:
    def test_join_meet_axes(self):
        x_axis = join(origin(), HPoint(1, 0, 1))
        y_axis = join(origin(), HPoint(0, 1, 1))
        assert abs(mdot(klein_point(0.3, 0), normalize_line(x_axis))) < 1e-15
        o = meet(x_axis, y_axis)
        assert classify(o) is PointKind.REAL
        assert o.klein() == pytest.approx((0.0, 0.0))

    @given(klein_points(), klein_points())
    @settings(max_examples=60)
    def test_join_contains_both(self, p, q):
        if abs(p.x - q.x) + abs(p.y - q.y) < 1e-6:
            return
        l = normalize_line(join(p, q))
        assert abs(mdot(normalize(p), l)) < 1e-12
        assert abs(mdot(normalize(q), l)) < 1e-12

    def test_join_of_ideal_points_via_polar_round_trip(self):
        p, q = klein_point(1.7, 0.2), klein_point(0.1, 2.4)
        direct = normalize_line(join(p, q))
        dual = normalize_line(polar(meet(polar(p), polar(q))))
        agree = min(
            max(abs(direct.x - dual.x), abs(direct.y - dual.y), abs(direct.w - dual.w)),
            max(abs(direct.x + dual.x), abs(direct.y + dual.y), abs(direct.w + dual.w)),
        )
        assert agree < 1e-12

    def test_coincident_rejected(self):
        with pytest.raises(IdenticalPoints):
            distance_ext(klein_point(0.1, 0.2), klein_point(0.1, 0.2))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: join(HPoint(0.1, 0.2, 1.0), HPoint(0.2, 0.4, 2.0)),
         CoincidentArguments, "join of proportional points"),
        (lambda: meet(HLine(0.3, -0.1, 0.2), HLine(-0.6, 0.2, -0.4)),
         CoincidentArguments, "meet of proportional lines"),
        (lambda: angle_ext(HLine(1.0, 0.5, 0.2), HLine(-1.0, -0.5, -0.2)),
         CoincidentLines, "angle of proportional lines"),
        (lambda: distance_ext(HPoint(0.1, 0.2, 1.0), HPoint(0.25, 0.5, 2.5)),
         IdenticalPoints, "distance between coincident projective points"),
    ], ids=["join", "meet", "angle_ext", "distance_ext"])
    def test_proportional_arguments_raise(self, call, error, message):
        with pytest.raises(CoincidentArguments) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


class TestPolarity:
    def test_polar_of_ideal_point_is_the_half_chord(self):
        p = klein_point(2.0, 0.0)
        l = polar(p)
        assert classify_line(l) is LineKind.REAL
        # chord x = 1/2: both boundary points satisfy the incidence relation
        for y in (1, -1):
            b = HPoint(0.5, y * math.sqrt(0.75), 1.0)
            assert abs(mdot(b, normalize_line(l))) < 1e-12
        back = pole(l)
        assert back.klein() == pytest.approx((2.0, 0.0))

    def test_polar_taxonomy_duality(self):
        assert classify_line(polar(origin())) is LineKind.IDEAL
        assert classify_line(polar(HPoint(1, 0, 1))) is LineKind.AT_INFINITY
        assert classify(pole(HLine(0, 1, 0))) is PointKind.IDEAL

    @given(klein_points())
    @settings(max_examples=40)
    def test_duality_property(self, p):
        assert classify_line(polar(p)) is LineKind.IDEAL  # real point -> ideal line


class TestDistances:
    @pytest.mark.parametrize("center", [
        klein_point(0.3, -0.2), normalize(klein_point(-0.5, 0.1)),   # real
        klein_point(1.7, 0.4), HPoint(-3.0, 0.5, 0.2),                  # ideal
        HPoint(0.6, 0.8, 1.0),                                           # at infinity
    ])
    def test_radius_is_the_first_extended_distance(self, center):
        for p in (origin(), klein_point(0.2, 0.7), normalize(klein_point(-0.4, -0.4))):
            assert (plane.radius_ext(center, classify(center), p)
                    == distance_ext(center, p)[0])

    def test_segment_is_the_distance_and_both_end_tangents(self):
        # `segment` fuses `distance(p, q)`, `tangent_toward(p, q)` and
        # `tangent_toward(q, p)`: each part keeps its bits, on both branches
        # of `distance`, for nearby pairs whose difference square clamps at
        # 0 and far pairs near the boundary; where `tangent_toward` raises
        # for coincident points, the kernel returns no tangents
        rng = random.Random("segment kernel")
        branches, clamped, coincident = {True: 0, False: 0}, 0, 0
        pairs = []

        def point(radius):
            r, th = radius * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
            return normalize(klein_point(r * math.cos(th), r * math.sin(th)))

        for _ in range(1500):
            radius = rng.choice((0.3, 0.9, 0.999, 0.999999))
            p, q = point(radius), point(radius)
            t = plane.tangent_toward(p, q)
            near = plane.geodesic_point(p, t, rng.choice((0.0, 1e-17, 1e-12, 1e-9, 1e-3, 0.05)))
            pairs += [(p, q), (p, normalize(near)), (p, near), (p, p)]
        for p, q in pairs:
            for a, b in ((p, q), (q, p)):
                d, ta, tb = plane.segment(a, b)
                assert ("value", image(d)) == outcome(distance, a, b), (a, b)
                for got, ends in ((ta, (a, b)), (tb, (b, a))):
                    want = outcome(plane.tangent_toward, *ends)
                    if want[0] == "raise":
                        assert got is None and want[1:] == (
                            IdenticalPoints, "tangent direction between coincident points")
                    else:
                        assert ("value", image(got)) == want, ends
                ax, ay, aw = normalize(a)
                bx, by, bw = normalize(b)
                dx, dy, dw = ax - bx, ay - by, aw - bw
                branches[aw * bw - ax * bx - ay * by < 1.005] += 1
                clamped += dx * dx + dy * dy - dw * dw < 0.0
                coincident += ta is None
        assert branches[True] > 0 and branches[False] > 0
        assert clamped > 0 and coincident > 0

    def test_acosh_below_its_slack_is_out_of_domain(self):
        assert plane.acosh_clamped(1.0 - 1e-13) == 0.0
        with pytest.raises(OutOfDomain):
            plane.acosh_clamped(0.5)

    def test_real_real_oracle_value(self):
        # cosh d = 4/3 for the Klein points (0.5, 0) and (0, 0.5)
        a, b = klein_point(0.5, 0), klein_point(0, 0.5)
        expect = math.acosh(4.0 / 3.0)
        assert distance(a, b) == pytest.approx(expect, rel=1e-12)
        ab, ba = distance_ext(a, b)
        assert ab.im is Quantum.ZERO and ab.re == pytest.approx(expect, rel=1e-12)
        assert ba.im is Quantum.PI and ba.re == pytest.approx(-expect)

    def test_real_ideal(self):
        ideal = HPoint(1.0, 0.0, math.tanh(0.3))  # polar chord at distance 0.3
        ab, ba = distance_ext(origin(), ideal)
        assert ab.im is Quantum.HALF_PI and ab.re == pytest.approx(0.3, abs=1e-12)
        assert ba.im is Quantum.HALF_PI and ba.re == pytest.approx(-0.3, abs=1e-12)

    def test_two_infinite_points(self):
        ab, ba = distance_ext(HPoint(1, 0, 1), HPoint(-1, 0, 1))
        assert ab == ExtLength(INF) and ba == ExtLength(-INF)

    def test_real_infinite(self):
        ab, ba = distance_ext(origin(), HPoint(1, 0, 1))
        assert (ab, ba) == (ExtLength(INF), ExtLength(-INF))

    def test_ideal_ideal_on_real_line(self):
        i1 = HPoint(1.0, 0.0, math.tanh(0.4))
        i2 = HPoint(1.0, 0.0, math.tanh(1.0))
        ab, ba = distance_ext(i1, i2)
        assert ab.im is Quantum.PI and ab.re == pytest.approx(0.6, abs=1e-12)
        assert ba.im is Quantum.ZERO and ba.re == pytest.approx(-0.6, abs=1e-12)

    def test_ideal_segment_of_the_ideal_line(self):
        phi = 0.7
        l1 = HLine(0.0, 1.0, 0.0)
        l2 = HLine(math.sin(phi), -math.cos(phi), 0.0)
        seg, coseg = distance_ext(pole(l1), pole(l2))
        assert isinstance(seg, PureImaginary)
        assert seg.magnitude == pytest.approx(phi, abs=1e-12)
        assert coseg.magnitude == pytest.approx(math.pi - phi, abs=1e-12)

    def test_infinite_ideal_on_tangent_line(self):
        t = HPoint(1.0, 0.0, 1.0)
        onto = HPoint(1.0, 0.6, 1.0)  # on the tangent line at t
        ab, ba = distance_ext(t, onto)
        assert ab == ExtLength(0.0, Quantum.HALF_PI) == ba

    @given(klein_points(), klein_points(), klein_points())
    @settings(max_examples=40)
    def test_triangle_inequality(self, p, q, r):
        d_pq, d_qr, d_pr = distance(p, q), distance(q, r), distance(p, r)
        assert d_pr <= d_pq + d_qr + 1e-12

    @given(klein_points(), klein_points())
    @settings(max_examples=40)
    def test_pair_sums_to_pi_i(self, p, q):
        if abs(p.x - q.x) + abs(p.y - q.y) < 1e-6:
            return
        ab, ba = distance_ext(p, q)
        assert ab.re + ba.re == pytest.approx(0.0, abs=1e-12)
        assert ab.im.value + ba.im.value == 2


class TestAngles:
    def test_real_meet(self):
        phi = 0.8
        l1 = HLine(0.0, 1.0, 0.0)
        l2 = HLine(math.sin(phi), -math.cos(phi), 0.0)
        a1, a2 = angle_ext(l1, l2)
        assert a1.re == pytest.approx(phi, abs=1e-12) and a1.over_i == 0
        assert a2.re == pytest.approx(math.pi - phi, abs=1e-12)

    def test_parallel_chords_through_a_boundary_point(self):
        l1 = join(HPoint(1, 0, 1), origin())
        l2 = join(HPoint(1, 0, 1), klein_point(0.0, 0.4))
        a1, a2 = angle_ext(l1, l2)
        assert (a1.re, a1.over_i) == (0.0, 0.0)
        assert a2.re == pytest.approx(math.pi)

    def test_ultraparallel_chords(self):
        v1, v2 = 0.4, 1.3
        c1 = HLine(1.0, 0.0, math.tanh(v1))
        c2 = HLine(1.0, 0.0, math.tanh(v2))
        a1, a2 = angle_ext(c1, c2)
        assert a1.re == 0.0 and a1.over_i == pytest.approx(v2 - v1, abs=1e-12)
        assert a2.re == pytest.approx(math.pi) and a2.over_i == pytest.approx(v1 - v2)

    def test_chord_with_tangent_at_its_endpoint(self):
        chord = join(HPoint(1, 0, 1), origin())
        tangent = HLine(1.0, 0.0, 1.0)
        a1, a2 = angle_ext(chord, tangent)
        assert a1.re == pytest.approx(math.pi / 2) and a1.over_i == 0.0
        assert a2.re == pytest.approx(math.pi / 2)

    def test_chord_with_far_tangent(self):
        a1, a2 = angle_ext(HLine(0, 1, 0), HLine(0, 1, 1))
        assert a1.re == INF and a2.re == -INF

    def test_real_with_ideal_line(self):
        p = klein_point(0.3, 0.2)
        a1, a2 = angle_ext(HLine(0, 1, 0), polar(p))
        d = abs(signed_line_distance(p, HLine(0, 1, 0)))
        assert a1.re == pytest.approx(math.pi / 2) and a1.over_i == pytest.approx(d)
        assert a2.over_i == pytest.approx(-d)

    def test_two_ideal_lines(self):
        p1, p2 = klein_point(0.25, 0.1), klein_point(-0.2, 0.3)
        a1, a2 = angle_ext(polar(p1), polar(p2))
        d = distance(p1, p2)
        assert a1.re == 0.0 and a1.over_i == pytest.approx(d, rel=1e-12)
        assert a2.re == pytest.approx(math.pi) and a2.over_i == pytest.approx(-d)

    def test_coincident_lines(self):
        with pytest.raises(CoincidentLines):
            angle_ext(HLine(0, 1, 0), HLine(0, 2, 0))

    def test_angle_times_i_is_the_polar_distance(self):
        # the correspondence between the two calculi, on a real-meet pair
        phi = 1.1
        l1 = HLine(0.0, 1.0, 0.0)
        l2 = HLine(math.sin(phi), -math.cos(phi), 0.0)
        a1, _ = angle_ext(l1, l2)
        seg, _ = distance_ext(pole(l1), pole(l2))
        # a1 * i = over_i + re * i and the poles cut a purely imaginary
        # segment of their (ideal) join, magnitude * i
        assert (a1.over_i, a1.re) == pytest.approx((0.0, seg.magnitude))


class TestConstructions:
    def test_foot_on_axis(self):
        p, l = klein_point(0, 0.4), HLine(0, 1, 0)
        foot = meet(plane.perpendicular_line(p, l), l)
        assert normalize(foot).klein() == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_perpendicular_bisector_is_the_axis(self):
        pb = normalize_line(perpendicular_bisector(klein_point(0.3, 0), klein_point(-0.3, 0)))
        # the y axis: x coefficient only
        assert abs(pb.y) < 1e-15 and abs(pb.w) < 1e-15 and abs(abs(pb.x) - 1) < 1e-15

    def test_reflection_in_a_diameter(self):
        # the diameter through (0.6, 0.2) goes to the one through (0.6, -0.2)
        got = plane.reflect_line(join(origin(), klein_point(0.6, 0.2)), HLine(0, 1, 0))
        for p in (origin(), klein_point(0.6, -0.2)):
            assert abs(mdot(normalize(p), normalize_line(got))) < 1e-15

    def test_reflect_perpendicular_line_is_the_line(self):
        # the chord x = 0.3 is perpendicular to the x-axis
        ends = (klein_point(0.3, 0.5), klein_point(0.3, -0.5))
        got = plane.reflect_line(join(*ends), HLine(0, 1, 0))
        for p in ends:
            assert abs(mdot(normalize(p), normalize_line(got))) < 1e-15

    @given(klein_points(), klein_points())
    @settings(max_examples=40)
    def test_normal_tangent_is_orthogonal_to_point_and_tangent(self, p, q):
        if distance(p, q) < 1e-3:
            return
        pn = normalize(p)
        t = HPoint(*plane.tangent_toward(pn, q))
        n = HPoint(*plane.normal_tangent(pn, t))
        assert abs(mdot(n, pn)) < 1e-12
        assert abs(mdot(n, t)) < 1e-12
        assert mdot(n, n) == pytest.approx(-1.0, rel=1e-12)

    @given(klein_points(), klein_points())
    @settings(max_examples=40)
    def test_bisector_equidistance(self, p, q):
        if distance(p, q) < 1e-3:
            return
        l = perpendicular_bisector(p, q)
        m = plane.midpoint(p, q)
        assert abs(mdot(m, normalize_line(l))) < 1e-12
        assert distance(m, p) == pytest.approx(distance(m, q), rel=1e-10)


class TestCycles:
    def test_equilateral_circle(self):
        pts = [klein_point(0.5 * math.cos(a), 0.5 * math.sin(a))
               for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
        cyc = cycle_through(*pts)
        assert cyc.kind is CycleKind.CIRCLE
        assert normalize(cyc.center).klein() == pytest.approx((0.0, 0.0), abs=1e-12)
        assert cyc.radius.re == pytest.approx(math.atanh(0.5), rel=1e-12)

    def test_hypercycle_for_a_stretched_triple(self):
        pts = [klein_point(-0.9, 0.05), klein_point(0.0, 0.4), klein_point(0.9, 0.05)]
        cyc = cycle_through(*pts)
        assert cyc.kind is CycleKind.HYPERCYCLE
        assert cyc.radius.im is Quantum.HALF_PI
        # constant distance from the axis for all three points
        axis = polar(cyc.center)
        ds = [abs(signed_line_distance(p, axis)) for p in pts]
        assert max(ds) - min(ds) < 1e-10

    def test_symmetric_triple_centers_on_the_diagonal(self):
        cyc = cycle_through(klein_point(0, 0), klein_point(0.5, 0), klein_point(0, 0.5))
        kx, ky = normalize(cyc.center).klein()
        assert kx == pytest.approx(ky, rel=1e-10)

    def test_collinear_rejected(self):
        with pytest.raises(CollinearPoints):
            cycle_through(klein_point(0, 0), klein_point(0.2, 0), klein_point(0.5, 0))

    def test_random_triples_equidistant(self):
        rng = random.Random(1)
        for _ in range(1000):
            pts = [klein_point(0.9 * rng.uniform(-1, 1), 0.9 * rng.uniform(-1, 1))
                   for _ in range(3)]
            if any(p.x ** 2 + p.y ** 2 >= 0.8 for p in pts):
                continue
            try:
                cyc = cycle_through(*pts)
            except CollinearPoints:
                continue
            if cyc.kind is CycleKind.PARACYCLE:
                continue
            res = [distance_ext(cyc.center, p)[0].re for p in pts]
            assert max(res) - min(res) < 1e-10


class TestModels:
    def test_klein_to_poincare_value(self):
        px, py = model_convert((0.5, 0.0), "klein", "poincare")
        assert px == pytest.approx(2 - math.sqrt(3), rel=1e-12)
        assert py == 0.0

    def test_poincare_to_klein_round(self):
        kx, ky = model_convert((2 - math.sqrt(3), 0.0), "poincare", "klein")
        assert kx == pytest.approx(0.5, rel=1e-12)

    def test_origin_fixed(self):
        assert model_convert((0.0, 0.0), "klein", "poincare") == (0.0, 0.0)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            model_convert((1.0, 0.2), "klein", "poincare")
        with pytest.raises(OutOfDomain):
            model_convert((0.5, 0.0), "klein", "halfplane")
        with pytest.raises(OutOfDomain):   # a hyperboloid triple is an HPoint
            model_convert((0.0, 0.0, 1.0), "hyperboloid", "klein")

    @given(disk_xy, disk_xy)
    @settings(max_examples=250)
    def test_round_trips(self, x, y):
        if x * x + y * y >= 0.95 ** 2:
            return
        mid = model_convert((x, y), "klein", "poincare")
        back = model_convert(mid, "poincare", "klein")
        assert back[0] == pytest.approx(x, abs=1e-14)
        assert back[1] == pytest.approx(y, abs=1e-14)

    def test_round_trips_seeded_batch(self):
        rng = random.Random(2)
        for _ in range(1000):
            x = 0.95 * rng.uniform(-1, 1)
            y = 0.95 * rng.uniform(-1, 1)
            if x * x + y * y >= 0.9:
                continue
            mid = model_convert((x, y), "klein", "poincare")
            back = model_convert(mid, "poincare", "klein")
            assert abs(back[0] - x) < 1e-14 and abs(back[1] - y) < 1e-14

    def test_radius_maps(self):
        # hyperbolic distance r from the origin shows up as tanh r (Klein)
        # and tanh(r/2) (Poincare)
        r = 1.3
        kx, _ = model_convert((math.tanh(r / 2), 0.0), "poincare", "klein")
        assert kx == pytest.approx(math.tanh(r), rel=1e-12)
        assert distance(origin(), klein_point(math.tanh(r), 0)) == pytest.approx(r)


# --------------------------------------------------------------------------
# The kernel reads each triple once and builds its results with
# tuple.__new__.  `_Reference` keeps each rewritten primitive written the
# way it was before (attribute reads, named-tuple constructors); the new
# primitives must give the same result class, the same float bits (sign of
# zero included) and the same exception class and message.

class _Reference:
    @staticmethod
    def mdot(u, v):
        return u.w * v.w - u.x * v.x - u.y * v.y

    @staticmethod
    def maxnorm(u):
        return max(abs(u.x), abs(u.y), abs(u.w))

    @staticmethod
    def qform_maxnorm(u, what):
        m = max(abs(u.x), abs(u.y), abs(u.w))
        if m == 0.0:
            raise ZeroVector(f"{what} the zero triple")
        return u.w * u.w - u.x * u.x - u.y * u.y, m

    @classmethod
    def classify(cls, p):
        if p.__class__ is UnitPoint:
            return PointKind.REAL
        q, m = cls.qform_maxnorm(p, "cannot classify")
        r = q / (m * m)
        if r > plane.EPS_CLS:
            return PointKind.REAL
        if r < -plane.EPS_CLS:
            return PointKind.IDEAL
        return PointKind.INFINITE

    @classmethod
    def classify_line(cls, l):
        q, m = cls.qform_maxnorm(l, "cannot classify")
        r = q / (m * m)
        if r < -plane.EPS_CLS:
            return LineKind.REAL
        if r > plane.EPS_CLS:
            return LineKind.IDEAL
        return LineKind.AT_INFINITY

    @classmethod
    def mcross(cls, u, v, error, message):
        cx = u.y * v.w - u.w * v.y
        cy = u.w * v.x - u.x * v.w
        cw = u.x * v.y - u.y * v.x
        if max(abs(cx), abs(cy), abs(cw)) <= 1e-14 * (cls.maxnorm(u) * cls.maxnorm(v)):
            raise error(message)
        return (-cx, -cy, cw)

    @classmethod
    def join(cls, p, q):
        return HLine(*cls.mcross(p, q, CoincidentArguments, "join of proportional points"))

    @classmethod
    def meet(cls, l, m):
        return HPoint(*cls.mcross(l, m, CoincidentArguments, "meet of proportional lines"))

    @classmethod
    def polar(cls, p):
        if cls.maxnorm(p) == 0.0:
            raise ZeroVector("polar of the zero triple")
        return HLine(p.x, p.y, p.w)

    @classmethod
    def pole(cls, l):
        if cls.maxnorm(l) == 0.0:
            raise ZeroVector("pole of the zero triple")
        return HPoint(l.x, l.y, l.w)

    @classmethod
    def normalize(cls, p):
        if p.__class__ is UnitPoint:
            return p
        q, m = cls.qform_maxnorm(p, "normalize of")
        r = q / (m * m)
        if r > plane.EPS_CLS:
            s = 1.0 / math.sqrt(q)
            if p.w < 0:
                s = -s
            return UnitPoint(p.x * s, p.y * s, p.w * s)
        if r < -plane.EPS_CLS:
            s = 1.0 / math.sqrt(-q)
            return HPoint(p.x * s, p.y * s, p.w * s)
        return HPoint(p.x / m, p.y / m, p.w / m)

    @classmethod
    def normalize_line(cls, l):
        q, m = cls.qform_maxnorm(l, "normalize of")
        r = q / (m * m)
        if r < -plane.EPS_CLS:
            s = 1.0 / math.sqrt(-q)
            return HLine(l.x * s, l.y * s, l.w * s)
        if r > plane.EPS_CLS:
            s = 1.0 / math.sqrt(q)
            return HLine(l.x * s, l.y * s, l.w * s)
        return HLine(l.x / m, l.y / m, l.w / m)

    @classmethod
    def distance(cls, p, q):
        pn, qn = cls.normalize(p), cls.normalize(q)
        c = cls.mdot(pn, qn)
        if c < 1.005:
            dv = (pn.x - qn.x, pn.y - qn.y, pn.w - qn.w)
            s2 = dv[0] * dv[0] + dv[1] * dv[1] - dv[2] * dv[2]
            return 2.0 * math.asinh(0.5 * math.sqrt(max(s2, 0.0)))
        return plane.acosh_clamped(c)

    @classmethod
    def tangent_toward(cls, p, q):
        pn, qn = cls.normalize(p), cls.normalize(q)
        c = cls.mdot(pn, qn)
        dv = (pn.x - qn.x, pn.y - qn.y, pn.w - qn.w)
        half2 = dv[0] * dv[0] + dv[1] * dv[1] - dv[2] * dv[2]
        s = math.sqrt(max(half2 * (1.0 + 0.25 * half2), 0.0))
        if s == 0.0:
            raise IdenticalPoints("tangent direction between coincident points")
        return ((qn.x - c * pn.x) / s, (qn.y - c * pn.y) / s, (qn.w - c * pn.w) / s)

    @staticmethod
    def tangent_angle(t1, t2):
        c = -(t1[2] * t2[2] - t1[0] * t2[0] - t1[1] * t2[1])
        return math.acos(min(1.0, max(-1.0, c)))

    @staticmethod
    def geodesic_point(p, t, u):
        cu, su = math.cosh(u), math.sinh(u)
        return HPoint(cu * p.x + su * t[0], cu * p.y + su * t[1], cu * p.w + su * t[2])

    @classmethod
    def arc_coordinate(cls, f, t):
        return math.asinh(-cls.mdot(cls.normalize(f), HPoint(*t)))

    @staticmethod
    def normal_tangent(p, t):
        cx = p.y * t[2] - p.w * t[1]
        cy = p.w * t[0] - p.x * t[2]
        cw = p.x * t[1] - p.y * t[0]
        return (-cx, -cy, cw)

    @classmethod
    def midpoint(cls, p, q):
        pn, qn = cls.normalize(p), cls.normalize(q)
        return cls.normalize(HPoint(pn.x + qn.x, pn.y + qn.y, pn.w + qn.w))

    @classmethod
    def perpendicular_bisector(cls, p, q):
        pn, qn = cls.normalize(p), cls.normalize(q)
        l = HLine(pn.x - qn.x, pn.y - qn.y, pn.w - qn.w)
        if cls.maxnorm(l) <= 1e-15:
            raise IdenticalPoints("bisector of coincident points")
        return l

    @classmethod
    def complementary_bisector(cls, p, q):
        pn, qn = cls.normalize(p), cls.normalize(q)
        return HLine(pn.x + qn.x, pn.y + qn.y, pn.w + qn.w)

    @classmethod
    def reflect_line(cls, m, l):
        q = l.w * l.w - l.x * l.x - l.y * l.y
        if q == 0.0:
            raise ZeroVector("reflection in a degenerate (tangent) line")
        k = 2.0 * cls.mdot(m, l) / q
        return HLine(m.x - k * l.x, m.y - k * l.y, m.w - k * l.w)

    # the extended calculus, as it was written before `distance_ext`
    # dispatched on the first point's kind and `angle_ext` shared its cross
    # product with the poles' join

    @classmethod
    def radius_ext(cls, center, kind, p):
        if kind is PointKind.REAL:
            return ExtLength(cls.distance(center, p))
        if kind is PointKind.IDEAL:
            l = cls.polar(center)
            d = math.asinh(cls.mdot(cls.normalize(p), cls.normalize_line(l)))
            return ExtLength(abs(d), Quantum.HALF_PI)
        return ExtLength(math.inf)

    @classmethod
    def line_angle_at(cls, u, v):
        un, vn = cls.normalize_line(u), cls.normalize_line(v)
        c = abs(cls.mdot(un, vn))
        return math.acos(min(1.0, max(-1.0, c)))

    @classmethod
    def distance_ext(cls, a, b):
        R, IN, ID = PointKind.REAL, PointKind.INFINITE, PointKind.IDEAL
        try:
            l = cls.join(a, b)
        except CoincidentArguments:
            raise IdenticalPoints("distance between coincident projective points")
        ka, kb = cls.classify(a), cls.classify(b)
        if ka is R and kb is R:
            first = cls.radius_ext(a, R, b)
            return (first, ExtLength(-first.re, Quantum.PI))
        if (ka is R and kb is ID) or (ka is ID and kb is R):
            first = cls.radius_ext(a, ID, b) if ka is ID else cls.radius_ext(b, ID, a)
            return (first, ExtLength(-first.re, Quantum.HALF_PI))
        if R in (ka, kb):
            return (ExtLength(math.inf), ExtLength(-math.inf))
        lk = cls.classify_line(l)
        if ka is IN and kb is IN:
            return (ExtLength(math.inf), ExtLength(-math.inf))
        if IN in (ka, kb):
            if lk is LineKind.AT_INFINITY:
                h = ExtLength(0.0, Quantum.HALF_PI)
                return (h, h)
            return (ExtLength(math.inf), ExtLength(-math.inf))
        if lk is LineKind.REAL:
            an, bn = cls.normalize(a), cls.normalize(b)
            d = plane.acosh_clamped(abs(cls.mdot(an, bn)))
            return (ExtLength(d, Quantum.PI), ExtLength(-d))
        if lk is LineKind.AT_INFINITY:
            return (ExtLength(0.0), ExtLength(0.0, Quantum.PI))
        phi = cls.line_angle_at(cls.polar(a), cls.polar(b))
        return (PureImaginary(phi), PureImaginary(math.pi - phi))

    @staticmethod
    def length_to_angle(x):
        if isinstance(x, PureImaginary):
            return plane.ExtAngle(x.magnitude, 0.0)
        if math.isinf(x.re):
            return plane.ExtAngle(x.re)
        return plane.ExtAngle(x.im.radians, x.re)

    @classmethod
    def angle_ext(cls, a, b):
        cls.mcross(a, b, CoincidentLines, "angle of proportional lines")
        first, second = cls.distance_ext(cls.pole(a), cls.pole(b))
        if (isinstance(first, ExtLength) and first.finite
                and first.im is Quantum.PI and second.im is Quantum.ZERO):
            return (plane.ExtAngle(0.0, first.re), plane.ExtAngle(math.pi, -first.re))
        return (cls.length_to_angle(first), cls.length_to_angle(second))


def _agree(got, want) -> bool:
    """Whether the kernel's outcome is the reference's.  Where the reference
    divides by a max-norm squared that underflowed (ZeroDivisionError), the
    kernel rescales the triple first and must not raise ZeroDivisionError;
    on every other input the outcomes are the same."""
    if want[:2] == ("raise", ZeroDivisionError):
        return got[:2] != ("raise", ZeroDivisionError)
    return got == want


# (name, argument kinds): "p" a point (HPoint or UnitPoint), "l" a line,
# "t" a unit tangent, "u" an arc length, "k" a point kind
_KERNEL = [
    ("mdot", "pl"), ("classify", "p"), ("classify_line", "l"),
    ("join", "pp"), ("meet", "ll"), ("polar", "p"), ("pole", "l"),
    ("normalize", "p"), ("normalize_line", "l"), ("distance", "pp"),
    ("tangent_toward", "pp"), ("tangent_angle", "tt"), ("geodesic_point", "ptu"), ("arc_coordinate", "pt"),
    ("normal_tangent", "pt"), ("midpoint", "pp"),
    ("perpendicular_bisector", "pp"), ("complementary_bisector", "pp"),
    ("reflect_line", "ll"), ("distance_ext", "pp"), ("radius_ext", "pkp"),
    ("angle_ext", "ll"),
]


def _new_and_reference(name):
    ref = {"_mcross": "mcross"}.get(name, name)
    return getattr(plane, name), getattr(_Reference, ref)


# special triples: the zero triple, boundary points, signed zeros,
# proportional and coincident pairs are drawn from here as well
_SPECIAL = [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, 0.0, 1.0), (0.6, -0.8, 1.0),
            (0.0, 0.0, 1.0), (-0.0, -0.0, -1.0), (0.3, 0.2, 0.05), (0.0, 1.0, 0.0),
            (2.0, 0.5, 1.0), (1e-300, 0.0, 1e-300), (0.25, -0.1, 0.5)]


# more special triples for the extended calculus: ideal points whose joins
# are ideal, tangent and real lines, a boundary point with ideal points on its
# tangent, a negated real point and a tiny triple led by -0.0
_EXT_SPECIAL = [(3.0, 0.0, 1.0), (1.0, 0.5, 1.0), (1.0, -0.5, 1.0), (2.0, -1.0, 1.0),
                (0.0, 0.0, -1.0), (0.0, -2.0, 1.0), (-0.0, 0.0, 1e-300)]


def _shape(result):
    """The branch of the extended calculus an outcome shows: the error
    class, or the class of the first member with its quantum (a length's)
    and whether its real part is finite."""
    if result[0] == "raise":
        return ("raise", result[1])
    first_cls, first = result[1][1][0]
    if first_cls is PureImaginary:
        return (first_cls,)
    finite = math.isfinite(struct.unpack("<d", first[0][1])[0])
    if first_cls is ExtLength:
        return (first_cls, first[1], finite)
    return (first_cls, finite)


def _random_triple(rng):
    pick = rng.random()
    if pick < 0.15:
        return rng.choice(_SPECIAL)
    if pick < 0.6:   # inside the disk, any scale and sign of w
        r, th = 0.95 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
        s = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(-3, 3))
        return (s * r * math.cos(th), s * r * math.sin(th), s)
    return tuple(rng.uniform(-3, 3) for _ in range(3))


def _argument(kind, rng, previous):
    if kind == "u":
        return rng.uniform(-4, 4)
    if kind == "k":
        return rng.choice(list(PointKind))
    if kind == "t":
        p = normalize(klein_point(0.3 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1)))
        q = klein_point(0.6 * rng.uniform(-1, 1), 0.6 * rng.uniform(-1, 1))
        try:
            return plane.tangent_toward(p, q)
        except IdenticalPoints:
            return (1.0, 0.0, 0.0)
    if previous and rng.random() < 0.2:   # proportional to, or the same as, an earlier one
        k = rng.choice((1.0, -2.5, 1e-3))
        triple = tuple(k * c for c in previous[-1])
    else:
        triple = _random_triple(rng)
    if kind == "l":
        return HLine(*triple)
    p = HPoint(*triple)
    if rng.random() < 0.4:
        try:
            return normalize(p)   # a UnitPoint when p is real
        except ZeroVector:   # the zero triple
            return p
    return p


class TestKernelAgainstReference:
    @pytest.mark.parametrize("name, kinds", _KERNEL, ids=[n for n, _ in _KERNEL])
    def test_seeded_arguments(self, name, kinds):
        new, ref = _new_and_reference(name)
        rng = random.Random(f"kernel:{name}")
        raised = 0
        for _ in range(3000):
            args = []
            for kind in kinds:
                args.append(_argument(kind, rng, [a for a in args if isinstance(a, tuple)]))
            got, want = outcome(new, *args), outcome(ref, *args)
            assert _agree(got, want), (name, args)
            raised += got[0] == "raise"
        if name in ("join", "meet", "polar", "pole", "normalize", "normalize_line",
                    "distance_ext", "radius_ext", "angle_ext"):
            assert raised > 0, name   # the error paths were reached

    @pytest.mark.parametrize("name, kinds", [(n, k) for n, k in _KERNEL if set(k) <= set("pl")],
                             ids=[n for n, k in _KERNEL if set(k) <= set("pl")])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_arguments(self, name, kinds, data):
        new, ref = _new_and_reference(name)
        coord = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
        args = []
        for kind in kinds:
            x, y, w = data.draw(st.tuples(coord, coord, coord))
            if kind == "l":
                args.append(HLine(x, y, w))
            elif data.draw(st.booleans()) and w * w - x * x - y * y > 0:
                args.append(normalize(HPoint(x, y, w)))
            else:
                args.append(HPoint(x, y, w))
        assert _agree(outcome(new, *args), outcome(ref, *args))

    @pytest.mark.parametrize("a, b", [
        (HPoint(0.1, 0.2, 1.0), HPoint(0.2, 0.4, 2.0)),
        (HLine(0.3, -0.1, 0.2), HLine(-0.6, 0.2, -0.4)),
        (HPoint(0.0, 0.0, 0.0), HPoint(0.1, 0.2, 1.0)),
        (HPoint(0.1, 0.2, 1.0), HPoint(0.1, 0.2, 1.0)),
        (normalize(HPoint(0.1, 0.2, 1.0)), HPoint(-0.1, -0.2, -1.0)),
    ], ids=["proportional-points", "proportional-lines", "zero", "coincident", "unit-and-negated"])
    def test_degenerate_pairs_raise_alike(self, a, b):
        for name in ("mdot", "join", "meet", "distance", "tangent_toward", "midpoint",
                     "perpendicular_bisector", "complementary_bisector",
                     "reflect_line", "_mcross",
                     "distance_ext", "angle_ext"):
            new, ref = _new_and_reference(name)
            extra = (CoincidentArguments, "m") if name == "_mcross" else ()
            assert outcome(new, a, b, *extra) == outcome(ref, a, b, *extra), name
        for name in ("polar", "pole", "normalize", "normalize_line", "classify",
                     "classify_line"):
            new, ref = _new_and_reference(name)
            assert outcome(new, a) == outcome(ref, a), name

    def test_extended_calculus_on_special_pairs(self):
        # every ordered pair of special triples, and each triple with a
        # multiple of itself: as points for `distance_ext` and `radius_ext`
        # (plain, and in unit form when real), as lines for `angle_ext`
        triples = _SPECIAL + _EXT_SPECIAL
        pairs = [(a, b) for a in triples for b in triples]
        pairs += [(a, tuple(k * c for c in a)) for a in triples for k in (1.0, -2.5, 1e-3)]
        shapes = set()
        for a, b in pairs:
            points = [(HPoint(*a), HPoint(*b))]
            if a != (0.0, 0.0, 0.0) and classify(HPoint(*a)) is PointKind.REAL:
                points.append((normalize(HPoint(*a)), HPoint(*b)))
            for p, q in points:
                want = outcome(_Reference.distance_ext, p, q)
                assert _agree(outcome(distance_ext, p, q), want), (p, q)
                shapes.add(("distance_ext", *_shape(want)))
                for kind in PointKind:
                    assert _agree(outcome(plane.radius_ext, p, kind, q),
                                  outcome(_Reference.radius_ext, p, kind, q)), (p, kind, q)
            want = outcome(_Reference.angle_ext, HLine(*a), HLine(*b))
            assert _agree(outcome(angle_ext, HLine(*a), HLine(*b)), want), (a, b)
            shapes.add(("angle_ext", *_shape(want)))
        # every branch of the segment table was reached
        assert {("distance_ext", "raise", IdenticalPoints),
                ("distance_ext", ExtLength, Quantum.ZERO, True),
                ("distance_ext", ExtLength, Quantum.HALF_PI, True),
                ("distance_ext", ExtLength, Quantum.PI, True),
                ("distance_ext", ExtLength, Quantum.ZERO, False),
                ("distance_ext", PureImaginary),
                ("angle_ext", "raise", CoincidentLines),
                ("angle_ext", plane.ExtAngle, True),
                ("angle_ext", plane.ExtAngle, False)} - shapes == set()

    @pytest.mark.parametrize("name, kinds", [(n, k) for n, k in _KERNEL if set(k) <= set("pl")],
                             ids=[n for n, k in _KERNEL if set(k) <= set("pl")])
    def test_nan_coordinates(self, name, kinds):
        # a NaN of either sign in any coordinate: the max-norm keeps it
        # where `max(abs(.), ...)` put it, with the same sign bit, and the
        # NaN defeats the proportionality tests; (0, nan, 0) has max-norm 0,
        # so `pole` and `classify` are what raise for it
        new, ref = _new_and_reference(name)
        nan_triples = [t[:i] + (nan,) + t[i + 1:] for nan in (math.nan, -math.nan)
                       for t in ((0.0, 0.0, 0.0), (0.5, -0.3, 1.0), (2.0, 0.5, 1.0))
                       for i in range(3)]
        pairs = [(a, b) for a in nan_triples for b in _SPECIAL + _EXT_SPECIAL + nan_triples]
        calls = [(t,) for t in nan_triples] if len(kinds) == 1 else pairs + [
            (b, a) for a, b in pairs]
        kind_of = {"p": HPoint, "l": HLine}
        for triples in calls:
            args = [kind_of[k](*t) for k, t in zip(kinds, triples)]
            assert _agree(outcome(new, *args), outcome(ref, *args)), (name, args)

    def test_clamps_at_their_edges(self):
        # `distance` and `tangent_toward` clamp a difference-vector square
        # that rounds below 0 for nearby points; `tangent_angle` clamps its
        # cosine to [-1, 1] and sends a NaN to -1
        rng = random.Random("clamps")
        clamped = 0
        for _ in range(3000):
            p = normalize(klein_point(rng.uniform(-0.9, 0.9) * 0.7, rng.uniform(-0.9, 0.9) * 0.7))
            t = plane.tangent_toward(p, klein_point(0.05, -0.02))
            q = plane.geodesic_point(p, t, rng.choice((0.0, 1e-17, 1e-12, 1e-9, 1e-3)))
            for args in ((p, q), (q, p), (p, p), (p, normalize(q))):
                for name in ("distance", "tangent_toward"):
                    new, ref = _new_and_reference(name)
                    assert _agree(outcome(new, *args), outcome(ref, *args)), (name, args)
            px, py, pw = p
            qx, qy, qw = normalize(q)
            dx, dy, dw = px - qx, py - qy, pw - qw
            clamped += dx * dx + dy * dy - dw * dw < 0.0
        assert clamped > 0   # the clamp was reached
        edges = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
                 1.0 + 1e-12, -1.0 - 1e-12, 0.5, -0.5, INF, -INF, math.nan, -math.nan]
        for c in edges:
            # three tangent pairs whose -<t1, t2> is c, with signed zeros in
            # the other products
            for t1, t2 in (((0.0, 0.0, 1.0), (0.0, 0.0, -c)), ((1.0, 0.0, 0.0), (c, 0.0, 0.0)),
                           ((-0.0, 1.0, -0.0), (0.0, c, 0.0))):
                assert (outcome(plane.tangent_angle, t1, t2)
                        == outcome(_Reference.tangent_angle, t1, t2)), (t1, t2)

    def test_angle_ext_on_every_angle_cell(self):
        from hypertri.registry import ANGLE_CASES
        for name, (lines, _expected) in ANGLE_CASES.items():
            for d in (0.05, 0.4, 0.9, 1.5):
                a, b = lines(d)
                for pair in ((a, b), (b, a)):
                    assert (outcome(angle_ext, *pair)
                            == outcome(_Reference.angle_ext, *pair)), (name, d, pair)

    def test_unit_point_max_norm_is_its_w(self):
        rng = random.Random(7)
        seen = 0
        for _ in range(20000):
            p = HPoint(*_random_triple(rng))
            try:
                u = normalize(p)
            except ZeroVector:
                continue
            if u.__class__ is not UnitPoint:
                continue
            seen += 1
            x, y, w = u
            assert plane._maxnorm(u) == max(abs(x), abs(y), abs(w)) == w
        assert seen > 5000

    @given(disk_xy, disk_xy, st.floats(-1e3, 1e3).filter(lambda s: abs(s) > 1e-6))
    @settings(max_examples=200)
    def test_unit_point_max_norm_property(self, kx, ky, scale):
        assume(kx * kx + ky * ky < 0.95)
        u = normalize(HPoint(kx * scale, ky * scale, scale))
        assert u.__class__ is UnitPoint
        x, y, w = u
        assert plane._maxnorm(u) == max(abs(x), abs(y), abs(w))
