import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypertri import plane
from hypertri.errors import (
    CoincidentArguments,
    CoincidentLines,
    CollinearPoints,
    IdenticalPoints,
    OutOfDomain,
    ZeroVector,
)
from hypertri.extscalar import ExtLength, PointKind, PureImaginary, Quantum
from hypertri.plane import (
    CycleKind,
    HLine,
    HPoint,
    angle_bisectors,
    angle_ext,
    classify,
    classify_line,
    cycle_through,
    distance,
    distance_ext,
    foot_of_perpendicular,
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
    reflect,
    signed_line_distance,
    UnitPoint,
)

INF = math.inf

disk_xy = st.floats(min_value=-0.85, max_value=0.85)


def klein_points(max_r=0.9):
    def build(x, y):
        return klein_point(x, y)
    return st.builds(build, disk_xy, disk_xy).filter(
        lambda p: p.x ** 2 + p.y ** 2 < max_r ** 2)


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


class TestUnitPoint:
    def test_real_points_normalize_to_unit_points(self):
        for p in (origin(), klein_point(0.3, -0.4), HPoint(-0.2, 0.1, -2.0)):
            u = normalize(p)
            assert u.__class__ is UnitPoint
            assert plane.qform(u) == pytest.approx(1.0, rel=1e-15) and u.w > 0

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
        (lambda: foot_of_perpendicular(HPoint(0.2, 0.1, 0.05), HLine(0.4, 0.2, 0.1)),
         CoincidentArguments, "point is the pole of the line"),
        (lambda: angle_bisectors(origin(), HLine(0.0, 1.0, 0.0), HLine(0.0, 3.0, 0.0)),
         CoincidentLines, "bisectors of one line"),
        (lambda: angle_ext(HLine(1.0, 0.5, 0.2), HLine(-1.0, -0.5, -0.2)),
         CoincidentLines, "angle of proportional lines"),
        (lambda: distance_ext(HPoint(0.1, 0.2, 1.0), HPoint(0.25, 0.5, 2.5)),
         IdenticalPoints, "distance between coincident projective points"),
    ], ids=["join", "meet", "foot", "angle_bisectors", "angle_ext", "distance_ext"])
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
        assert (a1.as_complex() * 1j).imag == pytest.approx(seg.as_complex().imag)


class TestConstructions:
    def test_foot_on_axis(self):
        foot = foot_of_perpendicular(klein_point(0, 0.4), HLine(0, 1, 0))
        assert normalize(foot).klein() == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_perpendicular_bisector_is_the_axis(self):
        pb = normalize_line(perpendicular_bisector(klein_point(0.3, 0), klein_point(-0.3, 0)))
        # the y axis: x coefficient only
        assert abs(pb.y) < 1e-15 and abs(pb.w) < 1e-15 and abs(abs(pb.x) - 1) < 1e-15

    def test_reflection_in_a_diameter(self):
        got = reflect(klein_point(0.2, 0.1), HLine(0, 1, 0))
        assert normalize(got).klein() == pytest.approx((0.2, -0.1))

    def test_reflect_point_on_line(self):
        p = klein_point(0.2, 0.0)
        got = reflect(p, HLine(0, 1, 0))
        assert normalize(got).klein() == pytest.approx((0.2, 0.0))

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
        assert plane.qform(n) == pytest.approx(-1.0, rel=1e-12)

    @given(klein_points(), klein_points())
    @settings(max_examples=40)
    def test_bisector_equidistance(self, p, q):
        if distance(p, q) < 1e-3:
            return
        l = perpendicular_bisector(p, q)
        m = plane.midpoint(p, q)
        assert abs(mdot(m, normalize_line(l))) < 1e-12
        assert distance(m, p) == pytest.approx(distance(m, q), rel=1e-10)


class TestBisectors:
    def test_pair_is_minkowski_orthogonal_and_equidistant(self):
        va = klein_point(0.1, 0.05)
        l1 = join(va, klein_point(0.6, 0.1))
        l2 = join(va, klein_point(0.2, 0.55))
        b1, b2 = plane.angle_bisectors(va, l1, l2)
        assert abs(mdot(b1, b2)) < 1e-12
        # points of either bisector are equidistant from the two lines
        for b in (b1, b2):
            foot = normalize(plane.foot_of_perpendicular(klein_point(0.15, 0.12), b))
            d1 = abs(signed_line_distance(foot, l1))
            d2 = abs(signed_line_distance(foot, l2))
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_coincident_lines_rejected(self):
        l = HLine(0.0, 1.0, 0.0)
        with pytest.raises(CoincidentLines):
            plane.angle_bisectors(origin(), l, HLine(0.0, 2.0, 0.0))


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
        assert model_convert((0.0, 0.0, 1.0), "hyperboloid", "klein") == (0.0, 0.0)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            model_convert((1.0, 0.2), "klein", "poincare")
        with pytest.raises(OutOfDomain):
            model_convert((0.5, 0.0), "klein", "halfplane")

    @given(disk_xy, disk_xy)
    @settings(max_examples=250)
    def test_round_trips(self, x, y):
        if x * x + y * y >= 0.95 ** 2:
            return
        for a, b in (("klein", "poincare"), ("klein", "hyperboloid"),
                     ("poincare", "hyperboloid")):
            mid = model_convert((x, y), a, b)
            back = model_convert(mid, b, a)
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
