import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypertri import plane, trig
from hypertri.errors import (
    DegenerateTriangle,
    FootOutsideSegment,
    IdenticalPoints,
    NoSolution,
    OutOfDomain,
    OverflowRisk,
    ZeroVector,
)
from hypertri.extscalar import PointKind
from hypertri.generate import gen_triangle
from hypertri.plane import distance, geodesic_point, klein_point, midpoint
from hypertri.trig import (
    cevian_ratio,
    point_from_coords,
    proportionality_residual,
    solve_from_angles,
    solve_from_sides,
    solve_from_vertices,
    stewart_residual,
    tri_coords,
)

from outcomes import image, outcome

sinh, cosh = math.sinh, math.cosh


@pytest.fixture
def t0():
    """Right isosceles triangle: Klein (0,0), (0.5,0), (0,0.5)."""
    return solve_from_vertices(klein_point(0, 0), klein_point(0.5, 0),
                               klein_point(0, 0.5))


def random_triangle(rng, maxr=0.85, min_angle=0.12, min_side=0.12):
    while True:
        pts = [klein_point(maxr * math.sqrt(rng.random()) * math.cos(a),
                           maxr * math.sqrt(rng.random()) * math.sin(a))
               for a in (2 * math.pi * rng.random(),
                         2 * math.pi * rng.random(),
                         2 * math.pi * rng.random())]
        try:
            t = solve_from_vertices(*pts)
        except Exception:
            continue
        if min(t.alpha, t.beta, t.gamma) >= min_angle and min(t.a, t.b, t.c) >= min_side:
            return t


class TestSolving:
    def test_t0_sides_and_angles(self, t0):
        assert t0.a == pytest.approx(math.acosh(4 / 3), rel=1e-12)
        assert t0.b == pytest.approx(math.atanh(0.5), rel=1e-12)
        assert t0.c == pytest.approx(math.atanh(0.5), rel=1e-12)
        assert t0.alpha == pytest.approx(math.pi / 2, abs=1e-12)
        assert t0.beta == pytest.approx(t0.gamma, rel=1e-12)

    def test_t0_staudtian(self, t0):
        # n = (1/2) sin(alpha) sinh(b) sinh(c) with alpha = pi/2 and
        # sinh(artanh 1/2) = 1/sqrt(3), so n = 1/6
        assert t0.n == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_equilateral_from_angles(self):
        t = solve_from_angles(math.pi / 6, math.pi / 6, math.pi / 6)
        expect = (math.cos(math.pi / 6) + math.cos(math.pi / 6) ** 2) / math.sin(math.pi / 6) ** 2
        assert cosh(t.a) == pytest.approx(expect, rel=1e-12)
        assert t.a == t.b == t.c

    def test_zero_defect_rejected(self):
        with pytest.raises(DegenerateTriangle):
            solve_from_angles(math.pi / 2, math.pi / 4, math.pi / 4)

    def test_angle_sum_a_rounding_below_pi_is_out_of_domain(self):
        # the angles sum to 4.4e-16 below pi: a side's cosh lands below 1
        # by more than acosh_clamped's slack
        with pytest.raises(OutOfDomain):
            solve_from_angles(0.056331857755617394, 0.0018175770050048927, 3.0834432188291703)

    def test_triangle_inequality_enforced(self):
        with pytest.raises(DegenerateTriangle):
            solve_from_sides(3.0, 1.0, 1.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowRisk):
            solve_from_sides(60.0, 60.0, 60.0)

    def test_sides_angles_round_trip(self):
        rng = random.Random(9)
        for _ in range(50):
            t = random_triangle(rng)
            t2 = solve_from_angles(t.alpha, t.beta, t.gamma)
            assert t2.a == pytest.approx(t.a, rel=1e-9)
            assert t2.b == pytest.approx(t.b, rel=1e-9)
            assert t2.c == pytest.approx(t.c, rel=1e-9)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=120)
    def test_law_of_sines_property(self, a, b, c):
        try:
            t = solve_from_sides(a, b, c)
        except DegenerateTriangle:
            return
        ratios = [sinh(t.a) / math.sin(t.alpha), sinh(t.b) / math.sin(t.beta),
                  sinh(t.c) / math.sin(t.gamma)]
        assert max(ratios) - min(ratios) < 1e-10 * max(ratios)


class TestAreaForms:
    def test_area_is_the_defect(self, t0):
        assert t0.area == pytest.approx(math.pi - (t0.alpha + t0.beta + t0.gamma))
        assert t0.area > 0

    def test_defect_is_the_solved_area_to_the_bit(self):
        # both vertex orders, so the orientation swap is exercised
        rng = random.Random(11)
        for _ in range(200):
            pts = [klein_point(*(0.9 * rng.uniform(-0.7, 0.7) for _ in "xy")) for _ in "abc"]
            try:
                area = solve_from_vertices(*pts).area
            except DegenerateTriangle:
                continue
            assert trig.defect(*pts) == area
            assert trig.defect(pts[0], pts[2], pts[1]) == area

    def test_solve_measures_each_side_once_to_the_bit(self):
        # the solve takes each side's length and both end tangents from one
        # `plane.segment`: angle i is `vertex_angle(v_i, v_j, v_k)` and side
        # i `distance(v_j, v_k)` bit for bit, in both vertex orders, and the
        # triangle keeps `tangent_toward(v_j, v_k)` as side i's tangent
        rng = random.Random(39)
        solved = 0
        for _ in range(300):
            pts = [klein_point(*(rng.uniform(-0.7, 0.7) for _ in "xy")) for _ in "abc"]
            for order in (pts, [pts[0], pts[2], pts[1]]):
                try:
                    t = solve_from_vertices(*order)
                except DegenerateTriangle:
                    continue
                solved += 1
                v = t.vertices
                for i, (j, k) in enumerate(trig.SIDE_ENDS):
                    assert image(t.angles[i]) == image(plane.vertex_angle(v[i], v[j], v[k]))
                    assert image(t.sides[i]) == image(distance(v[j], v[k]))
                    assert image(t.side_tangents[i]) == image(plane.tangent_toward(v[j], v[k]))
        assert solved > 500

    def test_coincident_vertices_raise_as_before(self, monkeypatch):
        # a zero side stops the solve in `_validate_sides`, before any
        # tangent is read, and `defect` raises IdenticalPoints as
        # `tangent_toward` did; `_oriented` is bypassed, since its
        # collinearity test turns down every pair of coincident vertices
        p, q = plane.normalize(klein_point(0.1, 0.2)), plane.normalize(klein_point(-0.3, 0.4))
        assert outcome(solve_from_vertices, p, p, q) == (
            "raise", DegenerateTriangle, "vertices are (numerically) collinear")
        monkeypatch.setattr(trig, "_oriented", lambda *vs: list(vs))
        for vs in ((p, p, q), (p, q, q), (q, p, q)):
            assert outcome(solve_from_vertices, *vs) == (
                "raise", DegenerateTriangle, "side 0.0 is not positive")
            assert outcome(trig.defect, *vs) == (
                "raise", IdenticalPoints, "tangent direction between coincident points")

    def test_defect_rejects_collinear_points(self):
        with pytest.raises(DegenerateTriangle, match="collinear"):
            trig.defect(klein_point(0.0, 0.0), klein_point(0.1, 0.0), klein_point(0.2, 0.0))

    def test_tiny_triangle_area_vanishes(self):
        t = solve_from_sides(1e-3, 1e-3, 1.2e-3)
        assert 0 < t.area < 1e-5

    def test_heron(self, t0):
        lhs, rhs = trig.heron_parts(t0)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_staudtian_identities(self):
        rng = random.Random(4)
        for _ in range(40):
            t = random_triangle(rng)
            assert 2 * t.n ** 2 == pytest.approx(
                t.bign * sinh(t.a) * sinh(t.b) * sinh(t.c), rel=1e-12)
            assert t.bign / t.n == pytest.approx(math.sin(t.alpha) / sinh(t.a), rel=1e-10)
            lhs = math.sin(t.alpha / 2) * math.sin(t.beta / 2) * math.sin(t.gamma / 2)
            rhs = t.n ** 2 / (sinh(t.s) * sinh(t.a) * sinh(t.b) * sinh(t.c))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_staudtian_invariant_under_permutation(self):
        t = solve_from_sides(1.0, 0.8, 0.7)
        assert trig.staudtian(0.8, 0.7, 1.0) == pytest.approx(t.n, rel=1e-14)


class TestTriangularCoordinates:
    def test_vertex_coordinates(self, t0):
        k = tri_coords(t0.vertices[0], t0)
        assert k[0] == pytest.approx(t0.n, rel=1e-10)
        assert abs(k[1]) < 1e-15 and abs(k[2]) < 1e-15

    def test_centroid_reconstruction(self, t0):
        m = point_from_coords((1.0, 1.0, 1.0), t0)
        back = tri_coords(m, t0)
        assert proportionality_residual(back, (1, 1, 1)) < 1e-10

    def test_incenter_coordinates_give_equal_side_distances(self, t0):
        k = (sinh(t0.a), sinh(t0.b), sinh(t0.c))
        i_pt = point_from_coords(k, t0)
        ds = [abs(plane.signed_line_distance(i_pt, t0.side_line(i))) for i in range(3)]
        assert max(ds) - min(ds) < 1e-10

    def test_vertex_reconstruction(self, t0):
        v = point_from_coords((1.0, 0.0, 0.0), t0)
        assert distance(v, t0.vertices[0]) < 1e-12

    def test_round_trip_random(self):
        rng = random.Random(17)
        t = random_triangle(rng)
        for _ in range(25):
            k = (rng.random() + 0.05, rng.random() + 0.05, rng.random() + 0.05)
            x = point_from_coords(k, t)
            assert proportionality_residual(tri_coords(x, t), k) < 1e-9

    @pytest.mark.parametrize("coords, kind", [
        # the excenter opposite the right angle of this triangle is ideal
        (lambda t: (-sinh(t.a), sinh(t.b), sinh(t.c)), PointKind.IDEAL),
        (lambda t: (-1.0, -1.0, 1.0), PointKind.REAL),
    ], ids=["ideal-excenter", "two-negative"])
    def test_exterior_coords_reach_their_point(self, t0, coords, kind):
        k = coords(t0)
        x = point_from_coords(k, t0)
        # the Minkowski form of the vertex sum, from the side lengths alone,
        # says which kind of point it is
        cosh_sides = [cosh(s) for s in t0.sides]
        form = sum(v * v for v in k) + 2.0 * sum(k[j] * k[kk] * cosh_sides[i]
                                                 for i, (j, kk) in enumerate(trig.SIDE_ENDS))
        assert (form > 0) == (kind is PointKind.REAL)
        assert plane.classify(x) is kind
        assert proportionality_residual(tri_coords(x, t0), k) < 1e-14

    def test_zero_triple_has_no_point(self, t0):
        with pytest.raises(ZeroVector):
            point_from_coords((0.0, 0.0, 0.0), t0)

    def test_round_trip_on_a_tiny_triangle(self):
        # Klein size 1e-6: the coordinates are of order 1e-13, yet the
        # vertex sum reproduces them, signs included
        s = 1e-6
        t = solve_from_vertices(klein_point(0, 0), klein_point(s, 0), klein_point(0.3 * s, 0.8 * s))
        rng = random.Random(5)
        for _ in range(50):
            k = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            x = point_from_coords(k, t)
            assert proportionality_residual(tri_coords(x, t), k) < 1e-12

    def test_coords_are_the_staudtian_products_bit_for_bit(self):
        # tri_coords folds 0.5 into the per-triangle factor 0.5 sinh(side);
        # scaling by 0.5 is exact, so the values are those of the plain form
        rng = random.Random(11)
        for seed in range(1, 101):
            t = gen_triangle(seed)
            points = [*t.vertices, klein_point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                      klein_point(0.1 * rng.random(), 0.1 * rng.random())]
            for x in points:
                xn = plane.normalize(x)
                want = tuple(0.5 * plane.mdot(xn, l) * math.sinh(length)
                             for l, length in zip(t.lines, t.sides))
                got = tri_coords(x, t)
                assert got.__class__ is tuple
                assert [v.hex() for v in got] == [v.hex() for v in want]


class TestCevians:
    def test_median_foot_ratio_is_one(self, t0):
        m = point_from_coords((1.0, 1.0, 1.0), t0)
        for i in range(3):
            assert cevian_ratio(m, t0, i) == pytest.approx(1.0, rel=1e-10)

    def test_bisector_foot_ratio(self):
        rng = random.Random(23)
        t = random_triangle(rng)
        i_pt = point_from_coords((sinh(t.a), sinh(t.b), sinh(t.c)), t)
        # the interior bisector from A meets BC with sinh ratio sinh c : sinh b
        assert cevian_ratio(i_pt, t, 0) == pytest.approx(sinh(t.c) / sinh(t.b), rel=1e-9)

    @pytest.mark.parametrize("i", range(3))
    def test_ratio_matches_coordinates(self, i):
        rng = random.Random(31)
        t = random_triangle(rng)
        x = point_from_coords((0.7, 1.3, 0.9), t)
        k = tri_coords(x, t)
        j, kk = (i + 1) % 3, (i + 2) % 3
        assert cevian_ratio(x, t, i) == pytest.approx(k[kk] / k[j], rel=1e-9)


class TestStewart:
    def test_degenerate_endpoint(self, t0):
        assert stewart_residual(t0, t0.vertices[1]) < 1e-12

    def test_midpoint(self, t0):
        mid = midpoint(t0.vertices[1], t0.vertices[2])
        assert stewart_residual(t0, mid) < 1e-12

    def test_everywhere_on_the_open_segment(self):
        rng = random.Random(7)
        t = random_triangle(rng)
        vb = t.vertices[1]
        tangent = plane.tangent_toward(vb, t.vertices[2])
        for _ in range(50):
            u = rng.random() * t.a
            p = geodesic_point(vb, tangent, u)
            assert stewart_residual(t, p) < 1e-12

    def test_point_off_the_side_rejected(self, t0):
        with pytest.raises(FootOutsideSegment):
            stewart_residual(t0, klein_point(0.1, 0.1))

    def test_euclidean_limit_order(self):
        # scale the T0 shape by 1e-3: the euclidean Stewart relation holds
        # through fourth order in the scale
        eps = 1e-3
        t = solve_from_sides(math.acosh(4 / 3) * eps,
                             math.atanh(0.5) * eps, math.atanh(0.5) * eps)
        vb, vc = t.vertices[1], t.vertices[2]
        mid = midpoint(vb, vc)
        u = distance(vb, mid)
        aa = distance(t.vertices[0], mid)
        euclid = abs((aa ** 2 + u * (t.a - u)) * t.a
                     - (t.b ** 2 * u + t.c ** 2 * (t.a - u)))
        assert stewart_residual(t, mid) < 1e-12
        assert euclid < 10.0 * eps ** 5


class TestLambert:
    def test_relations_hold(self):
        rng = random.Random(3)
        for _ in range(25):
            a = 0.1 + 0.6 * rng.random()
            d = 0.1 + 0.6 * rng.random()
            if math.sinh(a) * math.sinh(d) >= 0.95:
                continue
            q = trig.lambert_from_legs(a, d)
            for name, resid in trig.lambert_relations(q).items():
                assert resid < 1e-10, name

    def test_too_long_legs_rejected(self):
        with pytest.raises(OutOfDomain):
            trig.lambert_from_legs(2.0, 2.0)


class TestPlacedVertices:
    """A triangle solved from its sides or its angles carries vertices: A at
    the origin, B on the positive x-axis, C in the upper half plane."""

    @pytest.fixture(params=["sides", "angles"])
    def t(self, request):
        if request.param == "sides":
            return solve_from_sides(1.1, 0.9, 0.6)
        return solve_from_angles(0.5, 0.6, 0.7)

    def test_vertices_reproduce_the_data(self, t):
        va, vb, vc = t.vertices
        assert va == plane.origin()
        assert vb.x > 0.0 and vb.y == 0.0
        assert vc.y > 0.0
        t2 = solve_from_vertices(*t.vertices)
        assert t2.sides == pytest.approx(t.sides, rel=1e-12)
        assert t2.angles == pytest.approx(t.angles, rel=1e-10)

    def test_every_constructive_operation_accepts_it(self, t, tmp_path):
        from hypertri import centers, registry, render
        k = (1.2, 0.7, 1.0)
        x = point_from_coords(k, t)
        assert proportionality_residual(tri_coords(x, t), k) < 1e-12
        assert cevian_ratio(x, t, 0) == pytest.approx(k[2] / k[1], rel=1e-9)
        assert stewart_residual(t, midpoint(t.vertices[1], t.vertices[2])) < 1e-12
        out = tmp_path / "fig.svg"
        render.render_svg(t, ["M", "O", "I", "H"], "klein", str(out))
        assert out.read_text().startswith("<svg")
        back = registry.triangle_from_json(json.loads(json.dumps(registry.triangle_json(t))))
        assert back.sides == pytest.approx(t.sides, rel=1e-12)
        assert centers.Frame(t).t is t


def test_angles_follow_the_index_convention():
    # angle i sits at vertex i, between the sides toward the ends of side i
    for shape in ("any", "right"):
        for seed in range(1, 51):
            t = gen_triangle(seed, shape=shape)
            v, x, ang = t.vertices, t.sides, t.angles
            for i, (j, k) in enumerate(trig.SIDE_ENDS):
                assert ang[i] == plane.vertex_angle(v[i], v[j], v[k])
                law = cosh(x[j]) * cosh(x[k]) - sinh(x[j]) * sinh(x[k]) * math.cos(ang[i])
                assert cosh(x[i]) == pytest.approx(law, rel=1e-12)


@pytest.mark.parametrize("length", [0.1, 1.0, 5.0, 14.0, 18.0, 26.0, 30.0, 40.0])
def test_sinh_ratio_solution_holds_on_every_side_length(length):
    for rho in (0.05, 0.7, 1.3, 3.0, -0.05, -3.0):
        # a foot outside the side (rho < 0) exists only while
        # tanh(length/2) < |rho + 1| / |rho - 1|, which fails for these rho
        # from length 5 on
        if rho < 0.0 and length >= 5.0:
            with pytest.raises(NoSolution):
                trig._solve_sinh_ratio(length, rho)
            continue
        u = trig._solve_sinh_ratio(length, rho)
        assert abs(sinh(u) / sinh(length - u) - rho) <= 1e-12 * abs(rho)
    with pytest.raises(NoSolution):
        trig._solve_sinh_ratio(length, -1.0)
