import math
import pickle
import random

import pytest

from hypertri import centers as ct
from hypertri import plane, trig
from hypertri.errors import NoRootFound, OnSideLine
from hypertri.extscalar import PointKind
from hypertri.generate import gen_triangle
from hypertri.plane import distance, klein_point, normalize
from hypertri.trig import (
    proportionality_residual,
    solve_from_angles,
    solve_from_vertices,
    tri_coords,
)

sinh, cosh, tan, sin = math.sinh, math.cosh, math.tan, math.sin


def random_triangle(rng, maxr=0.85, min_angle=0.15, min_side=0.15,
                    pseudoacute=False):
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
        if min(t.alpha, t.beta, t.gamma) < min_angle or min(t.a, t.b, t.c) < min_side:
            continue
        if pseudoacute and max(t.alpha, t.beta, t.gamma) >= math.pi / 2 - t.delta / 2:
            continue
        return t


@pytest.fixture
def equilateral():
    return trig.embed(solve_from_angles(0.5, 0.5, 0.5))


@pytest.fixture
def t0():
    return solve_from_vertices(klein_point(0, 0), klein_point(0.5, 0),
                               klein_point(0, 0.5))


@pytest.fixture
def scalene():
    return random_triangle(random.Random(100))


class TestCentroid:
    def test_equilateral_center(self, equilateral):
        m = ct.centroid(equilateral)
        o = ct.circumcenters(equilateral)[0]
        assert distance(m.point, o.point) < 1e-10
        assert proportionality_residual(m.coords, (1, 1, 1)) < 1e-12

    def test_t0_on_symmetry_axis(self, t0):
        kx, ky = ct.centroid(t0).point.klein()
        assert kx == pytest.approx(ky, rel=1e-10)

    def test_median_section_ratio(self, scalene):
        t = scalene
        f = ct.Frame(t)
        m = ct.centroid(f).point
        foot = plane.midpoint(f.B, f.C)
        ratio = sinh(distance(f.A, m)) / sinh(distance(m, foot))
        assert ratio == pytest.approx(2 * cosh(t.a / 2), rel=1e-10)


class TestCircumcenters:
    def test_equilateral_radius_matches_formula(self, equilateral):
        t = equilateral
        o = ct.circumcenters(t)[0]
        assert o.classification is PointKind.REAL
        assert o.aux["tanh_R"] == pytest.approx(sin(t.delta) / t.bign, rel=1e-10)
        d = distance(o.point, t.vertices[0])
        assert math.tanh(d) == pytest.approx(o.aux["tanh_R"], rel=1e-10)

    def test_sliver_triangle_has_hypercycle_center(self):
        t = solve_from_vertices(klein_point(-0.9, 0.02), klein_point(0.9, 0.02),
                                klein_point(0.0, 0.25))
        o = ct.circumcenters(t)[0]
        assert o.classification is PointKind.IDEAL
        assert o.aux["radius_quantum"] == pytest.approx(math.pi / 2)

    def test_two_closed_forms_agree(self):
        rng = random.Random(5)
        for _ in range(200):
            t = random_triangle(rng)
            lhs = sin(t.delta) / t.bign
            rhs = 2 * sinh(t.a / 2) * sinh(t.b / 2) * sinh(t.c / 2) / t.n
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_side_circumcenters_are_hypercycles(self, scalene):
        for res in ct.circumcenters(scalene)[1:]:
            assert res.classification is PointKind.IDEAL


class TestIncenter:
    def test_equilateral_coincidence_and_radius(self, equilateral):
        t = equilateral
        i_res = ct.incenter_excenters(t)[0]
        o = ct.circumcenters(t)[0]
        m = ct.centroid(t)
        assert distance(i_res.point, o.point) < 1e-10
        assert distance(i_res.point, m.point) < 1e-10
        assert i_res.aux["tanh_r"] == pytest.approx(t.n / sinh(t.s), rel=1e-10)

    def test_mixed_radius_relation(self, scalene):
        t = scalene
        i4 = ct.incenter_excenters(t)
        o4 = ct.circumcenters(t)
        tr, tra, trb, trc = (r.aux["tanh_r"] for r in i4)
        t_R, t_RA = o4[0].aux["tanh_R"], o4[1].aux["tanh_R"]
        assert t_RA - t_R == pytest.approx(1 / trb + 1 / trc, rel=1e-10)

    def test_oi_distance_formula(self):
        rng = random.Random(11)
        hits = 0
        while hits < 30:
            t = random_triangle(rng)
            i4 = ct.incenter_excenters(t)
            o = ct.circumcenters(t)[0]
            if o.classification is not PointKind.REAL:
                continue
            hits += 1
            r_len = math.atanh(i4[0].aux["tanh_r"])
            big_r = math.atanh(o.aux["tanh_R"])
            oi = distance(o.point, i4[0].point)
            rhs = (2 * cosh(t.a / 2) * cosh(t.b / 2) * cosh(t.c / 2)
                   * cosh(r_len) * cosh(big_r) - cosh(t.s) * cosh(big_r - r_len))
            assert cosh(oi) == pytest.approx(rhs, rel=1e-9)

    def test_radius_identities(self, scalene):
        for name, resid in ct.radius_identities(scalene).items():
            assert resid < 1e-11, name

    def test_radius_identities_with_ideal_excenters(self, t0):
        # the right isosceles triangle has ideal excenters; extended
        # arithmetic keeps the identities balanced
        kinds = [r.classification for r in ct.incenter_excenters(t0)]
        assert PointKind.IDEAL in kinds
        for name, resid in ct.radius_identities(t0).items():
            assert resid < 1e-11, name


class TestOrthocenter:
    def test_right_triangle_orthocenter_is_the_right_vertex(self, t0):
        h = ct.orthocenter(t0)
        assert distance(h.point, t0.vertices[0]) < 1e-9

    def test_equilateral_h_value_consistency(self, equilateral):
        t = equilateral
        f = ct.Frame(t)
        h = ct.orthocenter(f)
        assert h.classification is PointKind.REAL
        vals = []
        for v in "ABC":
            vert = {"A": f.A, "B": f.B, "C": f.C}[v]
            vals.append(math.tanh(distance(h.point, vert))
                        * math.tanh(distance(h.point, f.altitude_foot(v))))
        assert max(vals) - min(vals) < 1e-12

    def test_acute_coordinates(self):
        rng = random.Random(21)
        found = 0
        while found < 20:
            t = random_triangle(rng)
            if max(t.alpha, t.beta, t.gamma) >= math.pi / 2:
                continue
            found += 1
            h = ct.orthocenter(t)
            target = (tan(t.alpha), tan(t.beta), tan(t.gamma))
            assert proportionality_residual(h.coords, target) < 1e-9

    def test_third_altitude_passes_through(self, scalene):
        f = ct.Frame(scalene)
        h = ct.orthocenter(f)
        alt_c = plane.perpendicular_line(f.C, f.lC)
        miss = abs(plane.mdot(normalize(h.point), plane.normalize_line(alt_c)))
        assert miss < 1e-9


class TestIsogonal:
    def test_incenter_is_fixed(self, scalene):
        i_pt = ct.incenter_excenters(scalene)[0].point
        conj = ct.isogonal_conjugate(i_pt, scalene)
        assert distance(i_pt, conj) < 1e-9

    def test_involution(self):
        rng = random.Random(2)
        t = random_triangle(rng)
        f = ct.Frame(t)
        for _ in range(50):
            w = [rng.random() + 0.05 for _ in range(3)]
            x = normalize(plane.HPoint(
                sum(wi * v.x for wi, v in zip(w, f.t.vertices)),
                sum(wi * v.y for wi, v in zip(w, f.t.vertices)),
                sum(wi * v.w for wi, v in zip(w, f.t.vertices))))
            y = ct.isogonal_conjugate(x, f)
            back = ct.isogonal_conjugate(y, f)
            assert proportionality_residual((x.x, x.y, x.w),
                                            (back.x, back.y, back.w)) < 1e-8

    def test_conjugate_at_infinity_for_a_far_exterior_point(self):
        t = solve_from_vertices(klein_point(-0.7448, -0.4116),
                                klein_point(0.4758, -0.1371),
                                klein_point(-0.5232, 0.0781))
        x = klein_point(0.3939, 0.3385)
        from hypertri.errors import ConjugateAtInfinity
        with pytest.raises(ConjugateAtInfinity):
            ct.isogonal_conjugate(x, t)

    def test_side_line_rejected(self, scalene):
        with pytest.raises(OnSideLine):
            ct.isogonal_conjugate(plane.midpoint(*scalene.vertices[1:]), scalene)

    def test_symmedian_coordinates(self, scalene):
        t = scalene
        mp = ct.symmedian_point(t)
        target = (sinh(t.a) ** 2, sinh(t.b) ** 2, sinh(t.c) ** 2)
        assert proportionality_residual(mp.coords, target) < 1e-10

    def test_conjugate_of_orthocenter(self):
        rng = random.Random(33)
        found = 0
        while found < 10:
            t = random_triangle(rng)
            if max(t.alpha, t.beta, t.gamma) >= math.pi / 2:
                continue
            found += 1
            h = ct.orthocenter(t)
            hp = ct.isogonal_conjugate(h.point, t)
            target = (sin(2 * t.alpha), sin(2 * t.beta), sin(2 * t.gamma))
            assert proportionality_residual(tri_coords(hp, t), target) < 1e-9

    def test_conjugate_of_orthocenter_approaches_circumcenter_as_shapes_shrink(self):
        # scaling a fixed shape down drives the defect to zero and H' to O
        base = solve_from_angles(0.7, 0.6, 0.5)
        gaps = []
        for k in range(0, 11):
            scale = 2.0 ** -k
            t = trig.embed(trig.solve_from_sides(base.a * scale, base.b * scale,
                                                 base.c * scale))
            hp = ct.isogonal_conjugate(ct.orthocenter(t).point, t)
            o = ct.circumcenters(t)[0]
            gaps.append(proportionality_residual(tri_coords(hp, t), o.coords))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5 * gaps[0]


class TestSymmedianLemoine:
    def test_equilateral_coincidence(self, equilateral):
        mp = ct.symmedian_point(equilateral)
        lp = ct.lemoine_point(equilateral)
        p, q = mp.point, lp.point
        assert proportionality_residual((p.x, p.y, p.w), (q.x, q.y, q.w)) < 1e-10

    def test_scalene_separation(self, scalene):
        mp = ct.symmedian_point(scalene)
        lp = ct.lemoine_point(scalene)
        assert distance(mp.point, lp.point) > 1e-6

    def test_lemoine_coordinates(self, scalene):
        t = scalene
        lp = ct.lemoine_point(t)
        target = (cosh(t.a) - 1, cosh(t.b) - 1, cosh(t.c) - 1)
        assert proportionality_residual(lp.coords, target) < 1e-10

    def test_symmedian_side_distances(self, scalene):
        t = scalene
        f = ct.Frame(t)
        mp = ct.symmedian_point(f)
        d = [sinh(abs(plane.signed_line_distance(mp.point, l)))
             for l in (f.lA, f.lB, f.lC)]
        assert proportionality_residual(d, (sinh(t.a), sinh(t.b), sinh(t.c))) < 1e-9


class TestPseudoCenters:
    def test_equilateral_feet_are_midpoints(self, equilateral):
        t = equilateral
        s_res, feet = ct.pseudo_centroid(t)
        m = ct.centroid(t)
        assert distance(s_res.point, m.point) < 1e-10
        f = ct.Frame(t)
        mids = [plane.midpoint(f.B, f.C), plane.midpoint(f.C, f.A),
                plane.midpoint(f.A, f.B)]
        for foot, mid in zip(feet, mids):
            assert proportionality_residual((foot.x, foot.y, foot.w),
                                            (mid.x, mid.y, mid.w)) < 1e-10
        z_res, z_feet = ct.pseudo_orthocenter(t)
        assert distance(z_res.point, m.point) < 1e-7
        for foot, mid in zip(z_feet, mids):
            assert proportionality_residual((foot.x, foot.y, foot.w),
                                            (mid.x, mid.y, mid.w)) < 1e-9

    def test_isosceles_on_axis(self):
        t = solve_from_vertices(klein_point(0.0, 0.35), klein_point(-0.4, -0.2),
                                klein_point(0.4, -0.2))
        s_res, _ = ct.pseudo_centroid(t)
        z_res, _ = ct.pseudo_orthocenter(t)
        assert abs(s_res.point.klein()[0]) < 1e-10
        assert abs(z_res.point.klein()[0]) < 1e-10

    def test_feet_halve_the_area(self, scalene):
        t = scalene
        f = ct.Frame(t)
        _, feet = ct.pseudo_centroid(f)
        sub = solve_from_vertices(f.A, feet[0], f.C)
        assert sub.area == pytest.approx(t.delta, abs=1e-10)

    def test_pseudo_coordinates(self, scalene):
        t = scalene
        s_res, _ = ct.pseudo_centroid(t)
        ch = {s: cosh(getattr(t, s) / 2) for s in "abc"}
        prod = ch["a"] * ch["b"] * ch["c"]
        target = (1 / (ch["b"] ** 2 * ch["c"] ** 2 + prod),
                  1 / (ch["a"] ** 2 * ch["c"] ** 2 + prod),
                  1 / (ch["a"] ** 2 * ch["b"] ** 2 + prod))
        assert proportionality_residual(s_res.coords, target) < 1e-10

    def test_tiny_triangle_pseudo_orthocenter_matches_euclidean(self):
        # at scale 1e-3 the pseudo-orthocenter lands on the euclidean
        # orthocenter of the Klein chart to within 1e-6
        s = 1e-3
        corners = [(0.1, 0.12), (1.1, 0.0), (0.35, 0.95)]
        t = solve_from_vertices(*[klein_point(x * s, y * s) for x, y in corners])
        z_res, _ = ct.pseudo_orthocenter(t)
        ax, ay = corners[0]
        bx, by = corners[1]
        cx, cy = corners[2]
        # euclidean orthocenter by solving the two altitude equations
        # (Cramer's rule on the 2x2 system)
        m00, m01, m10, m11 = cx - bx, cy - by, cx - ax, cy - ay
        r0 = ax * (cx - bx) + ay * (cy - by)
        r1 = bx * (cx - ax) + by * (cy - ay)
        det = m00 * m11 - m01 * m10
        ex = (r0 * m11 - m01 * r1) / det
        ey = (m00 * r1 - r0 * m10) / det
        kx, ky = z_res.point.klein()
        assert kx == pytest.approx(ex * s, abs=1e-6 * s * 10)
        assert ky == pytest.approx(ey * s, abs=1e-6 * s * 10)

    def test_no_root_for_strongly_obtuse(self, monkeypatch):
        t = solve_from_vertices(klein_point(0.0, 0.0), klein_point(0.8, 0.0),
                                klein_point(-0.6, 0.25))
        assert max(t.alpha, t.beta, t.gamma) > math.pi / 2
        calls = []
        original = ct._pseudoaltitude_g

        def counting(f, vertex, u):
            calls.append(vertex)
            return original(f, vertex, u)

        monkeypatch.setattr(ct, "_pseudoaltitude_g", counting)
        with pytest.raises(NoRootFound) as err:
            ct.pseudo_orthocenter(t)
        # existence is decided from the two end values of each side, so the
        # raise costs at most six evaluations and no solve
        assert len(calls) <= 6
        at_raise = len(calls)
        profile = err.value.profile  # the scanned values come along, on demand
        assert len(calls) == at_raise + 65
        assert len(profile) == 65
        values = [g for _, g in profile]
        assert all(g > 0 for g in values) or all(g < 0 for g in values)
        assert err.value.profile is profile
        assert pickle.loads(pickle.dumps(err.value)).profile == profile
        assert len(calls) == at_raise + 65

    @pytest.mark.parametrize("shape", ["any", "acute"])
    def test_balance_decreases_between_its_angle_limits(self, shape):
        # strictly monotone along the open side, so the end signs decide
        # whether a foot exists and one bracket cannot hide a double root;
        # the end limits give the rule: the foot from A exists iff
        # beta, gamma < pi/2 - delta/2
        for seed in range(1, 5):
            t = gen_triangle(seed, shape=shape)
            f = ct.Frame(t)
            for vertex, (b, c) in (("A", (t.beta, t.gamma)), ("B", (t.gamma, t.alpha)),
                                   ("C", (t.alpha, t.beta))):
                lo, hi = ct._pseudoaltitude_ends(f, vertex)
                us = [lo + (hi - lo) * i / 199 for i in range(200)]
                g = [ct._pseudoaltitude_g(f, vertex, u) for u in us]
                assert all(y < x for x, y in zip(g, g[1:]))
                assert g[0] == pytest.approx(2 * math.pi - 2 * t.delta - 4 * b, abs=1e-6)
                assert g[-1] == pytest.approx(4 * c - 2 * math.pi + 2 * t.delta, abs=1e-6)

    def test_feet_balance_the_directed_angles(self):
        solved = 0
        for seed in range(1, 11):
            t = gen_triangle(seed, shape="acute")
            f = ct.Frame(t)
            try:
                _, feet = ct.pseudo_orthocenter(f)
            except NoRootFound:
                continue
            solved += 1
            for vertex, side, foot in zip("ABC", "abc", feet):
                u = distance(f.side_start(side), foot)
                assert abs(ct._pseudoaltitude_g(f, vertex, u)) < 1e-11
        assert solved >= 5

    def test_brent_solver(self):
        calls = []

        def g(x):
            calls.append(x)
            return x ** 3 - 2.0

        root = ct._brent(g, 0.0, 2.0, g(0.0), g(2.0))
        assert root == pytest.approx(2.0 ** (1 / 3), abs=1e-13)
        assert len(calls) < 20
        assert ct._brent(lambda x: x - 1.0, 0.0, 2.0, -1.0, 1.0) == 1.0


class TestEulerLine:
    def test_scalene_four_centers_collinear(self):
        rng = random.Random(55)
        for _ in range(10):
            t = random_triangle(rng, pseudoacute=True)
            rep = ct.euler_line(t)
            assert not rep.missing
            assert rep.max_line_residual < 1e-10

    def test_bisector_feet_cycle_center_is_off_the_line(self):
        # the four-center line uses the pseudomedian-feet cycle; the
        # bisector-feet cycle center is a genuinely different point
        t = random_triangle(random.Random(56), pseudoacute=True)
        f = ct.Frame(t)
        o = ct.circumcenters(f)[0].point
        s = ct.pseudo_centroid(f)[0].point
        good = ct.pseudomedian_feet_center(f).point
        bad = ct.bisector_feet_center(f).point
        assert ct.collinearity_residual(o, s, good) < 1e-10
        assert ct.collinearity_residual(o, s, bad) > 1e-6

    def test_isosceles_classical_line(self):
        t = solve_from_vertices(klein_point(0.0, 0.35), klein_point(-0.4, -0.2),
                                klein_point(0.4, -0.2))
        rep = ct.euler_line(t)
        assert rep.classical_det < 1e-9

    def test_scalene_classical_line_breaks(self, scalene):
        rep = ct.euler_line(scalene)
        assert rep.classical_det > 1e-4

    def test_equilateral_everything_coincides(self, equilateral):
        rep = ct.euler_line(equilateral)
        assert rep.max_line_residual < 1e-12
        assert rep.classical_det < 1e-12


class TestMinimality:
    def test_circumcenter_minimizes_the_coordinate_sum(self, scalene):
        rep = ct.incenter_minimality(scalene, 24)
        assert rep.circumcenter_min_ok
        assert rep.circumcenter_closed_residual < 1e-10

    def test_incenter_claim_fails_off_center(self, scalene):
        # the coordinate sum is (n / cosh R) cosh(d(P, O)): moving from I
        # toward O decreases it, so the printed incenter claim cannot hold
        rep = ct.incenter_minimality(scalene, 24)
        assert not rep.incenter_min_ok

    def test_centroid_minimizes_the_cosh_sum(self, scalene):
        rep = ct.incenter_minimality(scalene, 24)
        assert rep.centroid_min_ok
        assert rep.centroid_closed_residual < 1e-10

    def test_equilateral_sum_grows_away_from_center(self, equilateral):
        rep = ct.incenter_minimality(equilateral, 24)
        # for the equilateral the incenter IS the circumcenter
        assert rep.incenter_min_ok
        assert rep.circumcenter_min_ok
