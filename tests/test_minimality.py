"""The coordinate-sum minimality grids against a pointwise reference.

`centers.incenter_minimality` evaluates each grid sample through linear
functionals (the coordinate sum as <X, V>, the vertex cosh sum as
<X, A + B + C>, cosh XP as <X, P>).  The reference below walks the same grid
point by point instead: it builds every sample with `geodesic_point`, takes
its triangular coordinates with `tri_coords` and measures distances with
`distance`.  Both must give the same report.
"""

import math

import pytest

from hypertri import centers as ct
from hypertri import plane, trig
from hypertri.extscalar import PointKind
from hypertri.generate import gen_triangle
from hypertri.plane import classify, distance, geodesic_point, normalize, pole, tangent_toward
from hypertri.trig import solve_from_angles, tri_coords


def _perturbation_grid(p, directions, radii):
    pn = normalize(p)
    # two orthonormal tangent vectors at p
    k = pn.klein()
    ref = plane.origin() if (k[0] ** 2 + k[1] ** 2) > 1e-4 else plane.klein_point(0.3, 0.0)
    t1 = tangent_toward(pn, ref)
    # second tangent: metric dual of the cross product of p and t1
    cx = pn.y * t1[2] - pn.w * t1[1]
    cy = pn.w * t1[0] - pn.x * t1[2]
    cw = pn.x * t1[1] - pn.y * t1[0]
    t2 = (-cx, -cy, cw)
    out = []
    for i in range(directions):
        ang = 2.0 * math.pi * i / directions
        d = tuple(math.cos(ang) * t1[j] + math.sin(ang) * t2[j] for j in range(3))
        nrm = math.sqrt(abs(d[2] * d[2] - d[0] * d[0] - d[1] * d[1]))
        d = tuple(v / nrm for v in d)
        for rad in radii:
            out.append(geodesic_point(pn, d, rad))
    return out


def _coordinate_sum(x, t):
    return sum(tri_coords(x, t))


def _grid_check(center, value, f_center, want_at, directions, radii, closed=0.0):
    ok = True
    for p in _perturbation_grid(center, directions, radii):
        fp = value(p)
        if fp <= f_center:
            ok = False
        want = want_at(p)
        closed = max(closed, abs(fp - want) / max(abs(fp), abs(want)))
    return ok, closed


def reference_minimality(t, samples=24):
    """The grid checks of `incenter_minimality`, one sample point at a time."""
    f = ct.Frame(t)
    td = f.t
    directions = max(1, samples // 3)
    radii = (1e-3, 1e-2, 1e-1)
    i_res = ct.incenter_excenters(f)[0]
    o_res = ct.circumcenters(f)[0]
    m_res = ct.centroid(f)

    def coord_sum(x):
        return _coordinate_sum(x, td)

    inc = _grid_check(i_res.point, coord_sum, coord_sum(i_res.point),
                      lambda p: td.bign / 2.0 * math.cosh(distance(p, i_res.point)),
                      directions, radii)

    circ = (False, math.inf)
    if o_res.classification is PointKind.REAL and abs(o_res.aux["tanh_R"]) < 1.0:
        cosh_r = math.cosh(math.atanh(o_res.aux["tanh_R"]))
        f_o = coord_sum(o_res.point)
        circ = _grid_check(o_res.point, coord_sum, f_o,
                           lambda p: td.n / cosh_r * math.cosh(distance(p, o_res.point)),
                           directions, radii,
                           closed=abs(f_o - td.n / cosh_r) / max(f_o, td.n / cosh_r))

    def cosh_sum(x):
        return sum(math.cosh(distance(x, v)) for v in (f.A, f.B, f.C))

    ratio = td.n / tri_coords(m_res.point, td)[0]
    cen = _grid_check(m_res.point, cosh_sum, cosh_sum(m_res.point),
                      lambda p: ratio * math.cosh(distance(p, m_res.point)),
                      directions, radii)
    return ct.MinimalityReport(
        incenter_min_ok=inc[0], incenter_closed_residual=inc[1],
        circumcenter_min_ok=circ[0], circumcenter_closed_residual=circ[1],
        centroid_min_ok=cen[0], centroid_closed_residual=cen[1],
    )


def _assert_reports_match(got, want):
    for name in ct.MinimalityReport._fields:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, bool):
            assert g is w, name
        elif math.isinf(w):
            assert g == w, name
        else:
            assert abs(g - w) <= 1e-12, (name, g, w)


TRIANGLES = ([("any", s) for s in range(1, 101)] + [("acute", s) for s in range(1, 51)]
             + [("equilateral", 0)])


def _triangle(shape, seed):
    if shape == "equilateral":
        return solve_from_angles(0.5, 0.5, 0.5)
    return gen_triangle(seed, shape=shape)


@pytest.mark.parametrize("samples", [24])
def test_functional_grid_matches_the_pointwise_reference(samples):
    for shape, seed in TRIANGLES:
        t = _triangle(shape, seed)
        got = ct.incenter_minimality(t)
        _assert_reports_match(got, reference_minimality(t, samples))


def test_coordinate_sum_functional_is_the_scaled_circumcenter():
    # Sum n_X(P) = (n / cosh R) cosh PO for every P, so V = (n / cosh R) O
    # when O is real; when it is not, V is not a real point either
    seen = set()
    for seed in range(1, 201):
        t = gen_triangle(seed)
        v = pole(ct.coordinate_sum_functional(t))
        o = ct.circumcenters(t)[0]
        real = o.classification is PointKind.REAL and abs(o.aux["tanh_R"]) < 1.0
        seen.add(real)
        if not real:
            assert classify(v) is not PointKind.REAL, seed
            continue
        k = t.n / math.cosh(math.atanh(o.aux["tanh_R"]))
        scaled = (k * o.point.x, k * o.point.y, k * o.point.w)
        gap = max(abs(a - b) for a, b in zip((v.x, v.y, v.w), scaled))
        assert gap <= 1e-12 * max(abs(c) for c in scaled), seed
    assert seen == {True, False}
