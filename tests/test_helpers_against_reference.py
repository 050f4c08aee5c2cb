"""The helpers every center-coordinate check calls, written as straight-line
code, against the comprehension and call-layer forms they replaced, and the
builders and checks that read the frame's altitudes and side midpoints
against the forms that built those objects again.  The replaced forms are
kept here as the reference, as
`tests/test_plane.py::TestKernelAgainstReference` keeps the kernel's: every
value must match bit for bit, and every raise must be the same."""

import math
import random
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace

import pytest

from hypertri import centers as ct
from hypertri import plane, trig
from hypertri import registry as rg
from hypertri.errors import (
    CoincidentArguments,
    DegenerateTriangle,
    GeometryError,
    NoRootFound,
    UnknownIdentity,
)
from hypertri.generate import SHAPES
from hypertri.extscalar import ExtLength, Quantum, ext_cosh
from hypertri.generate import gen_triangle
from hypertri.plane import HPoint, klein_point

from outcomes import image, outcome

_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310, -1e-310, 1e308, -1e308, 1.0)


def _scalar(rng):
    """A special value one time in three, else a random float over many
    decades."""
    if rng.random() < 1 / 3:
        return rng.choice(_SPECIALS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8, 8)


def _triple(rng):
    return _scalar(rng), _scalar(rng), _scalar(rng)


# -- the reference forms ------------------------------------------------------

def _reference_tri_coords(x, t):
    xx, xy, xw = plane.normalize(x)
    return tuple([(xw * lw - xx * lx - xy * ly) * h for lx, ly, lw, h in t.coord_rows])


def _reference_relative_residual(lhs, rhs):
    m = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) if m < 1e-6 else abs(lhs - rhs) / m


def _reference_proportionality_residual(u, v):
    uu = sum(x * x for x in u)
    vv = sum(y * y for y in v)
    if uu == 0.0 or vv == 0.0:
        return math.inf
    cross = max(
        abs(u[0] * v[1] - u[1] * v[0]),
        abs(u[0] * v[2] - u[2] * v[0]),
        abs(u[1] * v[2] - u[2] * v[1]),
    )
    return cross / math.sqrt(uu * vv)


def _reference_side_tol(coords):
    return 1e-13 * max(map(abs, coords))


def _reference_to_json(res):
    name, point, coords, kind, aux = res
    if coords is not None:
        m = max(map(abs, coords))
        coords = [x / m for x in coords] if m > 0 else list(coords)
    return {
        "name": name,
        "point": {"model": "hyperboloid", "coords": list(point)},
        "coords": coords,
        "classification": kind.value,
        "aux": dict(sorted(aux.items())),
    }


def _reference_memo(build):
    key = build.__name__
    stored = {}   # frame -> the values built for it

    def builder(tri):
        f = ct.Frame.of(tri)
        values = stored.setdefault(f, {})
        if key not in values:
            values[key] = build(f)
        return values[key]
    return builder


def _reference_ext_length(re, im=Quantum.ZERO):
    if math.isnan(re):
        raise ValueError("extended length with NaN real part")
    if math.isinf(re):
        im = Quantum.ZERO
    return tuple.__new__(ExtLength, (re, im))


def _reference_radians(q):
    return (0.0, math.pi / 2.0, math.pi)[q.value]


def _reference_collinearity_residual(p, q, r):
    rows = []
    for v in (p, q, r):
        m = max(abs(v.x), abs(v.y), abs(v.w))
        rows.append((v.x / m, v.y / m, v.w / m))
    (a, b, c), (d, e, g), (h, i, k) = rows
    return abs(a * (e * k - g * i) - b * (d * k - g * h) + c * (d * i - e * h))


def _reference_grid_minimum(p, w, scale, closed=0.0):
    pn = plane.normalize(p)
    k = pn.klein()
    ref = plane.origin() if (k[0] ** 2 + k[1] ** 2) > 1e-4 else plane.klein_point(0.3, 0.0)
    t1 = HPoint(*plane.tangent_toward(pn, ref))
    t2 = HPoint(*plane.normal_tangent(pn, t1))
    w0, w1, w2 = plane.mdot(pn, w), plane.mdot(t1, w), plane.mdot(t2, w)
    p0, p1, p2 = plane.mdot(pn, pn), plane.mdot(t1, pn), plane.mdot(t2, pn)
    ok, gaps = True, []
    for c, s in ct._GRID_DIRECTIONS:
        dx, dy, dw = c * t1.x + s * t2.x, c * t1.y + s * t2.y, c * t1.w + s * t2.w
        nrm = math.sqrt(abs(dw * dw - dx * dx - dy * dy))
        d_w, d_p = (c * w1 + s * w2) / nrm, (c * p1 + s * p2) / nrm
        for ch, sh in ct._GRID_HYP:
            fx = ch * w0 + sh * d_w
            if fx <= w0:
                ok = False
            want = scale * (ch * p0 + sh * d_p)
            gaps.append(abs(fx - want) / max(abs(fx), abs(want)))
    return ok, trig.worst_residual(closed, *gaps)


def _reference_run_identity(identity_id, ctx_or_triangle, seed=0):
    d = rg.REGISTRY.get(identity_id)
    if d is None:
        raise UnknownIdentity(f"unknown identity {identity_id!r}")
    ctx = (ctx_or_triangle if isinstance(ctx_or_triangle, rg.TrialContext)
           else rg.TrialContext(seed=seed, t=ctx_or_triangle))
    ctx.use_stream(identity_id)
    try:
        residual = d.evaluator(ctx)
    except rg._Skip as s:
        return rg.IdentityRecord(d.id, d.name, None, "skipped", d.tolerance, str(s))
    except GeometryError as e:
        return rg.IdentityRecord(d.id, d.name, None, "fail", d.tolerance,
                                 f"{type(e).__name__}: {e}")
    residual = float(residual)
    if not math.isfinite(residual):
        return rg.IdentityRecord(d.id, d.name, None, "fail", d.tolerance,
                                 f"non-finite residual {residual}")
    return rg.IdentityRecord(d.id, d.name, residual,
                             "pass" if residual < d.tolerance else "fail", d.tolerance, None)


def _reference_center_coords(*names):
    closed = [rg.CENTER_BY_NAME[name].coords for name in names]

    def ev(c):
        built = [rg._need_center(c, name) for name in names]
        return trig.worst_residual(*[trig.proportionality_residual(res.coords, coords(c.t))
                                     for res, coords in zip(built, closed)])
    return ev


def _reference_to_jsonl(report):
    encode = rg._COMPACT_JSON.encode
    seed = '{"seed":' + encode(report.seed)
    lines = []
    for r in report.records:
        parts = rg._LINE_PARTS.get(r.id)
        if parts is not None and parts[0] is r.name and parts[1] is r.tolerance:
            head, tail = parts[2], parts[3]
        else:
            head, tail = rg._line_parts(r.id, r.name, r.tolerance)
        res = r.residual
        res = (repr(res) if res.__class__ is float and math.isfinite(res)
               else encode(res))
        reason = "" if r.reason is None else ',"reason":' + _json_str(r.reason)
        lines.append(f'{seed}{head}{res},"status":{_json_str(r.status)}{tail}{reason}}}')
    lines.append(encode({"summary": report.summary()}))
    return "\n".join(lines)


# -- extscalar --------------------------------------------------------------------

def test_ext_length():
    rng = random.Random("ExtLength")
    values = [*_SPECIALS, -math.nan, 0.5, -3.25, 7] + [_scalar(rng) for _ in range(3000)]
    for re in values:
        assert outcome(ExtLength, re) == outcome(_reference_ext_length, re), re
        for q in Quantum:
            assert outcome(ExtLength, re, q) == outcome(_reference_ext_length, re, q), (re, q)


def test_quantum_radians():
    for q in Quantum:
        assert image(q.radians) == image(_reference_radians(q)), q


# -- trig -------------------------------------------------------------------------

def test_tri_coords_on_seeded_triangles():
    rng = random.Random("tri_coords")
    for seed in range(1, 41):
        t = gen_triangle(seed)
        points = [*t.vertices, klein_point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                  plane.HPoint(*_triple(rng))]
        for x in points:
            assert outcome(trig.tri_coords, x, t) == outcome(_reference_tri_coords, x, t)


def test_tri_coords_on_special_rows():
    # tri_coords reads only the rows; rows of special values reach every
    # product and difference of the three dot products
    rng = random.Random("tri_coords rows")
    for _ in range(3000):
        t = SimpleNamespace(coord_rows=(_triple(rng) + (_scalar(rng),),
                                        _triple(rng) + (_scalar(rng),),
                                        _triple(rng) + (_scalar(rng),)))
        x = klein_point(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        assert outcome(trig.tri_coords, x, t) == outcome(_reference_tri_coords, x, t)


def test_proportionality_residual():
    rng = random.Random("proportionality")
    pairs = [((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (0.5, 2.0, 1.0)), ((0, 0, 0), (1, 2, 3))]
    pairs += [(_triple(rng), _triple(rng)) for _ in range(5000)]
    for u, v in pairs:
        assert (outcome(trig.proportionality_residual, u, v)
                == outcome(_reference_proportionality_residual, u, v)), (u, v)


def test_relative_residual():
    rng = random.Random("relative")
    values = [*_SPECIALS, complex(0.3, -0.2), complex(math.nan, 0.0),
              complex(math.inf, 1.0), complex(0.0, -0.0), 2e-7, -2e-7, 1e-6, -1e-6]
    pairs = [(a, b) for a in values for b in values]   # a NaN first and second
    for _ in range(5000):
        a, b = _scalar(rng), _scalar(rng)
        if rng.random() < 0.2:   # OI1 passes ext_cosh values
            a, b = complex(a, _scalar(rng)), complex(b, _scalar(rng))
        pairs.append((a, b))
    for a, b in pairs:
        assert (outcome(trig.relative_residual, a, b)
                == outcome(_reference_relative_residual, a, b)), (a, b)


def test_sides_and_angles_are_the_field_triples():
    for seed in range(1, 21):
        t = gen_triangle(seed)
        assert image(t.sides) == image((t.a, t.b, t.c))
        assert image(t.angles) == image((t.alpha, t.beta, t.gamma))
        assert t.sides is t.sides and t.angles is t.angles


# -- centers ----------------------------------------------------------------------

def test_side_tol():
    rng = random.Random("side_tol")
    for _ in range(5000):
        coords = _triple(rng)
        assert outcome(ct.side_tol, coords) == outcome(_reference_side_tol, coords), coords


def test_center_result_to_json():
    rng = random.Random("to_json")
    results = [res for seed in range(1, 21)
               for res in (ct.centroid(gen_triangle(seed)), ct.orthocenter(gen_triangle(seed)),
                           *ct.incenter_excenters(gen_triangle(seed)))]
    results += [results[0]._replace(coords=_triple(rng)) for _ in range(3000)]
    results.append(results[0]._replace(coords=None))
    for res in results:
        assert outcome(ct.CenterResult.to_json, res) == outcome(_reference_to_json, res)


def test_memo_builder():
    # the same script of calls through the builder and through the
    # reference: a raise is not stored and is built again, a value is built
    # once per frame, and a bare triangle gets a new frame on every call
    def script(memo):
        calls = []

        def build(f):
            calls.append(f)
            if len(calls) == 1:
                raise NoRootFound("stub")
            return object()
        builder = memo(build)
        t = gen_triangle(3)
        f = ct.Frame(t)
        seen = [outcome(builder, f)]
        first = builder(f)
        seen += [builder(f) is first, builder(t) is first, builder(t) is builder(t)]
        return seen, len(calls), calls[1] is f
    assert script(ct._memo) == script(_reference_memo)


def test_a_center_conjugates_as_its_point():
    # the conjugate of a CenterResult reads its stored coordinates; they are
    # the coordinates of its point, so the conjugate is that of the point
    for shape in ("any", "acute"):
        for seed in range(1, 61):
            f = ct.Frame(gen_triangle(seed, shape=shape))
            for res in (ct.centroid(f), ct.orthocenter(f), ct.incenter_excenters(f)[0]):
                assert (outcome(ct.isogonal_conjugate, res, f)
                        == outcome(ct.isogonal_conjugate, res.point, f)), (shape, seed, res.name)


def _center_points(f):
    """The real centers of a frame that the minimality grid and the
    collinearity tests take, by name."""
    points = {"M": ct.centroid(f).point, "H": ct.orthocenter(f).point,
              "I": ct.incenter_excenters(f)[0].point, "O": ct.circumcenters(f)[0].point,
              "S": ct.pseudo_centroid(f)[0].point, "F": ct.pseudomedian_feet_center(f).point}
    try:
        points["Z"] = ct.pseudo_orthocenter(f)[0].point
    except NoRootFound:
        pass
    return points


def test_collinearity_residual():
    rng = random.Random("collinearity")
    triples = []
    for shape in ("any", "acute"):
        for seed in range(1, 61):
            points = list(_center_points(ct.Frame(gen_triangle(seed, shape=shape))).values())
            triples += [tuple(rng.sample(points, 3)) for _ in range(4)]
            # special triples: zeros of both signs, NaN, infinities, huge and tiny
            triples.append((points[0], points[1], HPoint(*_triple(rng))))
            triples.append((HPoint(*_triple(rng)), HPoint(*_triple(rng)), points[2]))
    for p, q, r in triples:
        assert (outcome(ct.collinearity_residual, p, q, r)
                == outcome(_reference_collinearity_residual, p, q, r)), (p, q, r)


def test_grid_minimum():
    # the calls `incenter_minimality` makes, on seeded triangles
    for shape in ("any", "acute"):
        for seed in range(1, 61):
            f = ct.Frame(gen_triangle(seed, shape=shape))
            t = f.t
            v = ct.coordinate_sum_functional(t)
            vertex_sum = HPoint(*map(sum, zip(*f.vertices)))
            points = _center_points(f)
            calls = [(points["I"], v, t.bign / 2.0), (points["O"], v, t.n / 1.25, 0.01),
                     (points["M"], vertex_sum, t.n / ct.centroid(f).coords[0]),
                     (points["H"], v, 1.0, math.nan)]
            for args in calls:
                assert (outcome(ct._grid_minimum, *args)
                        == outcome(_reference_grid_minimum, *args)), (shape, seed, args)


# -- registry ---------------------------------------------------------------------

@pytest.mark.parametrize("shape", ["any", "acute"])
def test_run_identity_and_to_jsonl_on_seeded_triangles(shape):
    for seed in range(1, 301):
        t = gen_triangle(seed, shape=shape)
        new_ctx, ref_ctx = rg.TrialContext(seed, t), rg.TrialContext(seed, t)
        records = []
        for identity_id in rg.ALL_IDS:
            records.append(rg.run_identity(identity_id, new_ctx))
            assert ("value", image(records[-1])) == outcome(
                _reference_run_identity, identity_id, ref_ctx), (shape, seed, identity_id)
        # two reports, as each keeps its summary once built
        assert (outcome(rg.TrialReport.to_jsonl, rg.TrialReport(seed, tuple(records), ()))
                == outcome(_reference_to_jsonl, rg.TrialReport(seed, tuple(records), ())))


def test_center_coords():
    # every center-coordinate check, and one mixing a center with a skip
    # rule into a pair; each side builds its centers on its own context
    checks = [("M",), ("O",), ("I",), ("I_A", "I_B", "I_C"), ("H",), ("H'",), ("M'",),
              ("L",), ("S",), ("M", "H")]
    for shape in ("any", "acute", "right"):
        for seed in range(1, 61):
            t = gen_triangle(seed, shape=shape)
            for names in checks:
                assert (outcome(rg._center_coords(*names), rg.TrialContext(seed, t))
                        == outcome(_reference_center_coords(*names), rg.TrialContext(seed, t))), (
                    shape, seed, names)


def test_run_identity_on_every_kind_of_evaluator_outcome(monkeypatch):
    def returns(value):
        return lambda c: value

    def raises(c):
        raise DegenerateTriangle("the probe cannot be built")

    def skips(c):
        raise rg._Skip("declared non-configuration")

    evaluators = {"XINF": returns(math.inf), "XNAN": returns(math.nan),
                  "XNEG": returns(-math.inf), "XINT": returns(0), "XBIG": returns(3),
                  "XBOOL": returns(True), "XZERO": returns(-0.0), "XTOL": returns(1e-9),
                  "XSTR": returns("1e-12"), "XBAD": returns("residual"),
                  "XERR": raises, "XSKIP": skips}
    for identity_id, evaluator in evaluators.items():
        monkeypatch.setitem(rg.REGISTRY, identity_id,
                            rg.IdentityDef(identity_id, "probe", evaluator))
    t = gen_triangle(4)
    for identity_id in [*evaluators, "LS", "NOPE"]:
        assert (outcome(rg.run_identity, identity_id, t, 4)
                == outcome(_reference_run_identity, identity_id, t, 4)), identity_id


def test_to_jsonl_on_hand_built_records():
    ls, tbl = rg.REGISTRY["LS"], rg.REGISTRY["TBL1"]
    records = [
        rg.IdentityRecord(ls.id, ls.name, None, "fail", ls.tolerance, "non-finite residual nan"),
        rg.IdentityRecord(ls.id, ls.name, math.inf, "fail", ls.tolerance, None),
        rg.IdentityRecord(ls.id, ls.name, -math.inf, "fail", ls.tolerance, "a \"quoted\" reason"),
        rg.IdentityRecord(ls.id, ls.name, math.nan, "fail", ls.tolerance, "r\u00e9sum\u00e9"),
        rg.IdentityRecord(ls.id, ls.name, -0.0, "pass", ls.tolerance, None),
        rg.IdentityRecord(tbl.id, tbl.name, 5e-324, "pass", tbl.tolerance, None),
        rg.IdentityRecord(tbl.id, tbl.name, None, "skipped", tbl.tolerance, "no such cell"),
        # a name or tolerance that is not the registered object, and an
        # unregistered id: the line parts are built for the record
        rg.IdentityRecord("LS", "".join(["law of ", "sines"]), 0.5, "fail", 1e-9, None),
        rg.IdentityRecord("LS", ls.name, 0.5, "fail", float("1e-9"), None),
        rg.IdentityRecord("X\u00e9", "probe \\ name", 2, "fail", 1e-3, "int residual"),
        rg.IdentityRecord("XY", "probe", 0.25, "fail", 1e-3, None),
    ]
    for n in range(len(records) + 1):
        for seed in (0, 7, -3):
            new = rg.TrialReport(seed, tuple(records[:n]), ())
            ref = rg.TrialReport(seed, tuple(records[:n]), ())
            assert outcome(rg.TrialReport.to_jsonl, new) == outcome(_reference_to_jsonl, ref)
    # a status outside the three raises as the summary did
    odd = (rg.IdentityRecord("LS", ls.name, 0.5, "odd", ls.tolerance, None),)
    assert (outcome(rg.TrialReport.to_jsonl, rg.TrialReport(1, odd, ()))
            == outcome(_reference_to_jsonl, rg.TrialReport(1, odd, ())))


# -- the frame's altitudes and side midpoints --------------------------------------

def _reference_foot_of_perpendicular(p, l):
    perp = plane._mcross(p, plane.pole(l), CoincidentArguments, "point is the pole of the line")
    return plane.meet(perp, l)


def _reference_altitude_feet(t):
    vs, ls = t.vertices, t.lines
    return tuple(plane.normalize(_reference_foot_of_perpendicular(vs[i], ls[i]))
                 for i in range(3))


def _reference_centroid(f):
    ma = plane.midpoint(f.B, f.C)
    mb = plane.midpoint(f.C, f.A)
    mn = plane.real_point(plane.meet(plane.join(f.A, ma), plane.join(f.B, mb)),
                          DegenerateTriangle, "median meet is not a real point")
    ratio = math.sinh(plane.distance(f.A, mn)) / math.sinh(plane.distance(mn, ma))
    return ct._result("M", mn, f.t, aux={"median_section_ratio": ratio})


def _reference_orthocenter(f):
    alt_a = plane.perpendicular_line(f.A, f.lines[0])
    alt_b = plane.perpendicular_line(f.B, f.lines[1])
    res = ct._result("H", plane.meet(alt_a, alt_b), f.t)
    if res.classification is ct._R:
        h = res.point
        res.aux["h"] = (math.tanh(plane.distance(h, f.A))
                        * math.tanh(plane.distance(h, f.altitude_feet[0])))
    return res


def _reference_tan_half_area_from_height(t):
    va, vb, vc = t.vertices
    la = t.side_line(0)
    foot = plane.normalize(_reference_foot_of_perpendicular(va, la))
    u = plane.arc_coordinate(foot, plane.tangent_toward(vb, vc))
    a1, a2 = u, t.a - u
    m_a = plane.distance(va, foot)
    x1 = math.tanh(a1 / 2.0) * math.tanh(m_a / 2.0)
    x2 = math.tanh(a2 / 2.0) * math.tanh(m_a / 2.0)
    lhs = math.tan(t.area / 2.0)
    rhs = (x1 + x2) / (1.0 - x1 * x2)
    return lhs, rhs


def _reference_area_height_form(c):
    lhs, rhs = _reference_tan_half_area_from_height(c.t)
    return trig.relative_residual(lhs, rhs)


def _reference_staudtian_height(c):
    t = c.t
    h_c = plane.distance(c.C, c.altitude_feet[2])
    return trig.worst_residual(
        trig.relative_residual(t.n, 0.5 * math.sin(t.alpha) * math.sinh(t.b) * math.sinh(t.c)),
        trig.relative_residual(t.n, 0.5 * math.sinh(h_c) * math.sinh(t.c)))


def _reference_angular_height(c):
    t = c.t
    h_c = plane.distance(c.C, c.altitude_feet[2])
    return trig.worst_residual(
        trig.relative_residual(t.bign, 0.5 * math.sinh(t.a) * math.sin(t.beta) * math.sin(t.gamma)),
        trig.relative_residual(t.bign, 0.5 * math.sinh(h_c) * math.sin(t.gamma)))


def _reference_centroid_section(c):
    t = c.t
    res = ct.centroid(c)
    m = res.point
    vs = c.vertices
    return trig.worst_residual(
        trig.relative_residual(res.aux["median_section_ratio"], 2 * math.cosh(t.a / 2)), *[
            trig.relative_residual(
                math.sinh(plane.distance(vs[i], m))
                / math.sinh(plane.distance(m, plane.midpoint(vs[j], vs[k]))),
                2 * math.cosh(t.sides[i] / 2))
            for i, (j, k) in enumerate(trig.SIDE_ENDS)])


def _reference_centroid_common_ratio(c):
    t = c.t
    m = ct.centroid(c)
    vs = c.vertices
    feet = [plane.midpoint(vs[j], vs[k]) for j, k in trig.SIDE_ENDS]
    r = [math.sinh(plane.distance(v, foot)) / math.sinh(plane.distance(m.point, foot))
         for v, foot in zip(vs, feet)]
    rel = trig.relative_residual
    return trig.worst_residual(rel(r[0], r[1]), rel(r[1], r[2]), rel(r[0], t.n / m.coords[0]))


def _reference_orthocenter_sinh_products(c):
    h_res = rg._need_center(c, "H")
    if rg._on_vertex(h_res):
        raise rg._Skip("orthocenter on a vertex (right angle): the sinh products vanish")
    h = h_res.point
    prods, heights = [], []
    for i, vert in enumerate(c.vertices):
        foot = c.altitude_feet[i]
        prods.append(math.sinh(plane.distance(h, vert)) * math.sinh(plane.distance(h, foot)))
        heights.append(math.cosh(plane.distance(vert, foot)))
    return trig.proportionality_residual(prods, heights)


def _reference_altitude_stewart(c):
    t = c.t
    foot = c.altitude_feet[0]
    u = plane.arc_coordinate(foot, c.side_tangents[0])
    h_a = plane.distance(c.A, foot)
    lhs = math.cosh(t.c) * math.sinh(t.a - u) + math.cosh(t.b) * math.sinh(u)
    return trig.relative_residual(lhs, math.cosh(h_a) * math.sinh(t.a))


def _reference_orthocenter_euler_distance(c):
    h_res = rg._need_inner_orthocenter(
        c, "altitude chain h_x = HX + HF_x needs an acute triangle")
    o = ct.circumcenters(c)[0]
    h = h_res.point
    hval = h_res.aux["h"]
    acc = 0.0
    for i, vert in enumerate(c.vertices):
        hx = plane.distance(vert, c.altitude_feet[i])
        acc += (1.0 / math.tanh(hx)) / math.sinh(plane.distance(h, vert))
    radius = plane.radius_ext(o.point, o.classification, c.A)
    lhs = (1.0 / hval + 1.0) * ext_cosh(plane.radius_ext(o.point, o.classification, h))
    rhs = acc * ext_cosh(radius)
    return trig.relative_residual(lhs, rhs)


_REFERENCE_CHECKS = {
    "AR2": _reference_area_height_form, "ST3": _reference_staudtian_height,
    "AS5": _reference_angular_height, "CE2": _reference_centroid_section,
    "CE3": _reference_centroid_common_ratio, "OR2": _reference_orthocenter_sinh_products,
    "OR5": _reference_altitude_stewart, "OR6": _reference_orthocenter_euler_distance,
}


def _frame_readers_agree(seed, t):
    """The frame's feet, `centroid`, `orthocenter` and the checks that read
    the frame's altitudes and midpoints, each against its reference, on a
    context of its own per side."""
    assert image(ct.Frame(t).altitude_feet) == image(_reference_altitude_feet(t)), seed
    for new, ref in ((ct.centroid, _reference_centroid),
                     (ct.orthocenter, _reference_orthocenter)):
        assert (outcome(new, rg.TrialContext(seed, t))
                == outcome(ref, rg.TrialContext(seed, t))), (seed, new.__name__)
    for identity_id, ref in _REFERENCE_CHECKS.items():
        new_ctx, ref_ctx = rg.TrialContext(seed, t), rg.TrialContext(seed, t)
        new_ctx.use_stream(identity_id)
        ref_ctx.use_stream(identity_id)
        assert (outcome(rg.REGISTRY[identity_id].evaluator, new_ctx)
                == outcome(ref, ref_ctx)), (seed, identity_id)


@pytest.mark.parametrize("shape", SHAPES)
def test_frame_readers_on_seeded_triangles(shape):
    for seed in range(1, 101):
        _frame_readers_agree(seed, gen_triangle(seed, shape=shape))


def test_frame_readers_on_the_horocycle_triangle(horocycle):
    _frame_readers_agree(0, horocycle)
