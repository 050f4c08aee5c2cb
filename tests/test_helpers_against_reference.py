"""The helpers every center-coordinate check calls, written as straight-line
code, against the comprehension and call-layer forms they replaced.  The
replaced forms are kept here as the reference, as
`tests/test_plane.py::TestKernelAgainstReference` keeps the kernel's: every
value must match bit for bit, and every raise must be the same."""

import math
import random
from types import SimpleNamespace

from hypertri import centers as ct
from hypertri import plane, trig
from hypertri.errors import NoRootFound
from hypertri.generate import gen_triangle
from hypertri.plane import klein_point

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
