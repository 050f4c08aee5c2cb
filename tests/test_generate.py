import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from hypertri import generate, trig
from hypertri.errors import ExhaustedAttempts, GeometryError
from hypertri.generate import SHAPES, Constraints, gen_triangle, sample_disk_point
from hypertri.plane import UnitPoint, distance, klein_point, normalize, origin


class TestDeterminism:
    def test_same_seed_same_triangle(self):
        t1 = gen_triangle(1)
        t2 = gen_triangle(1)
        assert t1.vertices == t2.vertices

    def test_different_seeds_differ(self):
        t1, t2 = gen_triangle(1), gen_triangle(2)
        assert t1.vertices != t2.vertices
        for t in (t1, t2):
            assert min(t.alpha, t.beta, t.gamma) >= 0.05
            assert min(t.a, t.b, t.c) >= 0.05


def test_side_lines_are_built_for_the_accepted_triangle_only(monkeypatch):
    solved, lines = [], []
    solve, side_line = trig.solve_from_vertices, trig._side_line
    monkeypatch.setattr(trig, "solve_from_vertices",
                        lambda *v: solved.append(v) or solve(*v))
    monkeypatch.setattr(trig, "_side_line", lambda *v: lines.append(v) or side_line(*v))
    t = gen_triangle(4, shape="acute")
    assert len(solved) == 1 and lines == []
    first = t.side_line(0)
    assert t.side_line(0) is first and t.lines[0] is first
    assert len(lines) == 3


class TestConstraints:
    def test_defaults_hold_across_seeds(self):
        for seed in range(1, 60):
            t = gen_triangle(seed)
            assert min(t.alpha, t.beta, t.gamma) >= 0.05
            assert min(t.a, t.b, t.c) >= 0.05
            for v in t.vertices:
                kx, ky = v.klein()
                assert math.hypot(kx, ky) <= 0.95 + 1e-12

    def test_impossible_constraints_exhaust(self):
        with pytest.raises(ExhaustedAttempts):
            gen_triangle(1, constraints=Constraints(max_klein_radius=0.2, min_side=5.0))

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            gen_triangle(1, shape="obtuse")


class TestShapes:
    def test_acute(self):
        for seed in range(1, 25):
            t = gen_triangle(seed, shape="acute")
            assert max(t.alpha, t.beta, t.gamma) < math.pi / 2

    def test_scalene(self):
        for seed in range(1, 25):
            t = gen_triangle(seed, shape="scalene")
            assert min(abs(t.a - t.b), abs(t.b - t.c), abs(t.a - t.c)) >= 0.1

    def test_right(self):
        for seed in range(1, 25):
            t = gen_triangle(seed, shape="right")
            assert max(t.alpha, t.beta, t.gamma) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_isosceles(self):
        for seed in range(1, 25):
            t = gen_triangle(seed, shape="isosceles")
            assert min(abs(t.a - t.b), abs(t.b - t.c), abs(t.a - t.c)) < 1e-9

    def test_equilateral(self):
        for seed in range(1, 25):
            t = gen_triangle(seed, shape="equilateral")
            assert abs(t.a - t.b) < 1e-12 and abs(t.b - t.c) < 1e-12
            # vertices at one Klein radius around the origin
            rads = [distance(origin(), v) for v in t.vertices]
            assert max(rads) - min(rads) < 1e-12


# --------------------------------------------------------------------------
# the Gram pre-filter: it may only turn down a candidate that the full solve
# turns down too

CONSTRAINTS = {
    "default": Constraints(),
    "tiny": Constraints(max_klein_radius=1e-3, min_angle=1e-3, min_side=1e-9),
    "needle": Constraints(max_klein_radius=0.999, min_angle=1e-6, min_side=1e-6),
}


def _solve_rejects(pts, shape, c) -> bool:
    try:
        t = trig.solve_from_vertices(*pts)
    except GeometryError:
        return True
    return not generate._satisfies(t, shape, c)


def _assert_one_sided(pts, shape, c):
    if generate._surely_rejected(pts, shape, c):
        assert _solve_rejects(pts, shape, c), (pts, shape, c)


@given(seed=st.integers(0, 2 ** 32), name=st.sampled_from(sorted(CONSTRAINTS)),
       shape=st.sampled_from(SHAPES))
@settings(max_examples=60, deadline=None)
def test_prefilter_never_rejects_a_candidate_the_solve_accepts(seed, name, shape):
    c = CONSTRAINTS[name]
    rng = random.Random(seed)
    for _ in range(40):
        pts = [normalize(sample_disk_point(rng, c.max_klein_radius)) for _ in range(3)]
        _assert_one_sided(pts, shape, c)


@given(xy=st.tuples(*6 * [st.floats(-0.999, 0.999)]), scale=st.sampled_from([1.0, 1e-2, 1e-4]),
       angle_gap=st.one_of(st.floats(-1e-6, 1e-6), st.sampled_from([0.0, 1e-12, -1e-12])),
       side_gap=st.one_of(st.floats(-1e-6, 1e-6), st.sampled_from([0.0, 1e-12, -1e-12])),
       shape=st.sampled_from(SHAPES))
@settings(max_examples=300, deadline=None)
def test_prefilter_is_one_sided_at_the_thresholds(xy, scale, angle_gap, side_gap, shape):
    # constraints drawn at the candidate's own smallest angle and side, a
    # hair either way, where a loose margin would turn down a solvable one;
    # the small scales make short sides, where cosh^2 - 1 cancels
    pts = [normalize(klein_point(scale * xy[2 * i], scale * xy[2 * i + 1])) for i in range(3)]
    if any(p.__class__ is not UnitPoint for p in pts):
        return
    try:
        t = trig.solve_from_vertices(*pts)
    except GeometryError:
        return
    c = Constraints(max_klein_radius=1.0, min_angle=max(0.0, min(t.angles) + angle_gap),
                    min_side=max(0.0, min(t.sides) + side_gap))
    _assert_one_sided(pts, shape, c)


def test_prefilter_is_one_sided_on_generated_shapes():
    # right triangles put the largest angle a rounding error from pi/2, and
    # isosceles and equilateral ones tie their sides and angles
    for shape in SHAPES:
        for seed in range(1, 41):
            pts = list(gen_triangle(seed, shape).vertices)
            for test_shape in ("acute", "any"):
                _assert_one_sided(pts, test_shape, Constraints())


def test_acute_seeds_solve_only_the_accepted_candidate(monkeypatch):
    solved = []
    solve = trig.solve_from_vertices
    monkeypatch.setattr(trig, "solve_from_vertices", lambda *v: solved.append(v) or solve(*v))
    for seed in range(1, 101):
        gen_triangle(seed, "acute")
    assert len(solved) == 100


def _vertex_bits(shape, seeds):
    return [struct.pack("<9d", *(x for v in gen_triangle(s, shape).vertices for x in v))
            for s in seeds]


@pytest.mark.parametrize("shape", SHAPES)
def test_prefilter_leaves_every_triangle_bit_identical(shape, monkeypatch):
    seeds = range(1, 301)
    filtered = _vertex_bits(shape, seeds)
    monkeypatch.setattr(generate, "_surely_rejected", lambda pts, shape, c: False)
    assert filtered == _vertex_bits(shape, seeds)
