import math

import pytest

from hypertri import trig
from hypertri.errors import ExhaustedAttempts
from hypertri.generate import Constraints, gen_triangle
from hypertri.plane import distance, origin


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
    assert len(solved) == 4 and lines == []
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
