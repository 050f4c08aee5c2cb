"""Seeded triangle generation by rejection sampling in the Klein disk.

Triangles are deterministic per seed (the stdlib Mersenne Twister stream is
stable across platforms and Python versions), sampled uniformly in the disk
and rejected until the shape constraints hold.  Special shapes (right,
isosceles, equilateral) are constructed rather than sampled so the defining
property is exact.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Protocol

from . import plane, trig
from .errors import ExhaustedAttempts, GeometryError
from .plane import (
    HPoint,
    UnitPoint,
    geodesic_point,
    klein_point,
    mdot,
    normalize,
    tangent_toward,
)
from .trig import SIDE_ENDS, TriangleData

SHAPES = ("any", "acute", "scalene", "isosceles", "equilateral", "right")
MAX_ATTEMPTS = 10_000


class Constraints(NamedTuple):
    max_klein_radius: float = 0.95
    min_angle: float = 0.05
    min_side: float = 0.05
    min_side_diff: float = 0.1  # applies to shape="scalene" only


class RandomSource(Protocol):
    """Anything that draws floats in [0, 1) from ``random()``: the
    `random.Random` of `gen_triangle`, or a registry identity's stream."""

    def random(self) -> float: ...


def sample_disk_point(rng: RandomSource, max_radius: float) -> HPoint:
    """A point uniform in the Klein disk of radius ``max_radius``; draws two
    numbers from ``rng``, the radius first."""
    r = max_radius * math.sqrt(rng.random())
    th = 2.0 * math.pi * rng.random()
    return klein_point(r * math.cos(th), r * math.sin(th))


def _satisfies(t: TriangleData, shape: str, c: Constraints) -> bool:
    if min(t.angles) < c.min_angle:
        return False
    if min(t.sides) < c.min_side:
        return False
    if shape == "acute" and max(t.angles) >= math.pi / 2:
        return False
    if shape == "scalene":
        x = t.sides
        diff = min(abs(x[j] - x[k]) for j, k in SIDE_ENDS)
        if diff < c.min_side_diff:
            return False
    return True


# The Gram test of `_surely_rejected` leaves the candidate to the full solve
# when cosh^2 - 1 of a side is below _GRAM_MIN_SINH2 (a side below about
# 1e-3), where the subtraction cancels; its margins are _GRAM_MARGIN times
# the largest w of the unit vertices squared, far above the rounding of the
# Gram entries and of the solve.
_GRAM_MIN_SINH2 = 1e-6
_GRAM_MARGIN = 1e-7


def _surely_rejected(pts, shape, c) -> bool:
    """Whether `solve_from_vertices` on the unit vertices ``pts`` would
    surely fail `_satisfies`, read from their Gram entries: cosh of side i
    is ``<V_j, V_k>`` and ``cos angle_i = (cosh_j cosh_k - cosh_i) /
    (sinh_j sinh_k)``.  The test is one-sided: False leaves the candidate to
    the full solve."""
    ch = (mdot(pts[1], pts[2]), mdot(pts[2], pts[0]), mdot(pts[0], pts[1]))
    w = max(pts[0][2], pts[1][2], pts[2][2])
    margin = _GRAM_MARGIN * w * w
    if min(ch) < math.cosh(c.min_side) - margin:
        return True
    sh2 = (ch[0] * ch[0] - 1.0, ch[1] * ch[1] - 1.0, ch[2] * ch[2] - 1.0)
    if min(sh2) < _GRAM_MIN_SINH2:
        return False
    cos_min = math.cos(c.min_angle) + margin
    for i, (j, k) in enumerate(SIDE_ENDS):
        cos_i = (ch[j] * ch[k] - ch[i]) / math.sqrt(sh2[j] * sh2[k])
        if cos_i > cos_min or (shape == "acute" and cos_i < -margin):
            return True
    return False


def _accept(pts, shape, c) -> TriangleData | None:
    """The triangle on the vertices ``pts`` when it solves and meets the
    constraints of ``shape``, else None (the candidate is rejected).  The
    vertices are normalized once; a candidate that `_surely_rejected` turns
    down is not solved."""
    try:
        pts = (normalize(pts[0]), normalize(pts[1]), normalize(pts[2]))
        if (pts[0].__class__ is not UnitPoint or pts[1].__class__ is not UnitPoint
                or pts[2].__class__ is not UnitPoint or _surely_rejected(pts, shape, c)):
            return None
        t = trig.solve_from_vertices(*pts)
    except GeometryError:
        return None
    return t if _satisfies(t, shape, c) else None


def _sampled_triangle(rng, shape, c) -> TriangleData | None:
    r = c.max_klein_radius
    return _accept((sample_disk_point(rng, r), sample_disk_point(rng, r),
                    sample_disk_point(rng, r)), shape, c)


def _right_triangle(rng, shape, c) -> TriangleData | None:
    # exact right angle: two orthogonal tangent directions at a random vertex
    v = sample_disk_point(rng, 0.6 * c.max_klein_radius)
    vn = normalize(v)
    th = 2.0 * math.pi * rng.random()
    ref = geodesic_point(vn, _direction(vn, th), 1.0)
    t1 = tangent_toward(vn, ref)
    t2 = plane.normal_tangent(vn, t1)
    d1 = 0.2 + 1.2 * rng.random()
    d2 = 0.2 + 1.2 * rng.random()
    p = geodesic_point(vn, t1, d1)
    q = geodesic_point(vn, t2, d2)
    return _accept((vn, p, q), "any", c)


def _direction(p: HPoint, theta: float):
    # unit tangent at p along chart angle theta (valid at any real point)
    base = tangent_toward(p, plane.origin()) if (p.x ** 2 + p.y ** 2) > 1e-12 * p.w ** 2 \
        else tangent_toward(p, klein_point(0.5, 0.0))
    orth = plane.normal_tangent(p, base)
    return tuple(math.cos(theta) * base[i] + math.sin(theta) * orth[i] for i in range(3))


def _isosceles_triangle(rng, shape, c) -> TriangleData | None:
    apex = sample_disk_point(rng, 0.6 * c.max_klein_radius)
    an = normalize(apex)
    th = 2.0 * math.pi * rng.random()
    axis = _direction(an, th)
    h = 0.3 + 1.2 * rng.random()
    half = 0.2 + 0.9 * rng.random()
    base_mid = normalize(geodesic_point(an, axis, h))
    # transport of the orthogonal direction along the axis
    t_at_mid = plane.normal_tangent(base_mid, tangent_toward(base_mid, an))
    p = geodesic_point(base_mid, t_at_mid, half)
    q = geodesic_point(base_mid, t_at_mid, -half)
    return _accept((an, p, q), "any", c)


def _equilateral_triangle(rng, shape, c) -> TriangleData | None:
    radius = 0.25 + (0.9 * c.max_klein_radius - 0.25) * rng.random()
    th0 = 2.0 * math.pi * rng.random()
    pts = [
        klein_point(radius * math.cos(th0 + 2.0 * math.pi * k / 3.0),
                    radius * math.sin(th0 + 2.0 * math.pi * k / 3.0))
        for k in range(3)
    ]
    return _accept(pts, "any", c)


# the candidate builder of each shape, called as ``build(rng, shape, c)``;
# the constructed shapes are exact, so their candidates are checked as "any"
_BUILDERS = {"right": _right_triangle, "isosceles": _isosceles_triangle,
             "equilateral": _equilateral_triangle}


def gen_triangle(seed: int, shape: str = "any",
                 constraints: Constraints | None = None) -> TriangleData:
    """Deterministic constrained triangle for a seed.

    ``shape`` is one of "any", "acute", "scalene", "isosceles", "equilateral",
    "right".  Raises ExhaustedAttempts after 10 000 rejections.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; choose from {SHAPES}")
    c = constraints or Constraints()
    rng = random.Random(seed)
    build = _BUILDERS.get(shape, _sampled_triangle)
    for _ in range(MAX_ATTEMPTS):
        t = build(rng, shape, c)
        if t is not None:
            return t
    raise ExhaustedAttempts(
        f"no {shape} triangle satisfying the constraints after {MAX_ATTEMPTS} attempts"
    )
