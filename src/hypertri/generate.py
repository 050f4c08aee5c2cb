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
from dataclasses import dataclass

from . import plane, trig
from .errors import ExhaustedAttempts, GeometryError
from .plane import HPoint, geodesic_point, klein_point, normalize, tangent_toward
from .trig import TriangleData

SHAPES = ("any", "acute", "scalene", "isosceles", "equilateral", "right")
MAX_ATTEMPTS = 10_000


@dataclass(frozen=True, slots=True)
class Constraints:
    max_klein_radius: float = 0.95
    min_angle: float = 0.05
    min_side: float = 0.05
    min_side_diff: float = 0.1  # applies to shape="scalene" only


def _sample_disk_point(rng: random.Random, max_radius: float) -> HPoint:
    r = max_radius * math.sqrt(rng.random())
    th = 2.0 * math.pi * rng.random()
    return klein_point(r * math.cos(th), r * math.sin(th))


def _satisfies(t: TriangleData, shape: str, c: Constraints) -> bool:
    if min(t.alpha, t.beta, t.gamma) < c.min_angle:
        return False
    if min(t.a, t.b, t.c) < c.min_side:
        return False
    if shape == "acute" and max(t.alpha, t.beta, t.gamma) >= math.pi / 2:
        return False
    if shape == "scalene":
        diff = min(abs(t.a - t.b), abs(t.b - t.c), abs(t.a - t.c))
        if diff < c.min_side_diff:
            return False
    return True


def _sampled_triangle(rng, shape, c) -> TriangleData | None:
    pts = [_sample_disk_point(rng, c.max_klein_radius) for _ in range(3)]
    try:
        t = trig.solve_from_vertices(*pts)
    except GeometryError:
        return None
    return t if _satisfies(t, shape, c) else None


def _right_triangle(rng, c) -> TriangleData | None:
    # exact right angle: two orthogonal tangent directions at a random vertex
    v = _sample_disk_point(rng, 0.6 * c.max_klein_radius)
    vn = normalize(v)
    th = 2.0 * math.pi * rng.random()
    ref = geodesic_point(vn, _direction(vn, th), 1.0)
    t1 = tangent_toward(vn, ref)
    t2 = _rotate_tangent(vn, t1)
    d1 = 0.2 + 1.2 * rng.random()
    d2 = 0.2 + 1.2 * rng.random()
    p = geodesic_point(vn, t1, d1)
    q = geodesic_point(vn, t2, d2)
    try:
        t = trig.solve_from_vertices(vn, p, q)
    except GeometryError:
        return None
    return t if _satisfies(t, "any", c) else None


def _direction(p: HPoint, theta: float):
    # unit tangent at p along chart angle theta (valid at any real point)
    base = tangent_toward(p, plane.origin()) if (p.x ** 2 + p.y ** 2) > 1e-12 * p.w ** 2 \
        else tangent_toward(p, klein_point(0.5, 0.0))
    orth = _rotate_tangent(p, base)
    return tuple(math.cos(theta) * base[i] + math.sin(theta) * orth[i] for i in range(3))


def _rotate_tangent(p: HPoint, t):
    # tangent orthogonal to t at p: metric dual of the cross product
    cx = p.y * t[2] - p.w * t[1]
    cy = p.w * t[0] - p.x * t[2]
    cw = p.x * t[1] - p.y * t[0]
    return (-cx, -cy, cw)


def _isosceles_triangle(rng, c) -> TriangleData | None:
    apex = _sample_disk_point(rng, 0.6 * c.max_klein_radius)
    an = normalize(apex)
    th = 2.0 * math.pi * rng.random()
    axis = _direction(an, th)
    orth = _rotate_tangent(an, axis)
    h = 0.3 + 1.2 * rng.random()
    half = 0.2 + 0.9 * rng.random()
    base_mid = normalize(geodesic_point(an, axis, h))
    # transport of the orthogonal direction along the axis
    t_at_mid = _rotate_tangent(base_mid, tangent_toward(base_mid, an))
    p = geodesic_point(base_mid, t_at_mid, half)
    q = geodesic_point(base_mid, t_at_mid, -half)
    try:
        t = trig.solve_from_vertices(an, p, q)
    except GeometryError:
        return None
    return t if _satisfies(t, "any", c) else None


def _equilateral_triangle(rng, c) -> TriangleData | None:
    radius = 0.25 + (0.9 * c.max_klein_radius - 0.25) * rng.random()
    th0 = 2.0 * math.pi * rng.random()
    pts = [
        klein_point(radius * math.cos(th0 + 2.0 * math.pi * k / 3.0),
                    radius * math.sin(th0 + 2.0 * math.pi * k / 3.0))
        for k in range(3)
    ]
    t = trig.solve_from_vertices(*pts)
    return t if _satisfies(t, "any", c) else None


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
    builder = {
        "right": lambda: _right_triangle(rng, c),
        "isosceles": lambda: _isosceles_triangle(rng, c),
        "equilateral": lambda: _equilateral_triangle(rng, c),
    }.get(shape, lambda: _sampled_triangle(rng, shape, c))
    for _ in range(MAX_ATTEMPTS):
        t = builder()
        if t is not None:
            return t
    raise ExhaustedAttempts(
        f"no {shape} triangle satisfying the constraints after {MAX_ATTEMPTS} attempts"
    )
