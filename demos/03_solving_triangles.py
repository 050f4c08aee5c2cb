"""Solving hyperbolic triangles and the quantities built on them.

Covers the two laws of cosines, the sine law, the defect as area, the Heron
form, the Staudtian n and its angular dual N, triangular coordinates with a
cevian-ratio check, Stewart's relation, and the Lambert quadrangle.
"""

import math
import random

from hypertri import (
    cevian_ratio,
    point_from_coords,
    solve_from_angles,
    solve_from_sides,
    stewart_residual,
    tri_coords,
)
from hypertri import trig
from hypertri.plane import geodesic_point, midpoint, tangent_toward

sinh, cosh = math.sinh, math.cosh

t = solve_from_sides(1.0, 0.8, 0.7)
print("Triangle with sides 1.0, 0.8, 0.7")
print(f"  angles: {t.alpha:.6f}, {t.beta:.6f}, {t.gamma:.6f}")
print(f"  area (defect) = {t.area:.6f}")
print(f"  semiperimeter s = {t.s:.6f}")
print(f"  Staudtian n = {t.n:.6f}, angular Staudtian N = {t.bign:.6f}")
print(f"  sine-law ratio sinh(a)/sin(alpha) = {sinh(t.a)/math.sin(t.alpha):.12f}"
      f" (same for all sides: {sinh(t.b)/math.sin(t.beta):.12f})")

lhs, rhs = trig.heron_parts(t)
print(f"  Heron form: tan(T/4) = {lhs:.12f} vs side product {rhs:.12f}")

print()
print("Angles alone determine everything (angle law of cosines)")
ta = solve_from_angles(t.alpha, t.beta, t.gamma)
print(f"  rebuilt sides: {ta.a:.12f}, {ta.b:.12f}, {ta.c:.12f}")

print()
print("The two Staudtians are linked: 2 n^2 = N sinh(a) sinh(b) sinh(c)")
print(f"  2n^2 = {2*t.n**2:.12e}")
print(f"  rhs  = {t.bign*sinh(t.a)*sinh(t.b)*sinh(t.c):.12e}")

print()
print("Triangular coordinates and cevian ratios")
x = point_from_coords((1.2, 0.7, 1.0), t)
k = tri_coords(x, t)
print(f"  a point with coordinates (1.2 : 0.7 : 1.0) reconstructs to {x.klein()}")
print(f"  measured coordinates: ({k[0]:.6f} : {k[1]:.6f} : {k[2]:.6f})")
print(f"  cevian ratio on side a = {cevian_ratio(x, t, 0):.9f}"
      f"  vs coordinate quotient {k[2]/k[1]:.9f}")

print()
print("Stewart's relation holds along the whole side")
rng = random.Random(0)
vb = t.vertices[1]
tangent = tangent_toward(vb, t.vertices[2])
residuals = []
for _ in range(200):
    u = rng.random() * t.a
    residuals.append(stewart_residual(t, geodesic_point(vb, tangent, u)))
print(f"  max residual over 200 random interior feet: {max(residuals):.2e}")
mid = midpoint(t.vertices[1], t.vertices[2])
print(f"  at the midpoint: {stewart_residual(t, mid):.2e}")

print()
print("Euclidean limit: shrink the triangle, the euclidean relation emerges")
for eps in (1e-1, 1e-2, 1e-3):
    a, b, c = 1.0 * eps, 0.8 * eps, 0.7 * eps
    u = a / 2
    cos_b = (cosh(c) * cosh(a) - cosh(b)) / (sinh(c) * sinh(a))
    aa = math.acosh(cosh(c) * cosh(u) - sinh(c) * sinh(u) * cos_b)
    euclid = abs((aa**2 + u * (a - u)) * a - (b**2 * u + c**2 * (a - u)))
    print(f"  scale {eps:.0e}: euclidean Stewart residual {euclid:.3e}"
          f"  (~ {euclid/eps**5:.3f} * eps^5)")

print()
print("Lambert quadrangle (three right angles)")
q = trig.lambert_from_legs(0.6, 0.45)
print(f"  legs a = {q.a}, d = {q.d} -> far sides b = {q.b:.6f}, c = {q.c:.6f},"
      f" acute angle phi = {q.phi:.6f}")
worst = max(trig.lambert_relations(q).values())
print(f"  worst residual over the seven side/angle relations: {worst:.2e}")

print()
print("Batch check: the law of sines over 2000 random triangles")
rng = random.Random(1)
worst = 0.0
count = 0
while count < 2000:
    a, b, c = (rng.uniform(0.1, 2.5) for _ in range(3))
    if a >= b + c or b >= a + c or c >= a + b:
        continue
    count += 1
    tt = solve_from_sides(a, b, c)
    r = [sinh(tt.a) / math.sin(tt.alpha), sinh(tt.b) / math.sin(tt.beta),
         sinh(tt.c) / math.sin(tt.gamma)]
    worst = max(worst, (max(r) - min(r)) / (sum(r) / 3))
print(f"  worst relative spread of the three ratios: {worst:.2e}")
