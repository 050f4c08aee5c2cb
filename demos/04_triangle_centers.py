"""Every center two ways: closed form against construction.

For one seeded triangle, each center is built by incidence (meets of
medians, bisectors, altitudes, tangents) and then compared against its
closed-form triangular coordinates or radius formula.  Writes two SVG
figures (Klein and Poincare) next to this script.
"""

import math
import os

from hypertri import centers as ct
from hypertri import render
from hypertri.generate import gen_triangle
from hypertri.trig import proportionality_residual, tri_coords

sinh, cosh, tan, sin = math.sinh, math.cosh, math.tan, math.sin

t = gen_triangle(424242, shape="acute")
frame = ct.Frame(t)
print(f"seeded acute triangle: sides {t.a:.4f}, {t.b:.4f}, {t.c:.4f}; "
      f"defect {t.area:.4f}")
print()

rows = []

m = ct.centroid(frame)
rows.append(("centroid M", m, (1.0, 1.0, 1.0)))

o4 = ct.circumcenters(frame)
rows.append(("circumcenter O", o4[0],
             (math.cos(t.delta + t.alpha) * sinh(t.a),
              math.cos(t.delta + t.beta) * sinh(t.b),
              math.cos(t.delta + t.gamma) * sinh(t.c))))

i4 = ct.incenter_excenters(frame)
rows.append(("incenter I", i4[0], (sinh(t.a), sinh(t.b), sinh(t.c))))
rows.append(("excenter I_A", i4[1], (-sinh(t.a), sinh(t.b), sinh(t.c))))

h = ct.orthocenter(frame)
rows.append(("orthocenter H", h, (tan(t.alpha), tan(t.beta), tan(t.gamma))))

mp = ct.symmedian_point(frame)
rows.append(("symmedian M'", mp, (sinh(t.a) ** 2, sinh(t.b) ** 2, sinh(t.c) ** 2)))

lp = ct.lemoine_point(frame)
rows.append(("Lemoine L", lp, (cosh(t.a) - 1, cosh(t.b) - 1, cosh(t.c) - 1)))

s_res, feet = ct.pseudo_centroid(frame)
ch = {x: cosh(getattr(t, x) / 2) for x in "abc"}
prod = ch["a"] * ch["b"] * ch["c"]
rows.append(("pseudo-centroid S", s_res,
             (1 / (ch["b"] ** 2 * ch["c"] ** 2 + prod),
              1 / (ch["a"] ** 2 * ch["c"] ** 2 + prod),
              1 / (ch["a"] ** 2 * ch["b"] ** 2 + prod))))

print(f"{'center':18s} {'kind':8s} {'coordinate mismatch':>20s}")
for label, res, target in rows:
    gap = proportionality_residual(res.coords, target)
    print(f"{label:18s} {res.classification.value:8s} {gap:20.3e}")

print()
print("radius formulas vs measured distances")
print(f"  tanh R  = sin(delta)/N          = {sin(t.delta)/t.bign:.12f}")
print(f"  measured tanh(dist(O, vertex))  = {o4[0].aux['tanh_R']:.12f}")
print(f"  tanh r  = n/sinh(s)             = {t.n/sinh(t.s):.12f}")
print(f"  measured tanh(dist(I, side))    = {i4[0].aux['tanh_r']:.12f}")
kinds = ", ".join(f"{r.name}: {r.classification.value}" for r in i4[1:])
print(f"  excenters may leave the plane ({kinds})")

print()
print("isogonal conjugation: the centroid maps to the symmedian point")
conj = ct.isogonal_conjugate(m.point, frame)
gap = proportionality_residual(tri_coords(conj, t), mp.coords)
print(f"  conjugate-of-M vs M' coordinate mismatch: {gap:.3e}")

here = os.path.dirname(os.path.abspath(__file__))
for model in ("klein", "poincare"):
    path = os.path.join(here, f"centers_{model}.svg")
    render.render_svg(t, ["M", "O", "I", "H", "M'", "L", "S", "Z", "F"],
                      model, path, euler_line=True, seed=424242)
    print(f"wrote {path}")
