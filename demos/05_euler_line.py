"""The four-center line and where it lives.

The circumcenter O, the pseudo-centroid S (meet of the area-bisecting
cevians), the pseudo-orthocenter Z (meet of the directed-angle-balancing
cevians) and the center F of the cycle through the pseudomedian feet are
collinear.  The classical O, M, H triple is collinear only for isosceles
triangles, and the pseudoaltitude feet exist on the open sides exactly when
max(angle) < pi/2 - delta/2, which every obtuse triangle violates.
"""

import math

from hypertri import centers as ct
from hypertri.errors import NoRootFound
from hypertri.generate import gen_triangle
from hypertri.plane import klein_point
from hypertri.trig import solve_from_vertices

print("collinearity of O, F, S, Z on seeded scalene triangles")
print("------------------------------------------------------")
shown = 0
seed = 0
while shown < 6:
    seed += 1
    t = gen_triangle(seed, shape="scalene")
    rep = ct.euler_line(t)
    shape = "acute " if max(t.alpha, t.beta, t.gamma) < math.pi / 2 else "obtuse"
    if "Z" in rep.missing:
        print(f"  seed {seed:3d} ({shape}): Z not constructible "
              f"(max angle {max(t.alpha, t.beta, t.gamma):.3f} vs "
              f"pi/2 - delta/2 = {math.pi/2 - t.delta/2:.3f})")
    else:
        print(f"  seed {seed:3d} ({shape}): worst determinant over the four "
              f"triples = {rep.max_line_residual:.2e}")
    shown += 1

print()
print("the line really needs the pseudomedian-feet cycle center")
print("---------------------------------------------------------")
t = gen_triangle(31, shape="acute")
frame = ct.Frame(t)
o = ct.circumcenters(frame)[0].point
s = ct.pseudo_centroid(frame)[0].point
f_good = ct.pseudomedian_feet_center(frame).point
f_bis = ct.bisector_feet_center(frame).point
print(f"  det(O, S, pseudomedian-feet center) = "
      f"{ct.collinearity_residual(o, s, f_good):.2e}")
print(f"  det(O, S, bisector-feet center)     = "
      f"{ct.collinearity_residual(o, s, f_bis):.2e}  (a different point)")

print()
print("the classical O, M, H line marks isosceles triangles")
print("-----------------------------------------------------")
iso = solve_from_vertices(klein_point(0.0, 0.35), klein_point(-0.4, -0.2),
                          klein_point(0.4, -0.2))
print(f"  isosceles: det(O, M, H) = {ct.euler_line(iso).classical_det:.2e}")
scal = gen_triangle(11, shape="scalene")
print(f"  scalene:   det(O, M, H) = {ct.euler_line(scal).classical_det:.2e}")

print()
print("root existence for the pseudoaltitudes (directed-angle balance)")
print("---------------------------------------------------------------")
counts = {"exists": 0, "missing": 0, "predicted": 0}
for seed in range(1, 301):
    t = gen_triangle(seed)
    predicted = max(t.alpha, t.beta, t.gamma) < math.pi / 2 - t.delta / 2
    try:
        ct.pseudo_orthocenter(t)
        found = True
    except NoRootFound:
        found = False
    counts["exists" if found else "missing"] += 1
    counts["predicted"] += (predicted == found)
print(f"  over 300 seeds: feet found on {counts['exists']}, missing on "
      f"{counts['missing']}")
print(f"  the max-angle criterion predicts the outcome on "
      f"{counts['predicted']}/300 seeds")
