"""The extended projective plane: points beyond the boundary and duality.

Points and lines share one coordinate representation under the Minkowski
form, which makes pole/polar the identity on coordinates and turns every
distance statement into an angle statement.  This script classifies points,
measures extended distances and angles, and converts between models.
"""

import math

from hypertri import (
    HLine,
    HPoint,
    angle_ext,
    classify,
    classify_line,
    cycle_through,
    distance_ext,
    model_convert,
    polar,
    pole,
)
from hypertri.plane import klein_point, origin

print("Classification by the quadratic form")
print("------------------------------------")
for label, p in (
    ("origin", origin()),
    ("Klein (0.6, 0.2)", klein_point(0.6, 0.2)),
    ("boundary point (1, 0)", HPoint(1.0, 0.0, 1.0)),
    ("beyond the boundary (1.5, 0)", klein_point(1.5, 0.0)),
):
    print(f"  {label:28s} -> {classify(p).value}")

print()
print("Pole and polar swap the taxonomy")
print("--------------------------------")
ideal = klein_point(2.0, 0.0)
chord = polar(ideal)
print(f"  the polar of the ideal point (2, 0) is a {classify_line(chord).value} line")
print(f"  (the chord x = 1/2; its pole maps back to {pole(chord).klein()})")
print(f"  the polar of a real point is an {classify_line(polar(origin())).value} line")

print()
print("Extended distances, one configuration per kind")
print("----------------------------------------------")
pairs = [
    ("real-real", klein_point(0.3, 0.0), klein_point(-0.2, 0.1)),
    ("real-ideal", origin(), HPoint(1.0, 0.0, math.tanh(0.4))),
    ("real-boundary", origin(), HPoint(1.0, 0.0, 1.0)),
    ("ideal-ideal (real join)", HPoint(1.0, 0.0, math.tanh(0.4)),
     HPoint(1.0, 0.0, math.tanh(1.0))),
    ("ideal-ideal (ideal join)", pole(HLine(0.0, 1.0, 0.0)),
     pole(HLine(math.sin(0.7), -math.cos(0.7), 0.0))),
]
for label, a, b in pairs:
    ab, ba = distance_ext(a, b)
    show = lambda v: str(v) if not hasattr(v, "magnitude") else f"({v.magnitude:g})i"
    print(f"  {label:26s} AB = {show(ab):18s} BA = {show(ba)}")

print()
print("Angles of line pairs (the dual calculus)")
print("----------------------------------------")
x_axis = HLine(0.0, 1.0, 0.0)
cases = [
    ("chords at angle 0.7", x_axis, HLine(math.sin(0.7), -math.cos(0.7), 0.0)),
    ("ultraparallel chords, gap 0.9", HLine(1.0, 0.0, math.tanh(0.4)),
     HLine(1.0, 0.0, math.tanh(1.3))),
    ("chord and tangent at its end", HLine(0.0, 1.0, 0.0), HLine(1.0, 0.0, 1.0)),
    ("two ideal lines", polar(klein_point(0.25, 0.1)), polar(klein_point(-0.2, 0.3))),
]
for label, u, v in cases:
    a1, a2 = angle_ext(u, v)
    def show(w):
        if math.isinf(w.re):
            return "inf" if w.re > 0 else "-inf"
        if w.over_i == 0.0:
            return f"{w.re:.4f}"
        sign = "+" if w.over_i >= 0 else "-"
        return f"{w.re:.4f} {sign} {abs(w.over_i):.4f}/i"
    print(f"  {label:32s} ({show(a1)}, {show(a2)})")

print()
print("Cycles through three real points")
print("--------------------------------")
for label, pts in (
    ("a centered triple", [(0.4 * math.cos(a), 0.4 * math.sin(a))
                           for a in (0.3, 2.4, 4.5)]),
    ("a stretched triple", [(-0.9, 0.05), (0.0, 0.4), (0.9, 0.05)]),
):
    cyc = cycle_through(*[klein_point(x, y) for x, y in pts])
    print(f"  {label:20s} -> {cyc.kind.value:10s} radius = {cyc.radius}")

print()
print("Model conversions (radii tanh(a) vs tanh(a/2))")
print("----------------------------------------------")
for d in (0.25, 0.5, 1.0, 2.0):
    rk, rp = math.tanh(d), math.tanh(d / 2.0)
    via = model_convert((rk, 0.0), "klein", "poincare")
    print(f"  hyperbolic distance {d:4.2f}: Klein radius {rk:.6f} -> "
          f"Poincare {via[0]:.6f} (tanh(d/2) = {rp:.6f})")
