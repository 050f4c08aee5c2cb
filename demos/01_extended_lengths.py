"""A tour of the extended length system.

Segments of the extended hyperbolic plane have lengths r + q*i with the
imaginary part quantized to {0, pi/2, pi}: a pair of points cuts a line into
two segments whose lengths always add up to pi*i.  Signed infinities appear
for segments reaching the boundary.  This script walks through the segment
catalogue and the hyperbolic functions of extended lengths.
"""

import math

from hypertri import ExtLength, Quantum, ext_cosh, ext_tanh
from hypertri.registry import SEGMENT_CASES


D = 0.8   # the distance the labels name; the cells that do not take d ignore it


def show(cells):
    """Each named catalogue cell's (AB, BA) lengths at distance D."""
    for label, name in cells:
        ab, ba = SEGMENT_CASES[name][-1](D)
        print(f"  {label:52s} AB = {str(ab):16s} BA = {ba}")


print("Segments of a real line")
print("-----------------------")
show((
    ("two real points, distance 0.8", "RR"),
    ("real point and a boundary point", "RIn"),
    ("real point and an ideal point (0.8 from its polar)", "RId"),
    ("two boundary points", "InIn"),
    ("boundary point and ideal point", "InId"),
    ("two ideal points, polars 0.8 apart", "IdId"),
))

print()
print("Segments of the line at infinity (the tangent line)")
print("----------------------------------------------------")
show((
    ("the boundary point against itself", "InIn@inf"),
    ("boundary point and an ideal point of the tangent", "InId@inf"),
    ("two ideal points of the tangent", "IdId@inf"),
))

print()
print("Hyperbolic functions pick up the quantum")
print("----------------------------------------")
d = 0.5
for q, tag in ((Quantum.ZERO, "d"), (Quantum.HALF_PI, "d + (pi/2)i"),
               (Quantum.PI, "d + pi*i")):
    x = ExtLength(d, q)
    print(f"  x = {tag:12s} cosh x = {ext_cosh(x):24} tanh x = {ext_tanh(x)}")

print()
print("A hypercycle radius is d + (pi/2)i, so tanh(R) = coth(d) > 1:")
x = ExtLength(0.7, Quantum.HALF_PI)
print(f"  tanh({x}) = {ext_tanh(x):.6f}  (coth 0.7 = {1/math.tanh(0.7):.6f})")
