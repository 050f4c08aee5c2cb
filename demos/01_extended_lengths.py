"""A tour of the extended length system.

Segments of the extended hyperbolic plane have lengths r + q*i with the
imaginary part quantized to {0, pi/2, pi}: a pair of points cuts a line into
two segments whose lengths always add up to pi*i.  Signed infinities appear
for segments reaching the boundary.  This script walks through the segment
table and the hyperbolic functions of extended lengths.
"""

import math

from hypertri import (
    ExtLength,
    PointKind,
    Quantum,
    ext_cosh,
    ext_tanh,
    segment_lengths,
)

R, IN, ID = PointKind.REAL, PointKind.INFINITE, PointKind.IDEAL

print("Segments of a real line")
print("-----------------------")
for label, kinds, d in (
    ("two real points, distance 0.8", (R, R), 0.8),
    ("real point and a boundary point", (R, IN), None),
    ("real point and an ideal point (0.8 from its polar)", (R, ID), 0.8),
    ("two boundary points", (IN, IN), None),
    ("boundary point and ideal point", (IN, ID), None),
    ("two ideal points, polars 0.8 apart", (ID, ID), 0.8),
):
    ab, ba = segment_lengths(*kinds, d=d, line="real")
    print(f"  {label:52s} AB = {str(ab):16s} BA = {ba}")

print()
print("Segments of the line at infinity (the tangent line)")
print("----------------------------------------------------")
for label, kinds in (
    ("the boundary point against itself", (IN, IN)),
    ("boundary point and an ideal point of the tangent", (IN, ID)),
    ("two ideal points of the tangent", (ID, ID)),
):
    ab, ba = segment_lengths(*kinds, line="infinity")
    print(f"  {label:52s} AB = {str(ab):16s} BA = {ba}")


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
