"""The extended length system of the hyperbolic plane.

Segment lengths in the extended plane (real points plus boundary points and
the poles beyond them) take values ``r + q*i`` where the real part ``r`` is a
real number or a signed infinity and the imaginary part ``q`` is one of the
three quanta ``0``, ``pi/2``, ``pi``.  The two complementary segments cut
from a line by a point pair always have lengths summing to ``pi*i``, and no
segment has any other imaginary part (the cells of `registry.SEGMENT_CASES`
list every case), so the imaginary channel is stored as an exact three-valued
enum rather than a float.

Signed infinities follow the operational rules

    cosh(+-inf) = inf     tanh(+-inf) = +-1     inf + b*i = inf + 0*i

One value falls outside this system: a segment of the ideal line itself (both
endpoints and the line beyond the boundary) has a purely imaginary length
``phi*i`` with free magnitude, the angle of the endpoint polars times ``i``.
`PureImaginary` represents that case.

The real-number channel is an ordinary ``float``; ``math.inf`` and
``-math.inf`` are the two extra elements of the extended real line.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import UndefinedComparison

HALF_PI = math.pi / 2.0
_INF = math.inf
_RADIANS = (0.0, HALF_PI, math.pi)


class Quantum(Enum):
    """The three admissible imaginary parts of a segment length, as exact quanta."""

    ZERO = 0
    HALF_PI = 1
    PI = 2

    @property
    def radians(self) -> float:
        # ``_value_`` is the member's own attribute; ``value`` is the enum's
        # descriptor over it, one more Python call
        return _RADIANS[self._value_]


class PointKind(Enum):
    """Taxonomy of points of the extended plane."""

    REAL = "real"
    INFINITE = "infinite"
    IDEAL = "ideal"


class _ExtLengthFields(NamedTuple):
    re: float
    im: Quantum = Quantum.ZERO


class ExtLength(_ExtLengthFields):
    """A length value: extended-real part plus quantized imaginary part.

    Infinite values carry imaginary quantum ZERO by the rule
    ``+-inf + b*i = +-inf + 0*i``; the constructor normalizes this.  A
    length is an immutable ``(re, im)`` tuple.
    """

    __slots__ = ()

    def __new__(cls, re: float, im: Quantum = Quantum.ZERO):
        if not -_INF < re < _INF:   # one compare passes every finite value
            if re != re:
                raise ValueError("extended length with NaN real part")
            im = Quantum.ZERO
        return tuple.__new__(cls, (re, im))

    @classmethod
    def _make(cls, iterable) -> "ExtLength":
        # namedtuple's _make (and _replace, which calls it) would skip the
        # rules above
        return cls(*iterable)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.re)

    def _check_comparable(self, other: "ExtLength"):
        if not isinstance(other, ExtLength):
            raise TypeError("can only compare ExtLength with ExtLength")
        if self.im is not other.im and self.finite and other.finite:
            raise UndefinedComparison(
                f"order undefined between imaginary parts {self.im.name} and {other.im.name}"
            )

    def __lt__(self, other: "ExtLength") -> bool:
        self._check_comparable(other)
        return self.re < other.re

    def __le__(self, other: "ExtLength") -> bool:
        self._check_comparable(other)
        return self.re <= other.re

    def __gt__(self, other: "ExtLength") -> bool:
        self._check_comparable(other)
        return self.re > other.re

    def __ge__(self, other: "ExtLength") -> bool:
        self._check_comparable(other)
        return self.re >= other.re

    def __str__(self):
        if math.isinf(self.re):
            return "inf" if self.re > 0 else "-inf"
        if self.im is Quantum.ZERO:
            return f"{self.re:g}"
        tag = "pi/2" if self.im is Quantum.HALF_PI else "pi"
        return f"{self.re:g} + ({tag})i"


INF = ExtLength(math.inf)
NEG_INF = ExtLength(-math.inf)


class PureImaginary(NamedTuple):
    """Purely imaginary length ``magnitude * i`` with free magnitude.

    Only segments of the ideal line produce these; the magnitude is the angle
    of the endpoint polars, so complementary segments sum to ``pi*i`` here too.
    """

    magnitude: float


def ext_cosh(x: ExtLength) -> complex:
    """cosh over the extended system; ``cosh(+-inf) = inf``."""
    if math.isinf(x.re):
        return complex(math.inf, 0.0)
    if x.im is Quantum.ZERO:
        return complex(math.cosh(x.re), 0.0)
    if x.im is Quantum.HALF_PI:
        return complex(0.0, math.sinh(x.re))
    return complex(-math.cosh(x.re), 0.0)


def ext_tanh(x: ExtLength) -> float:
    """tanh over the extended system; ``tanh(+-inf) = +-1``.

    The value is real for every quantum: tanh(a + i*pi) = tanh(a), and
    tanh(a + i*pi/2) = coth(a), with a pole at a = 0 reported as +inf.
    """
    if math.isinf(x.re):
        return math.copysign(1.0, x.re)
    if x.im is Quantum.ZERO or x.im is Quantum.PI:
        return math.tanh(x.re)
    if x.re == 0.0:
        return math.inf
    return 1.0 / math.tanh(x.re)
