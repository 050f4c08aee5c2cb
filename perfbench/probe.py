"""How fast this machine runs Python right now.

The reference machine switches between a fast and a slow state many times a
minute, so every timing in the benchmark is scaled by this probe, taken next
to it (README, "Noise").  The loop is the benchmark's own frozen code, shaped
like hypertri's plane kernel, so no change to hypertri moves it.  This module
imports nothing that hypertri imports except math, so a fresh interpreter can
time its own import of hypertri between two probes.
"""

import math
import time

REF_S = 0.26e-3     # probe_s() on the reference machine in its fast state
PAIR_REF_S = 0.27e-3  # the same, run at once on both cores (workloads.PairProbe)


class _P:
    __slots__ = ("x", "y", "w")

    def __init__(self, x, y, w):
        self.x, self.y, self.w = x, y, w


def _unit(p):
    q = p.w * p.w - p.x * p.x - p.y * p.y
    s = 1.0 / math.sqrt(abs(q)) if q else 1.0 / max(abs(p.x), abs(p.y), abs(p.w))
    return _P(p.x * s, p.y * s, p.w * s)


def _cross(u, v):
    return _P(u.y * v.w - u.w * v.y, u.w * v.x - u.x * v.w, u.y * v.x - u.x * v.y)


def _kernel_s():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80):
        a = _unit(_P(0.1 + 1e-3 * i, 0.2, 1.0))
        b = _unit(_P(-0.3, 0.1 + 1e-3 * i, 1.0))
        c = _unit(_P(0.05, -0.4, 1.0))
        x = _unit(_cross(_cross(a, b), _cross(b, c)))
        acc += math.acosh(max(1.0, a.w * c.w - a.x * c.x - a.y * c.y)) + x.w
    return time.perf_counter() - t0


def probe_s():
    """Seconds for the probe loop now: the least of two runs."""
    return min(_kernel_s(), _kernel_s())


def speed(before, after, ref=REF_S):
    """Factor that turns a time taken between two probes into reference
    seconds."""
    return 2.0 * ref / (before + after)
