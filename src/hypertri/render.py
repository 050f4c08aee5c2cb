"""Deterministic SVG rendering of triangles and their centers.

Klein view draws geodesics as chords; Poincare view as circular arcs
orthogonal to the unit circle.  Identical inputs produce byte-identical
files: floats are formatted to fixed precision and elements are emitted in a
fixed order.
"""

from __future__ import annotations

import math

from . import centers as ct
from . import registry as rg
from .errors import CoincidentArguments, NoRootFound, OutOfDomain
from .plane import HPoint, join, model_convert, normalize, normalize_line
from .trig import TriangleData

SIZE = 420.0
SCALE = SIZE / 2.4  # disk of radius 1.1 fits the canvas


def _svg_xy(p):
    x, y = p
    return (SIZE / 2 + SCALE * x, SIZE / 2 - SCALE * y)


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _disk_coords(p: HPoint, model: str):
    k = normalize(p).klein()
    return model_convert(k, "klein", model)


def _chord_endpoints(line, eps=1e-12):
    """Boundary points of a real line, in chart coordinates."""
    l = normalize_line(line)
    lx, ly, lw = l.x, l.y, l.w
    # chart equation lx*x + ly*y = lw intersected with the unit circle
    nn = lx * lx + ly * ly
    if nn < eps:
        raise OutOfDomain("degenerate line")
    disc = nn - lw * lw
    if disc <= 0:
        raise OutOfDomain("line has no boundary points")
    bx, by = lx * lw / nn, ly * lw / nn
    t = math.sqrt(disc) / nn
    return ((bx - ly * t, by + lx * t), (bx + ly * t, by - lx * t))


def _poincare_arc(p1, p2) -> str:
    """SVG path segment from p1 to p2 along the geodesic of the Poincare disk."""
    cross = p1[0] * p2[1] - p1[1] * p2[0]
    x1, y1 = _svg_xy(p1)
    x2, y2 = _svg_xy(p2)
    if abs(cross) < 1e-9:
        return f"L {_fmt(x2)} {_fmt(y2)}"
    # center c of the orthogonal circle: 2 c . p = 1 + |p|^2 for both points,
    # solved by Cramer's rule (the determinant is 4 * cross)
    b1 = 1 + p1[0] ** 2 + p1[1] ** 2
    b2 = 1 + p2[0] ** 2 + p2[1] ** 2
    cx = (b1 * p2[1] - p1[1] * b2) / (2 * cross)
    cy = (p1[0] * b2 - b1 * p2[0]) / (2 * cross)
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0))
    scx, scy = _svg_xy((cx, cy))
    a1 = math.atan2(y1 - scy, x1 - scx)
    a2 = math.atan2(y2 - scy, x2 - scx)
    delta = math.fmod(a2 - a1 + 3 * math.pi, 2 * math.pi) - math.pi
    sweep = 1 if delta > 0 else 0
    rs = _fmt(r * SCALE)
    return f"A {rs} {rs} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}"


def _geodesic_path(p1, p2, model: str) -> str:
    x1, y1 = _svg_xy(p1)
    if model == "poincare":
        return f"M {_fmt(x1)} {_fmt(y1)} {_poincare_arc(p1, p2)}"
    x2, y2 = _svg_xy(p2)
    return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"


def render_svg(t: TriangleData, which: list[str], model: str, out_path: str,
               euler_line: bool = False) -> str:
    """Write an SVG of the triangle with the selected centers; returns the path.

    ``which`` lists center names (as in the center table); non-real centers
    are silently omitted from the drawing (they have no disk position).
    Each center is drawn in the colour of its `registry.CENTERS` row and
    labelled with its name.
    """
    if model not in ("klein", "poincare"):
        raise OutOfDomain(f"unsupported drawing model {model!r}")
    ctx = ct.Frame(t)
    va, vb, vc = t.vertices
    corners = [_disk_coords(v, model) for v in (va, vb, vc)]

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">'
    )
    parts.append(f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>')
    cx, cy = _svg_xy((0.0, 0.0))
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(SCALE)}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for i, j in ((0, 1), (1, 2), (2, 0)):
        parts.append(
            f'<path d="{_geodesic_path(corners[i], corners[j], model)}" '
            'fill="none" stroke="#333333" stroke-width="1.2"/>'
        )
    for name, pos in zip(("A", "B", "C"), corners):
        x, y = _svg_xy(pos)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="black"/>')
        parts.append(
            f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" font-size="11" '
            f'font-family="monospace">{name}</text>'
        )

    rows = rg.center_table(ctx, which=list(which))
    for row in rows:
        name = row["name"]
        if "status" in row or row.get("classification") != "real":
            continue
        coords = row["point"]["coords"]
        p = HPoint(*coords)
        pos = _disk_coords(p, model)
        x, y = _svg_xy(pos)
        color = rg.CENTER_BY_NAME[name].color
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 5)}" y="{_fmt(y + 4)}" font-size="11" '
            f'font-family="monospace" fill="{color}">{name}</text>'
        )

    if euler_line:
        try:
            o = ct.circumcenters(ctx)[0].point
            z = ct.pseudo_orthocenter(ctx)[0].point
            # boundary points are shared by both disk models
            p1, p2 = _chord_endpoints(join(o, z))
            parts.append(
                f'<path d="{_geodesic_path(p1, p2, model)}" fill="none" '
                'stroke="#d62728" stroke-width="0.8" stroke-dasharray="4 3"/>'
            )
        except (NoRootFound, OutOfDomain, CoincidentArguments):
            # no line to draw: Z is not built, or it coincides with O (as in
            # an equilateral triangle) and the two points span no line
            pass

    parts.append("</svg>")
    payload = "\n".join(parts) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return out_path
