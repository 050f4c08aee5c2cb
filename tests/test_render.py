import re

from hypertri import render
from hypertri.generate import gen_triangle

ALL_CENTERS = ["M", "O", "O_A", "O_B", "O_C", "I", "I_A", "I_B", "I_C",
               "H", "H'", "M'", "L", "S", "Z", "F"]

# a center marker and the label drawn after it
_MARKER = re.compile(r'<circle [^>]* r="3" fill="(#\w+)"/>\n'
                     r'<text [^>]* fill="(#\w+)">([^<]*)</text>')


def test_legend_colours_and_labels(tmp_path):
    # acute seed 8 draws every real center: the incenter, all three
    # excenters, H' and Z included; the O_X are ideal and are not drawn
    out = tmp_path / "fig.svg"
    render.render_svg(gen_triangle(8, shape="acute"), ALL_CENTERS, "klein", str(out))
    assert _MARKER.findall(out.read_text()) == [
        ("#1f77b4", "#1f77b4", "M"),
        ("#d62728", "#d62728", "O"),
        ("#2ca02c", "#2ca02c", "I"),
        ("#2ca02c", "#2ca02c", "I_A"),
        ("#2ca02c", "#2ca02c", "I_B"),
        ("#2ca02c", "#2ca02c", "I_C"),
        ("#9467bd", "#9467bd", "H"),
        ("#000000", "#000000", "H'"),
        ("#8c564b", "#8c564b", "M'"),
        ("#e377c2", "#e377c2", "L"),
        ("#ff7f0e", "#ff7f0e", "S"),
        ("#17becf", "#17becf", "Z"),
        ("#bcbd22", "#bcbd22", "F"),
    ]


def _euler_paths(t, tmp_path):
    out = tmp_path / "fig.svg"
    render.render_svg(t, ["M", "O", "Z"], "klein", str(out), euler_line=True)
    return out.read_text().count("stroke-dasharray")


def test_euler_line_is_drawn_when_o_and_z_differ(tmp_path):
    assert _euler_paths(gen_triangle(8, shape="acute"), tmp_path) == 1


def test_no_euler_line_when_o_and_z_coincide(tmp_path):
    # in an equilateral triangle O and Z are one point, which spans no line
    for seed in range(1, 6):
        assert _euler_paths(gen_triangle(seed, shape="equilateral"), tmp_path) == 0, seed
