"""Deterministic SVG figures for scenarios.

Circles are (x, y, r) float triples and points (x, y) pairs, as the
procedures they draw take and return them.  World coordinates are emitted
with y negated (SVG y grows downward), so a counterclockwise world arc uses
sweep flag 0.  All numbers are printed with a fixed format, which keeps
output byte-identical for identical input.
"""

from __future__ import annotations

import math

from .hull import ArcPiece, _point_on, hull_boundary
from .scenario import Scenario
from .spheres import (
    _inclusion_objects,
    axis_points,
    example_4_1,
    example_4_2,
    plane_through,
    project_to_plane,
)
from .witness import (
    pair_objects,
    scaled_instance,
    two_carousel_points,
    witness_search,
    xi_sweep_fixed,
)


def _f(v: float) -> str:
    return f"{v:.6f}"


def _xy(p) -> str:
    return f"{_f(p[0])} {_f(-p[1])}"


class _Canvas:
    def __init__(self):
        self.elements: list[str] = []
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf

    def bump(self, x: float, y: float, pad: float = 0.0):
        self.min_x = min(self.min_x, x - pad)
        self.max_x = max(self.max_x, x + pad)
        self.min_y = min(self.min_y, y - pad)
        self.max_y = max(self.max_y, y + pad)

    def circle(self, c, stroke: str, width: float = 0.02, dash: str | None = None,
               fill: str = "none"):
        x, y, r = c
        self.bump(x, y, r)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<circle cx="{_f(x)}" cy="{_f(-y)}" r="{_f(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(width)}"{dash_attr}/>'
        )

    def dot(self, p, r: float = 0.06, fill: str = "#000000"):
        x, y = p[0], p[1]
        self.bump(x, y, r)
        self.elements.append(
            f'<circle cx="{_f(x)}" cy="{_f(-y)}" r="{_f(r)}" fill="{fill}"/>'
        )

    def line(self, a, b, stroke: str, width: float = 0.02, dash: str | None = None):
        self.bump(a[0], a[1])
        self.bump(b[0], b[1])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{_f(a[0])}" y1="{_f(-a[1])}" x2="{_f(b[0])}" y2="{_f(-b[1])}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"{dash_attr}/>'
        )

    def polygon(self, pts, stroke: str, fill: str = "none", width: float = 0.02):
        for p in pts:
            self.bump(p[0], p[1])
        body = " ".join(f"{_f(p[0])},{_f(-p[1])}" for p in pts)
        self.elements.append(
            f'<polygon points="{body}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"/>'
        )

    def path(self, d: str, fill: str, stroke: str, width: float = 0.02,
             dash: str | None = None, opacity: float | None = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        op_attr = f' fill-opacity="{_f(opacity)}"' if opacity is not None else ""
        self.elements.append(
            f'<path d="{d}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"{dash_attr}{op_attr}/>'
        )

    def marker(self, p, size: float = 0.12, stroke: str = "#cc0000"):
        x, y = p
        self.line((x - size, y - size), (x + size, y + size), stroke, width=0.035)
        self.line((x - size, y + size), (x + size, y - size), stroke, width=0.035)

    def text(self, label: str):
        # rendered after bounds are known; stored raw
        self.elements.append(("TEXT", label))

    def render(self, title: str) -> str:
        if not math.isfinite(self.min_x):
            self.bump(0.0, 0.0, 1.0)
        span_x = self.max_x - self.min_x
        span_y = self.max_y - self.min_y
        pad = 0.08 * max(span_x, span_y, 1.0)
        vx = self.min_x - pad
        vy = -(self.max_y + pad)
        vw = span_x + 2 * pad
        vh = span_y + 2 * pad
        font = 0.035 * max(vw, vh)
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(vx)} {_f(vy)} {_f(vw)} {_f(vh)}">',
            f"<title>{title}</title>",
        ]
        text_row = 0
        for el in self.elements:
            if isinstance(el, tuple):
                label = el[1]
                tx = vx + 0.5 * font
                ty = vy + (1.5 + 1.2 * text_row) * font
                text_row += 1
                out.append(
                    f'<text x="{_f(tx)}" y="{_f(ty)}" font-size="{_f(font)}" '
                    f'font-family="monospace">{label}</text>'
                )
            else:
                out.append(el)
        out.append("</svg>")
        return "\n".join(out) + "\n"


def hull_path_d(gens, pieces) -> str:
    """SVG path for the hull boundary pieces of ``gens`` (arcs as A commands, segments as L)."""
    glist = list(gens)
    if len(pieces) == 1 and isinstance(pieces[0], ArcPiece):
        p = pieces[0]
        g = glist[p.generator]
        r = g[2]
        start = p.start
        mid = _point_on(g, p.start_angle + math.pi)
        return (
            f"M {_xy(start)} A {_f(r)} {_f(r)} 0 0 0 {_xy(mid)} "
            f"A {_f(r)} {_f(r)} 0 0 0 {_xy(start)} Z"
        )
    parts = [f"M {_xy(pieces[0].start)}"]
    for p in pieces:
        if isinstance(p, ArcPiece):
            r = glist[p.generator][2]
            laf = 1 if p.width > math.pi else 0
            parts.append(f"A {_f(r)} {_f(r)} 0 {laf} 0 {_xy(p.end)}")
        else:
            parts.append(f"L {_xy(p.end)}")
    parts.append("Z")
    return " ".join(parts)


def _fill_hull(canvas: _Canvas, gens):
    pieces = hull_boundary(gens)
    for g in gens:
        canvas.bump(*g)
    if pieces:  # a hull that is a single point has no chain to draw
        canvas.path(hull_path_d(gens, pieces), fill="#d9d9d9", stroke="#707070",
                    width=0.02, opacity=0.8)


def _draw_sites(canvas: _Canvas, sites):
    canvas.polygon(sites, stroke="#303030", width=0.025)
    for s in sites:
        canvas.dot(s)


def _draw_circles(canvas: _Canvas, circles):
    for c in circles:
        canvas.circle(c, "#303030")


def _render_witness(scenario: Scenario) -> _Canvas:
    """The best witness's hull under the bases and both circles, for theorem and corollary."""
    *bases, u0, u1 = scenario.row
    witnesses = witness_search(scenario.row)
    canvas = _Canvas()
    if witnesses:
        best = witnesses[0]
        _fill_hull(canvas, pair_objects(scenario.row, best.j, best.k)[1])
        canvas.text(
            f"witness j={best.j} k={best.k} slack={best.slack:.6f} "
            f"({len(witnesses)}/6 pairs hold)"
        )
    else:
        canvas.text("no witness found")
    draw_bases = _draw_sites if scenario.kind == "theorem2d" else _draw_circles
    draw_bases(canvas, bases)
    canvas.circle(u0, "#1f77b4")
    canvas.circle(u1, "#2ca02c")
    return canvas


def _render_points(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    row = scenario.row
    w, _ = two_carousel_points(row)
    _, gens = pair_objects(row, w.j, w.k)
    canvas.polygon(gens, stroke="#707070", fill="#d9d9d9")
    _draw_sites(canvas, row[:3])
    canvas.dot(row[3], fill="#1f77b4")
    canvas.dot(row[4], fill="#2ca02c")
    canvas.text(f"witness j={w.j} k={w.k} slack={w.slack:.6f}")
    return canvas


def _render_sweep(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    row = scenario.row
    j, k = scenario.j, scenario.k
    rep = xi_sweep_fixed(row, j, k)
    target, gens = pair_objects(scaled_instance(row, rep.xi_star), j, k)
    _fill_hull(canvas, gens)
    _draw_sites(canvas, row[:3])
    canvas.circle(row[3], "#9ecae1", dash="0.05,0.05")
    canvas.circle(row[4], "#a1d99b", dash="0.05,0.05")
    canvas.circle(gens[0], "#1f77b4")
    canvas.circle(target, "#2ca02c")
    if rep.touch_direction is not None:
        canvas.marker(_point_on(target, rep.touch_direction))
    canvas.text(
        f"j={j} k={k} xi*={rep.xi_star:.6f} slack={rep.slack_at_xi_star:.2e} "
        f"tangency={rep.tangency.value}"
    )
    return canvas


def _draw_section(canvas: _Canvas, verts, side: float):
    """Draw the section triangle (B, A2, A3) in units of the side.

    Returns the map from an (x, y, z, r) sphere to its section circle in
    those units, the triangle's corners and the section point of C.
    """
    b, c, _, _ = axis_points(*verts)
    plane = plane_through(b, verts[2], verts[3])

    def section(sphere) -> tuple[float, float, float]:
        x, y = project_to_plane(sphere[:3], plane)
        return x / side, y / side, sphere[3] / side

    tri = [section((*q, 0.0))[:2] for q in (b, verts[2], verts[3])]
    canvas.polygon(tri, stroke="#303030")
    return section, tri, section((*c, 0.0))[:2]


def _render_ex41(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    rep = example_4_1(scenario.side, scenario.r)
    section, tri, _ = _draw_section(canvas, rep.vertices, rep.side)
    # hull of the generators of inclusion (j, k) = (3, 0), which leaves out A3
    (drawn,) = [o for o in rep.outcomes if (o.j, o.k) == (3, 0)]
    _, gens = _inclusion_objects(rep.objects, drawn.inclusion)
    _fill_hull(canvas, [section(g) for g in gens])
    canvas.circle(section(rep.spheres[0]), "#1f77b4")
    canvas.circle(section(rep.spheres[1]), "#2ca02c")
    for q in tri:
        canvas.dot(q)
    worst = max(o.result.slack for o in rep.outcomes) / rep.side
    canvas.text(
        f"8 inclusions refuted: {str(rep.all_refuted).lower()}; worst slack {worst:.6f}"
    )
    return canvas


def _render_ex42(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    rep = example_4_2(scenario.t, scenario.arc_radius_factor, scenario.side, scenario.r)
    section, tri, c2 = _draw_section(canvas, rep.vertices, rep.side)
    canvas.line(tri[0], c2, "#909090", dash="0.02,0.02")
    circles = [section(s) for s in rep.spheres]
    for c in circles:
        canvas.circle(c, "#1f77b4")
    guide = section((*rep.arc_center, rep.arc_radius))
    ox, oy, arc_radius = guide
    angles = [math.atan2(y - oy, x - ox) for x, y, _ in circles]
    lo = min(angles)
    hi = max(angles)
    spread = max(hi - lo, 0.02)
    lo -= 0.4 * spread
    hi += 0.4 * spread
    a0 = _point_on(guide, lo)
    a1 = _point_on(guide, hi)
    laf = 1 if hi - lo > math.pi else 0
    d = f"M {_xy(a0)} A {_f(arc_radius)} {_f(arc_radius)} 0 {laf} 0 {_xy(a1)}"
    canvas.path(d, fill="none", stroke="#707070", width=0.01, dash="0.03,0.03")
    canvas.bump(*a0)
    canvas.bump(*a1)
    canvas.text(
        f"t={rep.t} spheres; all refuted: {str(rep.all_refuted).lower()}; "
        f"max tangency residual {max(rep.tangency_residuals):.2e}"
    )
    return canvas


_RENDERERS = {
    "theorem2d": _render_witness,
    "corollary2d": _render_witness,
    "points2d": _render_points,
    "sweep": _render_sweep,
    "sphere3_ex41": _render_ex41,
    "sphere3_ex42": _render_ex42,
}


def render_svg(scenario: Scenario) -> str:
    """Deterministic SVG text for a scenario figure."""
    canvas = _RENDERERS[scenario.kind](scenario)
    return canvas.render(f"carousel {scenario.kind}")
