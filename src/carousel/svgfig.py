"""Deterministic SVG figures for scenarios.

World coordinates are emitted with y negated (SVG y grows downward), so a
counterclockwise world arc uses sweep flag 0.  All numbers are printed with
a fixed format, which keeps output byte-identical for identical input.
"""

from __future__ import annotations

import math

from .hull import ArcPiece, GeneratorSet, HullBoundary, hull_boundary
from .planar import Circle2, Point2
from .scenario import Scenario
from .spheres import (
    _ex41_target_gens,
    axis_points,
    example_4_1,
    example_4_2,
    plane_through,
    project_to_plane,
)
from .witness import (
    corollary_witness_search,
    pair_generators,
    scaled_instance,
    two_carousel_points,
    witness_search,
    xi_sweep_fixed,
)


def _f(v: float) -> str:
    return f"{v:.6f}"


def _xy(p: Point2) -> str:
    return f"{_f(p.x)} {_f(-p.y)}"


def _polar(o: Point2, r: float, theta: float) -> Point2:
    """The point at angle theta on the circle of radius r about o."""
    return Point2(o.x + r * math.cos(theta), o.y + r * math.sin(theta))


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

    def circle(self, c: Circle2, stroke: str, width: float = 0.02, dash: str | None = None,
               fill: str = "none"):
        self.bump(c.center.x, c.center.y, c.radius)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<circle cx="{_f(c.center.x)}" cy="{_f(-c.center.y)}" r="{_f(c.radius)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(width)}"{dash_attr}/>'
        )

    def dot(self, p: Point2, r: float = 0.06, fill: str = "#000000"):
        self.bump(p.x, p.y, r)
        self.elements.append(
            f'<circle cx="{_f(p.x)}" cy="{_f(-p.y)}" r="{_f(r)}" fill="{fill}"/>'
        )

    def line(self, a: Point2, b: Point2, stroke: str, width: float = 0.02,
             dash: str | None = None):
        self.bump(a.x, a.y)
        self.bump(b.x, b.y)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{_f(a.x)}" y1="{_f(-a.y)}" x2="{_f(b.x)}" y2="{_f(-b.y)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"{dash_attr}/>'
        )

    def polygon(self, pts, stroke: str, fill: str = "none", width: float = 0.02):
        for p in pts:
            self.bump(p.x, p.y)
        body = " ".join(f"{_f(p.x)},{_f(-p.y)}" for p in pts)
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

    def marker(self, p: Point2, size: float = 0.12, stroke: str = "#cc0000"):
        a = Point2(p.x - size, p.y - size)
        b = Point2(p.x + size, p.y + size)
        c = Point2(p.x - size, p.y + size)
        d = Point2(p.x + size, p.y - size)
        self.line(a, b, stroke, width=0.035)
        self.line(c, d, stroke, width=0.035)

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


def hull_path_d(gens: GeneratorSet, boundary: HullBoundary) -> str:
    """SVG path for a hull boundary chain (arcs as A commands, segments as L)."""
    glist = list(gens.generators)
    pieces = boundary.pieces
    if len(pieces) == 1 and isinstance(pieces[0], ArcPiece):
        p = pieces[0]
        g = glist[p.generator]
        r = g.radius
        start = p.start
        mid = _polar(g.center, r, p.start_angle + math.pi)
        return (
            f"M {_xy(start)} A {_f(r)} {_f(r)} 0 0 0 {_xy(mid)} "
            f"A {_f(r)} {_f(r)} 0 0 0 {_xy(start)} Z"
        )
    parts = [f"M {_xy(pieces[0].start)}"]
    for p in pieces:
        if isinstance(p, ArcPiece):
            r = glist[p.generator].radius
            laf = 1 if p.width > math.pi else 0
            parts.append(f"A {_f(r)} {_f(r)} 0 {laf} 0 {_xy(p.end)}")
        else:
            parts.append(f"L {_xy(p.end)}")
    parts.append("Z")
    return " ".join(parts)


def _fill_hull(canvas: _Canvas, gens: GeneratorSet):
    boundary = hull_boundary(gens)
    for g in gens:
        canvas.bump(g.center.x, g.center.y, g.radius)
    if boundary.pieces:  # a hull that is a single point has no chain to draw
        canvas.path(hull_path_d(gens, boundary), fill="#d9d9d9", stroke="#707070",
                    width=0.02, opacity=0.8)


def _draw_sites(canvas: _Canvas, sites):
    canvas.polygon(sites, stroke="#303030", width=0.025)
    for s in sites:
        canvas.dot(s)


def _draw_circles(canvas: _Canvas, circles):
    for c in circles:
        canvas.circle(c, "#303030")


def _witness_figure(witnesses, bases, u0: Circle2, u1: Circle2, draw_bases) -> _Canvas:
    """The best witness's hull under the bases and both circles, for theorem and corollary."""
    canvas = _Canvas()
    if witnesses:
        best = witnesses[0]
        _fill_hull(canvas, pair_generators((u0, u1)[best.k], bases, best.j))
        canvas.text(
            f"witness j={best.j} k={best.k} slack={best.slack:.6f} "
            f"({len(witnesses)}/6 pairs hold)"
        )
    else:
        canvas.text("no witness found")
    draw_bases(canvas, bases)
    canvas.circle(u0, "#1f77b4")
    canvas.circle(u1, "#2ca02c")
    return canvas


def _render_theorem(scenario: Scenario) -> _Canvas:
    inst = scenario.instance()
    return _witness_figure(witness_search(inst), inst.sites, inst.u0, inst.u1, _draw_sites)


def _render_corollary(scenario: Scenario) -> _Canvas:
    *cs, u0, u1 = scenario.circles
    witnesses = corollary_witness_search(*cs, u0, u1)
    return _witness_figure(witnesses, cs, u0, u1, _draw_circles)


def _render_points(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    sites = scenario.sites
    b0 = scenario.circles[0].center
    b1 = scenario.circles[1].center
    w, _ = two_carousel_points(sites, b0, b1)
    gens = pair_generators(Circle2((b0, b1)[w.k], 0.0), sites, w.j)
    canvas.polygon([g.center for g in gens], stroke="#707070", fill="#d9d9d9")
    _draw_sites(canvas, sites)
    canvas.dot(b0, fill="#1f77b4")
    canvas.dot(b1, fill="#2ca02c")
    canvas.text(f"witness j={w.j} k={w.k} slack={w.slack:.6f}")
    return canvas


def _render_sweep(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    inst = scenario.instance()
    j, k = scenario.j, scenario.k
    rep = xi_sweep_fixed(inst, j, k)
    scaled = scaled_instance(inst, rep.xi_star)
    _fill_hull(canvas, pair_generators(scaled.circle(k), inst.sites, j))
    _draw_sites(canvas, inst.sites)
    canvas.circle(inst.u0, "#9ecae1", dash="0.05,0.05")
    canvas.circle(inst.u1, "#a1d99b", dash="0.05,0.05")
    canvas.circle(scaled.circle(k), "#1f77b4")
    target = scaled.circle(1 - k)
    canvas.circle(target, "#2ca02c")
    if rep.touch_direction is not None:
        canvas.marker(_polar(target.center, target.radius, rep.touch_direction))
    canvas.text(
        f"j={j} k={k} xi*={rep.xi_star:.6f} slack={rep.slack_at_xi_star:.2e} "
        f"tangency={rep.tangency.value}"
    )
    return canvas


def _draw_section(canvas: _Canvas, verts, side: float):
    """Draw the section triangle (B, A2, A3) in units of the side.

    Returns the map from a (centre, radius) pair to its section circle in
    those units, the triangle's corners and the section point of C.
    """
    b, c, _, _ = axis_points(*verts)
    plane = plane_through(b, verts[2], verts[3])

    def section(p, r: float = 0.0) -> Circle2:
        x, y = project_to_plane(p, plane)
        return Circle2(Point2(x / side, y / side), r / side)

    tri = [section(q).center for q in (b, verts[2], verts[3])]
    canvas.polygon(tri, stroke="#303030")
    return section, tri, section(c).center


def _render_ex41(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    rep = example_4_1(scenario.side, scenario.r)
    section, tri, _ = _draw_section(canvas, rep.vertices, rep.side)
    # hull for the case that leaves out vertex 3, with the k=0 generator sphere
    centers = [s.center for s in rep.spheres]
    _, gens = _ex41_target_gens(centers, rep.r, rep.vertices, 3, 0)
    _fill_hull(canvas, GeneratorSet(tuple(section(*g) for g in gens)))
    canvas.circle(section(centers[0], rep.r), "#1f77b4")
    canvas.circle(section(centers[1], rep.r), "#2ca02c")
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
    circles = [section(s.center, s.radius) for s in rep.spheres]
    for c in circles:
        canvas.circle(c, "#1f77b4")
    guide = section(rep.arc_center, rep.arc_radius)
    o2, arc_radius = guide.center, guide.radius
    angles = [math.atan2(c.center.y - o2.y, c.center.x - o2.x) for c in circles]
    lo = min(angles)
    hi = max(angles)
    spread = max(hi - lo, 0.02)
    lo -= 0.4 * spread
    hi += 0.4 * spread
    a0 = _polar(o2, arc_radius, lo)
    a1 = _polar(o2, arc_radius, hi)
    laf = 1 if hi - lo > math.pi else 0
    d = f"M {_xy(a0)} A {_f(arc_radius)} {_f(arc_radius)} 0 {laf} 0 {_xy(a1)}"
    canvas.path(d, fill="none", stroke="#707070", width=0.01, dash="0.03,0.03")
    canvas.bump(a0.x, a0.y)
    canvas.bump(a1.x, a1.y)
    canvas.text(
        f"t={rep.t} spheres; all refuted: {str(rep.all_refuted).lower()}; "
        f"max tangency residual {max(rep.tangency_residuals):.2e}"
    )
    return canvas


_RENDERERS = {
    "theorem2d": _render_theorem,
    "corollary2d": _render_corollary,
    "points2d": _render_points,
    "sweep": _render_sweep,
    "sphere3_ex41": _render_ex41,
    "sphere3_ex42": _render_ex42,
}


def render_svg(scenario: Scenario) -> str:
    """Deterministic SVG text for a scenario figure."""
    canvas = _RENDERERS[scenario.kind](scenario)
    return canvas.render(f"carousel {scenario.kind}")
