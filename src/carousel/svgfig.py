"""Deterministic SVG figures for scenarios.

World coordinates are emitted with y negated (SVG y grows downward), so a
counterclockwise world arc uses sweep flag 0.  All numbers are printed with
a fixed format, which keeps output byte-identical for identical input.
"""

from __future__ import annotations

import math

from .hull import ArcPiece, GeneratorSet, HullBoundary, circle_in_hull, hull_boundary
from .planar import Circle2, Point2
from .scenario import Scenario
from .spheres import (
    Sphere3,
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
    witness_generators,
    witness_search,
    xi_sweep_fixed,
)

# scale step past xi_star at which the sweep figure reads its touch direction:
# a much smaller step leaves the slack inside the band that still counts as
# contained, and then no direction comes back
TOUCH_PROBE_STEP = 1e-4


def _f(v: float) -> str:
    return f"{v:.6f}"


def _xy(p: Point2) -> str:
    return f"{_f(p.x)} {_f(-p.y)}"


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
        mid = Point2(
            g.center.x + r * math.cos(p.start_angle + math.pi),
            g.center.y + r * math.sin(p.start_angle + math.pi),
        )
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
    canvas.path(hull_path_d(gens, boundary), fill="#d9d9d9", stroke="#707070",
                width=0.02, opacity=0.8)


def _draw_sites(canvas: _Canvas, sites):
    canvas.polygon(sites, stroke="#303030", width=0.025)
    for s in sites:
        canvas.dot(s)


def _render_theorem(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    inst = scenario.instance()
    witnesses = witness_search(inst)
    if witnesses:
        best = witnesses[0]
        _fill_hull(canvas, witness_generators(inst, best.j, best.k))
        canvas.text(
            f"witness j={best.j} k={best.k} slack={best.slack:.6f} "
            f"({len(witnesses)}/6 pairs hold)"
        )
    else:
        canvas.text("no witness found")
    _draw_sites(canvas, inst.sites)
    canvas.circle(inst.u0, "#1f77b4")
    canvas.circle(inst.u1, "#2ca02c")
    return canvas


def _render_corollary(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    c0, c1, c2, u0, u1 = scenario.circles
    witnesses = corollary_witness_search(c0, c1, c2, u0, u1)
    cs = (c0, c1, c2)
    if witnesses:
        best = witnesses[0]
        _fill_hull(canvas, pair_generators((u0, u1)[best.k], cs, best.j))
        canvas.text(
            f"witness j={best.j} k={best.k} slack={best.slack:.6f} "
            f"({len(witnesses)}/6 pairs hold)"
        )
    else:
        canvas.text("no witness found")
    for c in cs:
        canvas.circle(c, "#303030")
    canvas.circle(u0, "#1f77b4")
    canvas.circle(u1, "#2ca02c")
    return canvas


def _render_points(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    sites = scenario.sites
    b0 = scenario.circles[0].center
    b1 = scenario.circles[1].center
    w = two_carousel_points(sites, b0, b1)
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
    zeta = rep.xi_star
    scaled = scaled_instance(inst, zeta)
    _fill_hull(canvas, witness_generators(scaled, j, k))
    _draw_sites(canvas, inst.sites)
    canvas.circle(inst.u0, "#9ecae1", dash="0.05,0.05")
    canvas.circle(inst.u1, "#a1d99b", dash="0.05,0.05")
    canvas.circle(scaled.circle(k), "#1f77b4")
    canvas.circle(scaled.circle(1 - k), "#2ca02c")
    if zeta < 1.0:
        past = scaled_instance(inst, min(1.0, zeta + TOUCH_PROBE_STEP))
        res = circle_in_hull(past.circle(1 - k), witness_generators(past, j, k))
        if res.witness_direction is not None:
            target = scaled.circle(1 - k)
            touch = Point2(
                target.center.x + target.radius * math.cos(res.witness_direction),
                target.center.y + target.radius * math.sin(res.witness_direction),
            )
            canvas.marker(touch)
    canvas.text(
        f"j={j} k={k} xi*={rep.xi_star:.6f} slack={rep.slack_at_xi_star:.2e} "
        f"tangency={rep.tangency.value}"
    )
    return canvas


def _render_ex41(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    rep = example_4_1(scenario.side, scenario.r)
    verts = rep.vertices
    b, c, p_m1, p_0 = axis_points(*verts)
    plane = plane_through(b, verts[2], verts[3])
    tri = [project_to_plane(q, plane) for q in (b, verts[2], verts[3])]
    canvas.polygon(tri, stroke="#303030")
    # hull for the case that leaves out vertex 3, with the k=0 generator sphere
    spheres = (Sphere3(p_m1, scenario.r), Sphere3(p_0, scenario.r))
    gens3 = [spheres[1]] + [Sphere3(verts[i], 0.0) for i in range(3)]
    gens2 = GeneratorSet(
        tuple(Circle2(project_to_plane(g.center, plane), g.radius) for g in gens3)
    )
    _fill_hull(canvas, gens2)
    canvas.circle(Circle2(project_to_plane(p_m1, plane), scenario.r), "#1f77b4")
    canvas.circle(Circle2(project_to_plane(p_0, plane), scenario.r), "#2ca02c")
    for q in tri:
        canvas.dot(q)
    worst = max(o.result.slack for o in rep.outcomes)
    canvas.text(
        f"8 inclusions refuted: {str(rep.all_refuted).lower()}; worst slack {worst:.6f}"
    )
    return canvas


def _render_ex42(scenario: Scenario) -> _Canvas:
    canvas = _Canvas()
    rep = example_4_2(scenario.t, scenario.arc_radius_factor, scenario.side, scenario.r)
    verts = rep.vertices
    b, c, _, _ = axis_points(*verts)
    plane = plane_through(b, verts[2], verts[3])
    tri = [project_to_plane(q, plane) for q in (b, verts[2], verts[3])]
    canvas.polygon(tri, stroke="#303030")
    b2 = project_to_plane(b, plane)
    c2 = project_to_plane(c, plane)
    canvas.line(b2, c2, "#909090", dash="0.02,0.02")
    centers2 = [project_to_plane(s.center, plane) for s in rep.spheres]
    for p2, s in zip(centers2, rep.spheres):
        canvas.circle(Circle2(p2, s.radius), "#1f77b4")
    o2 = project_to_plane(rep.arc_center, plane)
    angles = [math.atan2(p2.y - o2.y, p2.x - o2.x) for p2 in centers2]
    lo = min(angles)
    hi = max(angles)
    spread = max(hi - lo, 0.02)
    lo -= 0.4 * spread
    hi += 0.4 * spread
    a0 = Point2(o2.x + rep.arc_radius * math.cos(lo), o2.y + rep.arc_radius * math.sin(lo))
    a1 = Point2(o2.x + rep.arc_radius * math.cos(hi), o2.y + rep.arc_radius * math.sin(hi))
    laf = 1 if hi - lo > math.pi else 0
    d = f"M {_xy(a0)} A {_f(rep.arc_radius)} {_f(rep.arc_radius)} 0 {laf} 0 {_xy(a1)}"
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
