"""Reference helpers for the 2D hull tests, kept out of the package: no verb reads them.

``support`` and ``boundary_support`` give the support function of a
generator set and of its boundary chain, ``chain_closure_error`` the largest
gap between consecutive pieces of the chain, ``hull_area`` and
``hull_polygon_area`` the exact and the sampled hull area.  The closed-form
coverage arcs and their uncovered gaps are an independent cross-check of the
kernel's slack: the target is contained iff the arcs of its generators cover
every direction.
"""

import math

import numpy as np

from carousel.hull import ArcPiece, GeneratorSet, HullBoundary
from carousel.oracle import DEFAULT_SAMPLES, sample_hull_polygon
from carousel.planar import Circle2

TAU = math.tau


def sites_as_generators(sites) -> GeneratorSet:
    return GeneratorSet(tuple(Circle2(s, 0.0) for s in sites))


def support(gens: GeneratorSet, theta: float) -> float:
    """Support value of the hull in direction theta: max of center.u + radius."""
    c = math.cos(theta)
    s = math.sin(theta)
    return max(g.center.x * c + g.center.y * s + g.radius for g in gens)


def boundary_support(gens: GeneratorSet, boundary: HullBoundary, theta: float) -> float:
    """Support of the boundary chain: arcs contribute their sub-arc maximum."""
    glist = list(gens)
    c = math.cos(theta)
    s = math.sin(theta)
    best = -math.inf
    for p in boundary.pieces:
        v = max(p.start.x * c + p.start.y * s, p.end.x * c + p.end.y * s)
        if isinstance(p, ArcPiece) and (theta - p.start_angle) % TAU <= p.width:
            g = glist[p.generator]
            v = g.center.x * c + g.center.y * s + g.radius
        best = max(best, v)
    return best


def chain_closure_error(boundary: HullBoundary) -> float:
    """Largest gap between a piece's end and the next piece's start, cyclically."""
    if not boundary.pieces:
        return 0.0
    worst = 0.0
    for cur, nxt in zip(boundary.pieces, boundary.pieces[1:] + (boundary.pieces[0],)):
        worst = max(worst, cur.end.distance_to(nxt.start))
    return worst


def hull_area(gens: GeneratorSet, boundary: HullBoundary) -> float:
    """Exact hull area from the boundary chain: shoelace plus arc-segment bulges."""
    glist = list(gens)
    if len(boundary.pieces) == 1 and isinstance(boundary.pieces[0], ArcPiece):
        g = glist[boundary.pieces[0].generator]
        return math.pi * g.radius * g.radius
    verts = [p.start for p in boundary.pieces]
    area = 0.5 * sum(a.cross(b) for a, b in zip(verts, verts[1:] + verts[:1]))
    for p in boundary.pieces:
        if isinstance(p, ArcPiece):
            r = glist[p.generator].radius
            area += 0.5 * r * r * (p.width - math.sin(p.width))
    return area


def hull_polygon_area(gens: GeneratorSet, samples: int = DEFAULT_SAMPLES) -> float:
    """Area of the densely inscribed hull polygon (independent area estimate)."""
    x, y = sample_hull_polygon(gens, samples).T
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def coverage_arc(g: Circle2, target: Circle2) -> tuple[float, float] | None:
    """Directions where generator ``g`` alone satisfies the support inequality.

    With d the center distance, phi the direction from the target center to
    the generator center and delta = target.radius - g.radius, the set is
    every direction, (0, tau), when delta <= -d, None (no direction) when
    delta > d, and otherwise the closed arc (phi - alpha, phi + alpha) with
    alpha = arccos(delta / d).
    """
    dx = g.center.x - target.center.x
    dy = g.center.y - target.center.y
    d = math.hypot(dx, dy)
    delta = target.radius - g.radius
    if delta <= -d:
        return 0.0, TAU
    if delta > d or d == 0.0:
        return None
    phi = math.atan2(dy, dx)
    alpha = math.acos(delta / d)
    return phi - alpha, phi + alpha


def uncovered_gaps(arcs) -> list[tuple[float, float]]:
    """The directions no arc covers, as spans (lo, hi) with lo in [0, tau), sorted."""
    spans = sorted((lo % TAU, lo % TAU + (hi - lo)) for lo, hi in filter(None, arcs))
    if not spans:
        return [(0.0, TAU)]
    if any(hi - lo >= TAU for lo, hi in spans):
        return []
    start = spans[0][0]
    reach = start
    gaps = []
    for lo, hi in spans + [(start + TAU, start + TAU)]:
        if lo > reach:
            gaps.append((reach % TAU, reach % TAU + (lo - reach)))
        reach = max(reach, hi)
    return sorted(gaps)
