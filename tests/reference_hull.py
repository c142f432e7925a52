"""Reference helpers for the 2D hull tests, kept out of the package: no verb reads them.

``support`` and ``boundary_support`` give the support function of a
generator set and of its boundary chain, ``chain_closure_error`` the largest
gap between consecutive pieces of the chain, ``hull_area`` and
``hull_polygon_area`` the exact and the sampled hull area.  The closed-form
coverage arcs and their uncovered gaps are an independent cross-check of the
kernel's slack: the target is contained iff the arcs of its generators cover
every direction.  Circles and points are (x, y, r) triples, as the package
takes them.
"""

import math

import numpy as np

from carousel.hull import ArcPiece
from reference_oracle import DEFAULT_SAMPLES, cloud_polygon

TAU = math.tau


def support(gens, theta: float) -> float:
    """Support value of the hull in direction theta: max of center.u + radius."""
    c = math.cos(theta)
    s = math.sin(theta)
    return max(x * c + y * s + r for x, y, r in gens)


def boundary_support(gens, pieces, theta: float) -> float:
    """Support of the boundary chain: arcs contribute their sub-arc maximum."""
    glist = list(gens)
    c = math.cos(theta)
    s = math.sin(theta)
    best = -math.inf
    for p in pieces:
        v = max(p.start[0] * c + p.start[1] * s, p.end[0] * c + p.end[1] * s)
        if isinstance(p, ArcPiece) and (theta - p.start_angle) % TAU <= p.width:
            x, y, r = glist[p.generator]
            v = x * c + y * s + r
        best = max(best, v)
    return best


def chain_closure_error(pieces) -> float:
    """Largest gap between a piece's end and the next piece's start, cyclically."""
    if not pieces:
        return 0.0
    worst = 0.0
    for cur, nxt in zip(pieces, pieces[1:] + pieces[:1]):
        worst = max(worst, math.dist(cur.end, nxt.start))
    return worst


def hull_area(gens, pieces) -> float:
    """Exact hull area from the boundary chain: shoelace plus arc-segment bulges."""
    glist = list(gens)
    if len(pieces) == 1 and isinstance(pieces[0], ArcPiece):
        r = glist[pieces[0].generator][2]
        return math.pi * r * r
    verts = [p.start for p in pieces]
    area = 0.5 * sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(verts, verts[1:] + verts[:1]))
    for p in pieces:
        if isinstance(p, ArcPiece):
            r = glist[p.generator][2]
            area += 0.5 * r * r * (p.width - math.sin(p.width))
    return area


def hull_polygon_area(gens, samples: int = DEFAULT_SAMPLES) -> float:
    """Area of the densely inscribed hull polygon (independent area estimate)."""
    x, y = cloud_polygon(gens, samples).T
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def coverage_arc(g, target) -> tuple[float, float] | None:
    """Directions where generator ``g`` alone satisfies the support inequality.

    With d the center distance, phi the direction from the target center to
    the generator center and delta = r_target - r_g, the set is
    every direction, (0, tau), when delta <= -d, None (no direction) when
    delta > d, and otherwise the closed arc (phi - alpha, phi + alpha) with
    alpha = arccos(delta / d).
    """
    (gx, gy, gr), (tx, ty, tr) = g, target
    dx = gx - tx
    dy = gy - ty
    d = math.hypot(dx, dy)
    delta = tr - gr
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
