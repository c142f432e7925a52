"""Containment of a circle in the convex hull of circles and points.

The decision runs in the support (dual) domain.  For direction theta the
hull of generators supports h(theta) = max_g(center_g . u(theta) + r_g), so
the target circle is contained iff every direction satisfies the support
inequality.  The slack, the least support surplus over all directions, is
the minimum of an envelope of sinusoids; it is found exactly by evaluating
the envelope at its critical angles (each generator's antipodal minimum and
the pairwise switch angles), and it decides the verdict: contained iff
slack >= -eps_decision, the rule the 3D kernel uses too.  Per generator the
directions that satisfy the inequality form a closed arc with a closed form;
the directions no arc covers are the certificate, built only when read.

The same switch-angle machinery yields the hull boundary as a cyclic chain
of circular arcs and common external tangent segments, used for rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import DegenerateHull
from .planar import DEFAULT_TOLERANCE, TAU, Circle2, Point2, Tolerance

_TINY = 1e-15


@dataclass(frozen=True)
class GeneratorSet:
    """Nonempty finite set of circles (radius >= 0) spanning the hull."""

    generators: tuple[Circle2, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("generator set must be nonempty")
        object.__setattr__(self, "generators", gens)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    @classmethod
    def from_points(cls, points) -> "GeneratorSet":
        return cls(tuple(Circle2(p, 0.0) for p in points))


@dataclass(frozen=True)
class ArcInterval:
    """Closed set of directions {theta mod tau : lo <= theta <= hi}.

    Spans keep hi - lo in [0, tau).  Two distinguished values: EMPTY is
    encoded with hi < lo, FULL with width exactly tau.
    """

    lo: float
    hi: float

    EMPTY: ClassVar["ArcInterval"]  # assigned below
    FULL: ClassVar["ArcInterval"]

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    @property
    def is_full(self) -> bool:
        return self.hi - self.lo >= TAU

    @property
    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return min(self.hi - self.lo, TAU)

    def contains(self, theta: float) -> bool:
        if self.is_empty:
            return False
        if self.is_full:
            return True
        return (theta - self.lo) % TAU <= self.hi - self.lo


ArcInterval.EMPTY = ArcInterval(0.0, -1.0)
ArcInterval.FULL = ArcInterval(0.0, TAU)


def support(gens: GeneratorSet, theta: float) -> float:
    """Support value of the hull in direction theta: max of center.u + radius."""
    c = math.cos(theta)
    s = math.sin(theta)
    return max(g.center.x * c + g.center.y * s + g.radius for g in gens)


def coverage_arc(g: Circle2, target: Circle2) -> ArcInterval:
    """Directions where generator ``g`` alone satisfies the support inequality.

    Closed form: with d the center distance, phi the direction from the
    target center to the generator center, and delta = target.radius -
    g.radius, the set is FULL when delta <= -d, EMPTY when delta > d, and
    otherwise the closed arc [phi - alpha, phi + alpha] with
    alpha = arccos(delta / d).  Concentric pairs (d = 0) are FULL when
    delta <= 0 and EMPTY otherwise.
    """
    dx = g.center.x - target.center.x
    dy = g.center.y - target.center.y
    d = math.hypot(dx, dy)
    delta = target.radius - g.radius
    if d <= _TINY:
        return ArcInterval.FULL if delta <= 0.0 else ArcInterval.EMPTY
    x = delta / d
    if x <= -1.0:
        return ArcInterval.FULL
    if x > 1.0:
        return ArcInterval.EMPTY
    phi = math.atan2(dy, dx)
    alpha = math.acos(x)
    return ArcInterval(phi - alpha, phi + alpha)


def merge_arcs(arcs: list[ArcInterval]) -> list[ArcInterval]:
    """Union of closed arcs as disjoint spans with lo in [0, tau), sorted by lo."""
    if any(a.is_full for a in arcs):
        return [ArcInterval.FULL]
    spans = []
    for a in arcs:
        if a.is_empty:
            continue
        lo = a.lo % TAU
        hi = lo + a.width
        if hi > TAU:
            spans.append((lo, TAU))
            spans.append((0.0, hi - TAU))
        else:
            spans.append((lo, hi))
    if not spans:
        return []
    spans.sort()
    merged = [spans[0]]
    for lo, hi in spans[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    # closed arcs meeting across 0 merge into one wrapped span
    if len(merged) > 1 and merged[0][0] <= 0.0 and merged[-1][1] >= TAU:
        lo, hi = merged.pop()
        first = merged.pop(0)
        merged.insert(0, (lo - TAU, first[1]))
    result = [ArcInterval(lo, hi) for lo, hi in merged]
    if len(result) == 1 and result[0].width >= TAU - _TINY:
        return [ArcInterval.FULL]
    return result


def uncovered_gaps(arcs: list[ArcInterval]) -> list[ArcInterval]:
    """Complement of the arc union, as disjoint closed spans."""
    merged = merge_arcs(arcs)
    if merged and merged[0].is_full:
        return []
    if not merged:
        return [ArcInterval.FULL]
    gaps = []
    for cur, nxt in zip(merged, merged[1:]):
        gaps.append(ArcInterval(cur.hi, nxt.lo))
    wrap = merged[0].lo + TAU - merged[-1].hi
    if wrap > 0.0:
        gaps.append(ArcInterval(merged[-1].hi, merged[0].lo + TAU))
    return gaps


@dataclass(frozen=True)
class ContainmentResult:
    """Verdict plus certificate for one containment query.

    ``slack`` is the minimal support surplus over all directions and decides
    the verdict: contained iff ``slack >= -eps_decision``.
    ``witness_direction`` (present iff not contained) attains that slack.
    ``uncovered`` is the arc-cover certificate: the directions that no
    generator's coverage arc covers, built from the stored query when read.
    """

    contained: bool
    slack: float
    witness_direction: float | None = None
    target: Circle2 = field(kw_only=True, compare=False, repr=False)
    generators: GeneratorSet = field(kw_only=True, compare=False, repr=False)

    @property
    def uncovered(self) -> tuple[ArcInterval, ...]:
        return tuple(uncovered_gaps([coverage_arc(g, self.target) for g in self.generators]))


def _critical_angles(terms) -> list[float]:
    """Angles where max_g(dx cos + dy sin + dr) can take its minimum, ascending mod tau.

    An envelope of sinusoids is smallest at one sinusoid's own minimum (the
    direction antipodal to its centre offset) or where two of them cross;
    theta = 0 stands in when every centre coincides with the target's.
    """
    cands = [0.0]
    n = len(terms)
    for dx, dy, _ in terms:
        if math.hypot(dx, dy) > _TINY:
            cands.append(math.atan2(dy, dx) + math.pi)
    for i in range(n):
        dxi, dyi, dri = terms[i]
        for j in range(i + 1, n):
            dxj, dyj, drj = terms[j]
            ax = dxi - dxj
            ay = dyi - dyj
            rho = math.hypot(ax, ay)
            if rho <= _TINY:
                continue
            x = (drj - dri) / rho
            if -1.0 <= x <= 1.0:
                base = math.atan2(ay, ax)
                delta = math.acos(x)
                cands.append(base + delta)
                cands.append(base - delta)
    return sorted(c % TAU for c in cands)


def circle_in_hull(
    target: Circle2, gens: GeneratorSet, tol: Tolerance = DEFAULT_TOLERANCE
) -> ContainmentResult:
    """Decide target-circle containment in the hull of the generators.

    The slack is minimised exactly over the critical angles of the support
    gap, and the target is contained iff that slack is at least
    ``-tol.eps_decision`` (the rule ``sphere_in_hull3`` uses in 3D).  The
    first critical angle attaining the minimum is the witness direction of a
    non-containment.  Points are the radius-0 special case on either side.
    """
    tx = target.center.x
    ty = target.center.y
    tr = target.radius
    terms = [(g.center.x - tx, g.center.y - ty, g.radius - tr) for g in gens]

    best = math.inf
    best_theta = 0.0
    for theta in _critical_angles(terms):
        c = math.cos(theta)
        s = math.sin(theta)
        v = -math.inf
        for dx, dy, dr in terms:
            w = dx * c + dy * s + dr
            if w > v:
                v = w
        if v < best:
            best = v
            best_theta = theta

    contained = best >= -tol.eps_decision
    return ContainmentResult(
        contained=contained,
        slack=best,
        witness_direction=None if contained else best_theta,
        target=target,
        generators=gens,
    )


def min_slack(
    target: Circle2, gens: GeneratorSet, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Minimal support surplus; strictly positive iff the target is interior."""
    return circle_in_hull(target, gens, tol).slack


# -- hull boundary -----------------------------------------------------------


@dataclass(frozen=True)
class ArcPiece:
    """Boundary arc of one generator circle, counterclockwise from start_angle."""

    generator: int
    start_angle: float
    end_angle: float  # end_angle > start_angle; may wrap past tau
    start: Point2
    end: Point2

    @property
    def width(self) -> float:
        return self.end_angle - self.start_angle


@dataclass(frozen=True)
class SegmentPiece:
    """Common external tangent segment between two consecutive active generators."""

    start: Point2
    end: Point2
    generators: tuple[int, int]


@dataclass(frozen=True)
class HullBoundary:
    """Counterclockwise cyclic chain of arcs and tangent segments.

    Generators that are never active (strictly interior or duplicates) are
    listed in ``omitted`` for diagnostics.
    """

    pieces: tuple
    omitted: tuple[int, ...] = ()

    def chain_closure_error(self) -> float:
        if not self.pieces:
            return 0.0
        worst = 0.0
        for cur, nxt in zip(self.pieces, self.pieces[1:] + (self.pieces[0],)):
            worst = max(worst, cur.end.distance_to(nxt.start))
        return worst


def _point_on(g: Circle2, theta: float) -> Point2:
    return Point2(
        g.center.x + g.radius * math.cos(theta),
        g.center.y + g.radius * math.sin(theta),
    )


def _boundary_support(gens: list[Circle2], boundary: HullBoundary, theta: float) -> float:
    """Support of the boundary chain: arcs contribute their sub-arc maximum."""
    c = math.cos(theta)
    s = math.sin(theta)
    best = -math.inf
    for p in boundary.pieces:
        if isinstance(p, ArcPiece):
            g = gens[p.generator]
            rel = (theta - p.start_angle) % TAU
            if rel <= p.width:
                v = g.center.x * c + g.center.y * s + g.radius
            else:
                v = max(p.start.x * c + p.start.y * s, p.end.x * c + p.end.y * s)
        else:
            v = max(p.start.x * c + p.start.y * s, p.end.x * c + p.end.y * s)
        if v > best:
            best = v
    return best


def boundary_support(gens: GeneratorSet, boundary: HullBoundary, theta: float) -> float:
    return _boundary_support(list(gens), boundary, theta)


def hull_boundary(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOLERANCE) -> HullBoundary:
    """Construct the hull boundary chain by sweeping the support argmax.

    Switch angles come from pairwise equalities of the support sinusoids; on
    each interval between consecutive switch angles a single generator is
    active and contributes an arc (omitted for radius-0 vertices), and
    consecutive distinct generators are joined by their common external
    tangent segment at the switch angle.
    """
    glist = list(gens.generators)
    n = len(glist)

    # exact duplicates never become active on their own
    first_of = {}
    for i, g in enumerate(glist):
        key = (g.center.x, g.center.y, g.radius)
        first_of.setdefault(key, i)
    live = sorted(set(first_of.values()))

    if all(glist[i].radius == 0.0 for i in live):
        pts = [glist[i].center for i in live]
        if len(pts) == 1:
            raise DegenerateHull("hull is a single point", "point", (pts[0],))
        a = pts[0]
        extent = max((p - a).norm() for p in pts)
        dirp = max(pts, key=lambda p: (p - a).norm())
        collinear = all(abs((dirp - a).cross(p - a)) <= tol.eps_geom for p in pts)
        if collinear:
            axis = dirp - a
            lo = min(pts, key=lambda p: (p - a).dot(axis))
            hi = max(pts, key=lambda p: (p - a).dot(axis))
            if extent <= tol.eps_geom:
                raise DegenerateHull("hull is a single point", "point", (a,))
            raise DegenerateHull("hull is a segment", "segment", (lo, hi))

    def sval(i: int, c: float, s: float) -> float:
        g = glist[i]
        return g.center.x * c + g.center.y * s + g.radius

    def argmax_at(theta: float) -> int:
        c = math.cos(theta)
        s = math.sin(theta)
        best_i = live[0]
        best_v = sval(best_i, c, s)
        for i in live[1:]:
            v = sval(i, c, s)
            if v > best_v:
                best_v = v
                best_i = i
        return best_i

    # pairwise switch angles
    angles = []
    for a_pos in range(len(live)):
        i = live[a_pos]
        gi = glist[i]
        for b_pos in range(a_pos + 1, len(live)):
            j = live[b_pos]
            gj = glist[j]
            ax = gi.center.x - gj.center.x
            ay = gi.center.y - gj.center.y
            rho = math.hypot(ax, ay)
            if rho <= _TINY:
                continue
            x = (gj.radius - gi.radius) / rho
            if -1.0 <= x <= 1.0:
                base = math.atan2(ay, ax)
                delta = math.acos(x)
                angles.append((base + delta) % TAU)
                angles.append((base - delta) % TAU)
    angles = sorted(angles)
    dedup = []
    for a in angles:
        if not dedup or a - dedup[-1] > 1e-12:
            dedup.append(a)
    if dedup and dedup[0] + TAU - dedup[-1] <= 1e-12:
        dedup.pop()
    angles = dedup

    if not angles:
        g0 = argmax_at(0.0)
        if glist[g0].radius <= 0.0:
            raise DegenerateHull("hull is a single point", "point", (glist[g0].center,))
        start = _point_on(glist[g0], 0.0)
        piece = ArcPiece(g0, 0.0, TAU, start, start)
        omitted = tuple(i for i in range(n) if i != g0)
        return HullBoundary((piece,), omitted)

    # active generator on each interval between consecutive switch angles
    runs = []  # (gen index, theta_start, theta_end) with theta_end > theta_start
    m = len(angles)
    for k in range(m):
        lo = angles[k]
        hi = angles[(k + 1) % m] + (TAU if k + 1 == m else 0.0)
        mid = 0.5 * (lo + hi)
        runs.append([argmax_at(mid % TAU), lo, hi])

    # merge circular runs of the same active generator
    merged = []
    for r in runs:
        if merged and merged[-1][0] == r[0] and abs(merged[-1][2] - r[1]) <= 1e-12:
            merged[-1][2] = r[2]
        else:
            merged.append(r)
    if len(merged) > 1 and merged[0][0] == merged[-1][0]:
        # same generator active across the sweep start: one wrapped run
        first = merged.pop(0)
        merged[-1][2] = first[2] + TAU

    if len(merged) == 1:
        g0 = merged[0][0]
        if glist[g0].radius <= 0.0:
            raise DegenerateHull("hull is a single point", "point", (glist[g0].center,))
        theta0 = merged[0][1] % TAU
        start = _point_on(glist[g0], theta0)
        piece = ArcPiece(g0, theta0, theta0 + TAU, start, start)
        omitted = tuple(i for i in range(n) if i != g0)
        return HullBoundary((piece,), omitted)

    pieces = []
    attributed = set()
    count = len(merged)
    for idx in range(count):
        gen_i, lo, hi = merged[idx]
        nxt_gen = merged[(idx + 1) % count][0]
        g = glist[gen_i]
        attributed.add(gen_i)
        if g.radius > 0.0 and hi - lo > 1e-12:
            pieces.append(ArcPiece(gen_i, lo, hi, _point_on(g, lo), _point_on(g, hi)))
        p_from = _point_on(g, hi)
        p_to = _point_on(glist[nxt_gen], hi)
        if p_from.distance_to(p_to) > tol.eps_geom:
            pieces.append(SegmentPiece(p_from, p_to, (gen_i, nxt_gen)))
    omitted = tuple(i for i in range(n) if i not in attributed)
    return HullBoundary(tuple(pieces), omitted)


def hull_area(gens: GeneratorSet, boundary: HullBoundary) -> float:
    """Exact hull area from the boundary chain: shoelace plus arc-segment bulges."""
    glist = list(gens.generators)
    if len(boundary.pieces) == 1 and isinstance(boundary.pieces[0], ArcPiece):
        g = glist[boundary.pieces[0].generator]
        return math.pi * g.radius * g.radius
    verts = [p.start for p in boundary.pieces]
    area2 = 0.0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        area2 += a.cross(b)
    area = 0.5 * area2
    for p in boundary.pieces:
        if isinstance(p, ArcPiece):
            r = glist[p.generator].radius
            w = p.width
            area += 0.5 * r * r * (w - math.sin(w))
    return area
