"""Exact-leaning 2D primitives.

Points, circles, homotheties, tangent constructions, orientation predicates,
and membership in round-edged angles (the unbounded convex region spanned by
a circle as seen from an outside focus).  All values are immutable and all
operations are pure functions; everything works in plain double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateRadius,
    EqualRadii,
    FocusInsideOrOn,
    NestedCircles,
)

TAU = math.tau


# Absolute band for geometric residuals: orientations, tangencies, coincidences.
EPS_GEOM = 1e-9
# Verdict band, in 2D and 3D alike: an inclusion is contained iff its slack >= -EPS_DECISION.
EPS_DECISION = 1e-6


@dataclass(frozen=True)
class Point2:
    """Point (or free vector) in the plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Point2":
        return Point2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def pt(x: float, y: float) -> Point2:
    return Point2(x, y)


@dataclass(frozen=True)
class Circle2:
    """Circle with nonnegative radius; radius 0 denotes a point generator."""

    center: Point2
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")


def circle(x: float, y: float, r: float) -> Circle2:
    return Circle2(Point2(x, y), r)


@dataclass(frozen=True)
class Homothety:
    """Scaling about ``center`` with nonzero ``ratio``: X -> (1-ratio)*center + ratio*X."""

    center: Point2
    ratio: float

    def __post_init__(self):
        if self.ratio == 0.0 or not math.isfinite(self.ratio):
            raise ValueError(f"ratio must be finite and nonzero, got {self.ratio}")

    def to_affine(self) -> "AffineSimilarity":
        s = self.ratio
        return AffineSimilarity(s, Point2((1.0 - s) * self.center.x, (1.0 - s) * self.center.y))


@dataclass(frozen=True)
class AffineSimilarity:
    """Closed form for compositions of homotheties: X -> scale*X + offset.

    A ratio product of 1 leaves a pure translation (scale 1); any other
    product has a fixed point and is again a homothety.
    """

    scale: float
    offset: Point2

    def apply(self, p: Point2) -> Point2:
        return Point2(self.scale * p.x + self.offset.x, self.scale * p.y + self.offset.y)

    def compose(self, inner: "AffineSimilarity") -> "AffineSimilarity":
        # self after inner: x -> self.scale*(inner ...) + self.offset
        return AffineSimilarity(
            self.scale * inner.scale,
            Point2(
                self.scale * inner.offset.x + self.offset.x,
                self.scale * inner.offset.y + self.offset.y,
            ),
        )

    def fixed_point(self) -> Point2:
        if self.scale == 1.0:
            raise ValueError("a translation has no fixed point")
        d = 1.0 - self.scale
        return Point2(self.offset.x / d, self.offset.y / d)


def homothety_apply(h: Homothety, x: Point2) -> Point2:
    """Image of ``x`` under the homothety: (1-ratio)*center + ratio*x."""
    lam = h.ratio
    return Point2(
        (1.0 - lam) * h.center.x + lam * x.x,
        (1.0 - lam) * h.center.y + lam * x.y,
    )


def homothety_apply_circle(h: Homothety, c: Circle2) -> Circle2:
    """Circle image under a homothety: scaled radius, mapped center."""
    return Circle2(homothety_apply(h, c.center), abs(h.ratio) * c.radius)


def homothety_conjugate(
    F: Point2, lam: float, Q: Point2, mu: float
) -> tuple[Point2, AffineSimilarity, AffineSimilarity]:
    """Conjugation identity for two homotheties.

    With R the image of Q under (F, lam), the composition (R, mu) after
    (F, lam) equals (F, lam) after (Q, mu).  Returns R and both sides in
    closed form so equality is two scalars and a point.
    """
    hf = Homothety(F, lam)
    hq = Homothety(Q, mu)
    R = homothety_apply(hf, Q)
    hr = Homothety(R, mu)
    lhs = hr.to_affine().compose(hf.to_affine())
    rhs = hf.to_affine().compose(hq.to_affine())
    return R, lhs, rhs


def _cross(ax, ay, bx, by, cx, cy) -> float:
    """The cross product (b-a) x (c-a) on plain floats: twice the signed area of abc."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _orientation(ax, ay, bx, by, cx, cy) -> int:
    v = _cross(ax, ay, bx, by, cx, cy)
    if abs(v) <= EPS_GEOM:
        return 0
    return 1 if v > 0.0 else -1


def orientation(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of the cross product (b-a) x (c-a); values within EPS_GEOM count as 0."""
    return _orientation(a.x, a.y, b.x, b.y, c.x, c.y)


def tangent_points_from_point(F: Point2, c: Circle2) -> tuple[Point2, Point2]:
    """The two tangent points on ``c`` of the tangent lines through ``F``.

    T1 is the counterclockwise one as seen from F (positive cross of the
    center direction with the T1 direction), which fixes a deterministic
    order for golden tests.
    """
    if c.radius <= 0.0:
        raise DegenerateRadius("tangent points need a positive radius")
    d = F.distance_to(c.center)
    if d <= c.radius + EPS_GEOM:
        raise FocusInsideOrOn(f"focus at distance {d} is within the closed disk of radius {c.radius}")
    phi = math.atan2(F.y - c.center.y, F.x - c.center.x)
    alpha = math.acos(min(1.0, c.radius / d))
    ta = Point2(
        c.center.x + c.radius * math.cos(phi + alpha),
        c.center.y + c.radius * math.sin(phi + alpha),
    )
    tb = Point2(
        c.center.x + c.radius * math.cos(phi - alpha),
        c.center.y + c.radius * math.sin(phi - alpha),
    )
    if (c.center - F).cross(ta - F) > 0.0:
        return ta, tb
    return tb, ta


def external_homothety_center(c1: Circle2, c2: Circle2) -> Point2:
    """Intersection point of the external tangent lines of two circles.

    Solves the positive-ratio homothety equation mapping c1 onto c2; requires
    distinct positive radii and neither circle inside the other.
    """
    if c1.radius <= 0.0 or c2.radius <= 0.0:
        raise DegenerateRadius("external homothety center needs positive radii")
    if abs(c1.radius - c2.radius) <= EPS_GEOM:
        raise EqualRadii("equal radii: external tangents are parallel")
    d = c1.center.distance_to(c2.center)
    if d <= abs(c1.radius - c2.radius) + EPS_GEOM:
        raise NestedCircles("one circle lies inside the other")
    lam = c2.radius / c1.radius
    inv = 1.0 / (1.0 - lam)
    return Point2(
        (c2.center.x - lam * c1.center.x) * inv,
        (c2.center.y - lam * c1.center.y) * inv,
    )


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    vx = bx - ax
    vy = by - ay
    wx = px - ax
    wy = py - ay
    vv = vx * vx + vy * vy
    if vv <= 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(wx - t * vx, wy - t * vy)


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Distance from ``p`` to the closed segment [a, b]."""
    return _point_segment_distance(p.x, p.y, a.x, a.y, b.x, b.y)


def point_ray_distance(p: Point2, origin: Point2, direction: Point2) -> float:
    """Distance from ``p`` to the ray from ``origin`` along ``direction``."""
    dd = direction.dot(direction)
    if dd <= 0.0:
        return p.distance_to(origin)
    t = (p - origin).dot(direction) / dd
    if t < 0.0:
        t = 0.0
    foot = Point2(origin.x + t * direction.x, origin.y + t * direction.y)
    return p.distance_to(foot)


def _reangle_check(F: Point2, c: Circle2) -> float:
    d = F.distance_to(c.center)
    if d <= c.radius + EPS_GEOM:
        raise FocusInsideOrOn(f"focus at distance {d} is within the closed disk of radius {c.radius}")
    return d


def reangle_contains(F: Point2, c: Circle2, x: Point2) -> bool:
    """Membership in the round-edged angle with focus ``F`` and spanning circle ``c``.

    The region is the tangent cone of the disk apexed at F intersected with
    the set of points whose closed segment to F meets the closed disk.  This
    keeps the whole disk, excludes F, is unbounded away from F, and is
    bounded by the front arc and two tangent half-lines.
    """
    d = _reangle_check(F, c)
    vx = x.x - F.x
    vy = x.y - F.y
    wx = c.center.x - F.x
    wy = c.center.y - F.y
    vn = math.hypot(vx, vy)
    if vn <= EPS_GEOM:
        return False  # the focus itself is never in the region
    gamma = math.atan2(abs(wx * vy - wy * vx), wx * vx + wy * vy)
    beta = math.asin(min(1.0, c.radius / d))
    if gamma > beta + EPS_GEOM:
        return False
    seg = _point_segment_distance(c.center.x, c.center.y, F.x, F.y, x.x, x.y)
    return seg <= c.radius + EPS_GEOM


def reangle_clearance(F: Point2, c: Circle2, x: Point2) -> float:
    """Signed distance from ``x`` to the boundary of the round-edged angle.

    Positive inside, negative outside.  The boundary is the front arc of the
    spanning circle plus the two tangent half-lines starting at the tangent
    points and running away from the focus.
    """
    _reangle_check(F, c)
    t1, t2 = tangent_points_from_point(F, c)
    pieces = []
    for t in (t1, t2):
        pieces.append(point_ray_distance(x, t, t - F))
    # front arc: the part of the circle between the tangent points facing F
    phi = math.atan2(F.y - c.center.y, F.x - c.center.x)
    alpha = math.acos(min(1.0, c.radius / F.distance_to(c.center)))
    ang = math.atan2(x.y - c.center.y, x.x - c.center.x)
    diff = math.remainder(ang - phi, TAU)
    if abs(diff) <= alpha:
        pieces.append(abs(x.distance_to(c.center) - c.radius))
    else:
        pieces.append(min(x.distance_to(t1), x.distance_to(t2)))
    dist = min(pieces)
    return dist if reangle_contains(F, c, x) else -dist
