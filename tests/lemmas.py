"""The paper's lemma-level constructions, kept out of the package: no verb reads them.

Homotheties and their compositions, tangent points from an outside focus,
the external homothety center of two circles, and membership in and signed
clearance to round-edged angles (the unbounded convex region spanned by a
circle as seen from an outside focus).  ``tests/test_planar.py`` unit-tests
them, and the acceptance suite's homothety-composition and
perspective-inclusion campaigns run on them; ``_perspective_config`` and
``reangle_boundary_samples`` draw the perspective campaign's inputs.  The
constructions work on their own ``Point2`` vectors, with the arithmetic they
use, and ``Circle2`` circles; the package itself has plain (x, y, r) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from carousel.errors import CarouselError
from carousel.planar import EPS_GEOM, TAU, _point_segment_distance


class Point2(NamedTuple):
    """Point (or free vector) in the plane, with vector arithmetic."""

    x: float
    y: float

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


class Circle2(NamedTuple):
    """Circle of the lemma constructions; radius 0 is a point."""

    center: Point2
    radius: float


def pt(x: float, y: float) -> Point2:
    return Point2(x, y)


def circle(x: float, y: float, r: float) -> Circle2:
    return Circle2(Point2(x, y), r)


class FocusInsideOrOn(CarouselError):
    """Focus point lies inside or on the spanning circle."""


class DegenerateRadius(CarouselError):
    """A construction needs a strictly positive radius."""


class EqualRadii(CarouselError):
    """External tangents are parallel; no finite homothety center."""


class NestedCircles(CarouselError):
    """One circle lies inside the other; no external perspectivity."""


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


def _perspective_config(rng):
    """Externally perspective circle pair plus an admissible inner focus G."""
    r2 = rng.uniform(0.2, 1.5)
    lam = rng.uniform(1.1, 5.0)
    r1 = lam * r2
    F = pt(rng.uniform(-3, 3), rng.uniform(-3, 3))
    d2 = r2 * rng.uniform(1.5, 10.0)
    ang = rng.uniform(0, math.tau)
    P2 = Point2(F.x + d2 * math.cos(ang), F.y + d2 * math.sin(ang))
    P1 = Point2(F.x + lam * (P2.x - F.x), F.y + lam * (P2.y - F.y))
    s = rng.uniform(r2 / d2 + 0.05, 0.95)
    G = Point2(P2.x + s * (F.x - P2.x), P2.y + s * (F.y - P2.y))
    return F, Circle2(P1, r1), G, Circle2(P2, r2)


def reangle_boundary_samples(F, c, arc_n=120, leg_n=120, leg_reach=40.0):
    phi = math.atan2(F.y - c.center.y, F.x - c.center.x)
    alpha = math.acos(min(1.0, c.radius / F.distance_to(c.center)))
    pts = []
    for i in range(arc_n):
        a = phi - alpha + (2 * alpha) * i / (arc_n - 1)
        pts.append(Point2(c.center.x + c.radius * math.cos(a), c.center.y + c.radius * math.sin(a)))
    t1, t2 = tangent_points_from_point(F, c)
    for t in (t1, t2):
        d = t - F
        d = d * (1.0 / d.norm())
        for i in range(leg_n):
            reach = leg_reach * (i + 1) / leg_n
            pts.append(Point2(t.x + reach * d.x, t.y + reach * d.y))
    return pts
