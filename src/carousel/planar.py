"""Exact-leaning 2D primitives.

Points, circles, the two numeric bands, orientation predicates and the
point-to-segment distance that the hull and witness code are built on.  All
values are immutable and all operations are pure functions; everything works
in plain double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAU = math.tau


# Absolute band for geometric residuals: orientations, tangencies, coincidences.
EPS_GEOM = 1e-9
# Verdict band, in 2D and 3D alike: an inclusion is contained iff its slack >= -EPS_DECISION;
# the 3D rule compares the slack normalised by the inclusion's largest length.
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


def _cross(ax, ay, bx, by, cx, cy) -> float:
    """The cross product (b-a) x (c-a) on plain floats: twice the signed area of abc."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _orientation(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the cross product (b-a) x (c-a); values within EPS_GEOM count as 0."""
    v = _cross(ax, ay, bx, by, cx, cy)
    if abs(v) <= EPS_GEOM:
        return 0
    return 1 if v > 0.0 else -1


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    """Distance from (px, py) to the closed segment from (ax, ay) to (bx, by)."""
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
