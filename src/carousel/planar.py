"""Exact-leaning 2D primitives.

A 2D object is an (x, y, r) float triple: a circle, or a point when r = 0.
This module holds the two numeric bands, the one check of such objects,
orientation predicates and the point-to-segment distance that the hull and
witness code are built on.  All operations are pure functions on plain
floats in double precision.

Every orientation that a 2D branch reads is the sign of ``_orientation``;
only the sampling oracle keeps its own cross products, to stay independent
of the kernel's code.  ``witness.point_decomposition`` reads its row
unchecked, and both its callers pass it a checked row.
"""

from __future__ import annotations

import math

TAU = math.tau


# Absolute band for geometric residuals: orientations, tangencies, coincidences.
EPS_GEOM = 1e-9
# Verdict band, in 2D and 3D alike: an inclusion is contained iff its slack >= -EPS_DECISION;
# the 3D rule compares the slack normalised by the inclusion's largest length.
EPS_DECISION = 1e-6


def checked_objects(objs, nonempty: bool = False) -> tuple[tuple[float, float, float], ...]:
    """The 2D objects ``objs`` as (x, y, r) float triples; a point is r = 0.

    Raises ValueError on a coordinate that is not finite, on a radius that
    is negative or not finite, and, with ``nonempty``, on an empty list.
    """
    out = tuple([(float(x), float(y), float(r)) for x, y, r in objs])
    for x, y, r in out:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y})")
        if not 0.0 <= r < math.inf:
            raise ValueError(f"radius must be finite and >= 0, got {r}")
    if nonempty and not out:
        raise ValueError("generator list must be nonempty")
    return out


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
