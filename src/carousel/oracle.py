"""Independent sampling oracle for the 2D containment predicate.

Every generator circle is sampled at the same m angles theta_i = 2 pi i / m,
the convex hull of all samples is taken as a polygon, and the target
circle's own samples are tested point-in-polygon.  This is a primal-space
cross-check of the dual (support/arc-cover) decision; the two may
legitimately disagree only inside a narrow slack band around tangency, set
by the sampling density.

The hull polygon is built directly rather than by a general hull code.
Each sampled circle is a translated, scaled copy of one regular m-gon, so
for every outer normal within pi/m of theta_i, sample i is the support point
of every generator (a radius-0 generator is its centre for every i).  Over
that arc the hull of the whole cloud therefore coincides with the hull of
the k samples numbered i.  One argmax over generators at each boundary
normal theta_i + pi/m names the generator a_i that owns the hull there.
Where a_(i-1) = a_i, arc i contributes the single vertex "sample i of a_i";
where they differ, it contributes the outer chain of the k samples numbered
i between those two ends, which a quickhull step over at most k points
finds.  Concatenated in arc order, the pieces are the counterclockwise
vertex list of the sampled hull.  This is exact for the sampled polygons,
not an approximation of them: it yields the vertices of the hull of the
full k*m point cloud, at O(k*m) array work with no per-vertex search.  In
floating point it may keep a vertex that lies on a hull edge up to rounding,
which a general hull code drops; such a vertex does not change the polygon.
A cloud that spans no area comes out as its two extreme points or as its
single point, which ``polygon_contains_points`` treats as a segment or a
point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .hull import GeneratorSet
from .planar import Circle2

DEFAULT_SAMPLES = 3600

# |slack| band inside which the inscribed-polygon oracle may disagree
ORACLE_SLACK_BAND = 1e-4


@functools.cache
def _angle_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cos/sin of the sample angles theta_i and of the boundary normals theta_i + pi/m."""
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    tables = (np.cos(ang), np.sin(ang), np.cos(ang + math.pi / m), np.sin(ang + math.pi / m))
    for table in tables:
        table.setflags(write=False)
    return tables


def _circle_samples(c: Circle2, m: int) -> np.ndarray:
    if c.radius <= 0.0:
        return np.array([[c.center.x, c.center.y]])
    cos_t, sin_t, _, _ = _angle_tables(m)
    return np.column_stack((c.center.x + c.radius * cos_t, c.center.y + c.radius * sin_t))


def _outer_chain(a, b, pts: list) -> list:
    """Points of ``pts`` strictly right of a -> b, as the convex chain from a to b.

    Points are (x, y, index) triples; a and b are hull vertices of pts.
    """
    ax, ay, _ = a
    dx, dy = b[0] - ax, b[1] - ay
    right = [(dx * (p[1] - ay) - dy * (p[0] - ax), p) for p in pts]
    right = [(d, p) for d, p in right if d < 0.0]
    if not right:
        return []
    far = min(right)[1]
    rest = [p for _, p in right]
    return _outer_chain(a, far, rest) + [far] + _outer_chain(far, b, rest)


def sample_hull_polygon(gens: GeneratorSet, samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Counterclockwise vertex array of the hull polygon of all circle samples."""
    m = samples
    cos_t, sin_t, cos_b, sin_b = _angle_tables(m)
    cx = np.array([[g.center.x] for g in gens], dtype=float)
    cy = np.array([[g.center.y] for g in gens], dtype=float)
    r = np.array([[g.radius] for g in gens], dtype=float)
    xs = (cx + r * cos_t).ravel()  # sample i of generator g sits at g * m + i
    ys = (cy + r * sin_t).ravel()

    # owner[i]: the generator whose support is largest at normal theta_i + pi/m
    owner = np.argmax(cx * cos_b + cy * sin_b + r * math.cos(math.pi / m), axis=0)
    single = owner * m + np.arange(m)  # arc i's vertex where its owner does not change
    prev = np.roll(owner, 1)
    pieces, start = [], 0
    for i in np.flatnonzero(prev != owner).tolist():
        column = list(zip(xs[i::m].tolist(), ys[i::m].tolist(), range(i, len(xs), m)))
        a, b = column[prev[i]], column[owner[i]]
        # the chain's vertices reach at least the lower end's support at
        # theta_i; this drops interior points that would pass as "right" of a
        # chord whose ends coincide up to rounding
        nx, ny = cos_t[i], sin_t[i]
        level = min(a[0] * nx + a[1] * ny, b[0] * nx + b[1] * ny)
        front = [p for p in column if p[0] * nx + p[1] * ny >= level]
        pieces.append(single[start:i])
        pieces.append([a[2]] + [p[2] for p in _outer_chain(a, b, front)])
        start = i
    pieces.append(single[start:])
    order = np.concatenate(pieces)
    poly = np.column_stack((xs[order], ys[order]))
    # drop consecutive repeats; a collinear cloud keeps its two ends, and a
    # cloud of one point, where every row repeats, keeps that point
    keep = np.any(poly != np.roll(poly, 1, axis=0), axis=1)
    return poly[keep] if keep.any() else poly[:1]


def polygon_contains_points(poly: np.ndarray, queries: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Vectorized membership of query points in a convex ccw polygon.

    Locates each query's wedge around the polygon centroid by binary search
    on vertex angles, then checks the single facing edge.
    """
    k = len(poly)
    if k == 1:
        return np.hypot(*(queries - poly[0]).T) <= eps
    if k == 2:
        a, b = poly
        ab = b - a
        denom = float(ab @ ab)
        t = np.clip((queries - a) @ ab / denom, 0.0, 1.0)
        feet = a + t[:, None] * ab
        return np.hypot(*(queries - feet).T) <= eps

    centroid = poly.mean(axis=0)
    rel = poly - centroid
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    start = int(np.argmin(angles))
    poly = np.roll(poly, -start, axis=0)
    angles = np.roll(angles, -start)

    q_ang = np.arctan2(queries[:, 1] - centroid[1], queries[:, 0] - centroid[0])
    idx = np.searchsorted(angles, q_ang, side="right") - 1
    idx %= k
    a = poly[idx]
    b = poly[(idx + 1) % k]
    cross = (b[:, 0] - a[:, 0]) * (queries[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        queries[:, 0] - a[:, 0]
    )
    return cross >= -eps


def sampling_oracle_contains(
    target: Circle2, gens: GeneratorSet, samples: int = DEFAULT_SAMPLES
) -> bool:
    """True iff every sampled target point lies in the sampled hull polygon."""
    poly = sample_hull_polygon(gens, samples)
    queries = _circle_samples(target, samples)
    return bool(np.all(polygon_contains_points(poly, queries)))


def hull_polygon_area(gens: GeneratorSet, samples: int = DEFAULT_SAMPLES) -> float:
    """Area of the densely inscribed hull polygon (independent area estimate)."""
    x, y = sample_hull_polygon(gens, samples).T
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))
