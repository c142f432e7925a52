"""Independent sampling oracle for the 2D containment predicate.

Every generator circle is sampled at the same m angles theta_i = 2 pi i / m,
the convex hull of all samples is taken as a polygon, and the target
circle's own samples are tested against it.  This is a primal-space
cross-check of the dual (support-slack) decision; the two may
legitimately disagree only inside a narrow slack band around tangency, set
by the sampling density.

The hull polygon is built from each normal's owner, without a general hull
code and without materialising the k*m sample cloud.  Each sampled circle is
a translated, scaled copy of one regular m-gon, so for every outer normal
within pi/m of theta_i, sample i is the support point of every generator (a
radius-0 generator is its centre for every i).  Over that arc the hull of the
whole cloud therefore coincides with the hull of the k samples numbered i.
A running comparison over the generators names, at each boundary normal
theta_i + pi/m, the first generator a_i whose support is largest there.
Where a_(i-1) = a_i, arc i contributes the single vertex "sample i of a_i",
taken from a_i's centre and radius alone; only where they differ are the k
samples numbered i built, and the outer chain between the two owners'
samples, which a quickhull step over at most k points finds, is the arc's
contribution.  Concatenated in arc order, the pieces are the
counterclockwise vertex list of the sampled hull.  This is exact for the
sampled polygons, not an approximation of them: it yields the vertices of
the hull of the full k*m point cloud, at O(k*m) arithmetic in arrays of
length m.  In floating point it may keep a vertex that lies on a hull edge up
to rounding, which a general hull code drops; such a vertex does not change
the polygon.  A cloud that spans no area comes out as its two extreme points
or as its single point, which ``polygon_contains_points`` treats as a
segment or a point.

A convex polygon lies inside another iff, for every edge of the outer one,
the inner one's vertex extreme along that edge's outward normal lies inside
the edge (Preparata & Shamos, *Computational Geometry*, 1985, ch. 2).  The
target's samples form a regular m-gon on the same angle grid, so for the edge
a -> b with outward normal phi, (b - a) x (q_i - a) equals
(b - a) x (c - a) - r |b - a| cos(theta_i - phi) and is least at the grid
angle nearest phi.  The oracle therefore checks each hull edge only at the two
target samples whose angles bracket phi (a radius-0 target only at its
centre), O(number of hull vertices) work in place of locating all m target
samples.

Membership is decided with bands that follow the rounding error.  With L
the largest coordinate magnitude the input reaches (|centre coordinate| +
radius over the generators and the target) and D its extent (the longer side
of the circles' bounding box), a cross product passes at >= -1e-12 L D and a
distance to a 1- or 2-vertex polygon at <= 1e-12 L.  A sample coordinate is
rounded to about 1e-16 L, and a cross product (b - a) x (q - a), whose factors
are at most about D long, to about 1e-16 L D.  A pair of vertices that
coincide up to rounding makes an edge whose direction is noise, so the band is
not taken relative to the edge's own length.  Uniformly scaling the input
leaves every verdict unchanged; moving it away from the origin widens the
bands only as fast as the rounding error grows, in proportion to L.
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

# membership band at unit length scale (see the module docstring)
_BAND = 1e-12


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


def _prev(a: np.ndarray) -> np.ndarray:
    """Cyclic predecessor of each element: a[i - 1]."""
    return np.concatenate((a[-1:], a[:-1]))


def sample_hull_polygon(gens: GeneratorSet, samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Counterclockwise vertex array of the hull polygon of all circle samples.

    Raises ValueError for fewer than 3 samples per circle: an arc of normals
    then spans half the circle or more, and a single owner no longer means a
    single vertex.
    """
    if samples < 3:
        raise ValueError(f"need at least 3 samples per circle, got {samples}")
    m = samples
    cos_t, sin_t, cos_b, sin_b = _angle_tables(m)
    cx = np.array([g.center.x for g in gens], dtype=float)
    cy = np.array([g.center.y for g in gens], dtype=float)
    r = np.array([g.radius for g in gens], dtype=float)

    # owner[i]: the first generator whose support is largest at normal
    # theta_i + pi/m (np.argmax's tie rule, hence the strict comparison)
    h = math.cos(math.pi / m)
    owner = np.zeros(m, dtype=np.intp)
    best = cx[0] * cos_b + cy[0] * sin_b + r[0] * h
    for g in range(1, len(r)):
        support = cx[g] * cos_b + cy[g] * sin_b + r[g] * h
        np.putmask(owner, support > best, g)
        np.maximum(best, support, out=best)
    # arc i's vertex where its owner does not change: sample i of the owner
    x = cx[owner] + r[owner] * cos_t
    y = cy[owner] + r[owner] * sin_t

    xs, ys, start = [], [], 0
    for i in np.flatnonzero(owner != _prev(owner)).tolist():
        # the k samples numbered i, as (x, y, generator) triples
        xi, yi = cx + r * cos_t[i], cy + r * sin_t[i]
        column = list(zip(xi.tolist(), yi.tolist(), range(len(r))))
        a, b = column[owner[i - 1]], column[owner[i]]
        # the chain's vertices reach at least the lower end's support at
        # theta_i; this drops interior points that would pass as "right" of a
        # chord whose ends coincide up to rounding
        nx, ny = cos_t[i], sin_t[i]
        level = min(a[0] * nx + a[1] * ny, b[0] * nx + b[1] * ny)
        front = [p for p in column if p[0] * nx + p[1] * ny >= level]
        chain = [a] + _outer_chain(a, b, front)
        xs += [x[start:i], [p[0] for p in chain]]
        ys += [y[start:i], [p[1] for p in chain]]
        start = i
    x = np.concatenate(xs + [x[start:]])
    y = np.concatenate(ys + [y[start:]])
    # drop consecutive repeats; a collinear cloud keeps its two ends, and a
    # cloud of one point, where every row repeats, keeps that point
    keep = (x != _prev(x)) | (y != _prev(y))
    keep[0] |= not keep.any()
    return np.column_stack((x[keep], y[keep]))


def polygon_contains_points(poly: np.ndarray, queries: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Vectorized membership of query points in a convex ccw polygon.

    Locates each query's wedge around the polygon centroid by binary search
    on vertex angles, then checks the single facing edge.
    """
    k = len(poly)
    ab = poly[-1] - poly[0]
    denom = float(ab @ ab)
    if k == 1 or (k == 2 and denom == 0.0):  # a zero-length segment is its one point
        return np.hypot(*(queries - poly[0]).T) <= eps
    if k == 2:
        a = poly[0]
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


def _membership_bands(target: Circle2, gens: GeneratorSet) -> tuple[float, float]:
    """(distance band, cross-product band) for this input: 1e-12 L and
    1e-12 L D, with L the largest coordinate magnitude the input reaches and
    D its extent (see the module docstring).
    """
    circles = (target, *gens)
    reach = max(max(abs(c.center.x), abs(c.center.y)) + c.radius for c in circles)
    extent = max(
        max(c.center.x + c.radius for c in circles) - min(c.center.x - c.radius for c in circles),
        max(c.center.y + c.radius for c in circles) - min(c.center.y - c.radius for c in circles),
    )
    return _BAND * reach, _BAND * reach * extent


def _extreme_samples_pass(poly: np.ndarray, target: Circle2, m: int, band: float) -> bool:
    """True iff every edge a -> b of the ccw polygon (>= 3 vertices) has
    (b - a) x (q - a) >= -band at the target samples q extreme along its
    outward normal: the two whose angles bracket the normal's, or the centre
    of a radius-0 target.  The cross product is the expression
    ``polygon_contains_points`` evaluates, term for term.
    """
    a = _prev(poly)  # edge j runs from a[j] to poly[j]
    ax, ay = a.T
    ex, ey = (poly - a).T
    c, tr = target.center, target.radius
    if tr > 0.0:
        cos_t, sin_t, _, _ = _angle_tables(m)
        # grid index at or below the outward normal (ey, -ex); it lies in
        # [-m/2 - 1, m/2], so for m >= 3 it and the next one index the
        # tables cyclically
        below = np.floor(np.arctan2(-ex, ey) * (m / (2.0 * math.pi))).astype(np.intp)
        extremes = [(c.x + tr * cos_t[i], c.y + tr * sin_t[i]) for i in (below, below + 1)]
    else:
        extremes = [(c.x, c.y)]
    return all(np.all(ex * (qy - ay) - ey * (qx - ax) >= -band) for qx, qy in extremes)


def sampling_oracle_contains(
    target: Circle2, gens: GeneratorSet, samples: int = DEFAULT_SAMPLES
) -> bool:
    """True iff every sampled target point lies in the sampled hull polygon.

    Raises ValueError for fewer than 3 samples, as ``sample_hull_polygon``.
    """
    poly = sample_hull_polygon(gens, samples)
    distance_band, cross_band = _membership_bands(target, gens)
    if len(poly) < 3:
        queries = _circle_samples(target, samples)
        return bool(np.all(polygon_contains_points(poly, queries, distance_band)))
    return _extreme_samples_pass(poly, target, samples, cross_band)

