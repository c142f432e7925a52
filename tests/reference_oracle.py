"""Sampling oracle that the tests check the package's exact oracle against.

``cloud_polygon`` is the hull of every generator circle sampled at the same
m angles theta_i = 2 pi i / m: every sample of every generator is
materialised as a (k, m) table, one argmax over generators names each
boundary normal's owner, and a tiny quickhull joins two owners' samples
where the owner changes.  ``sampling_oracle_contains`` locates every target
sample in that polygon by the angle of its wedge around the centroid and
checks it against the single facing edge, with the absolute band ``eps``.
Both polygons are inscribed in their circles, so within about
r (1 - cos(pi/m)) of tangency it may disagree with the exact decision
either way.  It enumerates no candidate directions of the support gap, so
it checks the exact oracle independently of that argument.

``equal_radii_contains`` decides the inputs whose generators share one
radius R exactly, in rationals, with no band: their hull is the hull P of
the centres grown by R, so a target of radius r >= R is contained iff its
disk of radius r - R lies in P, and one of radius r < R iff its centre lies
within R - r of P.  It too enumerates no candidate directions.
"""

import functools
import math
from fractions import Fraction

import numpy as np

DEFAULT_SAMPLES = 3600


@functools.cache
def _angle_tables(m):
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    return np.cos(ang), np.sin(ang), np.cos(ang + math.pi / m), np.sin(ang + math.pi / m)


def circle_samples(c, m=DEFAULT_SAMPLES):
    x, y, r = c
    if r <= 0.0:
        return np.array([[x, y]])
    cos_t, sin_t, _, _ = _angle_tables(m)
    return np.column_stack((x + r * cos_t, y + r * sin_t))


def _outer_chain(a, b, pts):
    ax, ay, _ = a
    dx, dy = b[0] - ax, b[1] - ay
    right = [(dx * (p[1] - ay) - dy * (p[0] - ax), p) for p in pts]
    right = [(d, p) for d, p in right if d < 0.0]
    if not right:
        return []
    far = min(right)[1]
    rest = [p for _, p in right]
    return _outer_chain(a, far, rest) + [far] + _outer_chain(far, b, rest)


def cloud_polygon(gens, samples=DEFAULT_SAMPLES):
    m = samples
    cos_t, sin_t, cos_b, sin_b = _angle_tables(m)
    cx = np.array([[x] for x, _, _ in gens], dtype=float)
    cy = np.array([[y] for _, y, _ in gens], dtype=float)
    r = np.array([[r] for _, _, r in gens], dtype=float)
    xs = (cx + r * cos_t).ravel()
    ys = (cy + r * sin_t).ravel()

    owner = np.argmax(cx * cos_b + cy * sin_b + r * math.cos(math.pi / m), axis=0)
    single = owner * m + np.arange(m)
    prev = np.roll(owner, 1)
    pieces, start = [], 0
    for i in np.flatnonzero(prev != owner).tolist():
        column = list(zip(xs[i::m].tolist(), ys[i::m].tolist(), range(i, len(xs), m)))
        a, b = column[prev[i]], column[owner[i]]
        nx, ny = cos_t[i], sin_t[i]
        level = min(a[0] * nx + a[1] * ny, b[0] * nx + b[1] * ny)
        front = [p for p in column if p[0] * nx + p[1] * ny >= level]
        pieces.append(single[start:i])
        pieces.append([a[2]] + [p[2] for p in _outer_chain(a, b, front)])
        start = i
    pieces.append(single[start:])
    order = np.concatenate(pieces)
    poly = np.column_stack((xs[order], ys[order]))
    keep = np.any(poly != np.roll(poly, 1, axis=0), axis=1)
    return poly[keep] if keep.any() else poly[:1]


def polygon_contains_points(poly, queries, eps=1e-12):
    k = len(poly)
    ab = poly[-1] - poly[0]
    denom = float(ab @ ab)
    if k == 1 or (k == 2 and denom == 0.0):
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


def sampling_oracle_contains(target, gens, samples=DEFAULT_SAMPLES):
    poly = cloud_polygon(gens, samples)
    return bool(np.all(polygon_contains_points(poly, circle_samples(target, samples))))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _exact_hull(points):
    """The vertices of the hull of rational ``points``, counterclockwise, with
    no three collinear; one point, or the two ends of a segment, if it is flat.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    chains = []
    for run in (pts, pts[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _distance2_to_segment(c, a, b):
    ex, ey = b[0] - a[0], b[1] - a[1]
    e2 = ex * ex + ey * ey
    t = 0 if e2 == 0 else min(max(((c[0] - a[0]) * ex + (c[1] - a[1]) * ey) / e2, 0), 1)
    dx, dy = c[0] - a[0] - t * ex, c[1] - a[1] - t * ey
    return dx * dx + dy * dy


def equal_radii_contains(target, gens):
    """Exact verdict for ``gens`` that all have one radius, in rationals."""
    (radius,) = {Fraction(r) for _, _, r in gens}
    cx, cy, r = (Fraction(v) for v in target)
    c = (cx, cy)
    poly = _exact_hull([(Fraction(x), Fraction(y)) for x, y, _ in gens])
    edges = list(zip(poly, poly[1:] + poly[:1]))
    if r >= radius:
        rho = r - radius
        if len(poly) < 3:
            return rho == 0 and _distance2_to_segment(c, poly[0], poly[-1]) == 0
        for a, b in edges:
            cross = _cross(a, b, c)  # |b - a| times the distance of c inside ab
            if cross < 0 or cross * cross < rho * rho * ((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2):
                return False
        return True
    if len(poly) >= 3 and all(_cross(a, b, c) >= 0 for a, b in edges):
        return True
    return min(_distance2_to_segment(c, a, b) for a, b in edges) <= (radius - r) ** 2
