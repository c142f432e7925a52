"""Sampling oracle that tests check the owner-only construction against.

``sample_hull_polygon`` is the package oracle's sampled hull as a
counterclockwise vertex array: its boundary of runs and chains, expanded.
The oracle itself never builds that array for a hull of three or more
vertices, so the tests that pin polygon bytes assemble it here from the
oracle's private pieces.

``cloud_polygon`` and ``sampling_oracle_contains`` are the oracle as it was
before the hull was built from each normal's owner alone: every sample of
every generator is materialised as a (k, m) table, one argmax over
generators names each boundary normal's owner, and every target sample is
located in the polygon by the angle of its wedge around the centroid and
checked against the single facing edge, with the absolute band ``eps``.
They are kept only as a reference.

``loop_owners`` and ``loop_boundary`` are the oracle's owner stage as it
was before the owners were read off the exact envelope of the supports: k
passes of numpy work over all m boundary normals, each keeping the first
generator whose computed support is largest.  ``loop_boundary`` builds the
runs and chains from them with the oracle's own chain step; the oracle's
boundary must equal it bit for bit.

``extreme_samples_pass`` is the oracle's edge test as it was before each
run of one generator's samples was checked only at the edges that can be
its least: every edge of the full polygon, at the target samples that
bracket its outward normal.
"""

import functools
import math

import numpy as np

from carousel import oracle

DEFAULT_SAMPLES = 3600


def sample_hull_polygon(gens, samples=DEFAULT_SAMPLES):
    """Counterclockwise vertex array of the oracle's hull of all samples of
    the nonempty (x, y, r) ``gens``, at every finite scale.

    Raises ValueError where the oracle refuses ``samples``.
    """
    samples = oracle._sample_count(samples)
    gens, e = oracle._normalised(np.array(gens, dtype=float).reshape(-1, 3).tolist())
    return np.ldexp(oracle._polygon(oracle._sampled_boundary(gens, samples)), e)


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


def extreme_samples_pass(poly, target, m, band):
    """True iff every edge a -> b of the ccw polygon (>= 3 vertices) has
    (b - a) x (q - a) >= -band at the target samples q extreme along its
    outward normal: the two whose angles bracket the normal's, or the centre
    of a radius-0 target.  The cross product is evaluated as
    (b_x - a_x)(q_y - a_y) - (b_y - a_y)(q_x - a_x), term for term.
    """
    a = np.concatenate((poly[-1:], poly[:-1]))  # edge j runs from a[j] to poly[j]
    ax, ay = a.T
    ex, ey = (poly - a).T
    tx, ty, tr = target
    if tr > 0.0:
        cos_t, sin_t, _, _ = _angle_tables(m)
        # grid index at or below the outward normal (ey, -ex); it lies in
        # [-m/2 - 1, m/2], so for m >= 3 it and the next one index the
        # tables cyclically
        below = np.floor(np.arctan2(-ex, ey) * (m / (2.0 * math.pi))).astype(np.intp)
        extremes = [(tx + tr * cos_t[i], ty + tr * sin_t[i]) for i in (below, below + 1)]
    else:
        extremes = [(tx, ty)]
    return all(np.all(ex * (qy - ay) - ey * (qx - ax) >= -band) for qx, qy in extremes)


def loop_owners(gens, m):
    """owner[i]: the first of the (x, y, r) ``gens`` whose support is largest
    at normal theta_i + pi/m, evaluated as the oracle evaluates it.
    """
    _, _, cos_b, sin_b = oracle._angle_tables(m)
    cx, cy, r = np.array(gens, dtype=float).reshape(-1, 3).T
    h = math.cos(math.pi / m)
    owner = np.zeros(m, dtype=np.intp)
    best = cx[0] * cos_b + cy[0] * sin_b + r[0] * h
    for g in range(1, len(r)):
        support = cx[g] * cos_b + cy[g] * sin_b + r[g] * h
        np.putmask(owner, support > best, g)
        np.maximum(best, support, out=best)
    return owner


def loop_owner_changes(gens, m):
    """``oracle._owner_changes``'s (i, g) list, read off ``loop_owners``."""
    owner = loop_owners(gens, m)
    changes = np.flatnonzero(owner != np.roll(owner, 1)).tolist()
    return [(i, int(owner[i])) for i in changes] or [(0, int(owner[0]))]


def loop_boundary(gens, m):
    """The runs and chains of the hull of all m samples of the (x, y, r)
    ``gens``, from ``loop_owners`` and the oracle's chain step.
    """
    gens = np.array(gens, dtype=float).reshape(-1, 3)
    owner = loop_owners(gens, m)
    changes = np.flatnonzero(owner != np.roll(owner, 1)).tolist()
    if not changes:
        return oracle._Boundary(m, gens, [(int(owner[0]), 0, m)], [[]])
    rows = gens.tolist()
    cos_l, sin_l = oracle._angle_lists(m)
    runs, chains = [], []
    for first, last in zip(changes, changes[1:] + [changes[0] + m]):
        i = last % m
        nx, ny = cos_l[i], sin_l[i]
        column = [(x + radius * nx, y + radius * ny, g) for g, (x, y, radius) in enumerate(rows)]
        a, b = column[owner[i - 1]], column[owner[i]]
        level = min(a[0] * nx + a[1] * ny, b[0] * nx + b[1] * ny)
        front = [p for p in column if p[0] * nx + p[1] * ny >= level]
        runs.append((int(owner[first]), first, last))
        chains.append([p[:2] for p in oracle._outer_chain(a, b, front)])
    return oracle._Boundary(m, gens, runs, chains)
