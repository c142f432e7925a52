"""Independent sampling oracle for the 2D containment predicate.

It takes the (x, y, r) float triples that ``circle_in_hull`` takes.  Every
generator circle is sampled at the same m angles theta_i = 2 pi i / m,
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
Where a_(i-1) = a_i, arc i contributes the single vertex "sample i of a_i";
only where they differ are the k samples numbered i built, and the outer
chain between the two owners' samples, which a quickhull step over at most k
points finds, is the arc's contribution.  The boundary is kept in that
compact form: a cyclic list of runs (g, first, last), the samples first..last
of one generator g, each followed by the chain vertices found where the
owner changes.  This is exact for the sampled polygons, not an approximation
of them: its vertices are those of the hull of the full k*m point cloud, at
O(k*m) arithmetic in arrays of length m.  In floating point it may keep a
vertex that lies on a hull edge up to rounding, which a general hull code
drops; such a vertex does not change the polygon.  Only where a few sample
points of the runs and the chain vertices take fewer than three values is
the boundary expanded into its vertex list; a cloud that spans no area then
comes out as its two extreme points or as its single point, and the target's
samples are tested by their distance to that segment or point.

A convex polygon lies inside another iff, for every edge of the outer one,
the inner one's vertex extreme along that edge's outward normal lies inside
the edge (Preparata & Shamos, *Computational Geometry*, 1985, ch. 2).  The
target's samples form a regular m-gon on the same angle grid, so for the edge
a -> b with outward normal psi, (b - a) x (q_i - a) equals
(b - a) x (c - a) - r |b - a| cos(theta_i - psi) and is least at the grid
angle nearest psi.  The oracle therefore checks an edge only at the two
target samples whose angles bracket psi (a radius-0 target only at its
centre).

It checks every edge that joins two runs or lies on a chain, and only a few
edges of each run, read off the compact boundary without building the
polygon.  Edge i of a run of the generator (c_g, r_g) joins samples i - 1 and
i; its outward normal psi_i = theta_(i-1) + pi/m lies midway between the two
target samples that bracket it, and both give the edge the exact value

    V_i = -2 r_g sin(pi/m) [|d| cos(psi_i - phi) + (r_t - r_g) cos(pi/m)],

with d = c_t - c_g and phi its angle; every other target sample gives more.
Along a run V_i is therefore a sinusoid in psi_i, least where cos(psi_i - phi)
is largest: at the edge nearest phi, or at the run's end nearest phi when phi
lies outside the run.  The computed value of an edge differs from its exact
value by at most delta = 2^-45 L D, with L and D (below) bounded over g and
the target alone: a sample coordinate lies within 20 u L of its exact point
(u = 2^-53, the rounding of the tables' angles included), and the cross
product, whose factors are at most D long, adds at most
8 D (20 u L) + 8 u D^2 <= 176 u L D.  An edge whose V_i exceeds the run's
least by more than 2 delta thus computes above the edge that attains it, and
cannot decide the verdict.  The others have cos(psi_i - phi) within
delta / (r_g sin(pi/m) |d|) of the run's largest: one arc around phi, found
with one acos, clipped to the run and widened by one edge on each side for
the rounding of that arithmetic.  It holds 1 to 3 edges on typical input and
grows to the whole run as |d| -> 0.  The argument needs each run edge's
computed normal to fall between samples i - 1 and i, as its exact one does,
so r_g sin(pi/m) sin(pi/(2m)) >= 2^-47 L: the edge must be long beside the
rounding of its ends.  Where no arc is named (d = 0, a smaller circle, or an
arc of half the circle or more), every run edge is checked as a join is, at
the two target samples that bracket its computed normal.

Membership is decided with bands that follow the rounding error.  With L
the largest coordinate magnitude the input reaches (|centre coordinate| +
radius over the generators and the target) and D its extent (the longer side
of the circles' bounding box), a cross product passes at >= -1e-12 L D and a
distance to a 1- or 2-vertex polygon at <= 1e-12 L.  A sample coordinate is
rounded to about 1e-16 L, and a cross product (b - a) x (q - a), whose factors
are at most about D long, to about 1e-16 L D.  A pair of vertices that
coincide up to rounding makes an edge whose direction is noise, so the band is
not taken relative to the edge's own length.  An input whose L or largest
magnitude leaves [2^-256, 2^256] is first divided by the power of two that
brings that magnitude to [1/2, 1), exact but where a number turns subnormal,
so neither L D nor a cross product overflows: uniformly scaling the input
leaves every verdict unchanged at every finite scale.  Moving it away from
the origin widens the bands only as the rounding grows, with L.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .planar import checked_objects, is_integer

DEFAULT_SAMPLES = 3600

# |slack| band inside which the inscribed-polygon oracle may disagree
ORACLE_SLACK_BAND = 1e-4

# membership band at unit length scale (see the module docstring)
_BAND = 1e-12
# at unit length scale (see the module docstring): delta, the bound on the
# rounding of an edge's cross product, in units of L D, and the least
# r_g sin(pi/m) sin(pi/(2m)), in units of L, at which a run's computed edge
# normals are sure to lie between the edge's two samples
_ROUNDING = 2.0**-45
_NOISE = 2.0**-47
_WINDOW = 2.0**256  # an input that leaves [1 / _WINDOW, _WINDOW] is normalised


@functools.cache
def _angle_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cos/sin of the sample angles theta_i and of the boundary normals theta_i + pi/m."""
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    tables = (np.cos(ang), np.sin(ang), np.cos(ang + math.pi / m), np.sin(ang + math.pi / m))
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.cache
def _angle_lists(m: int) -> tuple[list, list]:
    """cos and sin of the sample angles theta_i as lists of floats."""
    cos_t, sin_t, _, _ = _angle_tables(m)
    return cos_t.tolist(), sin_t.tolist()


def _circle_samples(c, m: int) -> np.ndarray:
    x, y, r = c
    if r <= 0.0:
        return np.array([[x, y]])
    cos_t, sin_t, _, _ = _angle_tables(m)
    return np.column_stack((x + r * cos_t, y + r * sin_t))


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


def _normalised(circles) -> tuple[list, int]:
    """The nonempty (x, y, r) ``circles`` divided by 2^e, and e: 0 where
    their largest coordinate or radius magnitude is 0 or in
    [1 / _WINDOW, _WINDOW], else the e that brings it into [1/2, 1).
    """
    size = max(max(abs(x), abs(y), r) for x, y, r in circles)
    if size == 0.0 or 1.0 / _WINDOW <= size <= _WINDOW:
        return circles, 0
    e = math.frexp(size)[1]
    return [(math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(r, -e)) for x, y, r in circles], e


def _sample_count(samples) -> int:
    """``samples`` as an int; ValueError unless it is an integer of at least 3 (a bool is none)."""
    if not is_integer(samples) or samples < 3:
        raise ValueError(f"need at least 3 samples per circle, as an integer, got {samples!r}")
    return int(samples)


class _Boundary(NamedTuple):
    """The sampled hull's boundary, counterclockwise, and the (k, 3) array of its generators.

    ``runs[j]`` = (g, first, last) stands for the samples first..last of
    generator g (sample numbers mod m, first < last), and ``chains[j]`` for
    the (x, y) vertices strictly between run j's last sample and run j+1's
    first.  With no owner change there is one run, (g, 0, m), all of g's
    samples with sample 0 at both ends, and one empty chain.
    """

    m: int
    gens: np.ndarray
    runs: list
    chains: list


def _sampled_boundary(gens, m: int) -> _Boundary:
    """The runs and chains of the hull of all m samples of the (x, y, r) ``gens``."""
    cos_t, sin_t, cos_b, sin_b = _angle_tables(m)
    gens = np.array(gens, dtype=float).reshape(-1, 3)
    cx, cy, r = gens.T

    # owner[i]: the first generator whose support is largest at normal
    # theta_i + pi/m (np.argmax's tie rule, hence the strict comparison)
    h = math.cos(math.pi / m)
    owner = np.zeros(m, dtype=np.intp)
    best = cx[0] * cos_b + cy[0] * sin_b + r[0] * h
    for g in range(1, len(r)):
        support = cx[g] * cos_b + cy[g] * sin_b + r[g] * h
        np.putmask(owner, support > best, g)
        np.maximum(best, support, out=best)
    changes = np.flatnonzero(owner != _prev(owner)).tolist()
    if not changes:
        return _Boundary(m, gens, [(int(owner[0]), 0, m)], [[]])

    rows = gens.tolist()
    cos_l, sin_l = _angle_lists(m)
    runs, chains = [], []
    for first, last in zip(changes, changes[1:] + [changes[0] + m]):
        # the k samples numbered i, as (x, y, generator) triples
        i = last % m
        nx, ny = cos_l[i], sin_l[i]
        column = [(x + radius * nx, y + radius * ny, g) for g, (x, y, radius) in enumerate(rows)]
        a, b = column[owner[i - 1]], column[owner[i]]
        # the chain's vertices reach at least the lower end's support at
        # theta_i; this drops interior points that would pass as "right" of a
        # chord whose ends coincide up to rounding
        level = min(a[0] * nx + a[1] * ny, b[0] * nx + b[1] * ny)
        front = [p for p in column if p[0] * nx + p[1] * ny >= level]
        runs.append((int(owner[first]), first, last))
        chains.append([p[:2] for p in _outer_chain(a, b, front)])
    return _Boundary(m, gens, runs, chains)


def _polygon(hull: _Boundary) -> np.ndarray:
    """The boundary's vertex array: every run expanded, consecutive repeats dropped."""
    m, gens, runs, chains = hull
    cx, cy, r = gens.T
    cos_t, sin_t, _, _ = _angle_tables(m)
    xs, ys = [], []
    for (g, first, last), chain in zip(runs, chains):
        i = np.arange(first, last + 1) % m
        xs += [cx[g] + r[g] * cos_t[i], [p[0] for p in chain]]
        ys += [cy[g] + r[g] * sin_t[i], [p[1] for p in chain]]
    # the array starts at sample 0 of the last run, which it numbers m
    start = sum(map(len, xs[:-2])) + m - runs[-1][1]
    x, y = np.concatenate(xs), np.concatenate(ys)
    x = np.concatenate((x[start:], x[:start]))
    y = np.concatenate((y[start:], y[:start]))
    # drop consecutive repeats; a collinear cloud keeps its two ends, and a
    # cloud of one point, where every row repeats, keeps that point
    keep = (x != _prev(x)) | (y != _prev(y))
    keep[0] |= not keep.any()
    return np.column_stack((x[keep], y[keep]))


def _polygon_contains_points(poly: np.ndarray, queries: np.ndarray, eps: float) -> np.ndarray:
    """Membership of query points in a polygon of 1 or 2 vertices: a point or a segment.

    A query is in when its distance to the point or segment is at most eps.
    """
    ab = poly[-1] - poly[0]
    denom = float(ab @ ab)
    if denom == 0.0:  # one vertex, or a zero-length segment: its one point
        return np.hypot(*(queries - poly[0]).T) <= eps
    a = poly[0]
    t = np.clip((queries - a) @ ab / denom, 0.0, 1.0)
    feet = a + t[:, None] * ab
    return np.hypot(*(queries - feet).T) <= eps


def _membership_bands(target, gens) -> tuple[float, float]:
    """(distance band, cross-product band) for this input: 1e-12 L and
    1e-12 L D, with L the largest coordinate magnitude the input reaches and
    D its extent (see the module docstring).
    """
    circles = (target, *gens)
    reach = max(max(abs(x), abs(y)) + r for x, y, r in circles)
    extent = max(
        max(x + r for x, _, r in circles) - min(x - r for x, _, r in circles),
        max(y + r for _, y, r in circles) - min(y - r for _, y, r in circles),
    )
    return _BAND * reach, _BAND * reach * extent


def _run_edges(first: int, last: int, generator, target, m: int) -> list | None:
    """Numbers i of the edges of a run of ``generator``'s samples first..last
    (edge i joins sample i - 1 to sample i) that can be the run's least:
    those within the arc around phi that the module docstring derives, one
    edge wider on each side.  None where the whole run must be checked, each
    edge at its own computed normal.
    """
    gx, gy, rg = generator
    tx, ty, tr = target
    dx, dy = tx - gx, ty - gy
    d = math.hypot(dx, dy)
    # at least this pair's L and D (see the module docstring)
    reach = max(abs(gx), abs(gy), abs(tx), abs(ty)) + max(rg, tr)
    extent = max(abs(dx), abs(dy)) + 2.0 * max(rg, tr)
    s = math.sin(math.pi / m)
    # the bounds hold where no product of D-long factors underflows; none overflows
    if not (d > 0.0 and 2.0**-1000 <= reach * extent):
        return None
    if rg * s * math.sin(math.pi / (2 * m)) < _NOISE * reach:
        return None
    units = m / (2.0 * math.pi)  # edge numbers per radian
    n = last - first
    # phi's place among the run's edges, counted from edge first + 1
    rho = (math.atan2(dy, dx) * units + 0.5 - (first + 1)) % m
    near = abs(rho - round(rho)) if rho <= n - 1 else min(rho - (n - 1), m - rho)
    # delta / (r_g sin(pi/m) |d|), as ratios that neither underflow nor divide by 0
    floor = math.cos(near / units) - _ROUNDING * (reach / rg) * (extent / d) / s
    w = math.acos(floor) * units + 1.0 if floor > -1.0 else m
    if 2.0 * w >= m:
        return None
    lo, hi = math.ceil(rho - w), math.floor(rho + w)
    # the arc [rho - w, rho + w] is shorter than the circle, so its edge
    # numbers mod m are distinct; keep those of the run, shifted by a whole
    # turn where the arc leaves it (shift 0 for an arc inside the run)
    return [
        first + 1 + k - shift
        for shift in (-m, 0, m)
        for k in range(max(lo, shift), min(hi, shift + n - 1) + 1)
    ]


def _boundary_pass(hull: _Boundary, target, band: float) -> bool:
    """True iff every edge a -> b of the boundary's polygon has
    (b - a) x (q - a) >= -band at the target samples q extreme along its
    outward normal: the two whose angles bracket the normal's, or the centre
    of a radius-0 target.  The cross product is evaluated as
    (b_x - a_x)(q_y - a_y) - (b_y - a_y)(q_x - a_x), term for term, on every
    edge that joins two runs or lies on a chain, and, inside each run, on
    the edges ``_run_edges`` names; no other run edge can be less.  Where it
    names none, every edge of the run is evaluated as a join is.
    """
    m, gens, runs, chains = hull
    rows = gens.tolist()
    cos_l, sin_l = _angle_lists(m)
    # edges as (ax, ay, bx, by), with the grid index below the outward
    # normal where it is known and the joins' found from their normals
    edges, below, joins = [], [], []
    for (g, first, last), chain, (h, start, _) in zip(runs, chains, runs[1:] + runs[:1]):
        x, y, r = rows[g]
        if r > 0.0:
            numbers = _run_edges(first, last, rows[g], target, m)
            if numbers is None:  # every edge, tested as the joins are
                run = [(x + r * cos_l[i % m], y + r * sin_l[i % m]) for i in range(first, last + 1)]
                joins += [(*a, *b) for a, b in zip(run, run[1:])]
            else:  # samples i - 1 and i bracket the normal of edge i
                for i in numbers:
                    p, q = (i - 1) % m, i % m
                    edges.append((x + r * cos_l[p], y + r * sin_l[p], x + r * cos_l[q], y + r * sin_l[q]))
                    below.append(p)
        # from this run's last sample through its chain to the next run's first
        i = last % m
        path = [(x + r * cos_l[i], y + r * sin_l[i]), *chain]
        x, y, r = rows[h]
        path.append((x + r * cos_l[start], y + r * sin_l[start]))
        joins += [(*a, *b) for a, b in zip(path, path[1:])]
    tx, ty, tr = target
    edges += joins
    if tr <= 0.0:
        return all((bx - ax) * (ty - ay) - (by - ay) * (tx - ax) >= -band for ax, ay, bx, by in edges)
    # the joins' grid index at or below the outward normal (ey, -ex), from
    # numpy's arctan2, whose bits do not depend on the element's place
    normals = np.arctan2([-(bx - ax) for ax, _, bx, _ in joins], [by - ay for _, ay, _, by in joins])
    units = m / (2.0 * math.pi)
    below += [math.floor(t * units) for t in normals.tolist()]
    for (ax, ay, bx, by), i in zip(edges, below):
        ex, ey = bx - ax, by - ay
        for j in (i % m, (i + 1) % m):
            if not ex * (ty + tr * sin_l[j] - ay) - ey * (tx + tr * cos_l[j] - ax) >= -band:
                return False
    return True


def _three_vertices(hull: _Boundary) -> bool:
    """True if three distinct points are among the run ends, the samples a
    third and two thirds along each run, and the chain vertices; the polygon
    then has at least three vertices.
    """
    m, gens, runs, chains = hull
    cos_l, sin_l = _angle_lists(m)
    rows = gens.tolist()
    points = set()
    for (g, first, last), chain in zip(runs, chains):
        x, y, r = rows[g]
        n = last - first
        for i in (first, first + n // 3, first + 2 * n // 3, last):
            points.add((x + r * cos_l[i % m], y + r * sin_l[i % m]))
        points.update(chain)
        if len(points) >= 3:
            return True
    return False


def sampling_oracle_contains(target, gens, samples: int = DEFAULT_SAMPLES) -> bool:
    """True iff every sampled target point lies in the sampled hull polygon.

    ``target`` and each of the nonempty ``gens`` are (x, y, r) objects.
    Raises ValueError on an object that ``checked_objects`` refuses, and
    unless ``samples`` is an integer of at least 3: with fewer an arc of
    normals spans half the circle or more, and a single owner no longer
    means a single vertex.
    """
    (target,) = checked_objects((target,))
    gens = checked_objects(gens, nonempty=True)
    samples = _sample_count(samples)
    distance_band, cross_band = _membership_bands(target, gens)
    if not _BAND / _WINDOW <= distance_band <= _BAND * _WINDOW:  # L leaves the window
        (target, *gens), _ = _normalised((target, *gens))
        distance_band, cross_band = _membership_bands(target, gens)
    hull = _sampled_boundary(gens, samples)
    if not _three_vertices(hull):
        poly = _polygon(hull)
        if len(poly) < 3:
            queries = _circle_samples(target, samples)
            return bool(np.all(_polygon_contains_points(poly, queries, distance_band)))
    return _boundary_pass(hull, target, cross_band)
