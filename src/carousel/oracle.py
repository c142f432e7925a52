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
The owner a_i of the boundary normal psi_i = theta_i + pi/m is the first
generator whose support x_g cos psi_i + y_g sin psi_i + r_g h (h = cos(pi/m)),
evaluated as written over the tables' cos and sin, is largest there.
Where a_(i-1) = a_i, arc i contributes the single vertex "sample i of a_i";
only where they differ are the k samples numbered i built, and the outer
chain between the two owners' samples, which a quickhull step over at most k
points finds, is the arc's contribution.  The boundary is kept in that
compact form: a cyclic list of runs (g, first, last), the samples first..last
of one generator g, each followed by the chain vertices found where the
owner changes.  This is exact for the sampled polygons, not an approximation
of them: its vertices are those of the hull of the full k*m point cloud.  In
floating point it may keep a vertex that lies on a hull edge up to rounding,
which a general hull code drops; such a vertex does not change the polygon.
Only where a few sample points of the runs and the chain vertices take fewer
than three values is the boundary expanded into its vertex list; a cloud
that spans no area then comes out as its two extreme points or as its single
point, and the target's samples are tested by their distance to that segment
or point.

The owners are read off the exact envelope of the k supports, and the
support expression is evaluated only at the normals where rounding could
name another owner.  The support of o less that of g is the sinusoid

    D_og(psi) = A cos(psi - phi_og) + B,

with A = |c_o - c_g|, phi_og the angle of c_o - c_g and B = (r_o - r_g) h.
The envelope is the support function of the hull of k discs, which has at
most 2k - 1 arcs (D. Rappaport, *A convex hull algorithm for discs, and
applications*, Comput. Geom. 1, 1992).  A walk starts at normal 0's owner
and steps to the nearest downward zero phi_og + acos(-B/A) ahead, of the
current owner against each other generator; a walk that has not closed
after 2k - 1 steps leaves every normal uncertain.  Each run of the walk is
then certified against every other generator g: g cannot take a normal of
the run if the least D_og over the run's arc, one cos at the arc point
farthest from phi_og, exceeds tau R, with R = max_g (|x_g| + |y_g| + r_g)
and tau = 2^-42 (below).  Where it does not, one acos gives the arc where
D_og <= tau R; widened by one normal on each side and clipped to the run,
its normals join the uncertain set U.  At the normals of U alone the
supports are evaluated as written, the first maximum winning.  A degenerate
input, such as near-concentric generators of equal radius or a walk that
does not close, puts every normal in U, which is the comparison at every
normal.  A generator equal to an earlier one has the same support bits and
is never the first maximum, so the stage runs on the distinct generators.

tau bounds the rounding (u = 2^-53).  A computed support lies within
gamma_3 (|x| + |y| + r) <= 3.01 u R of its exact value at the table's cos
and sin, which are at most 1 in magnitude, as h is.  Those entries lie
within 30 u of the cos and sin of the exact normal angle: the table's angle
i fl(2 pi/m) + fl(pi/m) is within gamma_4 2 pi < 26 u of it, and numpy's
cos and sin add at most 4 u.  So a difference of supports moves by at most
30 u (|x_o - x_g| + |y_o - y_g|) <= 60 u R, and the computed supports of o
and g compare as the sign of D_og says wherever D_og > 67 u R.  The computed
least of D_og is within 300 u R of the exact least over the run's arc: A (at
most 2 R) and B (at most R) are within 2 u of exact, phi_og within 5 u, the
arc point's angle, through its conversion to and from normal positions,
within 128 u, and the cos and the two operations after it add at most 4 u
of A.  A least above tau R thus certifies the run wherever
tau >= 67 u + 300 u, which is below 2^-44; tau = 2^-42 keeps a factor of
four beyond that for the libm functions, whose error no standard bounds.  A
product that underflows is off by at most 2^-1075 more, so R is taken as at
least 2^-1000, where tau R exceeds a dozen of those.  The acos of an
uncertain arc is off by at most sqrt(8 u) < 1.1e-7 radians, less than one
normal below m = 5 * 10^7, and the widening covers it.

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

Most targets outside are refuted before the boundary is built.  Let normal
at be the one nearest the direction from the generators' centroid to the
target's centre; the probe goes on only where the target leads there,
t . u + r_t above every generator's support, and where one generator g of
positive radius owns the four normals at - 1 .. at + 2, each read with the
first-maximum rule that the walk uses at normal 0.  Samples at, at + 1 and
at + 2 of g then lie in one run of g, and the two edges between them are
edges of that run.  It requires the three samples to be distinct, so the
polygon has three vertices or more and the full path ends in the edge test
below, not in the distance test.  It tests the two edges as joins are
tested, at the target samples that bracket each computed normal, and
returns False where one fails.  The full pass then fails too: where it
names no window for g's run, it tests that edge itself, in the same way;
where it names one, every run edge's computed normal lies between its two
samples, so the edge is tested as the windowed edges are, and an edge
outside the window computes above the run's least edge, which is inside
it.  Where the probe does not refute, the boundary is built as below.

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
# tau, the bound on the rounding of a difference of two supports, in units
# of the generators' reach R (see the module docstring)
_TAU = 2.0**-42
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


@functools.cache
def _normal_zero(m: int) -> tuple[float, float, float]:
    """cos and sin of the boundary normal pi/m, as the tables hold them, and cos(pi/m)."""
    _, _, cos_b, sin_b = _angle_tables(m)
    return float(cos_b[0]), float(sin_b[0]), math.cos(math.pi / m)


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


def _owner_at(rows: list, c: float, s: float, h: float) -> int:
    """The first of the (x, y, r) ``rows`` whose support x c + y s + r h,
    evaluated as written, is largest: the owner of the normal (c, s).
    """
    support = [x * c + y * s + r * h for x, y, r in rows]
    return support.index(max(support))


def _owner_changes(rows: list, m: int) -> list:
    """(i, g) for each boundary normal i at which the owner changes, g the
    owner from i on, in ascending i; [(0, g)] where g owns every normal.

    The owner of normal i is the first of the (x, y, r) ``rows`` whose
    support x cos_b[i] + y sin_b[i] + r h, evaluated as written with
    h = cos(pi/m), is largest.  It is read off the exact envelope of the
    supports, and the expression is evaluated only at the normals where
    rounding could name another generator (see the module docstring).
    """
    # a generator equal to an earlier one has the same support bits, so it is
    # never the first maximum: the stage runs on the distinct generators
    distinct = {}
    for g, row in enumerate(rows):
        distinct.setdefault(tuple(row), g)
    if len(distinct) < len(rows):
        names = list(distinct.values())
        return [(i, names[g]) for i, g in _owner_changes(list(distinct), m)]
    k = len(rows)
    if k == 1:
        return [(0, 0)]
    c0, s0, h = _normal_zero(m)
    o = _owner_at(rows, c0, s0, h)
    units = m / (2.0 * math.pi)  # normal positions per radian; normal i is at i
    half = 0.5 * m
    # the support of o less that of g is B - A cos((t - q) / units) at
    # position t, least at q: rivals[o] holds (A, q mod m, B) for each g, and
    # downs[o] (z, g) for each g that overtakes o, at the downward zero z
    rivals = [[] for _ in range(k)]
    downs = [[] for _ in range(k)]
    for i, (xi, yi, ri) in enumerate(rows):
        for j in range(i + 1, k):
            xj, yj, rj = rows[j]
            a = math.hypot(xi - xj, yi - yj)
            p = math.atan2(yi - yj, xi - xj) * units - 0.5
            b = (ri - rj) * h
            rivals[i].append((a, (p + half) % m, b))
            rivals[j].append((a, p % m, -b))
            if a > abs(b):
                w = math.acos(-b / a) * units
                downs[i].append(((p + w) % m, j))
                downs[j].append(((p - w) % m, i))

    # the walk: from normal 0's owner to the nearest downward zero ahead; the
    # exact envelope changes owner at most 2k - 1 times in a turn.  Each run
    # is (first normal, owner), a later run at the same normal replacing it
    walk, t = [(0, o)], 0.0
    for _ in range(2 * k):
        step, ahead = m - t, None
        for z, g in downs[o]:
            d = (z - t) % m
            if 0.0 < d < step:
                step, ahead = d, g
        if ahead is None:
            break
        t += step
        o = ahead
        first = math.ceil(t)
        if first == walk[-1][0]:
            walk[-1] = (first, o)
        elif first < m:
            walk.append((first, o))
    else:  # the walk did not close: every normal is uncertain
        return _read_owners(rows, m, walk, [(0, m - 1)])

    # U, as inclusive ranges of normals: each run is certified against every
    # other generator, and where that fails, the normals the generator could
    # take join U
    uncertain = []
    bound = _TAU * max(2.0**-1000, *(abs(x) + abs(y) + r for x, y, r in rows))
    for (first, o), (end, _) in zip(walk, walk[1:] + [(m, o)]):
        last = end - 1
        for a, q, b in rivals[o]:
            if first <= q <= last:
                least = b - a
            else:  # at the run's end nearest q
                e = first if (first - q) % m < (q - last) % m else last
                least = b - a * math.cos((e - q) / units)
            if least > bound:
                continue
            # the arc |t - q| <= w where the difference is at most the bound,
            # widened by one normal on each side and clipped to the run
            c = (b - bound) / a if a > 0.0 else -1.0
            w = math.acos(min(c, 1.0)) * units + 1.0 if c > -1.0 else m
            if 2.0 * w >= m:
                uncertain.append((first, last))
                continue
            for shift in (-m, 0, m):
                lo, hi = max(math.ceil(q - w + shift), first), min(math.floor(q + w + shift), last)
                if lo <= hi:
                    uncertain.append((lo, hi))
    return _read_owners(rows, m, walk, uncertain)


def _read_owners(rows: list, m: int, walk: list, uncertain: list) -> list:
    """``_owner_changes``'s result from the walk's runs, (first normal,
    owner) in ascending order from normal 0, and the inclusive ranges
    ``uncertain`` of normals, where the supports are evaluated as written.
    """
    if uncertain:
        firsts = [i for i, _ in walk]
        owner = np.repeat([g for _, g in walk], np.diff(firsts + [m]))
        mask = np.zeros(m, dtype=bool)
        for lo, hi in uncertain:
            mask[lo : hi + 1] = True
        # the first maximum wins, hence the strict comparison
        _, _, cos_b, sin_b = _angle_tables(m)
        cos_u, sin_u = cos_b[mask], sin_b[mask]
        cx, cy, r = np.array(rows).T
        h = math.cos(math.pi / m)
        found = np.zeros(len(cos_u), dtype=np.intp)
        best = cx[0] * cos_u + cy[0] * sin_u + r[0] * h
        for g in range(1, len(r)):
            support = cx[g] * cos_u + cy[g] * sin_u + r[g] * h
            np.putmask(found, support > best, g)
            np.maximum(best, support, out=best)
        owner[mask] = found
        walk = [(i, int(owner[i])) for i in np.flatnonzero(owner != _prev(owner)).tolist()]
        walk = walk or [(0, int(owner[0]))]
    changes = [(i, g) for (_, before), (i, g) in zip(walk[-1:] + walk[:-1], walk) if g != before]
    return changes or walk[:1]


def _sampled_boundary(gens, m: int) -> _Boundary:
    """The runs and chains of the hull of all m samples of the (x, y, r) ``gens``."""
    gens = np.array(gens, dtype=float).reshape(-1, 3)
    rows = gens.tolist()
    changes = _owner_changes(rows, m)
    if len(changes) == 1:
        return _Boundary(m, gens, [(changes[0][1], 0, m)], [[]])

    cos_l, sin_l = _angle_lists(m)
    runs, chains = [], []
    ends = changes[1:] + [(changes[0][0] + m, changes[0][1])]
    for (first, owner), (last, after) in zip(changes, ends):
        # the k samples numbered i, as (x, y, generator) triples
        i = last % m
        nx, ny = cos_l[i], sin_l[i]
        column = [(x + radius * nx, y + radius * ny, g) for g, (x, y, radius) in enumerate(rows)]
        a, b = column[owner], column[after]
        # the chain's vertices reach at least the lower end's support at
        # theta_i; this drops interior points that would pass as "right" of a
        # chord whose ends coincide up to rounding
        level = min(a[0] * nx + a[1] * ny, b[0] * nx + b[1] * ny)
        front = [p for p in column if p[0] * nx + p[1] * ny >= level]
        runs.append((owner, first, last))
        chains.append([p[:2] for p in _outer_chain(a, b, front)])
    return _Boundary(m, gens, runs, chains)


def _polygon(hull: _Boundary) -> np.ndarray:
    """The boundary's vertex array: every run expanded, consecutive repeats dropped."""
    m, gens, runs, chains = hull
    cx, cy, r = gens.T
    cos_t, sin_t, _, _ = _angle_tables(m)
    xs, ys = [], []
    for (g, first, last), chain in zip(runs, chains):
        if r[g] > 0.0:
            i = np.arange(first, last + 1) % m
        else:  # a point repeats its sample first, the only one that can be
            # kept, and sample m of the last run, where the array starts
            i = np.array([first, 0] if last >= m else [first])
        xs += [cx[g] + r[g] * cos_t[i], [p[0] for p in chain]]
        ys += [cy[g] + r[g] * sin_t[i], [p[1] for p in chain]]
    # the array starts at sample 0 of the last run, which it numbers m
    g, first, _ = runs[-1]
    start = sum(map(len, xs[:-2])) + (m - first if r[g] > 0.0 else 1)
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
    of a radius-0 target.  ``_edges_pass`` evaluates it on every edge that
    joins two runs or lies on a chain, and, inside each run, on the edges
    ``_run_edges`` names; no other run edge can be less.  Where it names
    none, every edge of the run is evaluated as a join is.
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
    return _edges_pass(edges, below, joins, target, m, band)


def _edges_pass(edges: list, below: list, joins: list, target, m: int, band: float) -> bool:
    """True iff every edge a -> b, as (ax, ay, bx, by), of ``edges`` and
    ``joins`` has (b - a) x (q - a) >= -band at the target samples q that
    bracket its outward normal, or at the centre of a radius-0 target.  The
    samples of ``edges``' normals are ``below[j]`` and the next; the joins'
    are found from their computed normals.  The cross product is evaluated
    as (b_x - a_x)(q_y - a_y) - (b_y - a_y)(q_x - a_x), term for term.
    """
    tx, ty, tr = target
    edges = edges + joins
    if tr <= 0.0:
        return all((bx - ax) * (ty - ay) - (by - ay) * (tx - ax) >= -band for ax, ay, bx, by in edges)
    cos_l, sin_l = _angle_lists(m)
    # the joins' grid index at or below the outward normal (ey, -ex), from
    # numpy's arctan2, whose bits do not depend on the element's place
    normals = np.arctan2([-(bx - ax) for ax, _, bx, _ in joins], [by - ay for _, ay, _, by in joins])
    units = m / (2.0 * math.pi)
    below = below + [math.floor(t * units) for t in normals.tolist()]
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


def _refuted_at_one_edge(target, gens, m: int, band: float) -> bool:
    """True where two edges of the sampled hull, found without building its
    boundary, fail ``_edges_pass``, and so ``_boundary_pass`` fails too (see
    the module docstring); False where they pass or cannot be found so.

    The edges join samples at, at + 1 and at + 2 of the one generator of
    positive radius that owns the normals at - 1 .. at + 2, where normal at
    is the one nearest the direction from the generators' centroid to the
    target's centre, and the target leads every generator's support there.
    """
    tx, ty, tr = target
    dx = tx - sum(x for x, _, _ in gens) / len(gens)
    dy = ty - sum(y for _, y, _ in gens) / len(gens)
    if dx == 0.0 and dy == 0.0:
        return False
    at = round(math.atan2(dy, dx) * (m / (2.0 * math.pi)) - 0.5) % m
    _, _, cos_b, sin_b = _angle_tables(m)
    h = math.cos(math.pi / m)
    c, s = float(cos_b[at]), float(sin_b[at])
    if not tx * c + ty * s + tr > max(x * c + y * s + r * h for x, y, r in gens):
        return False
    normals = [(at + j) % m for j in (-1, 0, 1, 2)]
    owners = {_owner_at(gens, float(cos_b[i]), float(sin_b[i]), h) for i in normals}
    if len(owners) > 1:
        return False
    x, y, r = gens[owners.pop()]
    if r <= 0.0:
        return False
    cos_l, sin_l = _angle_lists(m)
    p, q, o = [(x + r * cos_l[i], y + r * sin_l[i]) for i in normals[1:]]
    if len({p, q, o}) < 3:
        return False
    return not _edges_pass([], [], [(*p, *q), (*q, *o)], target, m, band)


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
    if _refuted_at_one_edge(target, gens, samples, cross_band):
        return False
    hull = _sampled_boundary(gens, samples)
    if not _three_vertices(hull):
        poly = _polygon(hull)
        if len(poly) < 3:
            queries = _circle_samples(target, samples)
            if len(poly) == 1:  # a point hull: two opposite samples refute most targets first
                probe = queries[[0, len(queries) // 2]]
                if not np.all(_polygon_contains_points(poly, probe, distance_band)):
                    return False
            return bool(np.all(_polygon_contains_points(poly, queries, distance_band)))
    return _boundary_pass(hull, target, cross_band)
