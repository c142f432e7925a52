"""Weak carousel procedures over a triangle of sites and two circles.

An instance holds three sites A0, A1, A2 and two circles u0, u1 inside their
hull.  A witness is a pair (j, k) such that u_(1-k) lies in the convex hull
of u_k together with the two sites other than A_j.  The xi-sweep scales both
circles about their own centers by a common factor and finds the supremum
of the scales at which a fixed (j, k) witness still holds.  The target can
only reach the hull boundary by touching the front arc of u_k, the base
side between the two kept sites, a site vertex or a leg, and each of these
happens at a closed-form scale, so the sweep enumerates those events and
reads the tangency off the family of the event where the inclusion fails.
Its hypothesis checks and probes hand plain (dx, dy, dr) terms to the
envelope loop of ``circle_in_hull``, so a probe builds no scaled instance,
generator set or containment result, and its slack is bitwise theirs.

Seeded instances are drawn on plain floats, as rows of five (x, y, r)
objects.  A block of seeds is drawn in rounds, and each round decides the
pending rejection-sampling query of every seed in one ``circles_in_hulls``
call; the witness search decides such rows directly.  It decides a row's
eight inclusions as two targets, u0 and u1, each against the other circle
and the three bases under four subsets of them, so each target's antipodes
and crossings are computed once for its four inclusions.  The one-seed
draws build point and circle objects from their row.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CoincidentPoints,
    GenerationExhausted,
    InvalidInstance,
    NotInterior,
)
from .hull import GeneratorSet, _envelope_min, circle_in_hull, circles_in_hulls
from .planar import (
    EPS_DECISION,
    EPS_GEOM,
    Circle2,
    Point2,
    _cross,
    _orientation,
    _point_segment_distance,
    orientation,
    point_segment_distance,
)

JK_PAIRS = tuple((j, k) for j in (0, 1, 2) for k in (0, 1))


@dataclass(frozen=True)
class CarouselInstance:
    """Three sites plus two circles satisfying the containment hypotheses."""

    sites: tuple[Point2, Point2, Point2]
    u0: Circle2
    u1: Circle2

    def circle(self, k: int) -> Circle2:
        return self.u0 if k == 0 else self.u1


@dataclass(frozen=True)
class Witness:
    """A (j, k) pair whose inclusion holds, with the slack it holds by."""

    j: int
    k: int
    slack: float


class Tangency(enum.Enum):
    NONE_AT_ONE = "none_at_one"
    LEG = "leg"
    FRONT_ARC = "front_arc"
    BASE_SIDE = "base_side"


@dataclass(frozen=True)
class XiSweepReport:
    """Critical-scale trace for a fixed (j, k): supremum and binding tangency."""

    j: int
    k: int
    xi_star: float
    slack_at_xi_star: float
    tangency: Tangency


def _check_collinear(row) -> None:
    """Raise if a row's sites b0, b1, b2 are collinear and u0 or u1 has a radius."""
    (ax, ay, _), (bx, by, _), (cx, cy, _), u0, u1 = row
    if _orientation(ax, ay, bx, by, cx, cy) == 0 and (u0[2] > 0.0 or u1[2] > 0.0):
        raise InvalidInstance("collinear sites admit only radius-0 circles")


def _require_inside(k: int, contained: bool, slack: float, hull: str) -> None:
    if not contained:
        raise InvalidInstance(f"u{k} is not inside the {hull} hull (slack {slack:.3g})")


def validate_instance(inst: CarouselInstance) -> None:
    """Check the carousel hypotheses; raises InvalidInstance otherwise.

    Each u_k is decided as ``circle_in_hull`` decides it against the sites
    as radius-0 generators, from the same floats, without building them.
    """
    row = [_xyr(obj) for obj in (*inst.sites, inst.u0, inst.u1)]
    _check_collinear(row)
    for k, (tx, ty, tr) in enumerate(row[3:]):
        slack, _ = _envelope_min([(sx - tx, sy - ty, 0.0 - tr) for sx, sy, _ in row[:3]])
        _require_inside(k, slack >= -EPS_DECISION, slack, "site")


def scaled_instance(inst: CarouselInstance, zeta: float) -> CarouselInstance:
    """Shrink both circles about their own centers by factor zeta in [0, 1]."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    return replace(
        inst,
        u0=Circle2(inst.u0.center, zeta * inst.u0.radius),
        u1=Circle2(inst.u1.center, zeta * inst.u1.radius),
    )


def _others(items, j: int) -> tuple:
    """The items other than item j, in order: the two sites other than A_j."""
    return tuple(x for i, x in enumerate(items) if i != j)


def pair_generators(own: Circle2, bases, j: int) -> GeneratorSet:
    """Generators of a (j, k) inclusion: u_k plus the bases other than base j.

    Bases are the three sites (points, taken as radius-0 circles) or the
    three generator circles of the corollary.
    """
    kept = tuple(b if isinstance(b, Circle2) else Circle2(b, 0.0) for b in _others(bases, j))
    return GeneratorSet((own,) + kept)


def witness_generators(inst: CarouselInstance, j: int, k: int) -> GeneratorSet:
    """Generator set for the (j, k) inclusion: u_k plus the sites other than A_j."""
    return pair_generators(inst.circle(k), inst.sites, j)


# The eight inclusions of an instance over its objects b0, b1, b2, u0, u1
# are decided as two targets, u0 and u1, each against the objects
# (u_other, b0, b1, b2) and four subsets of them: the hypothesis {b0, b1, b2},
# then for j = 0, 1, 2 the (j, k) inclusion with u_k the other circle, whose
# objects u_k and the bases other than base j are in ``pair_generators`` order.
_OBJECTS = np.array([[4, 0, 1, 2], [3, 0, 1, 2]])
_SUBSETS = np.array([[False, True, True, True]] + [
    [True] + [b != j for b in range(3)] for j in range(3)
])
# Columns of the (target, subset) results, in the order hypothesis u0,
# hypothesis u1, then the (j, k) of JK_PAIRS, whose target is u_(1-k).
_ORDER = np.array([0, 4] + [4 * (1 - k) + 1 + j for j, k in JK_PAIRS])
# Per (j, k): the objects of its inclusion, target u_(1-k) first.
_PAIR_OBJECTS = {(j, k): (4 - k, 3 + k, *_others(range(3), j)) for j, k in JK_PAIRS}


def _xyr(obj) -> tuple[float, float, float]:
    if isinstance(obj, Circle2):
        return obj.center.x, obj.center.y, obj.radius
    return obj.x, obj.y, 0.0


def _decide(rows: np.ndarray, sites) -> tuple[np.ndarray, np.ndarray]:
    """Slack and verdict of the eight inclusions of every row, from one kernel call.

    The results are (n, 8) arrays, the two hypotheses first and then the
    (j, k) of JK_PAIRS.  Rows are checked in order, and the first that
    breaks a hypothesis raises InvalidInstance: sites must not be collinear
    under circles of positive radius, and each u_k must lie in the hull of
    the bases.
    """
    n = len(rows)
    slack, inside, _ = circles_in_hulls(
        rows[:, 3:].reshape(-1, 3), rows.take(_OBJECTS, axis=1).reshape(-1, 4, 3), _SUBSETS
    )
    slack = slack.reshape(n, 8).take(_ORDER, axis=1)
    inside = inside.reshape(n, 8).take(_ORDER, axis=1)
    # the rows _check_collinear rejects, with _cross's products rounded alike
    legs = rows[:, 1:3, :2] - rows[:, :1, :2]  # b1 - b0 and b2 - b0
    cross = legs[:, 0] * legs[:, 1, ::-1]
    flat = np.abs(cross[:, 0] - cross[:, 1]) <= EPS_GEOM
    bad = (flat & (rows[:, 3:, 2] > 0.0).any(axis=1) & sites) | ~(inside[:, 0] & inside[:, 1])
    if bad.any():
        i = int(bad.argmax())
        if sites[i]:
            _check_collinear(rows[i].tolist())
        for k in (0, 1):
            _require_inside(k, inside[i, k], slack[i, k], "site" if sites[i] else "generator")
    return slack, inside


def witness_searches_rows(rows, sites) -> list[list[Witness]]:
    """Each row's (j, k) pairs whose inclusion holds, by descending slack.

    ``rows`` is an (n, 5, 3) array of the (x, y, r) objects b0, b1, b2, u0,
    u1, and ``sites`` says for each row whether its bases are sites or
    generator circles.  The two hypothesis inclusions and six (j, k)
    inclusions of all rows are decided in one ``circles_in_hulls`` call,
    and the first row that breaks a hypothesis raises InvalidInstance.
    """
    if not len(rows):
        return []
    slack, inside = _decide(rows, sites)
    out = []
    for row_slack, row_inside in zip(slack[:, 2:].tolist(), inside[:, 2:].tolist()):
        found = [
            Witness(j, k, s) for (j, k), s, ok in zip(JK_PAIRS, row_slack, row_inside) if ok
        ]
        found.sort(key=lambda w: (-w.slack, w.j, w.k))
        out.append(found)
    return out


def best_witness_slacks_rows(rows, sites) -> list[float | None]:
    """Each row's largest (j, k) slack among the inclusions that hold, or None if none holds.

    The slack of the first witness of ``witness_searches_rows``, read from
    the same decision without building the witness lists.
    """
    if not len(rows):
        return []
    slack, inside = _decide(rows, sites)
    held = inside[:, 2:]
    best = np.where(held, slack[:, 2:], -np.inf).max(axis=1)
    return [s if ok else None for s, ok in zip(best.tolist(), held.any(axis=1).tolist())]


def pair_inclusions_rows(rows, pairs) -> tuple[list, list]:
    """Slack and verdict of one named (j, k) inclusion per row, from one kernel call.

    Rows are as for ``witness_searches_rows``; u0 and u1 may be points.
    """
    if not len(rows):
        return [], []
    objs = rows[np.arange(len(rows))[:, None], [_PAIR_OBJECTS[p] for p in pairs]]
    slack, inside, _ = circles_in_hulls(objs[:, 0], objs[:, 1:])
    return slack.tolist(), inside.tolist()


def witness_search(inst: CarouselInstance) -> list[Witness]:
    """All (j, k) pairs whose inclusion holds, sorted by descending slack.

    The one-row case of ``witness_searches_rows``.
    """
    row = [_xyr(o) for o in (*inst.sites, inst.u0, inst.u1)]
    return witness_searches_rows(_block([row]), [True])[0]


def corollary_witness_search(
    c0: Circle2,
    c1: Circle2,
    c2: Circle2,
    u0: Circle2,
    u1: Circle2,
) -> list[Witness]:
    """Witness search with three circle generators instead of point sites.

    The one-row case of ``witness_searches_rows``.
    """
    row = [_xyr(o) for o in (c0, c1, c2, u0, u1)]
    return witness_searches_rows(_block([row]), [False])[0]


def _strictly_inside(p, tri) -> bool:
    (ax, ay), (bx, by), (cx, cy) = tri
    px, py = p
    ref = _orientation(ax, ay, bx, by, cx, cy)
    if ref == 0:
        return False
    return (
        _orientation(ax, ay, bx, by, px, py) == ref
        and _orientation(bx, by, cx, cy, px, py) == ref
        and _orientation(cx, cy, ax, ay, px, py) == ref
    )


def point_decomposition(row) -> tuple[int, int]:
    """The (j, k) pair the triangle decomposition through b0 names for b1.

    ``row`` holds the (x, y, r) objects A0, A1, A2, b0, b1 as floats; the
    radii are not read.  Splitting the site triangle into the three
    sub-triangles spanned by b0 and two sites, b1 is strictly inside one of
    them (pick k = 0 and the missing site's index), or b1 lies on the segment
    from b0 to a site A_j, in which case b0 lies behind b1 as seen from A_j
    (pick k = 1 and that j).
    """
    *sites, b0, b1 = [(x, y) for x, y, _ in row]
    (x0, y0), (x1, y1) = b0, b1
    if math.hypot(x0 - x1, y0 - y1) <= EPS_GEOM:
        raise CoincidentPoints("the two interior points coincide")
    for p, name in ((b0, "b0"), (b1, "b1")):
        if not _strictly_inside(p, sites):
            raise NotInterior(f"{name} is not strictly inside the site triangle")

    for j in range(3):
        tri = (b0, sites[(j + 1) % 3], sites[(j + 2) % 3])
        if _strictly_inside(b1, tri):
            return j, 0

    # b1 sits on one of the three segments from b0 to a site
    for j in range(3):
        ax, ay = sites[j]
        if _orientation(x0, y0, ax, ay, x1, y1) == 0:
            t = (x1 - x0) * (ax - x0) + (y1 - y0) * (ay - y0)
            if 0.0 < t < (ax - x0) * (ax - x0) + (ay - y0) * (ay - y0):
                return j, 1

    # numerical fringe: fall back to closed sub-triangle membership
    for j in range(3):
        (ax, ay), (bx, by), (cx, cy) = (b0, sites[(j + 1) % 3], sites[(j + 2) % 3])
        ref = _orientation(ax, ay, bx, by, cx, cy)
        signs = (
            _orientation(ax, ay, bx, by, x1, y1),
            _orientation(bx, by, cx, cy, x1, y1),
            _orientation(cx, cy, ax, ay, x1, y1),
        )
        if ref != 0 and all(s == 0 or s == ref for s in signs):
            return j, 0
    raise NotInterior("b1 could not be located in the decomposition")


def two_carousel_points(sites, b0: Point2, b1: Point2) -> Witness:
    """Point-only carousel witness: ``point_decomposition`` and the slack it holds by."""
    j, k = point_decomposition([_xyr(o) for o in (*sites, b0, b1)])
    pts = (b0, b1)
    gens = pair_generators(Circle2(pts[k], 0.0), sites, j)
    return Witness(j, k, circle_in_hull(Circle2(pts[1 - k], 0.0), gens).slack)


# -- xi sweep ----------------------------------------------------------------

EVENT_TIE = 1e-12
# order among events that tie: a vertex reports as the leg that ends there
_EVENT_RANK = {Tangency.LEG: 0, Tangency.FRONT_ARC: 1, Tangency.BASE_SIDE: 2}


def sweep_slack(inst: CarouselInstance, j: int, k: int, zeta: float) -> float:
    """Slack of the scaled (j, k) inclusion at scale zeta.

    Bitwise ``circle_in_hull(scaled.circle(1 - k), witness_generators(scaled,
    j, k)).slack`` with ``scaled = scaled_instance(inst, zeta)``: the envelope
    terms come from the centres and the zeta-scaled radii by the same float
    operations, without building the scaled instance or its generators.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    own, target = inst.circle(k), inst.circle(1 - k)
    tx, ty = target.center.x, target.center.y
    tr = zeta * target.radius
    terms = [(own.center.x - tx, own.center.y - ty, zeta * own.radius - tr)]
    terms += [(s.x - tx, s.y - ty, 0.0 - tr) for s in _others(inst.sites, j)]
    return _envelope_min(terms)[0]


def sweep_events(inst: CarouselInstance, j: int, k: int) -> list[tuple[float, Tangency]]:
    """Scales in (0, 1) where the scaled target can touch a hull piece, ascending.

    With target u_(1-k) = (c_t, r_t), kept circle u_k = (c_k, r_k) and sites
    a, b other than A_j, the target touches at scale zeta
      - the front arc when |c_t - c_k| = zeta (r_k - r_t),
      - the base side when dist(c_t, line ab) = zeta r_t,
      - a vertex s in {a, b} when |s - c_t| = zeta r_t (reported as a leg),
      - a leg from s when the line through s with unit normal u is tangent to
        both circles: u is perpendicular to r_t (s - c_k) - r_k (s - c_t) and
        zeta = (s - c_k).u / r_k, or (s - c_t).u / r_t when r_k = 0.
    Events closer than EVENT_TIE merge into one, whose family is the first in
    the order leg, front arc, base side.
    """
    own, target = inst.circle(k), inst.circle(1 - k)
    ckx, cky, rk = own.center.x, own.center.y, own.radius
    ctx, cty, rt = target.center.x, target.center.y, target.radius
    a, b = _others(inst.sites, j)
    events = []
    if rk > rt:
        events.append((math.hypot(ctx - ckx, cty - cky) / (rk - rt), Tangency.FRONT_ARC))
    if rt > 0.0:
        bx, by = b.x - a.x, b.y - a.y
        cross = bx * (cty - a.y) - by * (ctx - a.x)
        events.append((abs(cross) / math.hypot(bx, by) / rt, Tangency.BASE_SIDE))
        events += [(math.hypot(s.x - ctx, s.y - cty) / rt, Tangency.LEG) for s in (a, b)]
    for s in (a, b):
        kx, ky = s.x - ckx, s.y - cky  # s - c_k
        tx, ty = s.x - ctx, s.y - cty  # s - c_t
        wx, wy = kx * rt - tx * rk, ky * rt - ty * rk
        n = math.hypot(wx, wy)
        if n == 0.0:
            continue
        for ux, uy in ((-wy / n, wx / n), (wy / n, -wx / n)):
            zeta = (kx * ux + ky * uy) / rk if rk > 0.0 else (tx * ux + ty * uy) / rt
            events.append((zeta, Tangency.LEG))
    merged: list[tuple[float, Tangency]] = []
    for zeta, family in sorted((e for e in events if 0.0 < e[0] < 1.0), key=lambda e: e[0]):
        if not merged or zeta - merged[-1][0] > EVENT_TIE:
            merged.append((zeta, family))
        elif _EVENT_RANK[family] < _EVENT_RANK[merged[-1][1]]:
            merged[-1] = (merged[-1][0], family)
    return merged


def _tangency_at_zero(inst: CarouselInstance, j: int, k: int) -> Tangency:
    """Side of the triangle c_k, a, b nearest the target's centre; legs win ties."""
    ck, ct = inst.circle(k).center, inst.circle(1 - k).center
    a, b = _others(inst.sites, j)
    if orientation(ck, a, b) == 0:
        return Tangency.BASE_SIDE
    leg = min(point_segment_distance(ct, ck, s) for s in (a, b))
    base = point_segment_distance(ct, a, b)
    return Tangency.LEG if leg <= base + EPS_GEOM else Tangency.BASE_SIDE


def xi_sweep_fixed(inst: CarouselInstance, j: int, k: int) -> XiSweepReport:
    """Supremum scale at which the fixed (j, k) inclusion still holds.

    The slack can change sign only at one of the tangency events of
    ``sweep_events``, so it keeps one sign between consecutive events.  One
    probe at the midpoint of each interval, from zeta = 0 upward, finds the
    first interval on which the inclusion fails: xi_star is its left end and
    the tangency is the family of the event there.  When it fails from
    zeta = 0 on, xi_star = 0 and the tangency is the side of the point hull
    nearest the target's centre.  When no interval fails, xi_star = 1 with
    no tangency.
    """
    if j not in (0, 1, 2) or k not in (0, 1):
        raise ValueError(f"need j in 0..2 and k in 0..1, got ({j}, {k})")
    validate_instance(inst)
    events = sweep_events(inst, j, k)
    edges = [0.0] + [zeta for zeta, _ in events] + [1.0]
    for i in range(len(edges) - 1):
        if sweep_slack(inst, j, k, 0.5 * (edges[i] + edges[i + 1])) < 0.0:
            break
    else:
        slack = sweep_slack(inst, j, k, 1.0)
        return XiSweepReport(j, k, 1.0, slack, Tangency.NONE_AT_ONE)
    xi = edges[i]
    tangency = events[i - 1][1] if i else _tangency_at_zero(inst, j, k)
    return XiSweepReport(j, k, xi, sweep_slack(inst, j, k, xi), tangency)


# -- seeded instance generation ----------------------------------------------
#
# An instance is drawn on plain floats, as a flat row of five (x, y, r)
# objects b0, b1, b2, u0, u1.  A draw that rejection-samples circles is a
# generator over its seed's own random.Random: it yields each candidate
# query as a flat row of the target and its three generators and is sent
# back the slack.  ``_draw_rounds`` runs a block of draws in rounds and
# decides each round's pending queries in one ``circles_in_hulls`` call,
# whose slack is bitwise ``circle_in_hull``'s, so a draw makes the same
# random draws in the same order in any block.

COORD_RANGE = (-10.0, 10.0)  # sites and corollary centres, in both coordinates
RADIUS_RANGE = (0.0, 3.0)  # radii of the theorem's circles u0 and u1
MIN_HYPOTHESIS_SLACK = 0.01  # least slack of a drawn hypothesis inclusion
MAX_TRIES = 10_000  # rejections a draw may make before it gives up


def _sample_triangle(rng: random.Random):
    lo, hi = COORD_RANGE
    span = hi - lo
    min_cross = 0.04 * span * span  # reject slivers; keeps placement feasible
    for _ in range(MAX_TRIES):
        ax, ay, bx, by, cx, cy = [rng.uniform(lo, hi) for _ in range(6)]
        if abs(_cross(ax, ay, bx, by, cx, cy)) >= min_cross:
            return (ax, ay), (bx, by), (cx, cy)
    raise GenerationExhausted("could not sample a non-degenerate triangle")


def _interior_point(rng: random.Random, sites) -> tuple[float, float]:
    r1 = math.sqrt(rng.random())
    r2 = rng.random()
    (ax, ay), (bx, by), (cx, cy) = sites
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    return w0 * ax + w1 * bx + w2 * cx, w0 * ay + w1 * by + w2 * cy


def _edge_clearance(x: float, y: float, sites) -> float:
    (ax, ay), (bx, by), (cx, cy) = sites
    return min(
        _point_segment_distance(x, y, ax, ay, bx, by),
        _point_segment_distance(x, y, bx, by, cx, cy),
        _point_segment_distance(x, y, cx, cy, ax, ay),
    )


def _as_points(sites) -> tuple[float, ...]:
    """Sites as flat radius-0 (x, y, r) objects."""
    (ax, ay), (bx, by), (cx, cy) = sites
    return ax, ay, 0.0, bx, by, 0.0, cx, cy, 0.0


def _instance_draw(seed: int):
    rng = random.Random(seed)
    sites = _sample_triangle(rng)
    gens = _as_points(sites)
    r_lo, r_hi = RADIUS_RANGE
    floor = MIN_HYPOTHESIS_SLACK
    us = ()
    tries = 0
    while len(us) < 6:
        tries += 1
        if tries > MAX_TRIES:
            raise GenerationExhausted(f"no admissible circle after {MAX_TRIES} rejections")
        x, y = _interior_point(rng, sites)
        room = _edge_clearance(x, y, sites) - floor
        if room <= r_lo:
            continue
        cand = (x, y, rng.uniform(r_lo, min(r_hi, room)))
        if (yield cand + gens) > floor:
            us += cand
    return gens + us


def _corollary_draw(seed: int):
    rng = random.Random(seed)
    lo, hi = COORD_RANGE
    floor = MIN_HYPOTHESIS_SLACK
    tries = 0
    while True:
        tries += 1
        if tries > MAX_TRIES:
            raise GenerationExhausted("could not sample corollary generators")
        centers = tuple((rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(3))
        (ax, ay), (bx, by), (cx, cy) = centers
        if abs(_cross(ax, ay, bx, by, cx, cy)) < 0.04 * (hi - lo) ** 2:
            continue
        gens = (ax, ay, rng.uniform(0.2, 2.0), bx, by, rng.uniform(0.2, 2.0),
                cx, cy, rng.uniform(0.2, 2.0))
        us = ()
        inner_tries = 0
        while len(us) < 6 and inner_tries < 200:
            inner_tries += 1
            cand = (*_interior_point(rng, centers), rng.uniform(0.0, 1.5))
            if (yield cand + gens) > floor:
                us += cand
        if len(us) == 6:
            return gens + us


def _points_row(seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    sites = _sample_triangle(rng)
    floor = 1e-3 * (COORD_RANGE[1] - COORD_RANGE[0])
    pts = ()
    tries = 0
    while len(pts) < 6:
        tries += 1
        if tries > MAX_TRIES:
            raise GenerationExhausted("could not sample interior points")
        x, y = _interior_point(rng, sites)
        if _edge_clearance(x, y, sites) < floor:
            continue
        if pts and math.hypot(pts[0] - x, pts[1] - y) <= 1e-6:
            continue
        pts += (x, y, 0.0)
    return _as_points(sites) + pts


def _draw_rounds(draws) -> np.ndarray:
    """The rows of a block of draws, whose queries are decided a round at a time.

    Each round sends every live draw the slack of its last query and
    collects its next one, then decides them all in one kernel call.  A
    draw that runs out of tries does not stop the others; the error of the
    first such draw in block order is raised at the end, as drawing the
    block one seed after another would raise it.
    """
    rows = [None] * len(draws)
    failures = []
    live = list(enumerate(draws))
    slacks = [None] * len(live)  # sending None starts a draw
    while live:
        asked, queries = [], []
        for (i, draw), slack in zip(live, slacks):
            try:
                queries.append(draw.send(slack))
            except StopIteration as done:
                rows[i] = done.value
            except GenerationExhausted as exc:
                failures.append((i, exc))
            else:
                asked.append((i, draw))
        live = asked
        if queries:
            q = np.array(queries, dtype=float)
            slacks = circles_in_hulls(q[:, :3], q[:, 3:].reshape(-1, 3, 3))[0].tolist()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return _block(rows)


def _block(rows) -> np.ndarray:
    """Rows of five (x, y, r) objects, nested or flat, as an (n, 5, 3) array."""
    return np.array(rows, dtype=float).reshape(len(rows), 5, 3)


def random_instances(seeds) -> np.ndarray:
    """Rows (b0, b1, b2, u0, u1) of ``random_instance`` for each seed, drawn in rounds."""
    return _draw_rounds([_instance_draw(seed) for seed in seeds])


def random_corollary_instances(seeds) -> np.ndarray:
    """Rows (c0, c1, c2, u0, u1) of ``random_corollary_instance`` for each seed."""
    return _draw_rounds([_corollary_draw(seed) for seed in seeds])


def random_points_instances(seeds) -> np.ndarray:
    """Rows (A0, A1, A2, b0, b1) of ``random_points_instance`` for each seed, radii 0."""
    return _block([_points_row(seed) for seed in seeds])


def _point(obj) -> Point2:
    return Point2(obj[0], obj[1])


def _circle(obj) -> Circle2:
    return Circle2(Point2(obj[0], obj[1]), obj[2])


def instance_of_row(row) -> CarouselInstance:
    """The instance of a row: three sites, then u0 and u1."""
    b0, b1, b2, u0, u1 = np.asarray(row).tolist()
    return CarouselInstance((_point(b0), _point(b1), _point(b2)), _circle(u0), _circle(u1))


def corollary_of_row(row) -> tuple[Circle2, ...]:
    """The corollary instance of a row: generator circles c0, c1, c2, then u0 and u1."""
    return tuple(_circle(obj) for obj in np.asarray(row).tolist())


def points_of_row(row):
    """The points instance of a row: the sites, then the points b0 and b1."""
    a0, a1, a2, b0, b1 = (_point(obj) for obj in np.asarray(row).tolist())
    return (a0, a1, a2), b0, b1


def random_instance(seed: int) -> CarouselInstance:
    """Deterministic valid instance from a seed.

    Sites are sampled in the COORD_RANGE square with a sliver rejection;
    circle centers and radii are rejection-sampled until both hypothesis
    inclusions hold with slack above MIN_HYPOTHESIS_SLACK.  The one-seed
    case of ``random_instances``.
    """
    return instance_of_row(random_instances([seed])[0])


def random_points_instance(seed: int):
    """Deterministic triangle plus two distinct interior points.

    The one-seed case of ``random_points_instances``.
    """
    return points_of_row(random_points_instances([seed])[0])


def random_corollary_instance(seed: int):
    """Deterministic corollary instance: three circle generators plus two circles.

    The one-seed case of ``random_corollary_instances``.
    """
    return corollary_of_row(random_corollary_instances([seed])[0])
