"""Weak carousel procedures over a triangle of sites and two circles.

An instance is a row of five (x, y, r) objects: three sites A0, A1, A2
(radius 0; the bases b0, b1, b2) and two circles u0, u1 inside their hull,
or for the corollary three generator circles in place of the sites.  Every
public procedure takes the row as a scenario file lists it or a draw returns
it, and checks its floats with ``planar.checked_objects``.  A witness is a
pair (j, k) such that u_(1-k) lies in the convex hull of u_k together with
the two sites other than A_j.  ``pair_objects(row, j, k)`` reads that
inclusion's target and generators off a row, from the one table of object
indices that the witness search, the one-pair rows entry, the sweep and the
figures all read.
The xi-sweep scales both circles about their own centers by a common factor
and finds the supremum of the scales at which a fixed (j, k) witness still
holds.  The target can only reach the hull boundary by touching the front
arc of u_k, the base side between the two kept sites, a site vertex or a
leg, and each of these happens at a closed-form scale, so the sweep
enumerates those events and reads the tangency off the family of the event
where the inclusion fails.  Its hypothesis checks and probes hand plain
(dx, dy, dr) terms to the envelope loop of ``circle_in_hull``, so a probe
builds no scaled row, generator list or containment result, and its slack
is bitwise theirs.

Seeded instances are drawn on plain floats, one plain row function per
kind, as rows of five (x, y, r) objects.  Theorem and points draws place
their objects in closed form, with no solve: a circle centred in the site
triangle lies in it with slack its edge clearance less its radius.  A
corollary draw keeps a circle centred in the triangle of its three
generators' centres by a closed-form lower bound on its slack, that
clearance plus the least generator radius less its own, and takes the
scalar envelope loop of ``circle_in_hull`` only where the bound is too
weak, so no draw calls the batch kernel.  A block draw stacks its seeds'
rows into an array; a one-seed draw returns its row as a tuple of five
float triples.

A one-row witness search checks the two hypotheses with
``_check_hypotheses``, as the sweep and the block decision do, and decides
its six (j, k) inclusions with ``circle_in_hull``.  Only the block entries
call ``circles_in_hulls``; ``best_witness_slacks_rows`` decides a row's
eight inclusions as two targets, u0 and u1, each against the other circle
and the three bases under four subsets of them.  The witness searches, the
point decomposition, the sweep and ``sweep_slack`` run on plain floats and
never touch numpy; the block entries and draws import it when they first
run, so importing this module does not load it.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    CoincidentPoints,
    GenerationExhausted,
    InvalidInstance,
    NotInterior,
)
from .hull import _envelope_min, circle_in_hull, circles_in_hulls
from .planar import (
    EPS_GEOM,
    _cross,
    _orientation,
    _point_segment_distance,
    checked_objects,
    contained,
    is_integer,
)

if TYPE_CHECKING:
    import numpy as np

JK_PAIRS = tuple((j, k) for j in (0, 1, 2) for k in (0, 1))


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
    """Critical-scale trace for a fixed (j, k): supremum and binding tangency.

    ``touch_direction`` is the angle of the target's support point that
    touches the hull at xi_star, or None when no tangency binds.
    """

    j: int
    k: int
    xi_star: float
    slack_at_xi_star: float
    tangency: Tangency
    touch_direction: float | None


def _check_hypotheses(row) -> None:
    """Raise InvalidInstance if a checked row breaks a hypothesis, the first in this order.

    Sites (bases of radius 0) that are collinear admit only radius-0
    circles, and u0, then u1, must lie in the hull of the bases, by the
    slack of ``circle_in_hull``'s envelope loop.
    """
    bases = row[:3]
    sites = all(r == 0.0 for _, _, r in bases)
    (ax, ay, _), (bx, by, _), (cx, cy, _) = bases
    if sites and _orientation(ax, ay, bx, by, cx, cy) == 0 and (row[3][2] > 0.0 or row[4][2] > 0.0):
        raise InvalidInstance("collinear sites admit only radius-0 circles")
    for k, (tx, ty, tr) in enumerate(row[3:]):
        slack, _ = _envelope_min([(x - tx, y - ty, r - tr) for x, y, r in bases])
        if not contained(slack):
            hull = "site" if sites else "generator"
            raise InvalidInstance(f"u{k} is not inside the {hull} hull (slack {slack:.3g})")


def _checked_row(row) -> tuple:
    """A row's five (x, y, r) objects as float triples, checked as ``checked_objects`` does."""
    objs = checked_objects(row)
    if len(objs) != 5:
        raise ValueError(f"a row holds 5 objects, got {len(objs)}")
    return objs


def _sites_row(row) -> tuple:
    """A checked row whose bases are sites: radius-0 objects b0, b1, b2."""
    objs = _checked_row(row)
    if any(r != 0.0 for _, _, r in objs[:3]):
        raise InvalidInstance("sites must have radius 0")
    return objs


def scaled_instance(row, zeta: float) -> tuple:
    """The row with both circles shrunk about their own centers by factor zeta in [0, 1]."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    *bases, (x0, y0, r0), (x1, y1, r1) = row
    return (*bases, (x0, y0, zeta * r0), (x1, y1, zeta * r1))


def _check_jk(j: int, k: int) -> None:
    """Refuse a base index j or a circle index k that is not an integer in 0..2 or 0..1."""
    for i, top in ((j, 2), (k, 1)):
        if not is_integer(i) or not 0 <= i <= top:
            raise ValueError(f"need j in 0..2 and k in 0..1, got ({j}, {k})")


@functools.cache
def _inclusion_tables() -> tuple:
    """The read-only tables by which ``_decide`` makes one kernel call of a row's eight inclusions.

    They are decided as two targets, u0 and u1, each against the objects
    (u_other, b0, b1, b2) and four subsets of them: the hypothesis
    {b0, b1, b2}, then for j = 0, 1, 2 the (j, k) inclusion with u_k the
    other circle, whose objects u_k and the bases other than base j are in
    ``pair_objects`` order.  Returns each target's objects, the subsets, and
    the columns of the (target, subset) results in the order hypothesis u0,
    hypothesis u1, then the (j, k) of JK_PAIRS, whose target is u_(1-k).
    """
    import numpy as np

    tables = (
        np.array([[4, 0, 1, 2], [3, 0, 1, 2]]),
        np.array([[False, True, True, True]] + [
            [True] + [b != j for b in range(3)] for j in range(3)
        ]),
        np.array([0, 4] + [4 * (1 - k) + 1 + j for j, k in JK_PAIRS]),
    )
    for t in tables:
        t.setflags(write=False)
    return tables


# Per (j, k): the objects of its inclusion, target u_(1-k) first.
_PAIR_OBJECTS = {(j, k): (4 - k, 3 + k, *(b for b in range(3) if b != j)) for j, k in JK_PAIRS}


def _pair(row, j: int, k: int) -> tuple:
    """``pair_objects`` on a checked row and a checked (j, k)."""
    target, *generators = (row[i] for i in _PAIR_OBJECTS[j, k])
    return target, tuple(generators)


def pair_objects(row, j: int, k: int) -> tuple:
    """Target u_(1-k) and generators (u_k, then the bases other than b_j) of inclusion (j, k).

    ``row`` holds the (x, y, r) objects b0, b1, b2, u0, u1, returned as float
    triples.  Raises ValueError on a row that is not five objects that
    ``checked_objects`` accepts, and on a j or k that is not an integer (a
    bool is not one) in 0..2 or 0..1.
    """
    objs = _checked_row(row)
    _check_jk(j, k)
    return _pair(objs, j, k)


def _rows_array(rows) -> np.ndarray:
    """Rows as an (n, 5, 3) float array; any other shape raises ValueError."""
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 3 or rows.shape[1:] != (5, 3):
        raise ValueError(f"rows must be (n, 5, 3): five (x, y, r) objects, got {rows.shape}")
    return rows


def _decide(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slack and verdict of the eight inclusions of every row, from one kernel call.

    The results are (n, 8) arrays, the two hypotheses first and then the
    (j, k) of JK_PAIRS.  The first row that breaks a hypothesis raises the
    InvalidInstance of ``_check_hypotheses``, run on that row alone; if the
    scalar check passes a row that the block refused, the two disagree and
    RuntimeError is raised, never a result.
    """
    import numpy as np

    objects, subsets, order = _inclusion_tables()
    n = len(rows)
    slack, inside, _ = circles_in_hulls(
        rows[:, 3:].reshape(-1, 3), rows.take(objects, axis=1).reshape(-1, 4, 3), subsets
    )
    slack = slack.reshape(n, 8).take(order, axis=1)
    inside = inside.reshape(n, 8).take(order, axis=1)
    # the rows _check_hypotheses refuses as collinear, by the same
    # _orientation, read only where sites carry a circle of positive radius
    sites = (rows[:, :3, 2] == 0.0).all(axis=1)
    flat = np.zeros(n, bool)
    asked = np.flatnonzero(sites & (rows[:, 3:, 2] > 0.0).any(axis=1))
    flat[asked] = [_orientation(*abc) == 0 for abc in rows[asked, :3, :2].reshape(-1, 6).tolist()]
    bad = flat | ~(inside[:, 0] & inside[:, 1])
    if bad.any():
        i = int(bad.argmax())
        _check_hypotheses(rows[i].tolist())
        raise RuntimeError(f"the block refused row {i}, which the hypothesis check passes")
    return slack, inside


def best_witness_slacks_rows(rows) -> list[float | None]:
    """Each row's largest (j, k) slack among the inclusions that hold, or None if none holds.

    ``rows`` is an (n, 5, 3) array of rows as ``witness_search`` takes
    them, and the result is the slack of its first witness, from one
    ``circles_in_hulls`` call for all rows.  Other shapes raise ValueError.
    """
    import numpy as np

    rows = _rows_array(rows)
    if not len(rows):
        return []
    slack, inside = _decide(rows)
    held = inside[:, 2:]
    best = np.where(held, slack[:, 2:], -np.inf).max(axis=1)
    return [s if ok else None for s, ok in zip(best.tolist(), held.any(axis=1).tolist())]


def pair_inclusions_rows(rows, pairs) -> tuple[list, list]:
    """Slack and verdict of one named (j, k) inclusion per row, from one kernel call.

    Rows are as for ``best_witness_slacks_rows``; u0 and u1 may be points.
    ``pairs`` holds one (j, k) per row, each checked as ``pair_objects``
    checks it; a count that differs from the rows' raises ValueError.
    """
    import numpy as np

    rows = _rows_array(rows)
    pairs = list(pairs)
    if len(pairs) != len(rows):
        raise ValueError(f"need one (j, k) per row: {len(rows)} rows, {len(pairs)} pairs")
    for j, k in pairs:
        _check_jk(j, k)
    if not len(rows):
        return [], []
    objs = rows[np.arange(len(rows))[:, None], [_PAIR_OBJECTS[j, k] for j, k in pairs]]
    slack, inside, _ = circles_in_hulls(objs[:, 0], objs[:, 1:])
    return slack.tolist(), inside.tolist()


def witness_search(row) -> list[Witness]:
    """All (j, k) pairs whose inclusion holds, sorted by descending slack.

    ``row`` holds the (x, y, r) objects b0, b1, b2, u0, u1; its bases are
    sites when their radii are all 0 and generator circles otherwise.  One
    ``circle_in_hull`` call a (j, k) pair, on plain floats; each slack is
    bitwise the one ``best_witness_slacks_rows`` reads from a block.
    """
    row = _checked_row(row)
    _check_hypotheses(row)
    found = []
    for j, k in JK_PAIRS:
        res = circle_in_hull(*_pair(row, j, k))
        if res.contained:
            found.append(Witness(j, k, res.slack))
    found.sort(key=lambda w: (-w.slack, w.j, w.k))
    return found


def corollary_witness_search(row) -> list[Witness]:
    """Witness search on a row of three generator circles c0, c1, c2, then u0 and u1.

    ``witness_search`` itself, which reads bases of positive radius as
    generator circles; the name stays because the benchmark's tracer wraps
    it as a layer.
    """
    return witness_search(row)


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
    # a point is strictly inside when it turns as the site triangle does from each edge
    (ax, ay), (bx, by), (cx, cy) = sites
    ref = _orientation(ax, ay, bx, by, cx, cy)
    for (px, py), name in ((b0, "b0"), (b1, "b1")):
        if ref == 0 or not (
            _orientation(ax, ay, bx, by, px, py) == ref
            and _orientation(bx, by, cx, cy, px, py) == ref
            and _orientation(cx, cy, ax, ay, px, py) == ref
        ):
            raise NotInterior(f"{name} is not strictly inside the site triangle")

    # b1's side of each cevian b0 -> A_i, read once; b1 is strictly inside
    # the site triangle, so the sides of two cevians place it
    side = [_orientation(x0, y0, ax, ay, x1, y1) for ax, ay in sites]
    for j in range(3):
        if side[(j + 1) % 3] == ref and side[(j + 2) % 3] == -ref:
            return j, 0

    # b1 sits on one of the three segments from b0 to a site
    for j in range(3):
        ax, ay = sites[j]
        if side[j] == 0:
            t = (x1 - x0) * (ax - x0) + (y1 - y0) * (ay - y0)
            if 0.0 < t < (ax - x0) * (ax - x0) + (ay - y0) * (ay - y0):
                return j, 1
    raise NotInterior("b1 could not be located in the decomposition")


def two_carousel_points(row) -> tuple[Witness, bool]:
    """The pair ``point_decomposition`` names, with its inclusion's slack and verdict.

    ``row`` holds the sites A0, A1, A2 and then the points b0, b1, all of
    radius 0.
    """
    row = _sites_row(row)
    if row[3][2] != 0.0 or row[4][2] != 0.0:
        raise InvalidInstance("b0 and b1 must have radius 0")
    j, k = point_decomposition(row)
    res = circle_in_hull(*_pair(row, j, k))
    return Witness(j, k, res.slack), res.contained


# -- xi sweep ----------------------------------------------------------------

EVENT_TIE = 1e-12
# order among events that tie: a vertex reports as the leg that ends there
_EVENT_RANK = {Tangency.LEG: 0, Tangency.FRONT_ARC: 1, Tangency.BASE_SIDE: 2}


def _sweep_envelope(target, generators, zeta: float) -> tuple[float, float]:
    """Slack of a ``pair_objects`` inclusion scaled by zeta and the first angle attaining it."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    tx, ty, trad = target
    (ox, oy, orad), *sites = generators
    tr = zeta * trad
    terms = [(ox - tx, oy - ty, zeta * orad - tr)]
    terms += [(sx - tx, sy - ty, 0.0 - tr) for sx, sy, _ in sites]
    return _envelope_min(terms)


def sweep_slack(row, j: int, k: int, zeta: float) -> float:
    """Slack of the scaled (j, k) inclusion at scale zeta.

    ``row`` holds the sites b0, b1, b2 and the circles u0, u1.  Bitwise
    ``circle_in_hull(*pair_objects(scaled_instance(row, zeta), j, k)).slack``:
    the envelope terms come from the centres and the zeta-scaled radii by
    the same float operations, without building the scaled row or its
    generators.  A bad (j, k) raises ValueError.
    """
    _check_jk(j, k)
    return _sweep_envelope(*_pair(_sites_row(row), j, k), zeta)[0]


def _sweep_events(target, generators) -> list[tuple[float, Tangency]]:
    """Scales in (0, 1) where the scaled target can touch a hull piece, ascending.

    With target u_(1-k) = (c_t, r_t), kept circle u_k = (c_k, r_k) and sites
    a, b other than A_j, as ``pair_objects`` returns them, the target
    touches at scale zeta
      - the front arc when |c_t - c_k| = zeta (r_k - r_t),
      - the base side when dist(c_t, line ab) = zeta r_t,
      - a vertex s in {a, b} when |s - c_t| = zeta r_t (reported as a leg),
      - a leg from s when the line through s with unit normal u is tangent to
        both circles: u is perpendicular to r_t (s - c_k) - r_k (s - c_t) and
        zeta = (s - c_k).u / r_k, or (s - c_t).u / r_t when r_k = 0.
    Events closer than EVENT_TIE merge into one, whose family is the first in
    the order leg, front arc, base side.
    """
    ctx, cty, rt = target
    (ckx, cky, rk), *sites = generators
    kept = [(x, y) for x, y, _ in sites]
    (ax, ay), (bx, by) = kept
    events = []
    if rk > rt:
        events.append((math.hypot(ctx - ckx, cty - cky) / (rk - rt), Tangency.FRONT_ARC))
    if rt > 0.0:
        base = abs(_cross(ax, ay, bx, by, ctx, cty)) / math.hypot(bx - ax, by - ay)
        events.append((base / rt, Tangency.BASE_SIDE))
        events += [(math.hypot(sx - ctx, sy - cty) / rt, Tangency.LEG) for sx, sy in kept]
    for sx, sy in kept:
        kx, ky = sx - ckx, sy - cky  # s - c_k
        tx, ty = sx - ctx, sy - cty  # s - c_t
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


def _tangency_at_zero(target, generators) -> Tangency:
    """Side of the triangle c_k, a, b nearest the target's centre; legs win ties."""
    tx, ty, _ = target
    (kx, ky, _), *sites = generators
    kept = [(x, y) for x, y, _ in sites]
    (ax, ay), (bx, by) = kept
    if _orientation(kx, ky, ax, ay, bx, by) == 0:
        return Tangency.BASE_SIDE
    leg = min(_point_segment_distance(tx, ty, kx, ky, sx, sy) for sx, sy in kept)
    base = _point_segment_distance(tx, ty, ax, ay, bx, by)
    return Tangency.LEG if leg <= base + EPS_GEOM else Tangency.BASE_SIDE


def xi_sweep_fixed(row, j: int, k: int) -> XiSweepReport:
    """Supremum scale at which the fixed (j, k) inclusion still holds.

    ``row`` holds the sites b0, b1, b2 and the circles u0, u1.

    The slack can change sign only at one of the closed-form tangency events
    of ``_sweep_events``, so it keeps one sign between consecutive events.  One
    probe at the midpoint of each interval, from zeta = 0 upward, finds the
    first interval on which the inclusion fails: xi_star is its left end and
    the tangency is the family of the event there.  When it fails from
    zeta = 0 on, xi_star = 0 and the tangency is the side of the point hull
    nearest the target's centre.  When no interval fails, xi_star = 1 with
    no tangency.  The slack at xi_star and the touch direction come from
    one envelope evaluation there.  The row is checked once:
    ``_check_hypotheses`` reads its checked floats, and the events and the
    probes read them as the (target, generators) of ``pair_objects``.
    """
    _check_jk(j, k)
    j, k = int(j), int(k)  # a numpy integer reports as an int
    row = _sites_row(row)
    _check_hypotheses(row)
    pair = _pair(row, j, k)
    events = _sweep_events(*pair)
    edges = [0.0] + [zeta for zeta, _ in events] + [1.0]
    for i in range(len(edges) - 1):
        if _sweep_envelope(*pair, 0.5 * (edges[i] + edges[i + 1]))[0] < 0.0:
            break
    else:
        slack, _ = _sweep_envelope(*pair, 1.0)
        return XiSweepReport(j, k, 1.0, slack, Tangency.NONE_AT_ONE, None)
    xi = edges[i]
    tangency = events[i - 1][1] if i else _tangency_at_zero(*pair)
    slack, touch = _sweep_envelope(*pair, xi)
    return XiSweepReport(j, k, xi, slack, tangency, touch)


# -- seeded instance generation ----------------------------------------------
#
# An instance is drawn on plain floats, as a flat row of five (x, y, r)
# objects b0, b1, b2, u0, u1, from its seed's own random.Random, by a plain
# row function.  A block draw stacks its seeds' rows; a one-seed draw
# groups its row into five float triples.

COORD_RANGE = (-10.0, 10.0)  # sites and corollary centres, in both coordinates
RADIUS_RANGE = (0.0, 3.0)  # radii of the theorem's circles u0 and u1
MIN_HYPOTHESIS_SLACK = 0.01  # least slack of a drawn hypothesis inclusion
MAX_TRIES = 10_000  # rejections a draw may make before it gives up


def _sliver(ax, ay, bx, by, cx, cy) -> bool:
    """Whether drawn sites are a sliver: twice their area is below 4% of COORD_RANGE's square."""
    lo, hi = COORD_RANGE
    return abs(_cross(ax, ay, bx, by, cx, cy)) < 0.04 * (hi - lo) ** 2


def _sample_triangle(rng: random.Random):
    lo, hi = COORD_RANGE
    for _ in range(MAX_TRIES):
        ax, ay, bx, by, cx, cy = [rng.uniform(lo, hi) for _ in range(6)]
        if not _sliver(ax, ay, bx, by, cx, cy):
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


def _instance_row(seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    sites = _sample_triangle(rng)
    r_lo, r_hi = RADIUS_RANGE
    us = ()
    tries = 0
    while len(us) < 6:
        tries += 1
        if tries > MAX_TRIES:
            raise GenerationExhausted(f"no admissible circle after {MAX_TRIES} rejections")
        x, y = _interior_point(rng, sites)
        # a circle centred in the triangle lies in it with slack clearance - r
        room = _edge_clearance(x, y, sites) - MIN_HYPOTHESIS_SLACK
        if room <= r_lo:
            continue
        us += (x, y, rng.uniform(r_lo, min(r_hi, room)))
    return _as_points(sites) + us


def _slack_bound(x: float, y: float, r: float, gens) -> float:
    """Lower bound on the slack ``circle_in_hull`` computes for circle (x, y, r) in ``gens``' hull.

    ``gens`` are three generator circles and (x, y) is drawn in the
    triangle T of their centres.  The hull of the discs contains T grown by
    their least radius r_min, so the exact slack is at least
    d + r_min - r, with d the distance from (x, y) to the edges of T.  The
    bound is that sum less a margin for rounding.  Let M be the largest
    |coordinate| of COORD_RANGE plus 2, the largest radius drawn; every
    centre, offset and radius is then at most 2M in size.  The drawn centre
    lies within 10 ulp(M) of T, its computed edge distance within 20 ulp(M)
    of d, the computed slack (offsets, cos, sin and sums, all rounded)
    within 30 ulp(M) below the exact one, and the sum here rounds twice
    more: well under 1e-13 M in all.  The margin, 1e-12 M, covers that
    tenfold, so a bound above the floor proves a computed slack above it.
    M is read from COORD_RANGE when the bound is taken.
    """
    (ax, ay, ar), (bx, by, br), (cx, cy, cr) = gens
    lo, hi = COORD_RANGE
    margin = 1e-12 * (max(abs(lo), abs(hi)) + 2.0)
    return _edge_clearance(x, y, ((ax, ay), (bx, by), (cx, cy))) + min(ar, br, cr) - r - margin


def _corollary_row(seed: int) -> tuple[float, ...]:
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
        if _sliver(ax, ay, bx, by, cx, cy):
            continue
        gens = tuple((gx, gy, rng.uniform(0.2, 2.0)) for gx, gy in centers)
        us = ()
        inner_tries = 0
        while len(us) < 6 and inner_tries < 200:
            inner_tries += 1
            x, y = _interior_point(rng, centers)
            r = rng.uniform(0.0, 1.5)
            # the bound accepts most candidates; the rest take the slack
            # of circle_in_hull, bitwise, from its envelope loop
            if _slack_bound(x, y, r, gens) > floor or _envelope_min(
                [(gx - x, gy - y, gr - r) for gx, gy, gr in gens]
            )[0] > floor:
                us += (x, y, r)
        if len(us) == 6:
            return gens[0] + gens[1] + gens[2] + us


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


def _block(rows) -> np.ndarray:
    """Rows of five (x, y, r) objects, nested or flat, as an (n, 5, 3) array."""
    import numpy as np

    return np.array(rows, dtype=float).reshape(len(rows), 5, 3)


def random_instances(seeds) -> np.ndarray:
    """Rows (b0, b1, b2, u0, u1) of ``random_instance`` for each seed."""
    return _block([_instance_row(seed) for seed in seeds])


def random_corollary_instances(seeds) -> np.ndarray:
    """Rows (c0, c1, c2, u0, u1) of ``random_corollary_instance`` for each seed."""
    return _block([_corollary_row(seed) for seed in seeds])


def random_points_instances(seeds) -> np.ndarray:
    """Rows (A0, A1, A2, b0, b1) of ``random_points_instance`` for each seed, radii 0."""
    return _block([_points_row(seed) for seed in seeds])


def random_instance(seed: int) -> tuple:
    """Deterministic valid row (b0, b1, b2, u0, u1) of sites and circles from a seed.

    Sites are sampled in the COORD_RANGE square with a sliver rejection.
    Each circle is centred in the triangle with a radius below its edge
    clearance less MIN_HYPOTHESIS_SLACK, so both hypothesis inclusions hold
    with slack above that floor, with no solve.  The one-seed case of
    ``random_instances``.
    """
    row = _instance_row(seed)
    return tuple(row[i : i + 3] for i in range(0, 15, 3))


def random_points_instance(seed: int) -> tuple:
    """Deterministic row (A0, A1, A2, b0, b1): a triangle plus two distinct interior points.

    The one-seed case of ``random_points_instances``.
    """
    row = _points_row(seed)
    return tuple(row[i : i + 3] for i in range(0, 15, 3))


def random_corollary_instance(seed: int) -> tuple:
    """Deterministic corollary row (c0, c1, c2, u0, u1): three generator circles plus two circles.

    The generator centres are sampled as the theorem's sites are.  Each
    circle is centred in their triangle and kept when its slack in the
    generators' hull exceeds MIN_HYPOTHESIS_SLACK: ``_slack_bound`` shows
    that for most candidates with no solve, and the envelope loop of
    ``circle_in_hull`` decides the rest.  The one-seed case of
    ``random_corollary_instances``.
    """
    row = _corollary_row(seed)
    return tuple(row[i : i + 3] for i in range(0, 15, 3))
