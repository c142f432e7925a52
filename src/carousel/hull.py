"""Containment of a circle in the convex hull of circles and points.

Circles and points are (x, y, r) float triples, a point having r = 0; each
one-query entry checks its objects with ``planar.checked_objects``.  The
decision runs in the support (dual) domain.  For direction theta the
hull of generators supports h(theta) = max_g(center_g . u(theta) + r_g), so
the target circle is contained iff every direction satisfies the support
inequality.  The slack, the least support surplus over all directions, is
the minimum of an envelope of sinusoids; it is found exactly by evaluating
the envelope at its critical angles (each generator's antipodal minimum and
the pairwise switch angles), and it decides the verdict by the one rule,
``planar.contained``: contained iff slack >= -EPS_DECISION, an absolute
band.  The 3D kernel passes that rule the slack normalised by each
inclusion's largest length instead, and returns the same
``ContainmentResult``.  A direction that attains a negative slack is the
certificate of a non-containment.

``circle_in_hull`` decides one query; ``circles_in_hulls`` decides a set of
rows with the same number of objects in one array pass, each row against
one or more subsets of its objects that all rows share, and checks the
shapes and values of every call.  A row's candidate angles are built once,
from all its objects, by the formulas of ``_critical_angles``, with
``math`` over whole columns and the guards in numpy.  Each subset's
envelope is read at its own candidates only, in bounded blocks of rows, so
every result is bitwise the one-query kernel's on that subset, and a caller
may batch its queries, or share one target's candidates among its queries,
without changing any report.

The same switch-angle machinery yields the hull boundary as a tuple of
pieces, a cyclic chain of circular arcs and common external tangent
segments, used for rendering.
Every nonempty generator set has one: a hull that is a segment is its two
tangent segments, there and back, and a hull that is a single point is the
empty chain.

``circle_in_hull`` and ``hull_boundary`` run on plain floats and never
touch numpy; the set entry ``circles_in_hulls`` and its helpers import it
when they first run, so importing this module does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .planar import EPS_GEOM, TAU, checked_objects, contained

if TYPE_CHECKING:
    import numpy as np

_TINY = 1e-15
# Elements in the largest temporary of ``circles_in_hulls`` (subsets x
# their objects x rows x candidate angles); rows go in blocks of about this size.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class ContainmentResult:
    """Verdict plus certificate for one containment query, in 2D or 3D.

    ``slack`` is the minimal support surplus over all directions and decides
    the verdict by ``planar.contained``: contained iff
    ``slack >= -EPS_DECISION`` (in 3D, the slack normalised by the
    inclusion's largest length).  ``witness_direction`` (present iff not
    contained) attains that slack, so it proves a non-containment: an angle
    in 2D, a unit (x, y, z) triple in 3D.
    """

    contained: bool
    slack: float
    witness_direction: float | tuple[float, float, float] | None = None


def _switch_angles(terms) -> list[float]:
    """Both angles where two of the sinusoids (x, y, r) cross, pairs i < j in order.

    A pair with distinct centres and |rj - ri| at most their distance
    contributes base + delta, then base - delta, not reduced mod tau; any
    other pair has no crossing.
    """
    out = []
    for i, (xi, yi, ri) in enumerate(terms):
        for xj, yj, rj in terms[i + 1 :]:
            ax = xi - xj
            ay = yi - yj
            rho = math.hypot(ax, ay)
            if rho > _TINY:
                x = (rj - ri) / rho
                if -1.0 <= x <= 1.0:
                    base = math.atan2(ay, ax)
                    delta = math.acos(x)
                    out.append(base + delta)
                    out.append(base - delta)
    return out


def _critical_angles(terms) -> list[float]:
    """Angles where max_g(dx cos + dy sin + dr) can take its minimum, ascending mod tau.

    An envelope of sinusoids is smallest at one sinusoid's own minimum (the
    direction antipodal to its centre offset, for an offset longer than
    _TINY) or where two of them cross; theta = 0 stands in when every centre
    coincides with the target's.
    """
    cands = [0.0]
    cands += [math.atan2(y, x) + math.pi for x, y, _ in terms if math.hypot(x, y) > _TINY]
    cands += _switch_angles(terms)
    return sorted([c % TAU for c in cands])


def _envelope_min(terms) -> tuple[float, float]:
    """Least value of max_g(dx cos + dy sin + dr) and the first critical angle attaining it.

    ``terms`` are each generator's (dx, dy, dr) relative to the target; the
    least value is the containment slack.
    """
    best = math.inf
    best_theta = 0.0
    for theta in _critical_angles(terms):
        c = math.cos(theta)
        s = math.sin(theta)
        v = -math.inf
        for dx, dy, dr in terms:
            w = dx * c + dy * s + dr
            if w > v:
                v = w
                if v >= best:
                    break  # this angle cannot lower the minimum
        if v < best:
            best = v
            best_theta = theta
    return best, best_theta


def circle_in_hull(target, gens) -> ContainmentResult:
    """Decide target-circle containment in the hull of the generators.

    ``target`` and each of the nonempty ``gens`` are (x, y, r) objects.

    The slack is minimised exactly over the critical angles of the support
    gap, and the target is contained iff ``planar.contained`` holds of it:
    the slack is at least ``-EPS_DECISION``.  The band is absolute here; in
    3D, ``spheres_in_hull3`` passes the rule the slack normalised by each
    inclusion's largest length.  The first critical angle attaining the
    minimum is the witness direction of a non-containment.  Points are the
    radius-0 special case on either side.
    """
    ((tx, ty, tr),) = checked_objects((target,))
    best, best_theta = _envelope_min(
        [(x - tx, y - ty, r - tr) for x, y, r in checked_objects(gens, nonempty=True)]
    )
    inside = contained(best)
    return ContainmentResult(
        contained=inside,
        slack=best,
        witness_direction=None if inside else best_theta,
    )


def _column(fn, *cols: list) -> np.ndarray:
    """A ``math`` function over whole columns of Python floats, as an array."""
    import numpy as np

    return np.fromiter(map(fn, *cols), float, len(cols[0]))


def _candidates(offsets: np.ndarray, g: int) -> np.ndarray:
    """Each row's candidate angles mod tau: theta = 0, the antipodes, then the crossings.

    ``offsets`` is an (m, g + p, 3) array: a row's g offsets (x, y, r) and
    then its p pair differences (xi - xj, yi - yj, rj - ri).  The angles
    are those of ``_critical_angles``, unsorted, with 0.0 for each one that
    a guard rejects.  They are taken column by column: the ``math``
    functions over whole columns and the guards in numpy, with base - delta
    as base + (-delta), which rounds alike.
    """
    import numpy as np

    m = len(offsets)
    x, y, _ = offsets.reshape(-1, 3).T.tolist()
    length = _column(math.hypot, x, y).reshape(m, -1)
    angle = _column(math.atan2, y, x).reshape(m, -1)
    apart = length > _TINY
    ratio = offsets[:, g:, 2] / np.where(apart[:, g:], length[:, g:], 1.0)
    meet = apart[:, g:] & (np.abs(ratio) <= 1.0)
    delta = _column(math.acos, np.where(meet, ratio, 0.0).ravel().tolist())
    crossing = angle[:, g:, None] + delta.reshape(m, -1, 1) * np.array([1.0, -1.0])
    cands = np.concatenate([
        np.zeros((m, 1)),
        np.where(apart[:, :g], angle[:, :g] + math.pi, 0.0),
        np.where(meet[..., None], crossing, 0.0).reshape(m, -1),
    ], axis=1)
    cands %= TAU
    return cands


@functools.lru_cache(maxsize=16)
def _layout(g: int, subsets: bytes | None):
    """Pair indices and subset tables of ``circles_in_hulls`` for g objects.

    ``subsets`` holds the bytes of a (q, g) boolean array, None for one
    subset of all g.  Returns the pairs i < j in scalar loop order; a (q, s)
    array of each subset's objects, padded to the largest subset by
    repeating its first, which leaves a max unchanged; and a (q, 1, width)
    array of each subset's own candidates: theta = 0, the antipodes of its
    objects and the crossings of its pairs.  All are read-only.
    """
    import numpy as np

    if subsets is None:
        sets = np.ones((1, g), bool)
    else:
        sets = np.frombuffer(subsets, bool).reshape(-1, g)
    sizes = sets.sum(axis=1)
    if not sizes.all():
        raise ValueError("every subset must hold at least one object")
    first, second = np.triu_indices(g, 1)
    members = np.array([
        [*np.flatnonzero(s)] + [np.argmax(s)] * (sizes.max() - k) for s, k in zip(sets, sizes)
    ])
    pair = sets[:, first] & sets[:, second]
    own = np.concatenate([np.ones((len(sets), 1), bool), sets, pair.repeat(2, axis=1)], axis=1)
    tables = first, second, members, own[:, None, :]
    for t in tables:
        t.setflags(write=False)
    return tables


def _check_values(*arrays) -> None:
    """Refuse objects, radius last, with a coordinate or radius not finite or a radius < 0."""
    import numpy as np

    for objs in arrays:
        if not (np.isfinite(objs).all() and (objs[..., -1] >= 0.0).all()):
            if not np.isfinite(objs[..., :-1]).all():
                raise ValueError("coordinates must be finite")
            raise ValueError("radii must be finite and >= 0")


def circles_in_hulls(targets, gens, subsets=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide a set of containment queries in one array pass, as ``circle_in_hull`` does each.

    ``targets`` is an (n, 3) array of circles (x, y, r) and ``gens`` an
    (n, g, 3) array of each row's g >= 1 objects.  Returns each query's
    slack, verdict (``planar.contained(slack)``) and witness angle, the
    first critical angle in ascending order that attains the slack; it is a
    witness only where the verdict is False.

    ``subsets``, a (q, g) boolean array shared by all rows, makes each row
    q queries: the target against each subset's objects, with results of
    shape (n, q).  The default is one subset of all g objects, with results
    of shape (n,).  A row's candidates are built once, from all its objects:
    theta = 0, every antipode and both crossings of every pair i < j; a
    subset's envelope is the max over its objects, taken only at its own
    candidates.  The candidates come from the formulas of
    ``circle_in_hull``, and each subset's result is bitwise that kernel's on
    the subset's objects in row order: hypot, atan2 and acos are taken from
    ``math`` over whole columns, because their numpy versions round
    differently, while the arithmetic, ``%``, cos and sin round alike in
    both.  Rows go in blocks, so the temporaries stay bounded.  Arrays of
    other shapes, a coordinate that is not finite, or a radius that is
    negative or not finite, in a target or a generator, raise ValueError.
    """
    import numpy as np

    targets = np.asarray(targets, dtype=float)
    gens = np.asarray(gens, dtype=float)
    if gens.ndim != 3 or gens.shape[2] != 3 or targets.shape != (len(gens), 3):
        raise ValueError(
            f"need (n, 3) targets and (n, g, 3) generators, got {targets.shape} and {gens.shape}"
        )
    g = gens.shape[1]
    if g < 1:
        raise ValueError("generator sets must be nonempty")
    _check_values(targets, gens)
    if subsets is not None:
        subsets = np.asarray(subsets, dtype=bool)
        if subsets.ndim != 2 or subsets.shape[1] != g:
            raise ValueError(f"subsets must be a (q, {g}) boolean array")
    n = len(gens)
    key = None if subsets is None else subsets.tobytes()
    first, second, members, own = _layout(g, key)
    q, size = members.shape
    slack = np.empty((n, q))
    theta = np.empty((n, q))
    step = max(1, _BLOCK // (q * size * own.shape[2]))
    for lo in range(0, n, step):
        terms = gens[lo : lo + step] - targets[lo : lo + step, None, :]
        m = len(terms)
        flip = terms * np.array([1.0, 1.0, -1.0])  # -ri - (-rj) is rj - ri, exactly
        pairs = flip.take(first, axis=1) - flip.take(second, axis=1)
        cands = _candidates(np.concatenate([terms, pairs], axis=1), g)
        c = np.cos(cands)
        s = np.sin(cands)
        by_object = terms.transpose(1, 0, 2)[..., None]
        waves = by_object[:, :, 0] * c + by_object[:, :, 1] * s + by_object[:, :, 2]
        env = np.where(own, waves[members].max(axis=1), np.inf)
        least = env.min(axis=2)
        slack[lo : lo + m] = least.T
        theta[lo : lo + m] = np.where(env == least[..., None], cands, np.inf).min(axis=2).T
    inside = contained(slack)
    if subsets is None:
        return slack.ravel(), inside.ravel(), theta.ravel()
    return slack, inside, theta


# -- hull boundary -----------------------------------------------------------


@dataclass(frozen=True)
class ArcPiece:
    """Boundary arc of one generator circle, counterclockwise from start_angle."""

    generator: int
    start_angle: float
    end_angle: float  # end_angle > start_angle; may wrap past tau
    start: tuple[float, float]
    end: tuple[float, float]

    @property
    def width(self) -> float:
        return self.end_angle - self.start_angle


@dataclass(frozen=True)
class SegmentPiece:
    """Common external tangent segment between two consecutive active generators."""

    start: tuple[float, float]
    end: tuple[float, float]
    generators: tuple[int, int]


def _point_on(g, theta: float) -> tuple[float, float]:
    """The point at angle theta on the circle (x, y, r)."""
    x, y, r = g
    return x + r * math.cos(theta), y + r * math.sin(theta)


def hull_boundary(gens) -> tuple[ArcPiece | SegmentPiece, ...]:
    """The hull boundary of the nonempty (x, y, r) objects ``gens``, as its pieces.

    The pieces form a counterclockwise cyclic chain of arcs and tangent
    segments.

    Switch angles come from pairwise equalities of the support sinusoids and
    are merged when within 1e-12 of each other.  On each interval between
    consecutive switch angles a single generator is active; consecutive
    intervals of the same generator form one run, and the run that crosses
    theta = 0 is joined across it.  A run contributes an arc of its
    generator (none for a radius-0 vertex), and consecutive runs are joined
    by their common external tangent segment at the switch angle.

    Degenerate hulls take the same path: a segment comes out as its two
    tangent segments, there and back, and a single point as no pieces.
    """
    glist = checked_objects(gens, nonempty=True)

    # exact duplicates never become active on their own
    first_of = {}
    for i, g in enumerate(glist):
        first_of.setdefault(g, i)
    live = sorted(first_of.values())
    terms = [glist[i] for i in live]

    def argmax_at(theta: float) -> int:
        """The first live generator whose support is greatest at theta."""
        c = math.cos(theta)
        s = math.sin(theta)
        values = [x * c + y * s + r for x, y, r in terms]
        return live[values.index(max(values))]

    angles = []
    for a in sorted(a % TAU for a in _switch_angles(terms)):
        if not angles or a - angles[-1] > 1e-12:
            angles.append(a)
    if angles and angles[0] + TAU - angles[-1] <= 1e-12:
        angles.pop()

    # [active generator, theta_start, theta_end] with theta_end > theta_start
    runs = []
    for lo, hi in zip(angles, angles[1:] + angles[:1]):
        if hi <= lo:  # the last interval wraps past tau
            hi += TAU
        active = argmax_at(0.5 * (lo + hi) % TAU)
        if runs and runs[-1][0] == active:
            runs[-1][2] = hi
        else:
            runs.append([active, lo, hi])
    if not runs:  # no switch angle: one generator is active all round
        runs.append([argmax_at(0.0), 0.0, TAU])
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        # same generator active across the sweep start: one wrapped run
        first = runs.pop(0)
        runs[-1][2] = first[2] + TAU

    if len(runs) == 1:
        gen_i = runs[0][0]
        g = glist[gen_i]
        if g[2] <= 0.0:
            return ()
        theta0 = runs[0][1] % TAU
        start = _point_on(g, theta0)
        return (ArcPiece(gen_i, theta0, theta0 + TAU, start, start),)

    pieces = []
    for (gen_i, lo, hi), (nxt_gen, _, _) in zip(runs, runs[1:] + runs[:1]):
        g = glist[gen_i]
        if g[2] > 0.0 and hi - lo > 1e-12:
            pieces.append(ArcPiece(gen_i, lo, hi, _point_on(g, lo), _point_on(g, hi)))
        p_from = _point_on(g, hi)
        p_to = _point_on(glist[nxt_gen], hi)
        if math.dist(p_from, p_to) > EPS_GEOM:
            pieces.append(SegmentPiece(p_from, p_to, (gen_i, nxt_gen)))
    return tuple(pieces)
