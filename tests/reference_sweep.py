"""Tangency events of the xi-sweep as first written, on ``Point2`` vectors.

``witness._sweep_events`` now computes the same events on plain floats, from
the (target, generators) of ``witness.pair_objects``; the tests check that
it returns exactly these events, bit for bit.  Kept only as
a reference.  It takes the row of (x, y, r) objects b0, b1, b2, u0, u1 that
the package takes, and reads it into the vectors of ``lemmas.Point2``.
"""

from carousel.witness import _EVENT_RANK, EVENT_TIE, Tangency
from lemmas import Point2


def sweep_events(row, j, k):
    (ckx, cky, rk), (ctx, cty, rt) = row[3 + k], row[4 - k]
    ck, ct = Point2(ckx, cky), Point2(ctx, cty)
    a, b = (Point2(x, y) for i, (x, y, _) in enumerate(row[:3]) if i != j)
    events = []
    if rk > rt:
        events.append((ct.distance_to(ck) / (rk - rt), Tangency.FRONT_ARC))
    if rt > 0.0:
        base = b - a
        events.append((abs(base.cross(ct - a)) / base.norm() / rt, Tangency.BASE_SIDE))
        events += [(s.distance_to(ct) / rt, Tangency.LEG) for s in (a, b)]
    for s in (a, b):
        w = rt * (s - ck) - rk * (s - ct)
        n = w.norm()
        if n == 0.0:
            continue
        for u in (Point2(-w.y / n, w.x / n), Point2(w.y / n, -w.x / n)):
            zeta = (s - ck).dot(u) / rk if rk > 0.0 else (s - ct).dot(u) / rt
            events.append((zeta, Tangency.LEG))
    merged = []
    for zeta, family in sorted((e for e in events if 0.0 < e[0] < 1.0), key=lambda e: e[0]):
        if not merged or zeta - merged[-1][0] > EVENT_TIE:
            merged.append((zeta, family))
        elif _EVENT_RANK[family] < _EVENT_RANK[merged[-1][1]]:
            merged[-1] = (merged[-1][0], family)
    return merged
