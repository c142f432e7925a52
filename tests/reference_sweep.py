"""Tangency events of the xi-sweep as first written, on ``Point2`` vectors.

``witness.sweep_events`` now computes the same events on plain floats; the
tests check that it returns exactly these events, bit for bit.  Kept only as
a reference.
"""

from carousel.planar import Point2
from carousel.witness import _EVENT_RANK, EVENT_TIE, Tangency, _others


def sweep_events(inst, j, k):
    own, target = inst.circle(k), inst.circle(1 - k)
    ck, rk = own.center, own.radius
    ct, rt = target.center, target.radius
    a, b = _others(inst.sites, j)
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
