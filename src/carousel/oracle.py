"""Exact decision of the 2D containment predicate, for the ``oracle`` verb.

It takes the (x, y, r) float triples that ``circle_in_hull`` takes and
decides, with no rounding at all, whether the target circle lies in the
convex hull of the generator circles and points.  It imports neither numpy
nor ``hull``: it shares no code with the float kernel it cross-checks.

With d_k the offset of generator k's centre from the target's and
rho_k = r_k - r_t, the target is contained iff the support gap

    F(u) = max_k f_k(u),    f_k(u) = d_k . u + rho_k,

is >= 0 at every unit direction u.  F is least at a direction where either
one f_k alone is largest, and so is at its own least, at the antipode
-d_k / |d_k|, or two distinct f_i, f_j are equal.  The latter lie on the
line e . u = s, with e = d_i - d_j and s = rho_j - rho_i, which meets the
unit circle where |e|^2 >= s^2, at

    u = (s e +- sqrt(|e|^2 - s^2) e_perp) / |e|^2,    e_perp = (-e_y, e_x).

A least that only a constant f_k (d_k = 0) attains is also attained at the
ends of the arc where f_k is largest, which are crossings, or everywhere
when that arc is the whole circle; the fixed direction u = (1, 0) covers
the last case.  So the target is contained iff every one of these candidate
directions has some f_k(u) >= 0.  A pair with e = 0 (concentric generators)
has no crossing: its two f differ by a constant or are one function.

Every input float is a dyadic rational, so one power of two turns all the
coordinates and radii into integers, and a positive scale changes no sign.
At a candidate, f_k(u) times a positive number is p + q sqrt(D) with
integers p, q and D >= 0:

    u = (1, 0):         p = d_kx + rho_k,                  q = 0,
    antipode of g:      p = -d_k . d_g,  q = rho_k,        D = |d_g|^2,
    crossing of (i, j): p = s d_k . e + rho_k |e|^2,
                        q = +-(e_x d_ky - e_y d_kx),       D = |e|^2 - s^2.

Its sign is read without a square root: it is the sign that p and q share,
and where their signs differ, that of the larger of p^2 and q^2 D (the
sign rules of J. R. Shewchuk, *Adaptive precision floating-point arithmetic
and fast robust geometric predicates*, DCG 18, 1997, taken over exact
integers).  Python's integers do not overflow, so the verdict does not
change when the input is translated by a float offset that keeps it exact,
reflected, or scaled by any power of two that keeps every value finite and
exact.  A target tangent to the hull from inside counts as contained.

The name ``sampling_oracle_contains`` is kept from the sampled-polygon
oracle this decision replaced: ``perfbench/tracing.py`` wraps it by that
name as a timed layer.
"""

from __future__ import annotations

from .planar import checked_objects

# |slack| band of the float kernel inside which its verdict may disagree with
# this exact one: the kernel counts a slack >= -EPS_DECISION as contained
ORACLE_SLACK_BAND = 1e-4


def _integer_rows(objs) -> list:
    """The (x, y, r) float ``objs`` times the least power of two that makes
    every value an integer, as lists of exact integers.
    """
    ratios = [v.as_integer_ratio() for obj in objs for v in obj]
    scale = max(d for _, d in ratios)
    values = [n * (scale // d) for n, d in ratios]
    return [values[i : i + 3] for i in range(0, len(values), 3)]


def _nonnegative(p: int, q: int, delta: int) -> bool:
    """True iff p + q sqrt(delta) >= 0, for integers p, q and delta >= 0."""
    if q >= 0:
        return p >= 0 or q * q * delta >= p * p
    return p >= 0 and p * p >= q * q * delta


def _candidates(offsets: list):
    """Each candidate direction u as (px, py, pr, qx, qy, qr, delta): f_k(u)
    of the offset (dx, dy, dr) times a positive number is p + q sqrt(delta),
    with p = px dx + py dy + pr dr and q = qx dx + qy dy + qr dr.
    """
    yield 1, 0, 1, 0, 0, 0, 0  # u = (1, 0)
    for gx, gy, _ in offsets:  # the antipode of g: u = -d_g / |d_g|
        delta = gx * gx + gy * gy
        if delta:
            yield -gx, -gy, 0, 0, 0, 1, delta
    for i, (ix, iy, ir) in enumerate(offsets):  # the crossings of i and j
        for jx, jy, jr in offsets[:i]:
            ex, ey, s = ix - jx, iy - jy, jr - ir
            e2 = ex * ex + ey * ey
            delta = e2 - s * s
            if e2 and delta >= 0:
                yield s * ex, s * ey, e2, -ey, ex, 0, delta
                yield s * ex, s * ey, e2, ey, -ex, 0, delta


def sampling_oracle_contains(target, gens) -> bool:
    """True iff the target circle lies in the convex hull of the generators, exactly.

    ``target`` and each of the nonempty ``gens`` are (x, y, r) objects.
    Raises ValueError on an object that ``checked_objects`` refuses.
    """
    (target,) = checked_objects((target,))
    gens = checked_objects(gens, nonempty=True)
    (tx, ty, tr), *rows = _integer_rows((target, *gens))
    offsets = [(x - tx, y - ty, r - tr) for x, y, r in rows]
    return all(
        any(
            _nonnegative(px * dx + py * dy + pr * dr, qx * dx + qy * dy + qr * dr, delta)
            for dx, dy, dr in offsets
        )
        for px, py, pr, qx, qy, qr, delta in _candidates(offsets)
    )
