"""Seeded instance draws as first written, on ``Point2`` vectors, one query at a time.

``witness.random_instance`` and its siblings now draw on plain floats, a
block of seeds at a time, with the rejection-sampling queries of a round
decided in one set-level call; the tests check that they return exactly
these instances, bit for bit, and raise the same errors.  Kept only as a
reference.  The draw ranges, fixed constants in ``witness``, are a
``DrawConfig`` here, so that the tests can draw under other ranges and set
the constants to match with ``set_witness_constants``.  A draw returns the
row of five (x, y, r) float triples that the package's draws return.
"""

import math
import random
from dataclasses import dataclass, fields

from carousel import witness
from carousel.errors import GenerationExhausted
from carousel.hull import circle_in_hull
from carousel.planar import _point_segment_distance
from lemmas import Point2


@dataclass(frozen=True)
class DrawConfig:
    """Sampling ranges of the draws; each field is the ``witness`` constant of its name."""

    coord_range: tuple[float, float] = (-10.0, 10.0)
    radius_range: tuple[float, float] = (0.0, 3.0)
    min_hypothesis_slack: float = 0.01
    max_tries: int = 10_000


def set_witness_constants(monkeypatch, cfg):
    """Make ``witness`` draw under ``cfg``: set each constant to its field's value."""
    for field in fields(cfg):
        monkeypatch.setattr(witness, field.name.upper(), getattr(cfg, field.name))


def _sample_triangle(rng, cfg):
    lo, hi = cfg.coord_range
    span = hi - lo
    min_cross = 0.04 * span * span
    for _ in range(cfg.max_tries):
        pts = tuple(Point2(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(3))
        a, b, c = pts
        if abs((b - a).cross(c - a)) >= min_cross:
            return pts
    raise GenerationExhausted("could not sample a non-degenerate triangle")


def _interior_point(rng, sites):
    r1 = math.sqrt(rng.random())
    r2 = rng.random()
    a, b, c = sites
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    return Point2(
        w0 * a.x + w1 * b.x + w2 * c.x,
        w0 * a.y + w1 * b.y + w2 * c.y,
    )


def _edge_clearance(p, sites):
    return min(
        _point_segment_distance(p.x, p.y, a.x, a.y, b.x, b.y)
        for a, b in ((sites[i], sites[(i + 1) % 3]) for i in range(3))
    )


def _xyr(p, r=0.0):
    return (p.x, p.y, r)


def random_instance(seed, config=DrawConfig()):
    rng = random.Random(seed)
    sites = _sample_triangle(rng, config)
    site_gens = [_xyr(s) for s in sites]
    r_lo, r_hi = config.radius_range
    floor = config.min_hypothesis_slack
    circles = []
    tries = 0
    while len(circles) < 2:
        tries += 1
        if tries > config.max_tries:
            raise GenerationExhausted(
                f"no admissible circle after {config.max_tries} rejections"
            )
        center = _interior_point(rng, sites)
        room = _edge_clearance(center, sites) - floor
        if room <= r_lo:
            continue
        radius = rng.uniform(r_lo, min(r_hi, room))
        cand = _xyr(center, radius)
        if circle_in_hull(cand, site_gens).slack > floor:
            circles.append(cand)
    return (*site_gens, *circles)


def random_points_instance(seed, config=DrawConfig()):
    rng = random.Random(seed)
    sites = _sample_triangle(rng, config)
    floor = 1e-3 * (config.coord_range[1] - config.coord_range[0])
    pts = []
    tries = 0
    while len(pts) < 2:
        tries += 1
        if tries > config.max_tries:
            raise GenerationExhausted("could not sample interior points")
        p = _interior_point(rng, sites)
        if _edge_clearance(p, sites) < floor:
            continue
        if pts and pts[0].distance_to(p) <= 1e-6:
            continue
        pts.append(p)
    return tuple(_xyr(p) for p in (*sites, *pts))


def random_corollary_instance(seed, config=DrawConfig()):
    rng = random.Random(seed)
    lo, hi = config.coord_range
    floor = config.min_hypothesis_slack
    tries = 0
    while True:
        tries += 1
        if tries > config.max_tries:
            raise GenerationExhausted("could not sample corollary generators")
        centers = tuple(Point2(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(3))
        a, b, c = centers
        if abs((b - a).cross(c - a)) < 0.04 * (hi - lo) ** 2:
            continue
        cs = tuple(_xyr(p, rng.uniform(0.2, 2.0)) for p in centers)
        us = []
        inner_tries = 0
        while len(us) < 2 and inner_tries < 200:
            inner_tries += 1
            center = _interior_point(rng, centers)
            radius = rng.uniform(0.0, 1.5)
            cand = _xyr(center, radius)
            if circle_in_hull(cand, cs).slack > floor:
                us.append(cand)
        if len(us) == 2:
            return (*cs, *us)
