"""Sampling-polygon oracle tests and predicate agreement."""

import random

import numpy as np
import pytest

from carousel import GeneratorSet, circle, circle_in_hull
from carousel.fuzz import random_containment_query
from carousel.oracle import (
    DEFAULT_SAMPLES,
    ORACLE_SLACK_BAND,
    _circle_samples,
    hull_polygon_area,
    polygon_contains_points,
    sample_hull_polygon,
    sampling_oracle_contains,
)


def test_target_equals_generator():
    gens = GeneratorSet((circle(1, 2, 1.5),))
    assert sampling_oracle_contains(circle(1, 2, 1.5), gens)


def test_far_target_rejected():
    gens = GeneratorSet((circle(0, 0, 1),))
    assert not sampling_oracle_contains(circle(10, 0, 1), gens)


def test_clear_containment():
    gens = GeneratorSet((circle(0, 0, 0), circle(10, 0, 0), circle(0, 10, 0)))
    assert sampling_oracle_contains(circle(2, 2, 0.5), gens)
    assert not sampling_oracle_contains(circle(2, 2, 5.0), gens)


def test_polygon_point_membership():
    poly = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    queries = np.array([[1.0, 1.0], [3.0, 3.0], [-0.1, 0.5], [2.0, 1.9]])
    got = polygon_contains_points(poly, queries)
    assert got.tolist() == [True, False, False, True]


def test_degenerate_generators():
    # a single point and a pair of points still answer sensibly
    one = GeneratorSet((circle(1, 1, 0),))
    assert sampling_oracle_contains(circle(1, 1, 0), one)
    assert not sampling_oracle_contains(circle(2, 1, 0), one)
    two = GeneratorSet((circle(0, 0, 0), circle(4, 0, 0)))
    assert sampling_oracle_contains(circle(2, 0, 0), two)
    assert not sampling_oracle_contains(circle(2, 1, 0), two)


def test_polygon_is_counterclockwise():
    poly = sample_hull_polygon(GeneratorSet((circle(0, 0, 1), circle(3, 0, 1))))
    area2 = 0.0
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        area2 += a[0] * b[1] - a[1] * b[0]
    assert area2 > 0


def test_agreement_with_predicate_outside_band():
    checked = 0
    for seed in range(200):
        target, gens = random_containment_query(seed)
        res = circle_in_hull(target, gens)
        if abs(res.slack) <= ORACLE_SLACK_BAND:
            continue
        checked += 1
        assert sampling_oracle_contains(target, gens) == res.contained
    assert checked > 150  # the band must not swallow the sample


# -- cross-check of the direct construction against Qhull ---------------------


def _qhull_polygon(gens):
    """Qhull's vertex array over the full sample cloud, or None if it is flat."""
    spatial = pytest.importorskip("scipy.spatial")
    pts = np.vstack([_circle_samples(g, DEFAULT_SAMPLES) for g in gens])
    try:
        return pts[spatial.ConvexHull(pts).vertices]
    except spatial.QhullError:
        return None


def _as_complex(poly):
    """One complex number per vertex, so vertex sets compare with np.isin."""
    return np.ascontiguousarray(poly, dtype=float).view(complex).ravel()


def _distance_to_boundary(poly, v):
    a, ab = poly, np.roll(poly, -1, axis=0) - poly
    t = np.clip(((v - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
    return float(np.min(np.hypot(*(a + t[:, None] * ab - v).T)))


def _assert_matches_qhull(target, gens, tol=0.0):
    """Qhull's vertices are ours and both polygons give the same verdict.

    With ``tol`` > 0 a Qhull vertex may instead lie within ``tol`` of one of
    ours: where samples of different generators coincide up to rounding,
    Qhull merges them and keeps either one.  Every vertex of ours that Qhull
    drops must lie on Qhull's boundary up to 1e-12.  Returns how many there
    are (collinear extras).
    """
    ours = sample_hull_polygon(gens)
    ref = _qhull_polygon(gens)
    if ref is None:
        assert len(ours) < 3, ours
        return 0
    ours_c, ref_c = _as_complex(ours), _as_complex(ref)
    for v in ref[~np.isin(ref_c, ours_c)]:
        assert np.min(np.hypot(*(ours - v).T)) <= tol, v
    extras = ours[~np.isin(ours_c, ref_c)]
    for v in extras:
        assert _distance_to_boundary(ref, v) <= 1e-12, v
    queries = _circle_samples(target, DEFAULT_SAMPLES)
    ref_verdict = bool(np.all(polygon_contains_points(ref, queries)))
    assert sampling_oracle_contains(target, gens) == ref_verdict
    return len(extras)


def test_matches_qhull_on_random_queries():
    extra = sum(_assert_matches_qhull(*random_containment_query(seed)) for seed in range(2000))
    assert extra == 0


def _tie_heavy_query(seed):
    """Duplicate and concentric generators, equal radii on integer coordinates."""
    rng = random.Random(seed)
    gens = []
    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if gens and roll < 0.3:
            gens.append(rng.choice(gens))
        elif gens and roll < 0.6:
            c = rng.choice(gens).center
            gens.append(circle(c.x, c.y, rng.choice((0.0, 1.0, 2.0))))
        else:
            gens.append(circle(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((0.0, 1.0, 1.0, 2.0))))
    target = circle(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((0.0, 0.5, 1.0)))
    return target, GeneratorSet(tuple(gens))


def test_matches_qhull_on_ties():
    for seed in range(300):
        _assert_matches_qhull(*_tie_heavy_query(seed), tol=1e-12)


@pytest.mark.parametrize(
    "circles",
    [
        [(3, 1, 2), (1, 1, 0), (3, 1, 1), (3, 1, 2)],
        [(0, -2, 0), (0, -1, 1), (-3, 3, 2)],
    ],
)
def test_matches_qhull_where_a_point_sits_on_a_circle(circles):
    # the point and a circle sample coincide up to rounding, so the owner
    # changes at a chord of length ~1e-16 whose direction is noise
    gens = GeneratorSet(tuple(circle(*c) for c in circles))
    _assert_matches_qhull(circle(1, 0, 0.5), gens, tol=1e-12)


@pytest.mark.parametrize(
    "circles, expected",
    [
        ([(1.5, -2, 0)], [[1.5, -2.0]]),
        ([(0, 0, 0), (4, 1, 0)], [[0.0, 0.0], [4.0, 1.0]]),
        ([(0, 0, 0), (1, 1, 0), (3, 3, 0)], [[0.0, 0.0], [3.0, 3.0]]),
        ([(2, 3, 0), (2, 3, 0)], [[2.0, 3.0]]),
        ([(0, 0, 0), (0, 0, 0), (3, 4, 0)], [[0.0, 0.0], [3.0, 4.0]]),
    ],
    ids=["one-point", "two-points", "three-collinear", "duplicate-point", "duplicate-and-one"],
)
def test_degenerate_clouds_keep_the_extremes(circles, expected):
    gens = GeneratorSet(tuple(circle(*c) for c in circles))
    assert sample_hull_polygon(gens).tolist() == expected
    assert hull_polygon_area(gens) == 0.0


def test_descending_segment_keeps_both_ends():
    # projected on the per-axis spread (2, 2), every point of this segment ties
    gens = GeneratorSet((circle(0, 2, 0), circle(2, 0, 0), circle(1, 1, 0)))
    assert sample_hull_polygon(gens).tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert sampling_oracle_contains(circle(0, 2, 0), gens)
    assert sampling_oracle_contains(circle(1.5, 0.5, 0), gens)
    assert not sampling_oracle_contains(circle(1, 1.5, 0), gens)


def test_single_circle_is_every_sample_in_order():
    c = circle(1, 2, 1.5)
    poly = sample_hull_polygon(GeneratorSet((c,)))
    assert np.array_equal(poly, _circle_samples(c, DEFAULT_SAMPLES))
    assert set(map(tuple, poly.tolist())) == set(map(tuple, _qhull_polygon((c,)).tolist()))
