"""Sampling-polygon oracle tests and predicate agreement."""

import math
import random

import numpy as np
import pytest
import reference_oracle

from carousel import circle_in_hull
from carousel.fuzz import random_containment_query
from carousel.oracle import (
    DEFAULT_SAMPLES,
    ORACLE_SLACK_BAND,
    _circle_samples,
    _extreme_samples_pass,
    _membership_bands,
    polygon_contains_points,
    sample_hull_polygon,
    sampling_oracle_contains,
)
from reference_hull import hull_polygon_area


def test_target_equals_generator():
    gens = ((1, 2, 1.5),)
    assert sampling_oracle_contains((1, 2, 1.5), gens)


def test_far_target_rejected():
    gens = ((0, 0, 1),)
    assert not sampling_oracle_contains((10, 0, 1), gens)


def test_clear_containment():
    gens = ((0, 0, 0), (10, 0, 0), (0, 10, 0))
    assert sampling_oracle_contains((2, 2, 0.5), gens)
    assert not sampling_oracle_contains((2, 2, 5.0), gens)


def test_polygon_point_membership():
    poly = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    queries = np.array([[1.0, 1.0], [3.0, 3.0], [-0.1, 0.5], [2.0, 1.9]])
    got = reference_oracle.polygon_contains_points(poly, queries)
    assert got.tolist() == [True, False, False, True]


@pytest.mark.filterwarnings("error")
def test_zero_length_segment_is_its_point():
    poly = np.array([[0.0, 1.0], [0.0, 1.0]])
    queries = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.5]])
    assert polygon_contains_points(poly, queries, 1e-12).tolist() == [True, False, False]


def test_degenerate_generators():
    # a single point and a pair of points still answer sensibly
    one = ((1, 1, 0),)
    assert sampling_oracle_contains((1, 1, 0), one)
    assert not sampling_oracle_contains((2, 1, 0), one)
    two = ((0, 0, 0), (4, 0, 0))
    assert sampling_oracle_contains((2, 0, 0), two)
    assert not sampling_oracle_contains((2, 1, 0), two)


def test_polygon_is_counterclockwise():
    poly = sample_hull_polygon(((0, 0, 1), (3, 0, 1)))
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
    ref_verdict = bool(np.all(reference_oracle.polygon_contains_points(ref, queries)))
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
            x, y, _ = rng.choice(gens)
            gens.append((x, y, rng.choice((0.0, 1.0, 2.0))))
        else:
            gens.append((rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((0.0, 1.0, 1.0, 2.0))))
    target = (rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((0.0, 0.5, 1.0)))
    return target, tuple(gens)


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
    gens = tuple(circles)
    _assert_matches_qhull((1, 0, 0.5), gens, tol=1e-12)


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
    gens = tuple(circles)
    assert sample_hull_polygon(gens).tolist() == expected
    assert hull_polygon_area(gens) == 0.0


def test_descending_segment_keeps_both_ends():
    # projected on the per-axis spread (2, 2), every point of this segment ties
    gens = ((0, 2, 0), (2, 0, 0), (1, 1, 0))
    assert sample_hull_polygon(gens).tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert sampling_oracle_contains((0, 2, 0), gens)
    assert sampling_oracle_contains((1.5, 0.5, 0), gens)
    assert not sampling_oracle_contains((1, 1.5, 0), gens)


@pytest.mark.parametrize("samples", [-1, 0, 1, 2])
def test_fewer_than_three_samples_rejected(samples):
    # at one sample, three points used to give the one-vertex polygon [[0, 1]]
    # and an interior point read as outside
    gens = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="at least 3 samples"):
        sample_hull_polygon(gens, samples)
    with pytest.raises(ValueError, match="at least 3 samples"):
        sampling_oracle_contains((0.2, 0.2, 0), gens, samples)
    assert sampling_oracle_contains((0.2, 0.2, 0), gens, 3)


def test_single_circle_is_every_sample_in_order():
    c = (1, 2, 1.5)
    poly = sample_hull_polygon((c,))
    assert np.array_equal(poly, _circle_samples(c, DEFAULT_SAMPLES))
    assert set(map(tuple, poly.tolist())) == set(map(tuple, _qhull_polygon((c,)).tolist()))


# -- equivalence with the reference oracle ------------------------------------

# the reference's absolute membership band, at which both sides are compared
_ABSOLUTE_BAND = 1e-12


def _reference_verdict(poly, target, samples=DEFAULT_SAMPLES, band=_ABSOLUTE_BAND):
    """The reference's point location of every target sample in ``poly``."""
    queries = reference_oracle.circle_samples(target, samples)
    return bool(np.all(reference_oracle.polygon_contains_points(poly, queries, band)))


def _oracle_band(target, gens, vertices):
    """The band the oracle applies to this input and a hull of ``vertices``."""
    distance_band, cross_band = _membership_bands(target, gens)
    return cross_band if vertices >= 3 else distance_band


def _assert_matches_reference(target, gens, samples=DEFAULT_SAMPLES):
    poly = sample_hull_polygon(gens, samples)
    ref = reference_oracle.sample_hull_polygon(gens, samples)
    assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()
    if len(poly) >= 3:  # the edge test at the reference's absolute band
        expected = _reference_verdict(ref, target, samples)
        assert _extreme_samples_pass(poly, target, samples, _ABSOLUTE_BAND) == expected
    # the oracle itself, at its own band, against the reference at that band
    band = _oracle_band(target, gens, len(ref))
    expected = _reference_verdict(ref, target, samples, band)
    assert sampling_oracle_contains(target, gens, samples) == expected


@pytest.mark.parametrize(
    "query, seeds",
    [(random_containment_query, 2000), (_tie_heavy_query, 300)],
    ids=["random", "ties"],
)
def test_matches_reference_oracle(query, seeds):
    for seed in range(seeds):
        _assert_matches_reference(*query(seed))


@pytest.mark.parametrize("samples", [3, 4, 7])
def test_matches_reference_at_coarse_sampling(samples):
    # wide gaps between grid angles: the two samples bracketing an edge's
    # normal must still be the extreme ones, and their indices wrap
    for seed in range(200):
        _assert_matches_reference(*random_containment_query(seed), samples)
        _assert_matches_reference(*_tie_heavy_query(seed), samples)


def _all_edges_boundary(poly, start, step, band):
    """Least t at which start + t * step leaves the polygon as seen through the
    extreme samples of each edge at ``band``: a guess at where the reference's
    verdict changes.  ``step`` is (dx, dy, dr).
    """
    a = np.roll(poly, 1, axis=0)
    ex, ey = (poly - a).T
    m = DEFAULT_SAMPLES
    slot = np.arctan2(-ex, ey) * (m / (2.0 * math.pi))
    reach = np.cos((slot - np.round(slot)) * (2.0 * math.pi / m)) * np.hypot(ex, ey)
    base = ex * (start[1] - a[:, 1]) - ey * (start[0] - a[:, 0]) + band
    rate = ey * step[0] - ex * step[1] + step[2] * reach  # how fast the cross falls
    return float(np.min(base[rate > 0] / rate[rate > 0]))


def _bisect_boundary(inside, guess):
    """lo with inside(lo) and hi without, within 1e-14 of each other, near guess."""
    margin = 1e-12
    while not (inside(guess * (1 - margin)) and not inside(guess * (1 + margin))):
        margin *= 100
        assert margin < 0.1, guess
    lo, hi = guess * (1 - margin), guess * (1 + margin)
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("band, seeds", [("absolute", 200), ("oracle", 100)])
def test_matches_reference_on_its_boundary(band, seeds):
    # targets placed where the reference's verdict changes: a circle about the
    # centres' centroid grown to the boundary, and a point pushed out along a
    # random ray; both sides of each crossing and 1e-13 beyond them.  With
    # "absolute" the edge test and the reference both use the reference's
    # band; with "oracle" the oracle itself is compared with the reference at
    # the band the oracle applies to each target
    checked = 0
    for seed in range(300):
        _, gens = random_containment_query(seed)
        ref = reference_oracle.sample_hull_polygon(gens)
        if len(ref) < 3:
            continue
        ours = sample_hull_polygon(gens)

        def band_of(target):
            return _ABSOLUTE_BAND if band == "absolute" else _oracle_band(target, gens, len(ref))

        def ours_inside(target):
            if band == "absolute":
                return _extreme_samples_pass(ours, target, DEFAULT_SAMPLES, _ABSOLUTE_BAND)
            return sampling_oracle_contains(target, gens)

        cx = sum(g[0] for g in gens) / len(gens)
        cy = sum(g[1] for g in gens) / len(gens)
        angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        ux, uy = math.cos(angle), math.sin(angle)
        rays = [
            (lambda r: (cx, cy, r), (0.0, 0.0, 1.0)),
            (lambda t: (cx + t * ux, cy + t * uy, 0.0), (ux, uy, 0.0)),
        ]
        for make, step in rays:
            guess = _all_edges_boundary(ref, (cx, cy), step, band_of(make(0.0)))
            lo, hi = _bisect_boundary(
                lambda t: _reference_verdict(ref, make(t), band=band_of(make(t))), guess
            )
            for t in (lo, hi, lo * (1 - 1e-13), hi * (1 + 1e-13)):
                target = make(t)
                expected = _reference_verdict(ref, target, band=band_of(target))
                assert ours_inside(target) == expected, (seed, step, t)
        checked += 1
        if checked == seeds:
            break
    assert checked == seeds


def test_verdicts_do_not_change_under_scale_and_translation():
    # rotations are left out: the sample grid is fixed in absolute angles, so
    # a rotated input has legitimately different sampled polygons.  Offsets
    # reach 1e5 times the scale, so the input sits far from the origin
    rng = random.Random(7)
    for seed in range(200):
        target, gens = random_containment_query(seed)
        verdict = sampling_oracle_contains(target, gens)
        for scale in (1e-6, 1e-3, 1e3, 1e6):
            for reach in (10.0, 1e4, 1e5):
                dx, dy = rng.uniform(-reach, reach) * scale, rng.uniform(-reach, reach) * scale

                def moved(c):
                    x, y, r = c
                    return x * scale + dx, y * scale + dy, r * scale

                moved_gens = [moved(g) for g in gens]
                assert sampling_oracle_contains(moved(target), moved_gens) == verdict, (
                    seed,
                    scale,
                    reach,
                )


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e4, 1e6])
def test_shifted_copy_stays_refuted_far_from_the_origin(offset, scale):
    # the band follows the rounding error, not the distance from the origin:
    # a unit circle moved by 0.01 off its only generator, or off the top of a
    # hull of three circles, stays refuted wherever the input sits
    def at(x, y, r):
        return ((offset + x) * scale, y * scale, r * scale)

    one = (at(0, 0, 1),)
    assert sampling_oracle_contains(at(0, 0, 1), one)
    assert not sampling_oracle_contains(at(0.01, 0, 1), one)
    three = (at(-3, 0, 1), at(3, 0, 1), at(0, 4, 1))
    assert sampling_oracle_contains(at(0, 4, 1), three)
    assert not sampling_oracle_contains(at(0, 4.01, 1), three)
