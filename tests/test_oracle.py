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
    _boundary_pass,
    _circle_samples,
    _membership_bands,
    _owner_changes,
    _polygon_contains_points,
    _refuted_at_one_edge,
    _sampled_boundary,
    sampling_oracle_contains,
)
from reference_hull import hull_polygon_area
from reference_oracle import sample_hull_polygon


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
    assert _polygon_contains_points(poly, queries, 1e-12).tolist() == [True, False, False]


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


@pytest.mark.parametrize("samples", [4.0, 3.5, True, False, "7", None])
def test_samples_must_be_an_integer(samples):
    # a float count used to escape as numpy's TypeError, and a bool is no count
    gens = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="at least 3 samples per circle, as an integer"):
        sample_hull_polygon(gens, samples)
    with pytest.raises(ValueError, match="at least 3 samples per circle, as an integer"):
        sampling_oracle_contains((0.2, 0.2, 0), gens, samples)


@pytest.mark.parametrize("samples", [np.int64(7), np.int32(4), np.uint16(60)])
def test_numpy_integer_samples_are_counts(samples):
    gens = ((0, 0, 1), (3, 0, 0.5), (0, 3, 0))
    assert sample_hull_polygon(gens, samples).tobytes() == sample_hull_polygon(gens, int(samples)).tobytes()
    for target in ((1, 1, 0.3), (2, 2, 1.0)):
        assert sampling_oracle_contains(target, gens, samples) == sampling_oracle_contains(
            target, gens, int(samples)
        )


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
    ref = reference_oracle.cloud_polygon(gens, samples)
    assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()
    if len(poly) >= 3:  # the edge test at the reference's absolute band
        expected = _reference_verdict(ref, target, samples)
        hull = _sampled_boundary(gens, samples)
        assert _boundary_pass(hull, target, _ABSOLUTE_BAND) == expected
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
        ref = reference_oracle.cloud_polygon(gens)
        if len(ref) < 3:
            continue
        ours = _sampled_boundary(gens, DEFAULT_SAMPLES)

        def band_of(target):
            return _ABSOLUTE_BAND if band == "absolute" else _oracle_band(target, gens, len(ref))

        def ours_inside(target):
            if band == "absolute":
                return _boundary_pass(ours, target, _ABSOLUTE_BAND)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("samples", [DEFAULT_SAMPLES, 7])
def test_copies_scaled_by_a_power_of_two_keep_every_bit(samples):
    # 2^k times a desk-scale query is exact, and so is dividing it back, so
    # the verdict is the unit copy's and the polygon its 2^k multiple, also
    # where the cross products and L D of the unscaled arithmetic would over-
    # or underflow (from about 2^500 on)
    for seed in range(300):
        target, gens = random_containment_query(seed)
        verdict = sampling_oracle_contains(target, gens, samples)
        poly = sample_hull_polygon(gens, samples)
        for k in (-900, -500, 500, 900):
            def scaled(c):
                return tuple(math.ldexp(v, k) for v in c)

            big = [scaled(g) for g in gens]
            assert sampling_oracle_contains(scaled(target), big, samples) == verdict, (seed, k)
            assert sample_hull_polygon(big, samples).tobytes() == np.ldexp(poly, k).tobytes(), (seed, k)


# one generator (c, c, r) of radius 1e-16 to 1e-5, and a point d to its right
_TINY_CIRCLE_GRID = [
    ((c + d, c, 0.0), ((c, c, 10.0**e),))
    for c in (0.0, 1e3)
    for e in range(-16, -4)
    for d in (1e-3, 0.1, 10.0)
]


def test_the_kernel_refutes_every_far_point_of_a_tiny_circle():
    assert len(_TINY_CIRCLE_GRID) == 72
    assert not any(circle_in_hull(t, gens).contained for t, gens in _TINY_CIRCLE_GRID)


@pytest.mark.xfail(
    strict=True,
    reason="the cross band, 1e-12 L D, does not shrink with an edge's length, so the "
    "short edges of a tiny circle pass far points (ROADMAP item 22)",
)
def test_a_tiny_circle_contains_no_far_point():
    contained = [(t, gens) for t, gens in _TINY_CIRCLE_GRID if sampling_oracle_contains(t, gens)]
    assert contained == []


def test_far_out_circles_keep_their_verdict():
    # at 1e299 the target lies in the hull of the two circles, as at unit scale
    gens = [(1e300, 0.0, 5e299), (-1e300, 0.0, 5e299)]
    assert circle_in_hull((0.0, 0.0, 1e299), gens).contained
    assert sampling_oracle_contains((0.0, 0.0, 1e299), gens)
    assert sampling_oracle_contains((0.0, 0.0, 1.0), [(10.0, 0.0, 5.0), (-10.0, 0.0, 5.0)])


# -- the run windows against every edge of the full polygon --------------------
#
# Inside a run of one generator's samples only the edges that can be the
# run's least are evaluated.  These families put the target where that choice
# matters: on the edge test's own boundary (bisected to adjacent floats), with
# the least edge at a run end, in a run through sample 0, in a single run, in
# a wide window, and where a generator's samples coincide in floats.


def _edge_test_agrees(gens, target, m):
    """The windowed test and every edge of the full polygon agree at the
    reference's absolute band and at the oracle's band.
    """
    poly = sample_hull_polygon(gens, m)
    hull = _sampled_boundary(gens, m)
    for band in (_ABSOLUTE_BAND, _oracle_band(target, gens, len(poly))):
        expected = reference_oracle.extreme_samples_pass(poly, target, m, band)
        assert _boundary_pass(hull, target, band) == expected, (gens, target, m, band)


def _flips(gens, make, m, lo, hi):
    """Parameters t about where the full-polygon test of make(t) flips, at
    either band: both sides of each flip as adjacent floats, and 1e-13 beyond.
    """
    poly = sample_hull_polygon(gens, m)
    out = []
    for band_of in (lambda t: _ABSOLUTE_BAND, lambda t: _oracle_band(make(t), gens, len(poly))):

        def inside(t):
            return reference_oracle.extreme_samples_pass(poly, make(t), m, band_of(t))

        a, b = lo, hi
        assert inside(a) and not inside(b), (gens, m, a, b)
        while True:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            a, b = (mid, b) if inside(mid) else (a, mid)
        out += [a, b, a - 1e-13 * abs(a), b + 1e-13 * abs(b)]
    return out


def _assert_windows_on_flips(gens, make, m, lo, hi):
    for t in _flips(gens, make, m, lo, hi):
        _edge_test_agrees(gens, make(t), m)


_COARSE = [3, 4, 7]


@pytest.mark.parametrize("m", [DEFAULT_SAMPLES, *_COARSE])
@pytest.mark.parametrize("centre", [(0.0, 0.0), (3.7, -1.3), (1e3, 2e3)])
def test_windows_on_a_concentric_target(centre, m):
    # every edge of the generator's run has the same exact value, so the
    # window is the whole run; equal radius and one ulp either side
    x, y = centre
    r = 1.5
    for gens in (((x, y, r),), ((x, y, r), (x + 4, y + 1, 0.5), (x - 1, y + 3, 1.0))):
        for rt in (math.nextafter(r, 0.0), r, math.nextafter(r, 9.0)):
            _edge_test_agrees(gens, (x, y, rt), m)


@pytest.mark.parametrize("m", [DEFAULT_SAMPLES, *_COARSE])
def test_windows_when_the_least_run_edge_is_a_run_end(m):
    # phi, the direction from each generator's centre to the target's, lies
    # outside that generator's run: the run's least edges are at its ends,
    # beside the join to the other run, on both sides and at both bands
    gens = ((0.0, 0.0, 1.0), (4.0, 0.0, 1.0))
    for cx in (0.2, 1.0, 2.0, 3.8):
        for cy in (0.0, 0.05, -0.3):
            _assert_windows_on_flips(gens, lambda t: (cx, cy, t), m, 0.0, 3.0)


@pytest.mark.parametrize("m", [DEFAULT_SAMPLES, *_COARSE])
def test_windows_in_a_run_through_sample_zero(m):
    # the right-hand circle owns the normals about theta = 0, so its run
    # wraps from the last sample numbers through sample 0
    gens = ((0.0, 0.0, 1.0), (-4.0, 0.5, 1.2), (-2.0, -3.0, 0.0))
    for angle in (0.0, 1e-9, -0.3, 0.4, 2.0 * math.pi / m, math.pi / m):
        ux, uy = math.cos(angle), math.sin(angle)
        _assert_windows_on_flips(gens, lambda t: (t * ux, t * uy, 0.4), m, 0.0, 2.0)
        _assert_windows_on_flips(gens, lambda t: (-0.5 * ux, -0.5 * uy, t), m, 0.0, 3.0)


@pytest.mark.parametrize("m", [DEFAULT_SAMPLES, *_COARSE])
def test_windows_on_a_single_generator(m):
    # one run, no owner change; a near-concentric target widens the window
    gens = ((1.0, 2.0, 1.5),)
    rng = random.Random(5)
    for offset in (1e-12, 1e-9, 1e-6, 1e-3, 0.3):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = 1.0 + offset * math.cos(angle), 2.0 + offset * math.sin(angle)
        _assert_windows_on_flips(gens, lambda t: (cx, cy, t), m, 0.0, 3.0)


@pytest.mark.parametrize("m", [DEFAULT_SAMPLES, *_COARSE])
@pytest.mark.parametrize("y", [0.0, 1e3])
def test_windows_where_samples_coincide(y, m):
    # a radius-1e-13 generator at x = 1e3: its consecutive samples coincide
    # in floats or differ by an ulp, so its edges' directions are noise
    gens = ((1e3, y, 1e-13), (1e3 + 2.0, y + 1.0, 0.5), (1e3 + 1.0, y - 2.0, 0.0))
    for angle in (math.pi, 0.9 * math.pi, -0.8 * math.pi):
        ux, uy = math.cos(angle), math.sin(angle)
        _assert_windows_on_flips(
            gens, lambda t: (1e3 + 1.0 + t * ux, y + t * uy, 1e-14), m, 0.0, 2.0
        )
    _assert_windows_on_flips(gens, lambda t: (1e3, y, t), m, 0.0, 1.0)


@pytest.mark.parametrize("gen, m", [((1e3, 1e3, 6e-14), DEFAULT_SAMPLES), ((1e3, 3.0, 3e-14), 4)])
def test_a_polygon_the_probe_points_miss(gen, m):
    # the run's ends and the samples a third and two thirds along it take
    # fewer than three values, but all the samples make a polygon of more
    # than two vertices, which the oracle then builds to tell
    gens = (gen,)
    ref = reference_oracle.cloud_polygon(gens, m)
    assert len(ref) > 2
    x, y, r = gen
    # the edge test passes a point 1e-6 away, where the band, 1e-12 L D, is
    # long beside these edges; as a point or segment it would be outside
    for target in ((x, y, 0.0), (x, y, r), (x, y, 2 * r), (x + 1e-6, y, 0.0), (x, y - 1e-6, 0.0)):
        band = _oracle_band(target, gens, len(ref))
        assert sampling_oracle_contains(target, gens, m) == _reference_verdict(ref, target, m, band)


# -- the owner stage against the loop -----------------------------------------
#
# The owners are read off the exact envelope of the supports, and the
# support expression is evaluated only where rounding could name another
# generator.  Runs and chains must equal those of the loop over every normal
# bit for bit: on ties at integer coordinates, where owner changes fall on
# normals, on near-concentric and duplicate generators, where supports
# nearly or exactly coincide, and over twenty-four orders of magnitude.


def _near_concentric_gens(seed):
    """Generators about one centre, 1e-16 to 1e-1 apart, with equal, offset or free radii."""
    rng = random.Random(seed)
    x, y, r = rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 3)
    gens = [(x, y, r)]
    for _ in range(rng.randint(1, 4)):
        offset = 10.0 ** rng.uniform(-16, -1)
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.choice((r, r + offset, max(r - offset, 0.0), rng.uniform(0, 3)))
        gens.append((x + offset * math.cos(angle), y + offset * math.sin(angle), radius))
    rng.shuffle(gens)
    return tuple(gens)


def _duplicate_gens(seed):
    """A random query's generators with 1 to 3 of them repeated."""
    gens = list(random_containment_query(seed)[1])
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
    return tuple(gens)


def _scaled_gens(seed):
    """A random query's generators scaled by 1e-12 to 1e12."""
    scale = 10.0 ** random.Random(seed).uniform(-12, 12)
    return tuple((x * scale, y * scale, r * scale) for x, y, r in random_containment_query(seed)[1])


_OWNER_FAMILIES = {
    "random": lambda seed: random_containment_query(seed)[1],
    "ties": lambda seed: _tie_heavy_query(seed)[1],
    "near-concentric": _near_concentric_gens,
    "duplicates": _duplicate_gens,
    "scaled": _scaled_gens,
}


@pytest.mark.parametrize("m", [3, 4, 6, 7, 12, 60, 1000, 3599, DEFAULT_SAMPLES])
@pytest.mark.parametrize("family", sorted(_OWNER_FAMILIES))
def test_owner_runs_and_chains_match_the_loop(family, m):
    for seed in range(400):
        gens = _OWNER_FAMILIES[family](seed)
        hull, ref = _sampled_boundary(gens, m), reference_oracle.loop_boundary(gens, m)
        assert (hull.runs, hull.chains) == (ref.runs, ref.chains), (family, m, seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("samples", [DEFAULT_SAMPLES, 7])
def test_owner_changes_keep_every_bit_at_powers_of_two(samples):
    # the owner stage gets an input scaled by 2^k where the oracle does not
    # normalise it, and 2^+-900 where it does; down to 2^-900 every support
    # is the unit copy's times 2^k, so every owner is the same, and below it
    # supports underflow, so only the loop itself says which owner is first
    for seed in range(300):
        gens = random_containment_query(seed)[1]
        expected = reference_oracle.loop_owner_changes(gens, samples)
        for k in (-1070, -1060, -1040, -900, -500, -200, 200, 500, 900):
            big = [tuple(math.ldexp(v, k) for v in g) for g in gens]
            loop = reference_oracle.loop_owner_changes(big, samples)
            assert _owner_changes(big, samples) == loop, (seed, k)
            assert k < -900 or loop == expected, (seed, k)


# -- the one-edge probe ------------------------------------------------------
#
# Before it builds the boundary, the oracle tests two edges of one owner's
# run, found from four owners alone, and returns False where either fails.
# Wherever it does, the full pass must fail too, on the polygon of three or
# more vertices that the full path would test.


def _probe_queries(family, seed):
    if family == "random":
        return random_containment_query(seed)
    if family == "ties":
        return _tie_heavy_query(seed)
    rng = random.Random(seed)
    if family == "near-concentric":
        gens = _near_concentric_gens(seed)
        x, y, r = gens[0]
        offset, angle = 10.0 ** rng.uniform(-14, 0), rng.uniform(0, 2 * math.pi)
        centre = (x + offset * math.cos(angle), y + offset * math.sin(angle))
        return (*centre, r * rng.uniform(0.5, 1.5)), gens
    if family == "duplicates":
        return random_containment_query(seed)[0], _duplicate_gens(seed)
    k = rng.randint(-60, 60)  # 2^k-scaled
    target, gens = random_containment_query(seed)
    target, *gens = [tuple(math.ldexp(v, k) for v in c) for c in (target, *gens)]
    return target, tuple(gens)


@pytest.mark.parametrize("m", [3, 4, 7, 60, 3599, DEFAULT_SAMPLES])
@pytest.mark.parametrize("family", sorted(_OWNER_FAMILIES))
def test_the_probe_refutes_only_where_the_full_pass_fails(family, m):
    refuted = 0
    for seed in range(200):
        target, gens = _probe_queries(family, seed)
        _, band = _membership_bands(target, gens)
        if _refuted_at_one_edge(target, gens, m, band):
            refuted += 1
            assert len(sample_hull_polygon(gens, m)) >= 3, (family, m, seed)
            hull = _sampled_boundary(gens, m)
            assert not _boundary_pass(hull, target, band), (family, m, seed)
    assert refuted > 0


def test_the_probe_refutes_most_campaign_queries():
    # 578 of these seeds; about two thirds of the targets outside
    refuted = 0
    for seed in range(1000):
        target, gens = random_containment_query(seed)
        _, band = _membership_bands(target, gens)
        refuted += _refuted_at_one_edge(target, gens, DEFAULT_SAMPLES, band)
    assert refuted >= 500


@pytest.mark.parametrize("m", [3, 4, 7, 60])
def test_the_probe_holds_at_the_full_pass_flip(m):
    # the campaign targets' radii bisected to where the full pass flips, as
    # adjacent floats: the probe must pass the side that the full pass holds
    def full(target, gens):
        return _boundary_pass(_sampled_boundary(gens, m), target, _membership_bands(target, gens)[1])

    for seed in range(200):
        (x, y, _), gens = random_containment_query(seed)
        lo, hi = 0.0, 10.0
        if not full((x, y, lo), gens) or full((x, y, hi), gens):
            continue
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if full((x, y, mid), gens) else (lo, mid)
        for target in ((x, y, lo), (x, y, hi)):
            band = _membership_bands(target, gens)[1]
            if _refuted_at_one_edge(target, gens, m, band):
                assert not full(target, gens), (seed, target)
