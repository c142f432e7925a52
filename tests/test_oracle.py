"""The exact oracle: its verdicts, its cross-checks and its symmetries."""

import ast
import inspect
import math
import random

import numpy as np
import pytest
import reference_oracle

from carousel import circle_in_hull, oracle
from carousel.fuzz import random_containment_query
from carousel.oracle import ORACLE_SLACK_BAND, _nonnegative, sampling_oracle_contains
from carousel.witness import JK_PAIRS, pair_objects, random_corollary_instance, random_instance

SEEDS = range(2000)


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


def test_degenerate_generators():
    # a single point and a pair of points still answer sensibly
    one = ((1, 1, 0),)
    assert sampling_oracle_contains((1, 1, 0), one)
    assert not sampling_oracle_contains((2, 1, 0), one)
    two = ((0, 0, 0), (4, 0, 0))
    assert sampling_oracle_contains((2, 0, 0), two)
    assert not sampling_oracle_contains((2, 1, 0), two)


def test_points_on_a_descending_segment():
    gens = ((0, 2, 0), (2, 0, 0), (1, 1, 0))
    assert sampling_oracle_contains((0, 2, 0), gens)
    assert sampling_oracle_contains((1.5, 0.5, 0), gens)
    assert not sampling_oracle_contains((1, 1.5, 0), gens)


def test_the_module_imports_neither_numpy_nor_the_kernel():
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", ".planar"}


def test_the_sign_of_p_plus_q_root_delta():
    # a perfect square delta = w^2 is decided in integers, p + q w; any other
    # delta makes p + q sqrt(delta) irrational or p alone, far from 0 here
    for delta in range(40):
        w = math.isqrt(delta)
        for p in range(-12, 13):
            for q in range(-6, 7):
                exact = p + q * w if w * w == delta else p + q * math.sqrt(delta)
                assert _nonnegative(p, q, delta) == (exact >= 0), (p, q, delta)


# -- cross-checks that do not enumerate candidate directions ---------------------


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


def _outside_the_band(query, seeds):
    """The queries of ``seeds`` whose kernel slack lies outside ORACLE_SLACK_BAND."""
    out = []
    for seed in seeds:
        target, gens = query(seed)
        if abs(circle_in_hull(target, gens).slack) > ORACLE_SLACK_BAND:
            out.append((target, gens))
    return out


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


def test_matches_the_qhull_hull_of_the_samples_outside_the_band():
    spatial = pytest.importorskip("scipy.spatial")
    queries = _outside_the_band(random_containment_query, SEEDS)
    checked = 0
    for target, gens in queries:
        pts = np.vstack([reference_oracle.circle_samples(g) for g in gens])
        try:
            hull = pts[spatial.ConvexHull(pts).vertices]
        except spatial.QhullError:  # one point or collinear points: the test above has them
            continue
        samples = reference_oracle.circle_samples(target)
        expected = bool(np.all(reference_oracle.polygon_contains_points(hull, samples)))
        assert sampling_oracle_contains(target, gens) == expected, (target, gens)
        checked += 1
    assert checked > 0.9 * len(queries)


# -- exact symmetries -------------------------------------------------------------


def _fuzz_queries(seed):
    """The six (j, k) inclusions of the theorem2d and corollary2d rows of ``seed``."""
    rows = (random_instance(seed), random_corollary_instance(seed))
    return [pair_objects(row, j, k) for row in rows for j, k in JK_PAIRS]


def _images(target, gens, k):
    """The query scaled by 2^k, then with x and y swapped, with x negated and with y negated."""
    def scaled(c):
        out = tuple(math.ldexp(v, k) for v in c)
        assert tuple(math.ldexp(v, -k) for v in out) == tuple(c), (c, k)  # exact
        return out

    maps = (
        scaled,
        lambda c: (c[1], c[0], c[2]),
        lambda c: (-c[0], c[1], c[2]),
        lambda c: (c[0], -c[1], c[2]),
    )
    return [(f(target), [f(g) for g in gens]) for f in maps]


@pytest.mark.parametrize("family", ["oracle", "fuzz"])
def test_verdicts_do_not_change_under_exact_symmetries(family):
    # each query is scaled by 2^-1000, 2^1000 or a random 2^k in turn, and
    # reflected in one of the three ways in turn
    rng = random.Random(11)
    queries = [q for seed in SEEDS for q in (
        [random_containment_query(seed)] if family == "oracle" else _fuzz_queries(seed)
    )]
    contained = 0
    for n, (target, gens) in enumerate(queries):
        verdict = sampling_oracle_contains(target, gens)
        contained += verdict
        k = (-1000, 1000, rng.randint(-1000, 1000))[n % 3]
        scaled, *reflected = _images(target, gens, k)
        for image in (scaled, reflected[n // 3 % 3]):
            assert sampling_oracle_contains(*image) == verdict, (n, target, gens, k)
    assert 0 < contained < len(queries)


# -- degenerate inputs ------------------------------------------------------------

# (target, generators, verdict); 1 + 2^-52 is the next float above 1
_NEXT = 1.0 + 2.0**-52
DEGENERATE = {
    "concentric target inside": ((0, 0, 1), [(0, 0, 2)], True),
    "concentric target equal": ((0, 0, 2), [(0, 0, 2)], True),
    "concentric target larger": ((0, 0, 2 * _NEXT), [(0, 0, 2)], False),
    "concentric target in a triangle": ((0, 0, 1), [(0, 0, 0.5), (4, 0, 0), (-2, 4, 0), (-2, -4, 0)], True),
    "concentric target past a segment": ((0, 0, 1), [(0, 0, 0.5), (4, 0, 0), (-4, 0, 0)], False),
    "equal offsets, nested radii": ((1, 0, 3), [(1, 0, 1), (1, 0, 2), (1, 0, 3)], True),
    "equal offsets, one too small": ((1, 0, 3 * _NEXT), [(1, 0, 1), (1, 0, 2), (1, 0, 3)], False),
    "duplicated generators": ((1, 0, 1), [(0, 0, 1), (0, 0, 1), (2, 0, 1), (2, 0, 1)], True),
    "duplicated generators, wider target": ((1, 0, _NEXT), [(0, 0, 1), (0, 0, 1), (2, 0, 1)], False),
    "internally tangent pair": ((0.5, 0, 1.5), [(0, 0, 2), (1, 0, 1)], True),
    "internally tangent pair, wider target": ((0.5, 0, 1.5 * _NEXT), [(0, 0, 2), (1, 0, 1)], False),
    "every generator concentric": ((0, 0, 2), [(0, 0, 1), (0, 0, 2)], True),
    "every generator concentric, all smaller": ((0, 0, 2), [(0, 0, 1), (0, 0, 1.5)], False),
    "every generator concentric, points": ((3, 4, 0), [(3, 4, 0), (3, 4, 0)], True),
    "every generator concentric, target a circle": ((3, 4, 2.0**-1074), [(3, 4, 0)], False),
    "points: interior": ((1, 1, 0), [(0, 0, 0), (4, 0, 0), (0, 4, 0)], True),
    "points: on an edge": ((2, 2, 0), [(0, 0, 0), (4, 0, 0), (0, 4, 0)], True),
    "points: a vertex": ((4, 0, 0), [(0, 0, 0), (4, 0, 0), (0, 4, 0)], True),
    "points: one ulp past an edge": ((2, 2 * _NEXT, 0), [(0, 0, 0), (4, 0, 0), (0, 4, 0)], False),
    "points: on a segment": ((1, 1, 0), [(0, 0, 0), (3, 3, 0)], True),
    "points: one ulp off a segment": ((1, _NEXT, 0), [(0, 0, 0), (3, 3, 0)], False),
    "points: just above a segment": ((2, 1e-3, 0), [(0, 0, 0), (4, 0, 0)], False),
    "points: just below a segment": ((2, -1e-3, 0), [(0, 0, 0), (4, 0, 0)], False),
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_cases(name):
    target, gens, verdict = DEGENERATE[name]
    assert sampling_oracle_contains(target, gens) is verdict
    for image in _images(target, gens, 3):
        assert sampling_oracle_contains(*image) is verdict


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


def test_a_tiny_circle_contains_no_far_point():
    contained = [(t, gens) for t, gens in _TINY_CIRCLE_GRID if sampling_oracle_contains(t, gens)]
    assert contained == []


def test_verdicts_do_not_change_under_scale_and_translation():
    # a decimal scale and an offset round the input, which can move a target
    # across a tangency; none of these queries lies that close to one.
    # Offsets reach 1e5 times the scale, so the input sits far from the origin
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


def test_far_out_circles_keep_their_verdict():
    # at 1e299 the target lies in the hull of the two circles, as at unit scale
    gens = [(1e300, 0.0, 5e299), (-1e300, 0.0, 5e299)]
    assert circle_in_hull((0.0, 0.0, 1e299), gens).contained
    assert sampling_oracle_contains((0.0, 0.0, 1e299), gens)
    assert sampling_oracle_contains((0.0, 0.0, 1.0), [(10.0, 0.0, 5.0), (-10.0, 0.0, 5.0)])


def test_the_whole_float_range_at_once():
    # 2^-1074 and 2^1023 in one input: the integers span about 2,100 bits
    tiny, huge = 2.0**-1074, 2.0**1023
    assert sampling_oracle_contains((tiny, 0, 0), [(0, 0, 0), (huge, 0, 0)])
    assert not sampling_oracle_contains((tiny, tiny, 0), [(0, 0, 0), (huge, 0, 0)])
    assert sampling_oracle_contains((0, 0, tiny), [(0, 0, huge)])


# -- query families ---------------------------------------------------------------
#
# Each family maps a seed to one (target, generators) query.  Beside the
# campaign's own queries they put the decision where ties and near-ties are
# common: duplicate, concentric and near-concentric generators, integer
# coordinates, inputs from 1e-12 to 1e12, and generators that are all points.


def _near_concentric_query(seed):
    """Generators about one centre, 1e-16 to 1e-1 apart, with equal, offset or
    free radii, and a target about the same centre.
    """
    rng = random.Random(seed)
    x, y, r = rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 3)
    gens = [(x, y, r)]
    for _ in range(rng.randint(1, 4)):
        offset = 10.0 ** rng.uniform(-16, -1)
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.choice((r, r + offset, max(r - offset, 0.0), rng.uniform(0, 3)))
        gens.append((x + offset * math.cos(angle), y + offset * math.sin(angle), radius))
    rng.shuffle(gens)
    offset, angle = 10.0 ** rng.uniform(-14, 0), rng.uniform(0, 2 * math.pi)
    target = (x + offset * math.cos(angle), y + offset * math.sin(angle), r * rng.uniform(0.5, 1.5))
    return target, tuple(gens)


def _duplicate_query(seed):
    """A random query with 1 to 3 of its generators repeated."""
    target, gens = random_containment_query(seed)
    gens = list(gens)
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
    return target, tuple(gens)


def _scaled_query(seed):
    """A random query scaled by 1e-12 to 1e12, which rounds every value."""
    scale = 10.0 ** random.Random(seed).uniform(-12, 12)
    target, gens = random_containment_query(seed)
    return tuple(v * scale for v in target), tuple(tuple(v * scale for v in g) for g in gens)


def _points_query(seed):
    """A point and one to six generator points, all at desk scale."""
    rng = random.Random(seed)

    def point():
        return rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0

    return point(), tuple(point() for _ in range(rng.randint(1, 6)))


FAMILIES = {
    "random": random_containment_query,
    "ties": _tie_heavy_query,
    "near-concentric": _near_concentric_query,
    "duplicates": _duplicate_query,
    "scaled": _scaled_query,
    "fuzz": lambda seed: _fuzz_queries(seed // 6)[seed % 6],
    "points": _points_query,
}


def _family_queries(family, seeds=300):
    return [FAMILIES[family](seed) for seed in range(seeds)]


@pytest.mark.parametrize(
    "family, seeds",
    [("random", SEEDS), *((f, range(300)) for f in ("ties", "near-concentric", "duplicates", "points"))],
    ids=["random", "ties", "near-concentric", "duplicates", "points"],
)
def test_matches_the_sampled_reference_outside_the_band(family, seeds):
    # the reference locates every sample of the target in the hull polygon
    # of every generator's samples, at 3,600 angles
    queries = _outside_the_band(FAMILIES[family], seeds)
    assert len(queries) > 0.8 * len(seeds)
    for target, gens in queries:
        expected = reference_oracle.sampling_oracle_contains(target, gens)
        assert sampling_oracle_contains(target, gens) == expected, (target, gens)


# the seven symmetries of the square other than the identity; each maps
# floats to floats exactly
SQUARE = {
    "quarter-turn": lambda c: (-c[1], c[0], c[2]),
    "half-turn": lambda c: (-c[0], -c[1], c[2]),
    "three-quarter-turn": lambda c: (c[1], -c[0], c[2]),
    "swap": lambda c: (c[1], c[0], c[2]),
    "antiswap": lambda c: (-c[1], -c[0], c[2]),
    "negate-x": lambda c: (-c[0], c[1], c[2]),
    "negate-y": lambda c: (c[0], -c[1], c[2]),
}


@pytest.mark.parametrize("symmetry", list(SQUARE))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_verdicts_do_not_change_under_a_symmetry_of_the_square(family, symmetry):
    f = SQUARE[symmetry]
    queries = _family_queries(family)
    verdicts = [sampling_oracle_contains(target, gens) for target, gens in queries]
    assert 0 < sum(verdicts) < len(queries)
    for (target, gens), verdict in zip(queries, verdicts):
        assert sampling_oracle_contains(f(target), [f(g) for g in gens]) == verdict, (target, gens)


@pytest.mark.parametrize("k", [-900, -450, -1, 1, 450, 900])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_verdicts_do_not_change_under_a_power_of_two(family, k):
    def scaled(c):
        out = tuple(math.ldexp(v, k) for v in c)
        assert tuple(math.ldexp(v, -k) for v in out) == tuple(c), (c, k)  # exact
        return out

    for target, gens in _family_queries(family):
        verdict = sampling_oracle_contains(target, gens)
        assert sampling_oracle_contains(scaled(target), [scaled(g) for g in gens]) == verdict, (
            target,
            gens,
        )


@pytest.mark.parametrize("family", list(FAMILIES))
def test_agrees_with_the_kernel_outside_the_band(family):
    # the float kernel's band is absolute, so most inputs scaled below about
    # 1e-4 fall in it and are left out
    checked = 0
    for target, gens in _family_queries(family):
        res = circle_in_hull(target, gens)
        if abs(res.slack) > ORACLE_SLACK_BAND:
            checked += 1
            assert sampling_oracle_contains(target, gens) == res.contained, (target, gens)
    assert checked > 100


def _flip(inside, lo, hi):
    """Adjacent floats lo < hi with inside(lo) and not inside(hi), by bisection."""
    assert inside(lo) and not inside(hi), (lo, hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("ray", ["radius", "centre"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_the_verdict_flips_where_the_kernel_slack_is_zero(family, ray):
    # a target about the centres' centroid grown in radius, or a point moved
    # out along a random ray.  Containment is monotone along either, so the
    # exact verdict flips once, between adjacent floats; there the float
    # kernel's slack, the least support surplus, must be 0 up to rounding
    checked = 0
    for seed, (_, gens) in enumerate(_family_queries(family, 100)):
        scale = max(abs(v) for g in gens for v in g) or 1.0
        cx = sum(g[0] for g in gens) / len(gens)
        cy = sum(g[1] for g in gens) / len(gens)
        angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        ux, uy = math.cos(angle), math.sin(angle)

        def make(t):
            return (cx, cy, t) if ray == "radius" else (cx + t * ux, cy + t * uy, 0.0)

        def inside(t):
            return sampling_oracle_contains(make(t), gens)

        if not inside(0.0):  # the rounded centroid of collinear centres
            continue
        lo, hi = _flip(inside, 0.0, 8.0 * scale)
        for t in (lo, hi):
            assert abs(circle_in_hull(make(t), gens).slack) <= 1e-12 * scale, (seed, t)
        assert inside(0.5 * lo) and not inside(2.0 * hi), seed
        checked += 1
    assert checked > 80


# -- an exact reference where every generator has one radius ---------------------


def _equal_radii_query(family, seed, radius):
    """A query whose generators all have ``radius``; ``family`` says where."""
    rng = random.Random(seed)
    if family == "random":
        target, gens = random_containment_query(seed)
        centres = [(x, y) for x, y, _ in gens]
        return (*target[:2], rng.choice((0.0, radius, target[2]))), centres
    if family == "collinear":  # on a line through integer points, the target on it or not
        ax, ay = rng.randint(-3, 3), rng.randint(-3, 3)
        dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1)))
        centres = [(ax + i * dx, ay + i * dy) for i in rng.sample(range(-3, 4), rng.randint(1, 4))]
        t = rng.randint(-8, 8) / 2
        off = rng.choice((0.0, 0.0, 0.5, 2.0**-40))
        return (ax + t * dx - off * dy, ay + t * dy + off * dx, rng.choice((0.0, radius))), centres
    centres = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
    if family == "duplicates":
        centres += rng.choices(centres, k=rng.randint(1, 3))
        rng.shuffle(centres)
    if family in ("grid", "duplicates"):
        target = (rng.randint(-6, 6) / 2, rng.randint(-6, 6) / 2)
        return (*target, rng.choice((0.0, 0.5, 1.0, radius, 2.0))), centres
    # "boundary": the midpoint of two centres, or a centre, with the radius
    # of the generators; each value moved by an ulp either way or not, and
    # a radius of 0 kept >= 0
    (ax, ay), (bx, by) = rng.choice(centres), rng.choice(centres)
    nudge = [rng.choice((-math.inf, None, math.inf)) for _ in range(3)]
    values = ((ax + bx) / 2, (ay + by) / 2, radius)
    x, y, r = [v if d is None else math.nextafter(v, d) for v, d in zip(values, nudge)]
    return (x, y, max(r, 0.0)), centres


@pytest.mark.parametrize("radius", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("family", ["random", "grid", "collinear", "duplicates", "boundary"])
def test_matches_the_exact_reference_when_every_radius_is_equal(family, radius):
    # ties and tangencies are decided too: the reference has no band
    contained = 0
    for seed in range(600):
        target, centres = _equal_radii_query(family, seed, radius)
        gens = [(x, y, radius) for x, y in centres]
        expected = reference_oracle.equal_radii_contains(target, gens)
        assert sampling_oracle_contains(target, gens) == expected, (target, gens)
        contained += expected
    assert 0 < contained < 600
