"""Support-hull tests: coverage arcs, containment, slack, boundary chains."""

import math
import random

import numpy as np
import pytest

from carousel import ArcPiece, SegmentPiece, circle_in_hull, hull_boundary
from carousel.fuzz import random_containment_query
from carousel.planar import EPS_DECISION
from lemmas import circle, pt, tangent_points_from_point
from reference_hull import (
    boundary_support,
    chain_closure_error,
    coverage_arc,
    hull_area,
    hull_polygon_area,
    support,
    uncovered_gaps,
)

TAU = math.tau


class TestSupport:
    def test_unit_circle(self):
        assert support(((0, 0, 1),), 0.0) == pytest.approx(1.0)

    def test_two_points(self):
        gens = ((0, 0, 0), (2, 0, 0))
        assert support(gens, 0.0) == pytest.approx(2.0)

    def test_leftward_winner(self):
        gens = ((0, 0, 1), (3, 0, 0.5))
        assert support(gens, math.pi) == pytest.approx(1.0)


class TestCoverageArc:
    def test_point_generator_closed_form(self):
        alpha = math.acos(1 / 3)
        assert coverage_arc((3, 0, 0), (0, 0, 1)) == pytest.approx((-alpha, alpha))

    def test_concentric_larger_is_full(self):
        assert coverage_arc((0, 0, 2), (0, 0, 1)) == (0.0, TAU)

    def test_small_point_is_empty(self):
        assert coverage_arc((0.5, 0, 0), (0, 0, 1)) is None

    def test_against_dense_angle_scan(self):
        # membership in the closed-form arc must match the raw inequality
        rng = random.Random(17)
        thetas = np.linspace(0.0, TAU, 100_000, endpoint=False)
        cos_t = np.cos(thetas)
        sin_t = np.sin(thetas)
        for _ in range(25):
            g = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2))
            tgt = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2))
            arc = coverage_arc(g, tgt)
            lhs = (g[0] - tgt[0]) * cos_t + (g[1] - tgt[1]) * sin_t
            holds = lhs >= (tgt[2] - g[2])
            lo, hi = arc or (0.0, -1.0)
            member = (thetas - lo) % TAU <= hi - lo
            # disagreements may only hug the arc endpoints
            diff = np.nonzero(member != holds)[0]
            if diff.size:
                ends = [lo % TAU, hi % TAU] if arc and hi - lo < TAU else []
                for i in diff:
                    assert ends and min(
                        min(abs(thetas[i] - e), TAU - abs(thetas[i] - e)) for e in ends
                    ) < 1e-4


class TestCircleInHull:
    def test_self_inclusion(self):
        res = circle_in_hull((0, 0, 1), ((0, 0, 1),))
        assert res.contained
        assert res.slack == pytest.approx(0.0, abs=1e-12)

    def test_larger_concentric(self):
        res = circle_in_hull((0, 0, 2), ((0, 0, 1),))
        assert not res.contained
        assert res.slack == pytest.approx(-1.0)
        assert res.witness_direction is not None

    def test_uncovered_gap_location(self):
        target, gens = (0, 0, 1), ((3, 0, 0), (-2, 0, 1.5))
        res = circle_in_hull(target, gens)
        assert not res.contained
        gaps = uncovered_gaps([coverage_arc(g, target) for g in gens])
        lo = math.acos(1 / 3)
        hi = math.pi - math.acos(-0.25)  # = 1.31812...
        assert gaps[0] == pytest.approx((lo, hi), abs=1e-9)
        # the witness direction lies where no generator's arc reaches
        assert any((res.witness_direction - a) % TAU <= b - a for a, b in gaps)

    def test_incircle_touches_all_sides(self):
        s = 4 - 2 * math.sqrt(2)
        res = circle_in_hull(
            (s, s, s),
            ((0, 0, 0), (4, 0, 0), (0, 4, 0)),
        )
        assert res.contained
        assert abs(res.slack) < 1e-9

    def test_point_target_in_triangle(self):
        gens = ((0, 0, 0), (4, 0, 0), (0, 4, 0))
        assert circle_in_hull((1, 1, 0), gens).contained
        assert not circle_in_hull((3, 3, 0), gens).contained


def _dense_slack(target, gens, m=3600):
    """Least support slack over m equally spaced directions."""
    theta = np.arange(m) * (TAU / m)
    tx, ty, tr = target
    d = np.array([(x - tx, y - ty) for x, y, _ in gens])
    dr = np.array([r - tr for _, _, r in gens])
    vals = np.outer(d[:, 0], np.cos(theta)) + np.outer(d[:, 1], np.sin(theta)) + dr[:, None]
    return float(vals.max(axis=0).min())


DEGENERATE_QUERIES = {
    "one generator concentric": (
        (0, 0, 1), ((0, 0, 0.5), (3, 0, 0), (-1, 2, 0.2))
    ),
    "every generator concentric": ((1, 2, 1), ((1, 2, 0.5), (1, 2, 2))),
    "duplicate generators": (
        (0.5, 0.2, 0.7), ((3, 0, 1), (3, 0, 1), (-2, 1, 0))
    ),
    "single point generator": ((1.5, 0.5, 0.25), ((2, 1, 0),)),
    "points only": ((1, 1, 0), ((0, 0, 0), (4, 0, 0), (0, 4, 0))),
}


class TestCriticalAngles:
    """The pruned candidate set must find the envelope's minimum."""

    @staticmethod
    def _check(target, gens):
        res = circle_in_hull(target, gens)
        dense = _dense_slack(target, gens)
        # a dense direction is at most half a grid step from the minimiser,
        # where the envelope climbs no faster than its largest amplitude
        amp = max(math.dist(g[:2], target[:2]) for g in gens)
        assert res.slack <= dense + 1e-12
        assert dense - res.slack <= amp * math.pi / 3600 + 1e-12
        assert res.contained == (res.slack >= -EPS_DECISION)

    def test_dense_direction_probe(self):
        for seed in range(300):
            self._check(*random_containment_query(seed))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_QUERIES))
    def test_degenerate(self, name):
        target, gens = DEGENERATE_QUERIES[name]
        self._check(target, gens)

    def test_every_generator_concentric_is_exact(self):
        target, gens = DEGENERATE_QUERIES["every generator concentric"]
        res = circle_in_hull(target, gens)
        assert res.contained and res.slack == 1.0


def near_tangency_queries(n_seeds):
    """Random queries with the target radius moved to +-1e-3 ... +-1e-7 of tangency.

    Yields (target, generators, offset): the slack of the query is -offset.
    """
    for seed in range(n_seeds):
        target, gens = random_containment_query(seed)
        tangent = target[2] + circle_in_hull(target, gens).slack
        if tangent < 1e-3:
            continue
        for k in range(3, 8):
            for offset in (10.0**-k, -(10.0**-k)):
                yield (*target[:2], tangent + offset), gens, offset


class TestVerdictRule:
    def test_near_tangency_verdicts_follow_the_slack(self):
        count = 0
        for target, gens, offset in near_tangency_queries(11776):
            res = circle_in_hull(target, gens)
            assert res.slack == pytest.approx(-offset, abs=1e-9)
            assert res.contained == (res.slack >= -EPS_DECISION)
            assert (res.witness_direction is None) == res.contained
            count += 1
        assert count == 21_560


class TestMinSlack:
    """The slack of ``circle_in_hull``: the least support surplus over directions."""

    UNIT = ((0, 0, 1),)

    def test_concentric(self):
        assert circle_in_hull((0, 0, 0.5), self.UNIT).slack == pytest.approx(0.5)

    def test_equality(self):
        assert circle_in_hull((0, 0, 1), self.UNIT).slack == pytest.approx(0.0)

    def test_offset(self):
        assert circle_in_hull((0.2, 0, 0.5), self.UNIT).slack == pytest.approx(0.3)


def _random_query(rng, n_max=5):
    def c():
        r = 0.0 if rng.random() < 0.25 else rng.uniform(0, 3)
        return (rng.uniform(-10, 10), rng.uniform(-10, 10), r)

    return c(), tuple(c() for _ in range(rng.randint(1, n_max)))


class TestSlackProperties:
    def test_monotone_in_generators(self):
        rng = random.Random(31)
        for _ in range(200):
            target, gens = _random_query(rng)
            extra = (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 3))
            s0 = circle_in_hull(target, gens).slack
            s1 = circle_in_hull(target, gens + (extra,)).slack
            assert s1 >= s0 - 1e-12

    def test_similarity_invariance(self):
        rng = random.Random(32)
        for _ in range(100):
            target, gens = _random_query(rng)
            ang = rng.uniform(0, TAU)
            off = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            s = rng.uniform(0.2, 5.0)
            ca, sa = math.cos(ang), math.sin(ang)

            def rigid(c):
                x, y, r = c
                return ca * x - sa * y + off[0], sa * x + ca * y + off[1], r

            def scaled(c):
                return tuple(s * v for v in c)

            base = circle_in_hull(target, gens).slack
            moved = circle_in_hull(rigid(target), [rigid(g) for g in gens]).slack
            assert moved == pytest.approx(base, abs=1e-9)
            grown = circle_in_hull(scaled(target), [scaled(g) for g in gens]).slack
            assert grown == pytest.approx(s * base, rel=1e-9, abs=1e-9)

    def test_coverage_slack_consistency(self):
        rng = random.Random(33)
        for _ in range(400):
            target, gens = _random_query(rng)
            res = circle_in_hull(target, gens)
            if abs(res.slack) <= 1e-4:
                continue
            gaps = uncovered_gaps([coverage_arc(g, target) for g in gens])
            covered = all(hi - lo < 1e-3 for lo, hi in gaps)
            assert res.contained == (res.slack >= 0.0) == covered

    def test_scaled_generator_slack_monotone(self):
        # growing the circle generator only raises the support
        rng = random.Random(34)
        for _ in range(50):
            sites = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(2)]
            cen = (rng.uniform(-8, 8), rng.uniform(-8, 8))
            r = rng.uniform(0.2, 2.0)
            target = (rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, 1))
            prev = -math.inf
            for zeta in np.linspace(0.0, 1.0, 11):
                gens = [(*cen, zeta * r)] + [(*site, 0.0) for site in sites]
                s = circle_in_hull(target, gens).slack
                assert s >= prev - 1e-12
                prev = s


class TestBoundaryPieces:
    def test_single_circle(self):
        b = hull_boundary(((0, 0, 1),))
        assert len(b) == 1
        piece = b[0]
        assert isinstance(piece, ArcPiece)
        assert piece.width == pytest.approx(TAU)

    def test_point_triangle(self):
        b = hull_boundary(
            ((0, 0, 0), (4, 0, 0), (0, 4, 0))
        )
        assert len(b) == 3
        assert all(isinstance(p, SegmentPiece) for p in b)
        assert chain_closure_error(b) < 1e-12

    def test_round_backed_trapezoid(self):
        gens = ((0, 0, 0), (4, 0, 0), (2, 2, 1))
        b = hull_boundary(gens)
        arcs = [p for p in b if isinstance(p, ArcPiece)]
        segs = [p for p in b if isinstance(p, SegmentPiece)]
        assert len(arcs) == 1 and len(segs) == 3
        assert chain_closure_error(b) < 1e-12
        # the two tangent legs end exactly at the tangent points from the base sites
        c = circle(2, 2, 1)
        expected = set()
        for site in (pt(0, 0), pt(4, 0)):
            for t in tangent_points_from_point(site, c):
                expected.add((round(t.x, 9), round(t.y, 9)))
        arc = arcs[0]
        for x, y in (arc.start, arc.end):
            assert (round(x, 9), round(y, 9)) in expected
        # area against the densely sampled polygon hull
        exact = hull_area(gens, b)
        sampled = hull_polygon_area(gens)
        assert abs(exact - sampled) / exact < 1e-3

    def test_stadium(self):
        gens = ((0, 0, 1), (4, 0, 1))
        b = hull_boundary(gens)
        arcs = [p for p in b if isinstance(p, ArcPiece)]
        segs = [p for p in b if isinstance(p, SegmentPiece)]
        assert len(arcs) == 2 and len(segs) == 2
        assert hull_area(gens, b) == pytest.approx(math.pi + 8.0)

    def test_interior_generators_omitted(self):
        gens = ((0, 0, 2), (0.2, 0, 0.3), (0, 0.1, 0))
        b = hull_boundary(gens)
        assert b == (ArcPiece(0, 0.0, TAU, (2, 0), (2, 0)),)

    def test_degenerate_single_point(self):
        b = hull_boundary(((1, 2, 0),))
        assert b == ()
        assert chain_closure_error(b) == 0.0

    def test_degenerate_collinear_points(self):
        b = hull_boundary(
            ((0, 0, 0), (1, 1, 0), (3, 3, 0))
        )
        assert len(b) == 2
        assert all(isinstance(p, SegmentPiece) for p in b)
        there, back = b
        assert (there.start, there.end) == ((0, 0), (3, 3))
        assert (back.start, back.end) == ((3, 3), (0, 0))
        assert chain_closure_error(b) == 0.0

    def test_boundary_support_matches_support(self):
        rng = random.Random(35)
        for _ in range(25):
            n = rng.randint(1, 6)
            gens = [
                (
                    rng.uniform(-10, 10),
                    rng.uniform(-10, 10),
                    0.0 if rng.random() < 0.3 else rng.uniform(0, 3),
                )
                for _ in range(n)
            ]
            b = hull_boundary(gens)
            if not b:
                continue
            assert chain_closure_error(b) < 1e-9
            for k in range(3600):
                theta = k * TAU / 3600
                assert boundary_support(gens, b, theta) == pytest.approx(
                    support(gens, theta), abs=1e-9
                )

    def test_segment_boundary_support_matches_support(self):
        # collinear points, with repeats, are a segment hull: two tangent segments
        for pts in (
            [(0, 0), (4, 0), (8, 0)],
            [(2, 3), (4, -3), (4, -3)],
            [(-1, -2), (3, 6), (1, 2), (3, 6), (0, 0)],
        ):
            gens = [(x, y, 0) for x, y in pts]
            b = hull_boundary(gens)
            assert len(b) == 2
            assert all(isinstance(p, SegmentPiece) for p in b)
            assert chain_closure_error(b) == 0.0
            for k in range(360):
                theta = k * TAU / 360
                assert boundary_support(gens, b, theta) == pytest.approx(
                    support(gens, theta), abs=1e-9
                )

    def test_chain_total_turning(self):
        gens = ((0, 0, 0), (4, 0, 0), (2, 2, 1))
        b = hull_boundary(gens)
        # arc sweep angles plus exterior turns at junctions total one full turn
        turning = sum(p.width for p in b if isinstance(p, ArcPiece))

        def heading_in(p):
            if isinstance(p, ArcPiece):
                return p.end_angle + math.pi / 2
            return math.atan2(p.end[1] - p.start[1], p.end[0] - p.start[0])

        def heading_out(p):
            if isinstance(p, ArcPiece):
                return p.start_angle + math.pi / 2
            return math.atan2(p.end[1] - p.start[1], p.end[0] - p.start[0])

        pieces = list(b)
        for cur, nxt in zip(pieces, pieces[1:] + pieces[:1]):
            turn = math.remainder(heading_out(nxt) - heading_in(cur), TAU)
            assert turn > -1e-9  # convex boundary never turns clockwise
            turning += turn
        assert turning == pytest.approx(TAU, abs=1e-9)
