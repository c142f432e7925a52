"""Planar tests: the package's orientation predicate, and the lemma helpers of
``lemmas.py`` (homotheties, tangents, round-edged angles)."""

import math
import random

import pytest

from carousel import Circle2, Point2, circle, pt
from carousel.planar import _orientation
from lemmas import (
    DegenerateRadius,
    EqualRadii,
    FocusInsideOrOn,
    Homothety,
    NestedCircles,
    _perspective_config,
    external_homothety_center,
    homothety_apply,
    homothety_apply_circle,
    homothety_conjugate,
    reangle_boundary_samples,
    reangle_clearance,
    reangle_contains,
    tangent_points_from_point,
)


def close(a: Point2, b: Point2, tol=1e-12) -> bool:
    return a.distance_to(b) <= tol


class TestHomothety:
    def test_identity_ratio(self):
        assert homothety_apply(Homothety(pt(0, 0), 1.0), pt(3, 4)) == pt(3, 4)

    def test_scaling_about_origin(self):
        assert homothety_apply(Homothety(pt(0, 0), 2.0), pt(1, 0)) == pt(2, 0)

    def test_offset_center(self):
        # barycentric cross-check: (1-3)*(2,0) + 3*(0,1) = (-4, 3)
        got = homothety_apply(Homothety(pt(2, 0), 3.0), pt(0, 1))
        assert close(got, pt(-4, 3))

    def test_zero_ratio_rejected(self):
        with pytest.raises(ValueError):
            Homothety(pt(0, 0), 0.0)

    def test_circle_image(self):
        rng = random.Random(11)
        for _ in range(100):
            h = Homothety(pt(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.1, 5))
            c = circle(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 3))
            img = homothety_apply_circle(h, c)
            for k in range(12):
                ang = k * math.tau / 12
                p = Point2(
                    c.center.x + c.radius * math.cos(ang),
                    c.center.y + c.radius * math.sin(ang),
                )
                q = homothety_apply(h, p)
                assert abs(q.distance_to(img.center) - img.radius) < 1e-9


class TestHomothetyConjugate:
    def test_worked_example(self):
        R, lhs, rhs = homothety_conjugate(pt(0, 0), 2.0, pt(1, 0), 3.0)
        assert close(R, pt(2, 0))
        assert close(lhs.apply(pt(0, 1)), pt(-4, 6))
        assert close(rhs.apply(pt(0, 1)), pt(-4, 6))

    def test_identity_first_factor(self):
        R, lhs, rhs = homothety_conjugate(pt(3, -1), 1.0, pt(1, 2), 4.0)
        assert close(R, pt(1, 2))
        hq = Homothety(pt(1, 2), 4.0).to_affine()
        for side in (lhs, rhs):
            assert side.scale == pytest.approx(hq.scale)
            assert close(side.offset, hq.offset, 1e-12)

    def test_identity_second_factor(self):
        R, lhs, rhs = homothety_conjugate(pt(3, -1), 2.5, pt(1, 2), 1.0)
        hf = Homothety(pt(3, -1), 2.5).to_affine()
        for side in (lhs, rhs):
            assert side.scale == pytest.approx(hf.scale)
            assert close(side.offset, hf.offset, 1e-12)

    def test_maps_agree_at_probe_points(self):
        rng = random.Random(3)
        for _ in range(300):
            F = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
            Q = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
            lam = rng.choice([-1, 1]) * rng.uniform(0.05, 5)
            mu = rng.choice([-1, 1]) * rng.uniform(0.05, 5)
            _, lhs, rhs = homothety_conjugate(F, lam, Q, mu)
            for _ in range(10):
                p = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
                a = lhs.apply(p)
                b = rhs.apply(p)
                scale = max(1.0, a.norm(), b.norm())
                assert a.distance_to(b) / scale < 1e-9

    def test_translation_composition(self):
        # ratio product 1 leaves a pure translation with no fixed point
        lhs = Homothety(pt(1, 0), 2.0).to_affine().compose(Homothety(pt(0, 1), 0.5).to_affine())
        assert lhs.scale == pytest.approx(1.0)
        with pytest.raises(ValueError):
            lhs.fixed_point()

    def test_fixed_point_recovers_homothety(self):
        aff = Homothety(pt(2, 3), 4.0).to_affine()
        assert close(aff.fixed_point(), pt(2, 3))


class TestTangentPoints:
    def test_worked_example(self):
        t1, t2 = tangent_points_from_point(pt(0, 0), circle(5, 0, 3))
        assert close(t1, pt(3.2, 2.4), 1e-12)
        assert close(t2, pt(3.2, -2.4), 1e-12)

    def test_focus_on_circle(self):
        with pytest.raises(FocusInsideOrOn):
            tangent_points_from_point(pt(0, 0), circle(2, 0, 2))

    def test_zero_radius(self):
        with pytest.raises(DegenerateRadius):
            tangent_points_from_point(pt(0, 0), circle(1, 0, 0))

    def test_residuals_across_ratios(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rng.uniform(0.1, 2.0)
            ratio = math.exp(rng.uniform(math.log(1.01), math.log(100.0)))
            d = r * ratio
            ang = rng.uniform(0, math.tau)
            center = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
            F = Point2(center.x + d * math.cos(ang), center.y + d * math.sin(ang))
            c = Circle2(center, r)
            for t in tangent_points_from_point(F, c):
                on_circle = abs(t.distance_to(center) - r)
                perp = abs((t - F).dot(t - center)) / max(1.0, (t - F).norm() * r)
                assert on_circle < 1e-12
                assert perp < 1e-12

    def test_ordering_is_counterclockwise_from_focus(self):
        rng = random.Random(6)
        for _ in range(50):
            center = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
            c = Circle2(center, rng.uniform(0.1, 2))
            F = Point2(center.x + c.radius * 3, center.y + 1.0)
            t1, t2 = tangent_points_from_point(F, c)
            assert (center - F).cross(t1 - F) > 0
            assert (center - F).cross(t2 - F) < 0


class TestExternalHomothetyCenter:
    def test_worked_example(self):
        assert close(external_homothety_center(circle(0, 0, 1), circle(3, 0, 2)), pt(-3, 0))

    def test_equal_radii(self):
        with pytest.raises(EqualRadii):
            external_homothety_center(circle(0, 0, 1), circle(5, 0, 1))

    def test_nested(self):
        with pytest.raises(NestedCircles):
            external_homothety_center(circle(0, 0, 3), circle(0.5, 0, 1))

    def test_zero_radius(self):
        with pytest.raises(DegenerateRadius):
            external_homothety_center(circle(0, 0, 0), circle(3, 0, 1))

    def test_center_maps_circles(self):
        rng = random.Random(9)
        for _ in range(100):
            c1 = circle(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 1.0))
            ratio = rng.uniform(1.3, 4.0)
            gap = rng.uniform(0.2, 5.0)
            ang = rng.uniform(0, math.tau)
            d = c1.radius + ratio * c1.radius + gap
            c2 = Circle2(
                Point2(c1.center.x + d * math.cos(ang), c1.center.y + d * math.sin(ang)),
                ratio * c1.radius,
            )
            F = external_homothety_center(c1, c2)
            img = homothety_apply_circle(Homothety(F, c2.radius / c1.radius), c1)
            assert close(img.center, c2.center, 1e-8)
            assert abs(img.radius - c2.radius) < 1e-9
            assert F.distance_to(c1.center) > c1.radius
            assert F.distance_to(c2.center) > c2.radius


class TestOrientation:
    def test_counterclockwise(self):
        assert _orientation(0, 0, 1, 0, 0, 1) == 1

    def test_collinear(self):
        assert _orientation(0, 0, 1, 0, 2, 0) == 0

    def test_clockwise(self):
        assert _orientation(0, 0, 0, 1, 1, 0) == -1

    def test_collinearity_band(self):
        assert _orientation(0, 0, 1, 0, 2, 1e-12) == 0


class TestReangle:
    F = pt(0, 0)
    c = circle(3, 0, 1)

    def test_spanning_center_inside(self):
        assert reangle_contains(self.F, self.c, pt(3, 0))

    def test_point_before_disk(self):
        assert not reangle_contains(self.F, self.c, pt(1, 0))

    def test_outside_cone(self):
        assert not reangle_contains(self.F, self.c, pt(0, 5))

    def test_unbounded_to_the_right(self):
        assert reangle_contains(self.F, self.c, pt(100, 0))

    def test_focus_inside_rejected(self):
        with pytest.raises(FocusInsideOrOn):
            reangle_contains(pt(3.5, 0), self.c, pt(3, 0))

    def test_disk_is_contained_and_focus_is_not(self):
        rng = random.Random(21)
        for _ in range(50):
            center = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
            r = rng.uniform(0.2, 2)
            d = r * rng.uniform(1.2, 8)
            ang = rng.uniform(0, math.tau)
            F = Point2(center.x + d * math.cos(ang), center.y + d * math.sin(ang))
            c = Circle2(center, r)
            assert not reangle_contains(F, c, F)
            for _ in range(20):
                t = rng.uniform(0, math.tau)
                rad = r * math.sqrt(rng.random())
                p = Point2(center.x + rad * math.cos(t), center.y + rad * math.sin(t))
                assert reangle_contains(F, c, p)

    def test_similarity_invariance(self):
        rng = random.Random(22)
        base_F = pt(0, 0)
        base_c = circle(3, 0, 1)
        probes = [pt(3, 0), pt(1, 0), pt(0, 5), pt(100, 0), pt(2.2, 0.3), pt(4, 2)]
        for _ in range(40):
            ang = rng.uniform(0, math.tau)
            s = rng.uniform(0.1, 10)
            off = pt(rng.uniform(-20, 20), rng.uniform(-20, 20))
            ca, sa = math.cos(ang), math.sin(ang)

            def xf(p):
                return Point2(
                    s * (ca * p.x - sa * p.y) + off.x,
                    s * (sa * p.x + ca * p.y) + off.y,
                )

            F2 = xf(base_F)
            c2 = Circle2(xf(base_c.center), s * base_c.radius)
            for p in probes:
                assert reangle_contains(base_F, base_c, p) == reangle_contains(F2, c2, xf(p))

    def test_clearance_sign_matches_membership(self):
        rng = random.Random(23)
        for _ in range(200):
            p = pt(rng.uniform(-2, 8), rng.uniform(-5, 5))
            inside = reangle_contains(self.F, self.c, p)
            clr = reangle_clearance(self.F, self.c, p)
            if inside:
                assert clr >= 0.0
            else:
                assert clr <= 0.0

    def test_clearance_on_boundary_is_small(self):
        # front-arc points sit on the region boundary
        phi = math.pi  # direction of focus from center
        alpha = math.acos(1 / 3)
        for t in (-0.9, -0.3, 0.0, 0.4, 0.8):
            ang = phi + t * alpha
            p = Point2(3 + math.cos(ang), math.sin(ang))
            assert abs(reangle_clearance(self.F, self.c, p)) < 1e-9


def test_perspective_circles_loose_inclusion_sample():
    # smaller copy of the acceptance campaign
    rng = random.Random(77)
    for _ in range(60):
        F, c1, G, c2 = _perspective_config(rng)
        for p in reangle_boundary_samples(F, c1, arc_n=40, leg_n=40):
            assert reangle_contains(G, c2, p)
            assert reangle_clearance(G, c2, p) > 1e-9


def test_internally_tangent_scaling_sample():
    rng = random.Random(78)
    for _ in range(100):
        r0 = rng.uniform(0.1, 2.0)
        r1 = r0 + rng.uniform(0.02, 2.0)
        ang = rng.uniform(0, math.tau)
        c1 = pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = r1 - r0
        c0 = Point2(c1.x + d * math.cos(ang), c1.y + d * math.sin(ang))
        lam = rng.uniform(1.01, 5.0)
        big = Circle2(c1, lam * r1)
        small = Circle2(c0, lam * r0)
        for k in range(36):
            a = k * math.tau / 36
            p = Point2(
                small.center.x + small.radius * math.cos(a),
                small.center.y + small.radius * math.sin(a),
            )
            signed = p.distance_to(big.center) - big.radius
            assert signed < -1e-9
