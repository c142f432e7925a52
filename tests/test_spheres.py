"""3D tests: tetrahedron construction, exact containment, projections, examples."""

import math
import random

import numpy as np
import pytest

from carousel import (
    ConstructionFailed,
    DegenerateBasis,
    Point3,
    PreconditionRadius,
    Sphere3,
    axis_points,
    example_4_1,
    example_4_2,
    plane_through,
    projection_reduction,
    sphere_in_hull3,
    tetrahedron_from_cube,
)
from carousel.spheres import _ex41_target_gens, project_to_plane

from probe_grid import icosphere_directions, probe_slack


class TestTetrahedron:
    def test_edges_are_cube_diagonals(self):
        verts = tetrahedron_from_cube(1.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert verts[i].distance_to(verts[j]) == pytest.approx(math.sqrt(2))

    def test_scaling(self):
        verts = tetrahedron_from_cube(2.0)
        assert verts[1].distance_to(verts[2]) == pytest.approx(2 * math.sqrt(2))

    def test_centroid(self):
        verts = tetrahedron_from_cube(1.0)
        cx = sum(v.x for v in verts) / 4
        cy = sum(v.y for v in verts) / 4
        cz = sum(v.z for v in verts) / 4
        assert (cx, cy, cz) == pytest.approx((0.5, 0.5, 0.5))

    def test_side_must_be_positive(self):
        with pytest.raises(ValueError):
            tetrahedron_from_cube(0.0)


class TestAxisPoints:
    def test_unit_cube_coordinates(self):
        b, c, p_m1, p_0 = axis_points(*tetrahedron_from_cube(1.0))
        assert (b.x, b.y, b.z) == pytest.approx((0.5, 0.5, 0.0))
        assert (c.x, c.y, c.z) == pytest.approx((0.5, 0.5, 1.0))
        assert (p_m1.x, p_m1.y, p_m1.z) == pytest.approx((0.5, 0.5, 1 / 3))
        assert (p_0.x, p_0.y, p_0.z) == pytest.approx((0.5, 0.5, 2 / 3))

    def test_trisection(self):
        b, c, p_m1, p_0 = axis_points(*tetrahedron_from_cube(1.0))
        assert b.distance_to(p_m1) == pytest.approx(p_m1.distance_to(p_0))
        assert p_m1.distance_to(p_0) == pytest.approx(p_0.distance_to(c))

    def test_scales_linearly(self):
        b3, c3, pm3, p03 = axis_points(*tetrahedron_from_cube(3.0))
        b1, c1, pm1, p01 = axis_points(*tetrahedron_from_cube(1.0))
        for big, small in ((b3, b1), (c3, c1), (pm3, pm1), (p03, p01)):
            assert (big.x, big.y, big.z) == pytest.approx((3 * small.x, 3 * small.y, 3 * small.z))


class TestIcosphere:
    @pytest.mark.parametrize("level,count", [(0, 12), (2, 162), (4, 2562), (5, 10242)])
    def test_vertex_counts(self, level, count):
        dirs = icosphere_directions(level)
        assert dirs.shape == (count, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def assert_matches_probe(target, gens, slack):
    """The exact minimum is at or below the level-5 probe, and close to it."""
    sampled = probe_slack(target, gens, 5)
    assert slack <= sampled + 1e-12
    # at a kink minimum the sampled value is off by at most
    # |gradient| * grid spacing (level-5 spacing is under 0.05 rad)
    grad = max(g.center.distance_to(target.center) for g in gens)
    assert sampled - slack <= 0.05 * grad + 1e-9


class TestSphereInHull3:
    def test_concentric_contained(self):
        t = Sphere3(Point3(0.5, 0.5, 0.5), 0.1)
        g = Sphere3(Point3(0.5, 0.5, 0.5), 0.2)
        res = sphere_in_hull3(t, [g])
        assert res.contained
        assert res.slack == pytest.approx(0.1)

    def test_concentric_not_contained(self):
        t = Sphere3(Point3(0.5, 0.5, 0.5), 0.3)
        g = Sphere3(Point3(0.5, 0.5, 0.5), 0.2)
        res = sphere_in_hull3(t, [g])
        assert not res.contained
        assert res.slack == pytest.approx(-0.1)
        assert res.witness_direction is not None

    def test_single_generator_closed_form(self):
        # slack of one generator is r_g - r_t - |c_g - c_t| exactly
        rng = random.Random(51)
        for _ in range(50):
            t = Sphere3(Point3(*(rng.uniform(-5, 5) for _ in range(3))), rng.uniform(0, 2))
            g = Sphere3(Point3(*(rng.uniform(-5, 5) for _ in range(3))), rng.uniform(0, 2))
            res = sphere_in_hull3(t, [g])
            expected = g.radius - t.radius - g.center.distance_to(t.center)
            assert res.slack == pytest.approx(expected, abs=1e-12)

    def test_witness_direction_certifies(self):
        verts = tetrahedron_from_cube(1.0)
        _, _, p_m1, p_0 = axis_points(*verts)
        target = Sphere3(p_m1, 0.1)
        gens = [Sphere3(p_0, 0.1)] + [Sphere3(verts[i], 0.0) for i in range(3)]
        res = sphere_in_hull3(target, gens)
        assert not res.contained
        ux, uy, uz = res.witness_direction
        assert math.hypot(ux, math.hypot(uy, uz)) == pytest.approx(1.0)
        direct = max(
            (g.center.x - target.center.x) * ux
            + (g.center.y - target.center.y) * uy
            + (g.center.z - target.center.z) * uz
            + g.radius
            for g in gens
        ) - target.radius
        assert direct == pytest.approx(res.slack, abs=1e-12)
        assert direct < 0

    def test_search_not_above_dense_sampling(self):
        rng = random.Random(52)
        for _ in range(20):
            t = Sphere3(Point3(*(rng.uniform(-2, 2) for _ in range(3))), rng.uniform(0, 1))
            gens = [
                Sphere3(Point3(*(rng.uniform(-2, 2) for _ in range(3))), rng.uniform(0, 1))
                for _ in range(rng.randint(1, 6))
            ]
            assert_matches_probe(t, gens, sphere_in_hull3(t, gens).slack)

    def test_similarity_covariance(self):
        rng = random.Random(53)
        t = Sphere3(Point3(0.3, 0.4, 0.5), 0.2)
        gens = [
            Sphere3(Point3(0.0, 0.0, 0.0), 0.5),
            Sphere3(Point3(1.0, 0.2, -0.3), 0.4),
            Sphere3(Point3(0.1, 1.1, 0.4), 0.0),
        ]
        base = sphere_in_hull3(t, gens).slack
        for _ in range(10):
            # random rotation from a normalized quaternion
            q = np.array([rng.gauss(0, 1) for _ in range(4)])
            q /= np.linalg.norm(q)
            w, x, y, z = q
            R = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
            off = np.array([rng.uniform(-3, 3) for _ in range(3)])
            s = rng.uniform(0.5, 3.0)

            def move(p, scale):
                v = scale * (R @ np.array([p.x, p.y, p.z])) + off
                return Point3(*v)

            moved = sphere_in_hull3(
                Sphere3(move(t.center, 1.0), t.radius),
                [Sphere3(move(g.center, 1.0), g.radius) for g in gens],
            ).slack
            assert moved == pytest.approx(base, abs=1e-9)
            grown = sphere_in_hull3(
                Sphere3(Point3(s * t.center.x, s * t.center.y, s * t.center.z), s * t.radius),
                [
                    Sphere3(
                        Point3(s * g.center.x, s * g.center.y, s * g.center.z), s * g.radius
                    )
                    for g in gens
                ],
            ).slack
            assert grown == pytest.approx(s * base, rel=1e-9, abs=1e-9)

    def test_slack_scales_linearly_from_1e_minus_6_to_1e6(self):
        rng = random.Random(54)
        for _ in range(30):
            t = Sphere3(Point3(*(rng.uniform(-2, 2) for _ in range(3))), rng.uniform(0, 1))
            gens = [
                Sphere3(
                    Point3(*(rng.uniform(-2, 2) for _ in range(3))),
                    0.0 if rng.random() < 0.3 else rng.uniform(0, 1.5),
                )
                for _ in range(rng.randint(1, 8))
            ]
            base = sphere_in_hull3(t, gens).slack
            for e in range(-6, 7):
                s = 10.0**e
                scaled = sphere_in_hull3(
                    Sphere3(t.center * s, t.radius * s),
                    [Sphere3(g.center * s, g.radius * s) for g in gens],
                ).slack
                assert scaled == pytest.approx(s * base, rel=1e-9)


class TestDegenerateInputs:
    def test_duplicate_centre_equal_radii(self):
        target = Sphere3(Point3(0.2, 0.1, 0.3), 0.2)
        a = Sphere3(Point3(1.0, 0.0, 0.0), 0.4)
        rest = [Sphere3(Point3(-1.0, 0.5, 0.0), 0.3), Sphere3(Point3(0.0, -1.0, 1.0), 0.0)]
        res = sphere_in_hull3(target, [a, a] + rest)
        assert res.slack == pytest.approx(sphere_in_hull3(target, [a] + rest).slack, abs=1e-12)
        assert_matches_probe(target, [a, a] + rest, res.slack)

    def test_duplicate_centre_different_radii(self):
        # the smaller sphere lies inside the larger and changes nothing
        target = Sphere3(Point3(0.2, 0.1, 0.3), 0.2)
        small = Sphere3(Point3(1.0, 0.0, 0.0), 0.1)
        big = Sphere3(Point3(1.0, 0.0, 0.0), 0.5)
        rest = [Sphere3(Point3(-1.0, 0.5, 0.0), 0.3), Sphere3(Point3(0.0, -1.0, 1.0), 0.0)]
        res = sphere_in_hull3(target, [small, big] + rest)
        assert res.slack == pytest.approx(sphere_in_hull3(target, [big] + rest).slack, abs=1e-12)
        assert_matches_probe(target, [small, big] + rest, res.slack)

    @pytest.mark.parametrize("c", [(1.0, 0.3, 0.0), (0.4, 0.0, 0.0), (-0.5, 0.2, 0.1)])
    def test_collinear_centres_closed_form(self, c):
        # equal spheres on a segment: their hull is a capsule, so the slack
        # is R - r_t - dist(centre, segment); all triple planes are parallel
        gens = [Sphere3(Point3(x, 0.0, 0.0), 0.5) for x in (0.0, 1.0, 2.0)]
        target = Sphere3(Point3(*c), 0.1)
        x = min(max(c[0], 0.0), 2.0)
        dist = math.hypot(c[0] - x, math.hypot(c[1], c[2]))
        res = sphere_in_hull3(target, gens)
        assert res.slack == pytest.approx(0.5 - 0.1 - dist, abs=1e-12)
        assert_matches_probe(target, gens, res.slack)

    def test_collinear_centres_unequal_radii(self):
        target = Sphere3(Point3(0.8, 0.7, -0.2), 0.3)
        gens = [
            Sphere3(Point3(0.0, 0.0, 0.0), 0.2),
            Sphere3(Point3(1.0, 1.0, 1.0), 0.6),
            Sphere3(Point3(2.0, 2.0, 2.0), 0.3),
            Sphere3(Point3(1.0, -1.0, 0.0), 0.0),
        ]
        assert_matches_probe(target, gens, sphere_in_hull3(target, gens).slack)

    def test_generator_concentric_with_target(self):
        target = Sphere3(Point3(0.5, 0.5, 0.5), 0.2)
        ball = Sphere3(Point3(0.5, 0.5, 0.5), 0.3)
        # a point at distance 2 leaves the side facing away bounded by the ball
        res = sphere_in_hull3(target, [ball, Sphere3(Point3(2.5, 0.5, 0.5), 0.0)])
        assert res.slack == pytest.approx(0.1, abs=1e-12)
        gens = [ball, Sphere3(Point3(1.5, 0.0, 0.5), 0.4), Sphere3(Point3(0.0, 1.2, 0.0), 0.1)]
        assert_matches_probe(target, gens, sphere_in_hull3(target, gens).slack)

    def test_all_generators_concentric(self):
        target = Sphere3(Point3(1.0, 2.0, 3.0), 0.5)
        gens = [Sphere3(Point3(1.0, 2.0, 3.0), r) for r in (0.2, 0.4, 0.0)]
        res = sphere_in_hull3(target, gens)
        assert res.slack == pytest.approx(-0.1, abs=1e-12)
        assert not res.contained

    def test_points_only(self):
        # target at the centroid of the regular tetrahedron on the unit cube:
        # the slack is the inradius 1/(2 sqrt 3) minus the target radius
        verts = tetrahedron_from_cube(1.0)
        target = Sphere3(Point3(0.5, 0.5, 0.5), 0.1)
        gens = [Sphere3(v, 0.0) for v in verts]
        res = sphere_in_hull3(target, gens)
        assert res.slack == pytest.approx(1 / (2 * math.sqrt(3)) - 0.1, abs=1e-12)
        assert_matches_probe(target, gens, res.slack)

    def test_single_point_generator(self):
        target = Sphere3(Point3(0.0, 0.0, 0.0), 0.25)
        res = sphere_in_hull3(target, [Sphere3(Point3(0.0, 3.0, 4.0), 0.0)])
        assert res.slack == pytest.approx(-5.25, abs=1e-12)
        assert res.witness_direction == pytest.approx((0.0, -0.6, -0.8), abs=1e-12)

    def test_single_point_on_point_target(self):
        # every length is zero: the hull is the target itself
        p = Point3(1.0, 1.0, 1.0)
        res = sphere_in_hull3(Sphere3(p, 0.0), [Sphere3(p, 0.0)])
        assert res.contained
        assert res.slack == 0.0

    def test_result_fields_are_python_native(self):
        res = sphere_in_hull3(
            Sphere3(Point3(0.0, 0.0, 0.0), 1.0), [Sphere3(Point3(0.5, 0.0, 0.0), 0.2)]
        )
        assert type(res.contained) is bool
        assert type(res.slack) is float
        assert all(type(c) is float for c in res.witness_direction)


class TestProjection:
    def test_projection_loses_depth(self):
        plane = (Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0))
        res = projection_reduction(
            Sphere3(Point3(0, 0, 5), 1.0), [Sphere3(Point3(0, 0, 0), 2.0)], plane
        )
        assert res.contained  # inconclusive for 3D; the 3D answer is not-contained
        res3 = sphere_in_hull3(Sphere3(Point3(0, 0, 5), 1.0), [Sphere3(Point3(0, 0, 0), 2.0)])
        assert not res3.contained

    def test_far_generators_refuted_in_both(self):
        plane = (Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0))
        target = Sphere3(Point3(0, 0, 0), 1.0)
        gens = [Sphere3(Point3(10, 0, 0), 1.0)]
        assert not projection_reduction(target, gens, plane).contained
        assert not sphere_in_hull3(target, gens).contained

    def test_degenerate_basis(self):
        with pytest.raises(DegenerateBasis):
            projection_reduction(
                Sphere3(Point3(0, 0, 0), 1.0),
                [Sphere3(Point3(1, 0, 0), 1.0)],
                (Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0)),
            )
        with pytest.raises(DegenerateBasis):
            plane_through(Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0))

    def test_both_tetrahedron_ends_collapse_to_b(self):
        verts = tetrahedron_from_cube(1.0)
        b, *_ = axis_points(*verts)
        plane = plane_through(b, verts[2], verts[3])
        pa0 = project_to_plane(verts[0], plane)
        pa1 = project_to_plane(verts[1], plane)
        assert pa0.distance_to(pa1) < 1e-12
        assert pa0.distance_to(project_to_plane(b, plane)) < 1e-12


class TestExample41:
    def test_all_eight_refuted(self):
        rep = example_4_1(1.0, 0.1)
        assert rep.all_refuted
        assert len(rep.outcomes) == 8
        for o in rep.outcomes:
            assert o.result.slack < -1e-6
            assert o.result.witness_direction is not None

    def test_face_distances(self):
        rep = example_4_1(1.0, 0.1)
        for dists in rep.face_distances:
            assert sorted(set(round(d, 9) for d in dists)) == [
                round(1 / (3 * math.sqrt(3)), 9),
                round(2 / (3 * math.sqrt(3)), 9),
            ]

    def test_projection_certificates_for_j3(self):
        rep = example_4_1(1.0, 0.1)
        for o in rep.outcomes:
            if o.j == 3:
                cert = o.result.projection_certificate
                assert cert is not None
                assert not cert.contained
                assert -cert.slack > 1e-6  # strictly positive 2D gap
            else:
                assert o.result.projection_certificate is None

    def test_projection_soundness_bound(self):
        # in-plane slack can never beat the full 3D minimum
        rep = example_4_1(1.0, 0.1)
        for o in rep.outcomes:
            cert = o.result.projection_certificate
            if cert is not None:
                assert o.result.slack <= cert.slack + 1e-6

    def test_projected_witness_certifies_2d(self):
        # the 3D witness lies in the symmetry plane, so its in-plane part
        # realizes a 2D violation at least as deep as the 3D slack
        verts = tetrahedron_from_cube(1.0)
        b, _, p_m1, p_0 = axis_points(*verts)
        plane = plane_through(b, verts[2], verts[3])
        origin, e1, e2 = plane
        target = Sphere3(p_m1, 0.1)
        gens = [Sphere3(p_0, 0.1)] + [Sphere3(verts[i], 0.0) for i in range(3)]
        res = sphere_in_hull3(target, gens)
        ux, uy, uz = res.witness_direction
        u = Point3(ux, uy, uz)
        in_plane = math.hypot(u.dot(e1), u.dot(e2))
        assert in_plane > 1e-9
        c, s = u.dot(e1) / in_plane, u.dot(e2) / in_plane
        t2 = project_to_plane(target.center, plane)
        val = max(
            (project_to_plane(g.center, plane).x - t2.x) * c
            + (project_to_plane(g.center, plane).y - t2.y) * s
            + g.radius
            for g in gens
        ) - target.radius
        assert val <= res.slack + 1e-6

    def test_slack_not_above_level6_probe(self):
        # the enumerated minimum is at or below every one of 40,962 directions
        rep = example_4_1(1.0, 0.1)
        spheres = tuple(Sphere3(c, 0.1) for c in rep.centers)
        for o in rep.outcomes:
            target, gens = _ex41_target_gens(rep.vertices, spheres, o.j, o.k)
            assert o.result.slack <= probe_slack(target, gens, 6) + 1e-12

    def test_radius_too_large(self):
        with pytest.raises(PreconditionRadius):
            example_4_1(1.0, 0.5)

    def test_scale_invariance(self):
        rep1 = example_4_1(1.0, 0.1)
        rep2 = example_4_1(2.0, 0.2)
        assert rep2.all_refuted
        for a, b in zip(rep1.outcomes, rep2.outcomes):
            assert b.result.slack == pytest.approx(2 * a.result.slack, abs=1e-9)

    def test_symmetry_j3_equals_j2(self):
        # exchanging the two far vertices maps one case onto the other
        rep = example_4_1(1.0, 0.1)
        by_pair = {(o.j, o.k): o.result.slack for o in rep.outcomes}
        assert by_pair[(3, 0)] == pytest.approx(by_pair[(2, 0)], abs=1e-9)
        assert by_pair[(3, -1)] == pytest.approx(by_pair[(2, -1)], abs=1e-9)


class TestExample42:
    def test_t3_all_refuted(self):
        rep = example_4_2(3)
        assert rep.all_refuted
        assert len(rep.outcomes) == 4 * 3
        assert len(rep.spheres) == 3

    def test_construction_invariants(self):
        for t in (3, 4):
            rep = example_4_2(t)
            assert max(rep.tangency_residuals) <= 1e-9
            assert min(rep.interior_margins) >= 1e-6
            # middle circles bulge toward the guide arc
            radii = [s.radius for s in rep.spheres]
            assert min(radii[2:] or [radii[0]]) >= radii[0] - 1e-12
            # pairwise non-nested
            for i in range(len(rep.spheres)):
                for j in range(i + 1, len(rep.spheres)):
                    a, b = rep.spheres[i], rep.spheres[j]
                    d = a.center.distance_to(b.center)
                    assert d + min(a.radius, b.radius) > max(a.radius, b.radius)

    def test_limit_radii_equalize(self):
        rep = example_4_2(3, arc_radius_factor=1000.0)
        radii = [s.radius for s in rep.spheres]
        assert (max(radii) - min(radii)) / min(radii) < 0.01

    def test_t_must_be_at_least_3(self):
        with pytest.raises(ValueError):
            example_4_2(2)

    def test_oversized_radius_shrinks_to_fit(self):
        # requested end radius cannot fit; construction shrinks all radii,
        # keeping the guide-arc tangency and the interiority margin
        rep = example_4_2(3, r=1.0)
        assert rep.all_refuted
        assert all(s.radius < 1.0 for s in rep.spheres)
        assert max(rep.tangency_residuals) <= 1e-9
        assert min(rep.interior_margins) >= 1e-6 - 1e-12

    def test_margin_too_demanding_fails(self):
        # the end spheres sit 0.19 side from the nearest face, so at side 1e-6
        # the EPS_DECISION margin leaves no admissible radius; at 1e-5 it does
        with pytest.raises(ConstructionFailed):
            example_4_2(3, side=1e-6)
        assert example_4_2(3, side=1e-5).t == 3
