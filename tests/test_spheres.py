"""3D tests: tetrahedron construction, exact containment, projections, examples."""

import math
import random

import numpy as np
import pytest

from carousel import (
    DegenerateBasis,
    PreconditionRadius,
    axis_points,
    example_4_1,
    example_4_2,
    plane_through,
    projection_reduction,
    sphere_in_hull3,
    tetrahedron_from_cube,
)
from carousel.spheres import _dot3, _inclusion_objects, _norm3, _unit3, project_to_plane

from probe_grid import icosphere_directions, probe_slack


class TestTetrahedron:
    def test_edges_are_cube_diagonals(self):
        verts = tetrahedron_from_cube(1.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert math.dist(verts[i], verts[j]) == pytest.approx(math.sqrt(2))

    def test_scaling(self):
        verts = tetrahedron_from_cube(2.0)
        assert math.dist(verts[1], verts[2]) == pytest.approx(2 * math.sqrt(2))

    def test_centroid(self):
        verts = tetrahedron_from_cube(1.0)
        cx = sum(v[0] for v in verts) / 4
        cy = sum(v[1] for v in verts) / 4
        cz = sum(v[2] for v in verts) / 4
        assert (cx, cy, cz) == pytest.approx((0.5, 0.5, 0.5))

    def test_side_must_be_positive(self):
        with pytest.raises(ValueError):
            tetrahedron_from_cube(0.0)

    @pytest.mark.parametrize("side", [math.nan, math.inf])
    def test_side_must_be_finite(self, side):
        with pytest.raises(ValueError, match="side must be finite and > 0"):
            tetrahedron_from_cube(side)


class TestFloatTriples:
    def test_norm_when_the_square_leaves_the_float_range(self):
        assert _norm3((3e200, 4e200, 0.0)) == pytest.approx(5e200, rel=1e-15)
        assert _norm3((0.0, 3e-200, 4e-200)) == pytest.approx(5e-200, rel=1e-15)
        assert _norm3((0.0, 0.0, 5e-324)) == 5e-324
        assert _norm3((0.0, 0.0, 0.0)) == 0.0

    def test_a_length_that_overflows_raises(self):
        # each coordinate is finite, but the length is not
        with pytest.raises(ValueError, match=r"^length must be finite, got inf for \(1\.5e\+308, "):
            _norm3((1.5e308, -1.5e308, 0.0))

    def test_tiny_vectors_normalize(self):
        assert _unit3((3e-200, 0.0, 4e-200)) == pytest.approx((0.6, 0.0, 0.8), rel=1e-15)
        with pytest.raises(ValueError, match="zero vector"):
            _unit3((0.0, 0.0, 0.0))


class TestAxisPoints:
    def test_unit_cube_coordinates(self):
        b, c, p_m1, p_0 = axis_points(*tetrahedron_from_cube(1.0))
        assert b == pytest.approx((0.5, 0.5, 0.0))
        assert c == pytest.approx((0.5, 0.5, 1.0))
        assert p_m1 == pytest.approx((0.5, 0.5, 1 / 3))
        assert p_0 == pytest.approx((0.5, 0.5, 2 / 3))

    def test_trisection(self):
        b, c, p_m1, p_0 = axis_points(*tetrahedron_from_cube(1.0))
        assert math.dist(b, p_m1) == pytest.approx(math.dist(p_m1, p_0))
        assert math.dist(p_m1, p_0) == pytest.approx(math.dist(p_0, c))

    def test_scales_linearly(self):
        b3, c3, pm3, p03 = axis_points(*tetrahedron_from_cube(3.0))
        b1, c1, pm1, p01 = axis_points(*tetrahedron_from_cube(1.0))
        for big, small in ((b3, b1), (c3, c1), (pm3, pm1), (p03, p01)):
            assert big == pytest.approx(tuple(3 * v for v in small))


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
    grad = max(math.dist(g[:3], target[:3]) for g in gens)
    assert sampled - slack <= 0.05 * grad + 1e-9


class TestSphereInHull3:
    def test_concentric_contained(self):
        t = (0.5, 0.5, 0.5, 0.1)
        g = (0.5, 0.5, 0.5, 0.2)
        res = sphere_in_hull3(t, [g])
        assert res.contained
        assert res.slack == pytest.approx(0.1)

    def test_concentric_not_contained(self):
        t = (0.5, 0.5, 0.5, 0.3)
        g = (0.5, 0.5, 0.5, 0.2)
        res = sphere_in_hull3(t, [g])
        assert not res.contained
        assert res.slack == pytest.approx(-0.1)
        assert res.witness_direction is not None

    def test_single_generator_closed_form(self):
        # slack of one generator is r_g - r_t - |c_g - c_t| exactly
        rng = random.Random(51)
        for _ in range(50):
            t = (*(rng.uniform(-5, 5) for _ in range(3)), rng.uniform(0, 2))
            g = (*(rng.uniform(-5, 5) for _ in range(3)), rng.uniform(0, 2))
            res = sphere_in_hull3(t, [g])
            expected = g[3] - t[3] - math.dist(g[:3], t[:3])
            assert res.slack == pytest.approx(expected, abs=1e-12)

    def test_witness_direction_certifies(self):
        verts = tetrahedron_from_cube(1.0)
        _, _, p_m1, p_0 = axis_points(*verts)
        target = (*p_m1, 0.1)
        gens = [(*p_0, 0.1)] + [(*verts[i], 0.0) for i in range(3)]
        res = sphere_in_hull3(target, gens)
        assert not res.contained
        ux, uy, uz = res.witness_direction
        assert math.hypot(ux, math.hypot(uy, uz)) == pytest.approx(1.0)
        direct = max(
            (g[0] - target[0]) * ux + (g[1] - target[1]) * uy + (g[2] - target[2]) * uz + g[3]
            for g in gens
        ) - target[3]
        assert direct == pytest.approx(res.slack, abs=1e-12)
        assert direct < 0

    def test_search_not_above_dense_sampling(self):
        rng = random.Random(52)
        for _ in range(20):
            t = (*(rng.uniform(-2, 2) for _ in range(3)), rng.uniform(0, 1))
            gens = [
                (*(rng.uniform(-2, 2) for _ in range(3)), rng.uniform(0, 1))
                for _ in range(rng.randint(1, 6))
            ]
            assert_matches_probe(t, gens, sphere_in_hull3(t, gens).slack)

    def test_similarity_covariance(self):
        rng = random.Random(53)
        t = (0.3, 0.4, 0.5, 0.2)
        gens = [
            (0.0, 0.0, 0.0, 0.5),
            (1.0, 0.2, -0.3, 0.4),
            (0.1, 1.1, 0.4, 0.0),
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
                return tuple(scale * (R @ np.array(p)) + off)

            moved = sphere_in_hull3(
                (*move(t[:3], 1.0), t[3]), [(*move(g[:3], 1.0), g[3]) for g in gens]
            ).slack
            assert moved == pytest.approx(base, abs=1e-9)
            grown = sphere_in_hull3(
                tuple(s * v for v in t), [tuple(s * v for v in g) for g in gens]
            ).slack
            assert grown == pytest.approx(s * base, rel=1e-9, abs=1e-9)

    def test_slack_scales_linearly_from_1e_minus_6_to_1e6(self):
        rng = random.Random(54)
        for _ in range(30):
            t = (*(rng.uniform(-2, 2) for _ in range(3)), rng.uniform(0, 1))
            gens = [
                (
                    *(rng.uniform(-2, 2) for _ in range(3)),
                    0.0 if rng.random() < 0.3 else rng.uniform(0, 1.5),
                )
                for _ in range(rng.randint(1, 8))
            ]
            base = sphere_in_hull3(t, gens).slack
            for e in range(-6, 7):
                s = 10.0**e
                scaled = sphere_in_hull3(
                    tuple(v * s for v in t), [tuple(v * s for v in g) for g in gens]
                ).slack
                assert scaled == pytest.approx(s * base, rel=1e-9)


class TestDegenerateInputs:
    def test_duplicate_centre_equal_radii(self):
        target = (0.2, 0.1, 0.3, 0.2)
        a = (1.0, 0.0, 0.0, 0.4)
        rest = [(-1.0, 0.5, 0.0, 0.3), (0.0, -1.0, 1.0, 0.0)]
        res = sphere_in_hull3(target, [a, a] + rest)
        assert res.slack == pytest.approx(sphere_in_hull3(target, [a] + rest).slack, abs=1e-12)
        assert_matches_probe(target, [a, a] + rest, res.slack)

    def test_duplicate_centre_different_radii(self):
        # the smaller sphere lies inside the larger and changes nothing
        target = (0.2, 0.1, 0.3, 0.2)
        small = (1.0, 0.0, 0.0, 0.1)
        big = (1.0, 0.0, 0.0, 0.5)
        rest = [(-1.0, 0.5, 0.0, 0.3), (0.0, -1.0, 1.0, 0.0)]
        res = sphere_in_hull3(target, [small, big] + rest)
        assert res.slack == pytest.approx(sphere_in_hull3(target, [big] + rest).slack, abs=1e-12)
        assert_matches_probe(target, [small, big] + rest, res.slack)

    @pytest.mark.parametrize("c", [(1.0, 0.3, 0.0), (0.4, 0.0, 0.0), (-0.5, 0.2, 0.1)])
    def test_collinear_centres_closed_form(self, c):
        # equal spheres on a segment: their hull is a capsule, so the slack
        # is R - r_t - dist(centre, segment); all triple planes are parallel
        gens = [(x, 0.0, 0.0, 0.5) for x in (0.0, 1.0, 2.0)]
        target = (*c, 0.1)
        x = min(max(c[0], 0.0), 2.0)
        dist = math.hypot(c[0] - x, math.hypot(c[1], c[2]))
        res = sphere_in_hull3(target, gens)
        assert res.slack == pytest.approx(0.5 - 0.1 - dist, abs=1e-12)
        assert_matches_probe(target, gens, res.slack)

    def test_collinear_centres_unequal_radii(self):
        target = (0.8, 0.7, -0.2, 0.3)
        gens = [
            (0.0, 0.0, 0.0, 0.2),
            (1.0, 1.0, 1.0, 0.6),
            (2.0, 2.0, 2.0, 0.3),
            (1.0, -1.0, 0.0, 0.0),
        ]
        assert_matches_probe(target, gens, sphere_in_hull3(target, gens).slack)

    def test_generator_concentric_with_target(self):
        target = (0.5, 0.5, 0.5, 0.2)
        ball = (0.5, 0.5, 0.5, 0.3)
        # a point at distance 2 leaves the side facing away bounded by the ball
        res = sphere_in_hull3(target, [ball, (2.5, 0.5, 0.5, 0.0)])
        assert res.slack == pytest.approx(0.1, abs=1e-12)
        gens = [ball, (1.5, 0.0, 0.5, 0.4), (0.0, 1.2, 0.0, 0.1)]
        assert_matches_probe(target, gens, sphere_in_hull3(target, gens).slack)

    def test_all_generators_concentric(self):
        target = (1.0, 2.0, 3.0, 0.5)
        gens = [(1.0, 2.0, 3.0, r) for r in (0.2, 0.4, 0.0)]
        res = sphere_in_hull3(target, gens)
        assert res.slack == pytest.approx(-0.1, abs=1e-12)
        assert not res.contained

    def test_points_only(self):
        # target at the centroid of the regular tetrahedron on the unit cube:
        # the slack is the inradius 1/(2 sqrt 3) minus the target radius
        verts = tetrahedron_from_cube(1.0)
        target = (0.5, 0.5, 0.5, 0.1)
        gens = [(*v, 0.0) for v in verts]
        res = sphere_in_hull3(target, gens)
        assert res.slack == pytest.approx(1 / (2 * math.sqrt(3)) - 0.1, abs=1e-12)
        assert_matches_probe(target, gens, res.slack)

    def test_single_point_generator(self):
        target = (0.0, 0.0, 0.0, 0.25)
        res = sphere_in_hull3(target, [(0.0, 3.0, 4.0, 0.0)])
        assert res.slack == pytest.approx(-5.25, abs=1e-12)
        assert res.witness_direction == pytest.approx((0.0, -0.6, -0.8), abs=1e-12)

    def test_single_point_on_point_target(self):
        # every length is zero: the hull is the target itself
        p = (1.0, 1.0, 1.0)
        res = sphere_in_hull3((*p, 0.0), [(*p, 0.0)])
        assert res.contained
        assert res.slack == 0.0

    def test_result_fields_are_python_native(self):
        res = sphere_in_hull3((0.0, 0.0, 0.0, 1.0), [(0.5, 0.0, 0.0, 0.2)])
        assert type(res.contained) is bool
        assert type(res.slack) is float
        assert all(type(c) is float for c in res.witness_direction)


class TestProjection:
    def test_projection_loses_depth(self):
        plane = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
        res = projection_reduction((0, 0, 5, 1.0), [(0, 0, 0, 2.0)], plane)
        assert res.contained  # inconclusive for 3D; the 3D answer is not-contained
        res3 = sphere_in_hull3((0, 0, 5, 1.0), [(0, 0, 0, 2.0)])
        assert not res3.contained

    def test_far_generators_refuted_in_both(self):
        plane = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
        target = (0, 0, 0, 1.0)
        gens = [(10, 0, 0, 1.0)]
        assert not projection_reduction(target, gens, plane).contained
        assert not sphere_in_hull3(target, gens).contained

    def test_degenerate_basis(self):
        with pytest.raises(DegenerateBasis):
            plane = ((0, 0, 0), (1, 0, 0), (2, 0, 0))
            projection_reduction((0, 0, 0, 1.0), [(1, 0, 0, 1.0)], plane)
        with pytest.raises(DegenerateBasis):
            plane_through((0, 0, 0), (1, 0, 0), (2, 0, 0))

    @pytest.mark.parametrize("e1, e2, message", [
        ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), "e1 is not a unit vector"),
        ((1.0, 0.0, 0.0), (0.0, 0.5, 0.0), "e2 is not a unit vector"),
        ((1.0, 0.0, 0.0), (0.6, 0.8, 0.0), "basis vectors are not orthogonal"),
    ])
    def test_plane_basis_is_checked(self, e1, e2, message):
        with pytest.raises(DegenerateBasis, match=message):
            projection_reduction((0, 0, 0, 1.0), [(1, 0, 0, 1.0)], ((0, 0, 0), e1, e2))

    @pytest.mark.parametrize("side", [1e-13, 1e-100, 1e100])
    def test_plane_through_takes_scaled_copies(self, side):
        # the degeneracy tests are relative, so every scale gets the unit section's basis
        def basis(s):
            verts = tetrahedron_from_cube(s)
            b, *_ = axis_points(*verts)
            _, e1, e2 = plane_through(b, verts[2], verts[3])
            return [e1, e2]

        for got, want in zip(basis(side), basis(1.0)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_both_tetrahedron_ends_collapse_to_b(self):
        verts = tetrahedron_from_cube(1.0)
        b, *_ = axis_points(*verts)
        plane = plane_through(b, verts[2], verts[3])
        pa0 = project_to_plane(verts[0], plane)
        pa1 = project_to_plane(verts[1], plane)
        assert math.dist(pa0, pa1) < 1e-12
        assert math.dist(pa0, project_to_plane(b, plane)) < 1e-12


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

    def test_each_inclusion_leaves_out_its_target_and_vertex_j(self):
        # k = 0 keeps S_0 as generator, so S_-1 is the target; k = -1 the reverse
        rep = example_4_1(1.0, 0.1)
        s_m1, s_0 = rep.spheres
        for o in rep.outcomes:
            target, gens = _inclusion_objects(rep.objects, o.inclusion)
            kept, other = (s_0, s_m1) if o.k == 0 else (s_m1, s_0)
            assert target == other
            assert gens == [kept, *((*a, 0.0) for i, a in enumerate(rep.vertices) if i != o.j)]

    def test_projection_certificates_for_j3(self):
        rep = example_4_1(1.0, 0.1)
        for o in rep.outcomes:
            if o.j == 3:
                cert = o.projection_certificate
                assert cert is not None
                assert not cert.contained
                assert -cert.slack > 1e-6  # strictly positive 2D gap
            else:
                assert o.projection_certificate is None

    def test_projection_soundness_bound(self):
        # in-plane slack can never beat the full 3D minimum
        rep = example_4_1(1.0, 0.1)
        for o in rep.outcomes:
            cert = o.projection_certificate
            if cert is not None:
                assert o.result.slack <= cert.slack + 1e-6

    def test_projected_witness_certifies_2d(self):
        # the 3D witness lies in the symmetry plane, so its in-plane part
        # realizes a 2D violation at least as deep as the 3D slack
        verts = tetrahedron_from_cube(1.0)
        b, _, p_m1, p_0 = axis_points(*verts)
        plane = plane_through(b, verts[2], verts[3])
        origin, e1, e2 = plane
        target = (*p_m1, 0.1)
        gens = [(*p_0, 0.1)] + [(*verts[i], 0.0) for i in range(3)]
        res = sphere_in_hull3(target, gens)
        u = res.witness_direction
        in_plane = math.hypot(_dot3(u, e1), _dot3(u, e2))
        assert in_plane > 1e-9
        c, s = _dot3(u, e1) / in_plane, _dot3(u, e2) / in_plane
        t2 = project_to_plane(target[:3], plane)
        val = max(
            (project_to_plane(g[:3], plane)[0] - t2[0]) * c
            + (project_to_plane(g[:3], plane)[1] - t2[1]) * s
            + g[3]
            for g in gens
        ) - target[3]
        assert val <= res.slack + 1e-6

    def test_slack_not_above_level6_probe(self):
        # the enumerated minimum is at or below every one of 40,962 directions
        rep = example_4_1(1.0, 0.1)
        for o in rep.outcomes:
            target, gens = _inclusion_objects(rep.objects, o.inclusion)
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

    @pytest.mark.parametrize("side", [1e-6, 1e-3, 1.0, 1e3])
    def test_scaled_copies_are_refuted_with_scaled_slacks(self, side):
        # the interiority margin is EPS_DECISION * side, so no scale is refused
        unit = example_4_1(1.0, 0.1)
        rep = example_4_1(side, 0.1 * side)
        assert rep.all_refuted
        for a, b in zip(unit.outcomes, rep.outcomes):
            assert (b.j, b.k) == (a.j, a.k)
            assert b.result.slack == pytest.approx(side * a.result.slack, rel=1e-12)

    def test_symmetry_j3_equals_j2(self):
        # exchanging the two far vertices maps one case onto the other
        rep = example_4_1(1.0, 0.1)
        by_pair = {(o.j, o.k): o.result.slack for o in rep.outcomes}
        assert by_pair[(3, 0)] == pytest.approx(by_pair[(2, 0)], abs=1e-9)
        assert by_pair[(3, -1)] == pytest.approx(by_pair[(2, -1)], abs=1e-9)


@pytest.mark.parametrize("build", [
    example_4_1,
    lambda side, r: example_4_2(3, side=side, r=r),
], ids=["4.1", "4.2"])
@pytest.mark.parametrize("side, r, name", [
    (1.0, -0.1, "r"),
    (1.0, 0.0, "r"),
    (1.0, math.nan, "r"),
    (1.0, math.inf, "r"),
    (-1.0, 0.1, "side"),
    (0.0, 0.1, "side"),
    (math.nan, 0.1, "side"),
    (math.inf, 0.1, "side"),
])
def test_examples_refuse_a_side_or_radius_that_is_not_finite_and_positive(build, side, r, name):
    # refused up front as the argument it is, not as a construction failure
    value = side if name == "side" else r
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {value}$"):
        build(side, r)


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
            radii = [s[3] for s in rep.spheres]
            assert min(radii[2:] or [radii[0]]) >= radii[0] - 1e-12
            # pairwise non-nested
            for i in range(len(rep.spheres)):
                for j in range(i + 1, len(rep.spheres)):
                    a, b = rep.spheres[i], rep.spheres[j]
                    d = math.dist(a[:3], b[:3])
                    assert d + min(a[3], b[3]) > max(a[3], b[3])

    def test_limit_radii_equalize(self):
        rep = example_4_2(3, arc_radius_factor=1000.0)
        radii = [s[3] for s in rep.spheres]
        assert (max(radii) - min(radii)) / min(radii) < 0.01

    def test_t_must_be_at_least_3(self):
        with pytest.raises(ValueError):
            example_4_2(2)

    @pytest.mark.parametrize("factor", [0.0, -10.0, math.nan, math.inf])
    def test_arc_radius_factor_must_be_finite_and_positive(self, factor):
        # refused up front, as side and r are, not as a construction failure
        message = f"^arc_radius_factor must be finite and > 0, got {factor}$"
        with pytest.raises(ValueError, match=message):
            example_4_2(3, factor)

    def test_oversized_radius_shrinks_to_fit(self):
        # requested end radius cannot fit; construction shrinks all radii,
        # keeping the guide-arc tangency and the interiority margin
        rep = example_4_2(3, r=1.0)
        assert rep.all_refuted
        assert all(s[3] < 1.0 for s in rep.spheres)
        assert max(rep.tangency_residuals) <= 1e-9
        assert min(rep.interior_margins) >= 1e-6 - 1e-12

    def test_margin_scales_with_side(self):
        # at side 1e-6 the default radius 0.1 shrinks to fit, as r = 1.0 does
        # at side 1, keeping the margin EPS_DECISION * side
        rep = example_4_2(3, side=1e-6)
        assert rep.all_refuted
        assert all(s[3] < 0.1 for s in rep.spheres)
        assert min(rep.interior_margins) >= 1e-12 - 1e-18
