"""Set-level 3D kernel: equivalence with the per-inclusion reference, and large t."""

import functools
import random

import numpy as np
import pytest

from carousel import Sphere3, example_4_1, example_4_2, sphere_in_hull3
from carousel.spheres import _ex41_target_gens, spheres_in_hull3

from reference3d import reference

# rounding bound on the slack, as a multiple of the inclusion's largest length
ULP_BOUND = 1e-15


def kernel(objects, inclusions):
    """``spheres_in_hull3`` on the centres and radii of Sphere3 objects."""
    return spheres_in_hull3([o.center for o in objects], [o.radius for o in objects], inclusions)


def assert_matches_reference(target, gens, res):
    """Same verdict and slack as the reference; the witness is one of its
    candidate directions and attains its slack there."""
    ref = reference(target, gens)
    assert res.contained == ref.contained
    assert abs(res.slack - ref.slack) <= ULP_BOUND * ref.scale
    if not ref.contained:
        u = np.array(res.witness_direction)
        assert np.abs(ref.candidates - u).max(axis=1).min() <= 1e-12
        assert abs(ref.slack_at(u) - ref.slack) <= ULP_BOUND * ref.scale


def assert_set_matches_reference(objects, inclusions, results):
    assert len(results) == len(inclusions)
    for (target, excluded), res in zip(inclusions, results):
        removed = {target, *excluded}
        gens = [o for q, o in enumerate(objects) if q not in removed]
        assert_matches_reference(objects[target], gens, res)


def _point(rng, spread):
    return tuple(rng.uniform(-spread, spread) for _ in range(3))


def _scaled(p, s, off):
    return tuple(x * s + o for x, o in zip(p, off))


def random_set(seed: int):
    """Seeded objects and inclusions; seed % 6 picks general, duplicate, concentric,
    collinear, points-only or far-and-rescaled objects."""
    rng = random.Random(seed)
    kind = seed % 6
    n = rng.randint(3, 9)
    objects = [Sphere3(_point(rng, 2.0), rng.choice([0.0, rng.uniform(0.0, 1.0)])) for _ in range(n)]
    if kind == 1:  # exact duplicates, and a duplicate centre with another radius
        objects[1] = objects[0]
        objects[2] = Sphere3(objects[0].center, objects[0].radius + 0.3)
    elif kind == 2:  # concentric groups
        for q in range(1, n, 2):
            objects[q] = Sphere3(objects[0].center, rng.uniform(0.0, 1.0))
    elif kind == 3:  # centres on one line, one object maybe off it
        a, v = _point(rng, 1.0), _point(rng, 1.0)
        on_line = n if rng.random() < 0.5 else n - 1
        for q in range(on_line):
            objects[q] = Sphere3(_scaled(v, rng.uniform(-2.0, 2.0), a), objects[q].radius)
    elif kind == 4:  # points only
        objects = [Sphere3(o.center, 0.0) for o in objects]
    elif kind == 5:  # a similarity copy far from the origin, at another scale
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        off = _point(rng, 1e3)
        objects = [Sphere3(_scaled(o.center, s, off), o.radius * s) for o in objects]
    inclusions = []
    for _ in range(rng.randint(1, 6)):
        target = rng.randrange(n)
        others = [q for q in range(n) if q != target]
        inclusions.append((target, tuple(rng.sample(others, rng.randint(0, min(2, n - 2))))))
    return objects, inclusions


class TestSetEntryPoint:
    def test_no_inclusions(self):
        assert spheres_in_hull3([(0, 0, 0)], [1.0], []) == ()
        assert spheres_in_hull3(np.zeros((0, 3)), np.zeros(0), []) == ()

    def test_every_object_removed_is_an_error(self):
        objects = [Sphere3((0, 0, 0), 1.0), Sphere3((1, 0, 0), 0.0)]
        with pytest.raises(ValueError, match="nonempty"):
            kernel(objects, [(0, (1,))])
        with pytest.raises(ValueError):
            sphere_in_hull3(objects[0], [])

    @pytest.mark.parametrize("centers, radii", [
        ([(0, 0, 0), (1, np.nan, 0)], [1.0, 0.0]),
        ([(0, 0, 0), (1, 0, -np.inf)], [1.0, 0.0]),
        ([(0, 0, 0), (1, 0, 0)], [1.0, np.inf]),
        ([(0, 0, 0), (1, 0, 0)], [np.nan, 0.0]),
        ([(0, 0, 0), (1, 0, 0)], [1.0, -1e-300]),
    ], ids=["nan-centre", "inf-centre", "inf-radius", "nan-radius", "negative-radius"])
    def test_rejects_what_sphere3_rejects(self, centers, radii):
        # checked before the inclusions are read, as a Sphere3 is checked when built
        for inclusions in ([(0, ())], []):
            with pytest.raises(ValueError, match="must be finite"):
                spheres_in_hull3(centers, radii, inclusions)

    def test_rejects_a_radius_count_that_is_not_the_centre_count(self):
        with pytest.raises(ValueError, match="radii"):
            spheres_in_hull3([(0, 0, 0), (1, 0, 0)], [1.0], [(0, ())])

    def test_removed_object_is_not_a_generator(self):
        # the big ball holds the target; without it two points cannot
        target = Sphere3((0, 0, 0), 0.1)
        ball = Sphere3((0, 0, 0), 1.0)
        points = [Sphere3((1, 0, 0), 0.0), Sphere3((-1, 0, 0), 0.0)]
        with_ball, without = kernel([target, ball, *points], [(0, ()), (0, (1,))])
        assert with_ball.contained and with_ball.slack == pytest.approx(0.9)
        assert not without.contained and without.slack == pytest.approx(-0.1)

    def test_mixed_exclusion_counts_keep_inclusion_order(self):
        rng = random.Random(7)
        objects = [Sphere3(_point(rng, 2.0), rng.uniform(0.0, 1.0)) for _ in range(6)]
        inclusions = [(0, ()), (1, (0, 2)), (2, (0,)), (0, (1,)), (5, ()), (3, (4, 5, 0))]
        results = kernel(objects, inclusions)
        assert_set_matches_reference(objects, inclusions, results)

    def test_slack_scales_linearly_from_1e_minus_6_to_1e6(self):
        for seed in range(20):
            objects, inclusions = random_set(seed)
            base = kernel(objects, inclusions)
            for e in range(-6, 7):
                s = 10.0**e
                scaled = kernel(
                    [Sphere3(tuple(x * s for x in o.center), o.radius * s) for o in objects],
                    inclusions,
                )
                for a, b in zip(base, scaled):
                    assert b.contained == a.contained
                    assert b.slack == pytest.approx(s * a.slack, rel=1e-9, abs=1e-12 * s)


class TestReferenceEquivalence:
    """The set-level kernel against the per-inclusion enumeration it replaced."""

    def test_example_4_1_grid(self):
        rng = random.Random(41)
        for _ in range(40):
            side = rng.uniform(0.5, 2.0)
            r = side * rng.uniform(0.03, 0.15)
            rep = example_4_1(side, r)
            for o in rep.outcomes:
                centers = [s.center for s in rep.spheres]
                target, gens = _ex41_target_gens(centers, rep.r, rep.vertices, o.j, o.k)
                assert_matches_reference(Sphere3(*target), [Sphere3(*g) for g in gens], o.result)

    @pytest.mark.parametrize("factor", [5.0, 20.0, 50.0])
    def test_example_4_2_t3_to_32(self, factor):
        for t in range(3, 33):
            rep = example_4_2(t, factor)
            for o in rep.outcomes:
                pos = rep.sphere_indices.index(o.k)
                gens = [s for q, s in enumerate(rep.spheres) if q != pos] + [
                    Sphere3(rep.vertices[i], 0.0) for i in range(4) if i != o.j
                ]
                assert_matches_reference(rep.spheres[pos], gens, o.result)

    def test_random_sets(self):
        for seed in range(300):
            objects, inclusions = random_set(seed)
            assert_set_matches_reference(objects, inclusions, kernel(objects, inclusions))


@functools.lru_cache(maxsize=4)
def _example_4_2(t: int):
    return example_4_2(t)


class TestLargeT:
    @pytest.mark.parametrize("t", [32, 48, 64])
    def test_refuted(self, t):
        rep = _example_4_2(t)
        assert len(rep.outcomes) == 4 * t
        assert all(o.result.slack < 0 for o in rep.outcomes)
        assert rep.all_refuted

    def test_t80_every_exact_slack_negative(self):
        assert all(o.result.slack < 0 for o in _example_4_2(80).outcomes)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: the absolute 1e-6 band counts 232 of 320 slacks in "
        "[-1e-6, 0) as contained",
    )
    def test_t80_all_refuted(self):
        assert _example_4_2(80).all_refuted
