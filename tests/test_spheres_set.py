"""Set-level 3D kernel: equivalence with the per-inclusion reference, and large t."""

import functools
import random

import numpy as np
import pytest

from carousel import example_4_1, example_4_2, sphere_in_hull3, spheres_in_hull3
from carousel.spheres import _inclusion_objects
from reference3d import reference

# rounding bound on the slack, as a multiple of the inclusion's largest length
ULP_BOUND = 1e-15


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
    objects = [(*_point(rng, 2.0), rng.choice([0.0, rng.uniform(0.0, 1.0)])) for _ in range(n)]
    if kind == 1:  # exact duplicates, and a duplicate centre with another radius
        objects[1] = objects[0]
        objects[2] = (*objects[0][:3], objects[0][3] + 0.3)
    elif kind == 2:  # concentric groups
        for q in range(1, n, 2):
            objects[q] = (*objects[0][:3], rng.uniform(0.0, 1.0))
    elif kind == 3:  # centres on one line, one object maybe off it
        a, v = _point(rng, 1.0), _point(rng, 1.0)
        on_line = n if rng.random() < 0.5 else n - 1
        for q in range(on_line):
            objects[q] = (*_scaled(v, rng.uniform(-2.0, 2.0), a), objects[q][3])
    elif kind == 4:  # points only
        objects = [(*o[:3], 0.0) for o in objects]
    elif kind == 5:  # a similarity copy far from the origin, at another scale
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        off = _point(rng, 1e3)
        objects = [(*_scaled(o[:3], s, off), o[3] * s) for o in objects]
    inclusions = []
    for _ in range(rng.randint(1, 6)):
        target = rng.randrange(n)
        others = [q for q in range(n) if q != target]
        inclusions.append((target, tuple(rng.sample(others, rng.randint(0, min(2, n - 2))))))
    return objects, inclusions


class TestSetEntryPoint:
    def test_no_inclusions(self):
        assert spheres_in_hull3([(0, 0, 0, 1.0)], []) == ()
        assert spheres_in_hull3(np.zeros((0, 4)), []) == ()

    def test_every_object_removed_is_an_error(self):
        objects = [(0, 0, 0, 1.0), (1, 0, 0, 0.0)]
        with pytest.raises(ValueError, match="nonempty"):
            spheres_in_hull3(objects, [(0, (1,))])
        with pytest.raises(ValueError):
            sphere_in_hull3(objects[0], [])

    @pytest.mark.parametrize("objects", [
        [(0, 0, 0, 1.0), (1, np.nan, 0, 0.0)],
        [(0, 0, 0, 1.0), (1, 0, -np.inf, 0.0)],
        [(0, 0, 0, 1.0), (1, 0, 0, np.inf)],
        [(0, 0, 0, np.nan), (1, 0, 0, 0.0)],
        [(0, 0, 0, 1.0), (1, 0, 0, -1e-300)],
    ], ids=["nan-centre", "inf-centre", "inf-radius", "nan-radius", "negative-radius"])
    def test_rejects_objects_that_are_not_finite_or_have_negative_radii(self, objects):
        # checked before the inclusions are read
        for inclusions in ([(0, ())], []):
            with pytest.raises(ValueError, match="must be finite"):
                spheres_in_hull3(objects, inclusions)

    def test_integer_rows_are_read_as_floats(self):
        ints = spheres_in_hull3([[1, 2, 3, 1], [1, 2, 4, 0], [5, 2, 3, 2]], [(0, ()), (1, (2,))])
        floats = spheres_in_hull3(
            [(1.0, 2.0, 3.0, 1.0), (1.0, 2.0, 4.0, 0.0), (5.0, 2.0, 3.0, 2.0)], [(0, ()), (1, (2,))]
        )
        assert ints == floats
        for res in ints:
            assert type(res.slack) is float
            assert all(type(u) is float for u in res.witness_direction or ())

    @pytest.mark.parametrize("objects", [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],  # 12 numbers: 3 rows of 4 if recut
        [0, 0, 0, 1.0, 1, 0, 0, 0.0],  # one flat list of two rows
        [(0, 0, 0, 1.0, 0), (1, 0, 0, 0.0, 0)],  # (n, 5)
        [[(0, 0, 0, 1.0)], [(1, 0, 0, 0.0)]],  # (n, 1, 4)
        [(0, 0, 0, 1.0), (1, 0, 0)],  # ragged
    ], ids=["triples", "flat", "n-by-5", "n-by-1-by-4", "ragged"])
    def test_rejects_objects_that_are_not_n_by_4(self, objects):
        for inclusions in ([(0, ())], []):
            with pytest.raises(ValueError):
                spheres_in_hull3(objects, inclusions)

    @pytest.mark.parametrize("inclusion", [
        (-1, ()), (4, (-5,)), (4, ()), (0, (4,)), (1.0, ()), (0, (1.5,)), (True, ()), ("0", ()),
    ], ids=["negative-target", "negative-excluded", "target-past-end", "excluded-past-end",
            "float-target", "float-excluded", "bool-target", "str-target"])
    def test_rejects_an_index_outside_the_objects(self, inclusion):
        objects = [(0, 0, 0, 1.0), (1, 0, 0, 0.0), (0, 1, 0, 0.0), (0, 0, 1, 0.0)]
        with pytest.raises(ValueError, match=r"^inclusion .*: indices must be in 0\.\.3$"):
            spheres_in_hull3(objects, [(0, ()), inclusion])

    def test_numpy_integer_indices_are_indices(self):
        objects = [(0, 0, 0, 0.1), (0, 0, 0, 1.0), (1, 0, 0, 0.0), (-1, 0, 0, 0.0)]
        got = spheres_in_hull3(objects, [(np.int64(0), (np.intp(1),))])
        assert got == spheres_in_hull3(objects, [(0, (1,))])

    def test_removed_object_is_not_a_generator(self):
        # the big ball holds the target; without it two points cannot
        target = (0, 0, 0, 0.1)
        ball = (0, 0, 0, 1.0)
        points = [(1, 0, 0, 0.0), (-1, 0, 0, 0.0)]
        with_ball, without = spheres_in_hull3([target, ball, *points], [(0, ()), (0, (1,))])
        assert with_ball.contained and with_ball.slack == pytest.approx(0.9)
        assert not without.contained and without.slack == pytest.approx(-0.1)

    def test_mixed_exclusion_counts_keep_inclusion_order(self):
        rng = random.Random(7)
        objects = [(*_point(rng, 2.0), rng.uniform(0.0, 1.0)) for _ in range(6)]
        inclusions = [(0, ()), (1, (0, 2)), (2, (0,)), (0, (1,)), (5, ()), (3, (4, 5, 0))]
        results = spheres_in_hull3(objects, inclusions)
        assert_set_matches_reference(objects, inclusions, results)

    def test_slack_scales_linearly_from_1e_minus_6_to_1e6(self):
        for seed in range(20):
            objects, inclusions = random_set(seed)
            base = spheres_in_hull3(objects, inclusions)
            for e in range(-6, 7):
                s = 10.0**e
                scaled = spheres_in_hull3([tuple(x * s for x in o) for o in objects], inclusions)
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
                target, gens = _inclusion_objects(rep.objects, o.inclusion)
                assert_matches_reference(target, gens, o.result)

    @pytest.mark.parametrize("factor", [5.0, 20.0, 50.0])
    def test_example_4_2_t3_to_32(self, factor):
        for t in range(3, 33):
            rep = example_4_2(t, factor)
            for o in rep.outcomes:
                pos = rep.sphere_indices.index(o.k)
                gens = [s for q, s in enumerate(rep.spheres) if q != pos] + [
                    (*rep.vertices[i], 0.0) for i in range(4) if i != o.j
                ]
                assert_matches_reference(rep.spheres[pos], gens, o.result)
                assert _inclusion_objects(rep.objects, o.inclusion) == (rep.spheres[pos], gens)

    def test_random_sets(self):
        for seed in range(300):
            objects, inclusions = random_set(seed)
            assert_set_matches_reference(objects, inclusions, spheres_in_hull3(objects, inclusions))


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
