"""Carousel procedure tests: witness search, point decomposition, xi sweeps."""

import math
import random

import pytest
import reference_sweep
from lemmas import Point2

from carousel import (
    CoincidentPoints,
    GenerationExhausted,
    InvalidInstance,
    NotInterior,
    Tangency,
    circle_in_hull,
    corollary_witness_search,
    random_instance,
    scaled_instance,
    sweep_slack,
    two_carousel_points,
    witness_search,
    xi_sweep_fixed,
)
from carousel import hull, witness
from carousel.oracle import sampling_oracle_contains
from carousel.witness import (
    JK_PAIRS,
    pair_objects,
    random_corollary_instance,
    random_points_instance,
)

# instances are rows of (x, y, r) objects: sites b0, b1, b2 (radius 0), then u0, u1
SITES_466 = ((0, 0, 0), (6, 0, 0), (0, 6, 0))
SITES_8 = ((0, 0, 0), (8, 0, 0), (0, 8, 0))
SITES_4 = ((0, 0, 0), (4, 0, 0), (0, 4, 0))


def _events(inst, j, k):
    """The sweep's tangency events of an instance's (j, k) inclusion."""
    return witness._sweep_events(*pair_objects(inst, j, k))


def reverify(inst, w) -> bool:
    return circle_in_hull(*pair_objects(inst, w.j, w.k)).contained


class TestScaledInstance:
    inst = (*SITES_466, (2, 2, 1), (3, 1, 0.5))

    def test_identity(self):
        assert scaled_instance(self.inst, 1.0) == self.inst

    def test_zero_gives_center_points(self):
        s = scaled_instance(self.inst, 0.0)
        assert s[3] == (2, 2, 0.0)
        assert s[4] == (3, 1, 0.0)

    def test_half(self):
        s = scaled_instance((*SITES_466, (2, 2, 1), (2, 2, 1)), 0.5)
        assert s[3] == (2, 2, 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            scaled_instance(self.inst, 1.5)


class TestWitnessSearch:
    def test_equal_circles_give_all_six(self):
        inst = (*SITES_466, (2, 2, 0.5), (2, 2, 0.5))
        ws = witness_search(inst)
        assert sorted((w.j, w.k) for w in ws) == sorted(JK_PAIRS)

    def test_concentric_smaller_gives_k0_for_every_j(self):
        inst = (*SITES_466, (2, 2, 1), (2, 2, 0.5))
        got = {(w.j, w.k) for w in witness_search(inst)}
        assert {(0, 0), (1, 0), (2, 0)} <= got

    def test_point_circles(self):
        inst = (*SITES_4, (1, 1, 0), (2, 1, 0))
        got = {(w.j, w.k) for w in witness_search(inst)}
        assert (0, 0) in got

    def test_sorted_by_slack(self):
        inst = (*SITES_466, (2, 2, 1), (2, 2, 0.5))
        ws = witness_search(inst)
        assert all(a.slack >= b.slack for a, b in zip(ws, ws[1:]))

    def test_invalid_instance_rejected(self):
        # circle pokes out of the site triangle
        inst = (*SITES_466, (3, 3, 1), (2, 2, 0.5))
        with pytest.raises(InvalidInstance):
            witness_search(inst)

    def test_collinear_sites_need_point_circles(self):
        sites = ((0, 0, 0), (2, 0, 0), (5, 0, 0))
        with pytest.raises(InvalidInstance):
            witness_search((*sites, (1, 0, 0.1), (3, 0, 0)))
        ws = witness_search((*sites, (1, 0, 0), (3, 0, 0)))
        assert ws

    def test_every_witness_reverifies(self):
        rng = random.Random(41)
        for _ in range(50):
            inst = random_instance(rng.randrange(2**32))
            for w in witness_search(inst):
                assert reverify(inst, w)


class TestCorollary:
    def test_point_generators_reduce_to_theorem(self):
        sites = SITES_466
        u0, u1 = (2, 2, 1), (2.5, 1.5, 0.4)
        inst = (*sites, u0, u1)
        a = {(w.j, w.k) for w in witness_search(inst)}
        b = {(w.j, w.k) for w in corollary_witness_search(inst)}
        assert a == b

    def test_equal_circles_give_all_six(self):
        cs = ((0, 0, 1), (8, 0, 1), (0, 8, 1))
        u = (2, 2, 0.5)
        ws = corollary_witness_search((*cs, u, u))
        assert sorted((w.j, w.k) for w in ws) == sorted(JK_PAIRS)

    def test_worked_circle_example_cross_checked_by_oracle(self):
        cs = ((0, 0, 1), (8, 0, 1), (0, 8, 1))
        us = ((2, 2, 0.5), (3, 2, 0.5))
        ws = corollary_witness_search((*cs, *us))
        assert ws
        expected = set()
        for j, k in JK_PAIRS:
            gens = (us[k],) + tuple(c for i, c in enumerate(cs) if i != j)
            if sampling_oracle_contains(us[1 - k], gens):
                expected.add((j, k))
        assert {(w.j, w.k) for w in ws} == expected

    def test_hypothesis_checked(self):
        cs = ((0, 0, 1), (8, 0, 1), (0, 8, 1))
        with pytest.raises(InvalidInstance):
            corollary_witness_search((*cs, (7, 7, 0.5), (2, 2, 0.5)))


class TestTwoCarouselPoints:
    @staticmethod
    def run(b0, b1):
        return two_carousel_points((*SITES_4, (*b0, 0), (*b1, 0)))

    def test_subtriangle_case(self):
        w, holds = self.run((1, 1), (2, 1))
        assert (w.j, w.k) == (0, 0)
        assert w.slack > 0 and holds

    def test_subtriangle_case_along_extension(self):
        # on the far side of b0 from A0: falls in the sub-triangle missing A0
        w, _ = self.run((1, 1), (1.9, 1.9))
        assert (w.j, w.k) == (0, 0)

    def test_collinear_with_vertex(self):
        w, _ = self.run((1, 1), (0.5, 0.5))
        assert (w.j, w.k) == (0, 1)

    def test_boundary_point_rejected(self):
        # (2,2) lies on the hypotenuse, so it is not strictly interior
        with pytest.raises(NotInterior):
            self.run((1, 1), (2, 2))

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            self.run((1, 1), (1, 1))

    def test_exterior_rejected(self):
        with pytest.raises(NotInterior):
            self.run((5, 5), (1, 1))

    def test_fuzz_reverifies(self):
        for seed in range(500):
            row = random_points_instance(seed)
            w, _ = two_carousel_points(row)
            kept = tuple(s for i, s in enumerate(row[:3]) if i != w.j)
            assert circle_in_hull(row[4 - w.k], (row[3 + w.k],) + kept).contained

    def test_radius_must_be_0(self):
        with pytest.raises(InvalidInstance, match="radius 0"):
            two_carousel_points((*SITES_4, (1, 1, 0), (2, 1, 0.1)))
        with pytest.raises(InvalidInstance, match="radius 0"):
            two_carousel_points(((0, 0, 1), *SITES_4[1:], (1, 1, 0), (2, 1, 0)))


class TestXiSweep:
    def test_concentric_never_binds(self):
        inst = (*SITES_466, (2, 2, 1), (2, 2, 0.5))
        for j in range(3):
            rep = xi_sweep_fixed(inst, j, 0)
            assert rep.xi_star == 1.0
            assert rep.tangency is Tangency.NONE_AT_ONE

    def test_crossing_instance(self):
        # inclusion holds for small scales, fails at full scale; the second
        # instance keeps u_k at radius 0, so its legs run through its centre
        for own in ((2, 2, 0.4), (2, 2, 0.0)):
            inst = (*SITES_8, own, (2.5, 2.5, 1.2))
            rep = xi_sweep_fixed(inst, 0, 0)
            assert 0.0 < rep.xi_star < 1.0
            assert abs(rep.slack_at_xi_star) < 1e-6
            assert rep.tangency in (Tangency.LEG, Tangency.FRONT_ARC)
            # fine grid scan oracle: last good scale before the first failure
            zs = [i / 10_000 for i in range(10_001)]
            first_bad = next(z for z in zs if sweep_slack(inst, 0, 0, z) < 0.0)
            assert abs(rep.xi_star - (first_bad - 1e-4)) <= 2e-4

    def test_leg_not_base_side_regression(self):
        # a nearest-piece classifier called this base_side, yet the target
        # stays well clear of the base line A0A2 at xi_star
        sites = (
            (6.305934132773345, 3.525545954878842, 0.0),
            (2.597177973958525, -6.826373526571974, 0.0),
            (6.968564034641648, -0.8042745045463224, 0.0),
        )
        u0 = (5.668003783748008, -0.8547170236518535, 0.6637857999305479)
        u1 = (5.9689922943097375, 1.0313558399652858, 0.40904997942265436)
        rep = xi_sweep_fixed((*sites, u0, u1), 1, 0)
        assert rep.tangency is Tangency.LEG
        assert rep.xi_star == pytest.approx(0.81631924, abs=1e-8)
        assert abs(rep.slack_at_xi_star) < 1e-9
        (ax, ay, _), (bx, by, _) = sites[0], sites[2]
        line_dist = abs((bx - ax) * (u1[1] - ay) - (by - ay) * (u1[0] - ax)) / math.dist(
            (ax, ay), (bx, by)
        )
        assert line_dist - rep.xi_star * u1[2] > 0.3

    def test_base_side_inside_hypothesis_band(self):
        # u1 pokes 1e-7 out of the base line A0A1, which the hypothesis check
        # still accepts, so the base-side event falls just below zeta = 1
        inst = (*SITES_8, (2, 3, 0.5), (4, 1, 1 + 1e-7))
        assert sweep_slack(inst, 2, 0, 1.0) < 0.0
        rep = xi_sweep_fixed(inst, 2, 0)
        assert rep.xi_star == pytest.approx(1 / (1 + 1e-7), abs=1e-12)
        assert rep.tangency is Tangency.BASE_SIDE

    def test_leg_wins_tie_with_base_side(self):
        # u1 sits in the 30-degree corner at A1 between the base line and the
        # leg to u0, tangent to both at the same scale z0: the tie goes to the leg
        z0, half = 1 - 1e-7, math.radians(15)
        a1 = Point2(8, 0)
        corner = a1 + (0.4 / math.sin(half)) * Point2(-math.cos(half), math.sin(half))
        leg_point = a1 + 5 * Point2(-math.cos(2 * half), math.sin(2 * half))
        own = leg_point + z0 * Point2(-math.sin(2 * half), -math.cos(2 * half))
        inst = (*SITES_8, (*own, 1.0), (*corner, 0.4 / z0))
        assert [family for _, family in _events(inst, 2, 0)] == [Tangency.LEG]
        rep = xi_sweep_fixed(inst, 2, 0)
        assert rep.xi_star == pytest.approx(z0, abs=1e-12)
        assert rep.tangency is Tangency.LEG

    def test_point_target_fails_from_zero(self):
        # a point target only gains room as u_k grows: here it is outside the
        # triangle u_k, A0, A1 at zeta = 0 and enters u_k at the front-arc event
        inst = (*SITES_8, (2, 2, 1.5), (2, 3.2, 0.0))
        assert (pytest.approx(0.8), Tangency.FRONT_ARC) in _events(inst, 2, 0)
        assert sweep_slack(inst, 2, 0, 0.8) == pytest.approx(0.0, abs=1e-12)
        rep = xi_sweep_fixed(inst, 2, 0)
        assert (rep.xi_star, rep.tangency) == (0.0, Tangency.LEG)
        assert rep.slack_at_xi_star == pytest.approx(-1.2)

    def test_leg_event_at_zero(self):
        # the target's centre lies on the leg from u_k's centre to A1 and the
        # target outgrows the leg, so the inclusion fails for every zeta > 0
        inst = (*SITES_8, (2, 2, 1.0), (5, 1, 0.8))
        assert sweep_slack(inst, 2, 0, 1e-6) < 0.0
        rep = xi_sweep_fixed(inst, 2, 0)
        assert rep.xi_star == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.slack_at_xi_star) < 1e-12
        assert rep.tangency is Tangency.LEG

    def test_sweep_consistency_bracket(self):
        inst = (*SITES_8, (2, 2, 0.4), (2.5, 2.5, 1.2))
        tol = 1e-9
        rep = xi_sweep_fixed(inst, 0, 0)
        assert sweep_slack(inst, 0, 0, rep.xi_star - tol) >= -1e-6
        assert sweep_slack(inst, 0, 0, rep.xi_star + tol) < 1e-6

    def test_never_good_pair_reports_zero(self):
        # u1 sits close to A0, so dropping A0 with k=0 never covers it
        inst = (*SITES_8, (5, 2, 0.3), (0.6, 0.6, 0.2))
        assert sweep_slack(inst, 0, 0, 0.0) < 0
        rep = xi_sweep_fixed(inst, 0, 0)
        assert rep.xi_star == 0.0

    def test_point_circles_scale_free(self):
        inst = (*SITES_4, (1, 1, 0), (2, 1, 0))
        rep = xi_sweep_fixed(inst, 0, 0)
        assert rep.xi_star in (0.0, 1.0)
        assert rep.xi_star == 1.0  # (0,0) is a witness for this instance
        bad = xi_sweep_fixed(inst, 1, 0)
        assert bad.xi_star in (0.0, 1.0)

    def test_goodset_downward_closed_on_grid(self):
        rng = random.Random(47)
        for _ in range(25):
            inst = random_instance(rng.randrange(2**32))
            flags = []
            for i in range(33):
                zeta = i / 32
                ok = any(sweep_slack(inst, j, k, zeta) >= 0.0 for j, k in JK_PAIRS)
                flags.append(ok)
            # once the existential witness predicate fails it stays failed upward
            for lo, hi in zip(flags, flags[1:]):
                assert lo or not hi

    def test_invalid_inputs(self):
        inst = (*SITES_466, (2, 2, 1), (2, 2, 0.5))
        with pytest.raises(ValueError):
            xi_sweep_fixed(inst, 3, 0)

    @pytest.mark.parametrize("j, k", [(-1, 0), (3, 0), (5, 1), (0, 2), (1, -1), (2, 1.5)])
    @pytest.mark.parametrize("call", [
        xi_sweep_fixed,
        lambda row, j, k: sweep_slack(row, j, k, 0.5),
        pair_objects,
    ], ids=["xi_sweep_fixed", "sweep_slack", "pair_objects"])
    def test_pair_outside_the_range_is_refused(self, call, j, k):
        # a j outside 0..2 would keep all three sites: another inclusion
        inst = (*SITES_466, (2, 2, 1), (2, 2, 0.5))
        message = rf"^need j in 0\.\.2 and k in 0\.\.1, got \({j}, {k}\)$"
        with pytest.raises(ValueError, match=message):
            call(inst, j, k)

    def test_pair_objects_refuses_a_row_without_5_objects(self):
        with pytest.raises(ValueError, match="a row holds 5 objects, got 4"):
            pair_objects((*SITES_466, (2, 2, 1)), 0, 0)

    def test_sites_must_have_radius_0(self):
        # the sweep's events and probes read the bases as points
        inst = (*SITES_466[:2], (0, 6, 0.5), (2, 2, 1), (2, 2, 0.5))
        for call in (
            lambda: xi_sweep_fixed(inst, 0, 0),
            lambda: sweep_slack(inst, 0, 0, 0.5),
        ):
            with pytest.raises(InvalidInstance, match="sites must have radius 0"):
                call()

    def test_touch_direction_is_the_envelope_minimiser_at_xi_star(self):
        touched = 0
        for inst in _float_sweep_instances():
            for j, k in JK_PAIRS:
                rep = xi_sweep_fixed(inst, j, k)
                assert (rep.touch_direction is None) == (rep.tangency is Tangency.NONE_AT_ONE)
                if rep.touch_direction is None:
                    continue
                (tx, ty, tr), gens = pair_objects(scaled_instance(inst, rep.xi_star), j, k)
                terms = [(x - tx, y - ty, r - tr) for x, y, r in gens]
                slack, theta = hull._envelope_min(terms)
                assert _bits(slack) == _bits(rep.slack_at_xi_star), (inst, j, k)
                assert _bits(theta) == _bits(rep.touch_direction), (inst, j, k)
                touched += 1
        assert touched > 500


def _float_sweep_instances():
    """Random instances, plus equal, concentric and radius-0 circles and a flat triangle."""
    insts = [random_instance(seed) for seed in range(300)]
    insts += [random_points_instance(seed) for seed in range(100)]
    insts += [
        (*SITES_466, (2, 2, 0.5), (2, 2, 0.5)),
        (*SITES_466, (2, 2, 1), (2, 2, 0.5)),
        (*SITES_8, (2, 2, 0.0), (2.5, 2.5, 1.2)),
        (*SITES_8, (2, 2, 1.5), (2, 3.2, 0.0)),
        (*SITES_8, (2, 2, 1.0), (5, 1, 0.8)),
        ((0, 0, 0), (2, 0, 0), (4, 0, 0), (1, 0, 0), (3, 0, 0)),
        # a point target on a site: a zero slack keeps the sign of 0.0 - r_t
        (*SITES_8, (2, 2, 1.0), (0, 0, 0.0)),
        (*SITES_8, (2, 3, 0.5), (4, 1, 1 + 1e-7)),
    ]
    return insts


def _unchecked_instances():
    """Circles anywhere, so that every event family falls inside (0, 1) often."""
    rng = random.Random(9)
    out = []
    for _ in range(300):
        sites = tuple((rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0) for _ in range(3))
        u0, u1 = ((rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 5))
                  for _ in range(2))
        out.append((*sites, u0, u1))
    return out


def _bits(x: float) -> str:
    return x.hex()  # tells -0.0 from 0.0


class TestFloatSweep:
    """The float-level sweep equals its definition on scaled instances, bit for bit."""

    insts = _float_sweep_instances()
    unchecked = _unchecked_instances()

    def test_slack_matches_scaled_instance_definition(self):
        checked = 0
        for inst in self.insts + self.unchecked:
            for j, k in JK_PAIRS:
                events = [z for z, _ in _events(inst, j, k)]
                edges = [0.0, *events, 1.0]
                zetas = edges + [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
                for zeta in zetas:
                    ref = circle_in_hull(*pair_objects(scaled_instance(inst, zeta), j, k)).slack
                    assert _bits(sweep_slack(inst, j, k, zeta)) == _bits(ref), (inst, j, k, zeta)
                    checked += 1
        assert checked > 15_000

    def test_events_match_point2_reference(self):
        for inst in self.insts + self.unchecked:
            for j, k in JK_PAIRS:
                got = _events(inst, j, k)
                ref = reference_sweep.sweep_events(inst, j, k)
                assert [(_bits(z), f) for z, f in got] == [(_bits(z), f) for z, f in ref]

    def test_validate_matches_circle_in_hull(self):
        rng = random.Random(5)
        for inst in self.insts[:300]:
            # move u1 by up to twice the site box, so about half leave the hull
            x, y, r = inst[4]
            u1 = (x + rng.uniform(-20, 20), y + rng.uniform(-20, 20), r)
            bad = (*inst[:4], u1)
            res = circle_in_hull(u1, inst[:3])
            if res.contained:
                xi_sweep_fixed(bad, 0, 0)
            else:
                msg = f"u1 is not inside the site hull (slack {res.slack:.3g})"
                with pytest.raises(InvalidInstance) as exc:
                    xi_sweep_fixed(bad, 0, 0)
                assert str(exc.value) == msg

    @pytest.mark.parametrize("zeta", [-1e-300, -0.5, 1.0000000000000002, 2.0, math.nan])
    def test_zeta_out_of_range_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta must be in"):
            sweep_slack(self.insts[0], 0, 0, zeta)

    def test_envelope_evaluations_per_sweep(self, monkeypatch):
        # 2 hypothesis checks, one probe per interval up to the first that
        # fails (all of them when none does) and the final evaluation, which
        # reads the slack and touch direction; the row is checked once, and
        # no object-level containment query is made
        calls = {"envelope": 0, "checked": 0}
        envelope_min, checked = witness._envelope_min, witness.checked_objects

        def counted_envelope(terms):
            calls["envelope"] += 1
            return envelope_min(terms)

        def counted_checked(*args, **kwargs):
            calls["checked"] += 1
            return checked(*args, **kwargs)

        def forbidden(*args):
            raise AssertionError("the sweep must not build containment queries")

        monkeypatch.setattr(witness, "_envelope_min", counted_envelope)
        monkeypatch.setattr(witness, "checked_objects", counted_checked)
        monkeypatch.setattr(hull, "circle_in_hull", forbidden)
        monkeypatch.setattr(witness, "circle_in_hull", forbidden)
        for inst in self.insts[:100]:
            for j, k in JK_PAIRS:
                edges = [0.0, *(z for z, _ in _events(inst, j, k)), 1.0]
                mids = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
                probes = next(
                    (i + 1 for i, z in enumerate(mids) if sweep_slack(inst, j, k, z) < 0.0),
                    len(mids),
                )
                calls.update(envelope=0, checked=0)
                xi_sweep_fixed(inst, j, k)
                assert calls == {"envelope": 2 + probes + 1, "checked": 1}


class TestZeroRadiusShortcut:
    def test_point_u1_matches_decomposition(self):
        rng = random.Random(48)
        for _ in range(50):
            seed = rng.randrange(2**32)
            base = random_instance(seed)
            inst = (*base[:4], (*base[4][:2], 0.0))
            ws = witness_search(inst)
            assert ws
            # a k = 0 witness always exists when the target is a point
            assert any(w.k == 0 for w in ws)
            points = (*inst[:3], (*inst[3][:2], 0.0), inst[4])
            w, _ = two_carousel_points(points)
            kept = tuple(s for i, s in enumerate(points[:3]) if i != w.j)
            assert circle_in_hull(points[4 - w.k], (points[3 + w.k],) + kept).contained


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(42) == random_instance(42)
        assert random_instance(42) != random_instance(43)

    def test_hypothesis_slack_floor(self):
        for seed in range(50):
            inst = random_instance(seed)
            assert circle_in_hull(inst[3], inst[:3]).slack > 0.01
            assert circle_in_hull(inst[4], inst[:3]).slack > 0.01

    def test_point_circle_config(self, monkeypatch):
        monkeypatch.setattr(witness, "RADIUS_RANGE", (0.0, 0.0))
        inst = random_instance(7)
        assert inst[3][2] == 0.0 and inst[4][2] == 0.0
        assert witness_search(inst)

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(witness, "COORD_RANGE", (-1.0, 1.0))
        monkeypatch.setattr(witness, "RADIUS_RANGE", (3.0, 3.0))
        monkeypatch.setattr(witness, "MAX_TRIES", 25)
        with pytest.raises(GenerationExhausted):
            random_instance(1)

    def test_corollary_generator_valid(self):
        c0, c1, c2, u0, u1 = random_corollary_instance(5)
        base = (c0, c1, c2)
        assert circle_in_hull(u0, base).slack > 0.01
        assert circle_in_hull(u1, base).slack > 0.01
