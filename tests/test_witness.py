"""Carousel procedure tests: witness search, point decomposition, xi sweeps."""

import math
import random

import pytest
import reference_sweep

from carousel import (
    CarouselInstance,
    Circle2,
    CoincidentPoints,
    GenerationExhausted,
    GeneratorSet,
    InvalidInstance,
    NotInterior,
    Tangency,
    circle,
    circle_in_hull,
    corollary_witness_search,
    pt,
    random_instance,
    scaled_instance,
    sweep_slack,
    two_carousel_points,
    witness_search,
    xi_sweep_fixed,
)
from carousel import hull, witness
from carousel.oracle import sampling_oracle_contains
from reference_hull import sites_as_generators
from carousel.witness import (
    JK_PAIRS,
    random_corollary_instance,
    random_points_instance,
    sweep_events,
    validate_instance,
    witness_generators,
)

SITES_466 = (pt(0, 0), pt(6, 0), pt(0, 6))
SITES_8 = (pt(0, 0), pt(8, 0), pt(0, 8))


def reverify(inst, w) -> bool:
    res = circle_in_hull(inst.circle(1 - w.k), witness_generators(inst, w.j, w.k))
    return res.contained


class TestScaledInstance:
    inst = CarouselInstance(SITES_466, circle(2, 2, 1), circle(3, 1, 0.5))

    def test_identity(self):
        assert scaled_instance(self.inst, 1.0) == self.inst

    def test_zero_gives_center_points(self):
        s = scaled_instance(self.inst, 0.0)
        assert s.u0 == Circle2(self.inst.u0.center, 0.0)
        assert s.u1 == Circle2(self.inst.u1.center, 0.0)

    def test_half(self):
        s = scaled_instance(CarouselInstance(SITES_466, circle(2, 2, 1), circle(2, 2, 1)), 0.5)
        assert s.u0 == circle(2, 2, 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            scaled_instance(self.inst, 1.5)


class TestWitnessSearch:
    def test_equal_circles_give_all_six(self):
        inst = CarouselInstance(SITES_466, circle(2, 2, 0.5), circle(2, 2, 0.5))
        ws = witness_search(inst)
        assert sorted((w.j, w.k) for w in ws) == sorted(JK_PAIRS)

    def test_concentric_smaller_gives_k0_for_every_j(self):
        inst = CarouselInstance(SITES_466, circle(2, 2, 1), circle(2, 2, 0.5))
        got = {(w.j, w.k) for w in witness_search(inst)}
        assert {(0, 0), (1, 0), (2, 0)} <= got

    def test_point_circles(self):
        inst = CarouselInstance(
            (pt(0, 0), pt(4, 0), pt(0, 4)), circle(1, 1, 0), circle(2, 1, 0)
        )
        got = {(w.j, w.k) for w in witness_search(inst)}
        assert (0, 0) in got

    def test_sorted_by_slack(self):
        inst = CarouselInstance(SITES_466, circle(2, 2, 1), circle(2, 2, 0.5))
        ws = witness_search(inst)
        assert all(a.slack >= b.slack for a, b in zip(ws, ws[1:]))

    def test_invalid_instance_rejected(self):
        # circle pokes out of the site triangle
        inst = CarouselInstance(SITES_466, circle(3, 3, 1), circle(2, 2, 0.5))
        with pytest.raises(InvalidInstance):
            witness_search(inst)

    def test_collinear_sites_need_point_circles(self):
        sites = (pt(0, 0), pt(2, 0), pt(5, 0))
        with pytest.raises(InvalidInstance):
            witness_search(CarouselInstance(sites, circle(1, 0, 0.1), circle(3, 0, 0)))
        ws = witness_search(CarouselInstance(sites, circle(1, 0, 0), circle(3, 0, 0)))
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
        u0, u1 = circle(2, 2, 1), circle(2.5, 1.5, 0.4)
        inst = CarouselInstance(sites, u0, u1)
        a = {(w.j, w.k) for w in witness_search(inst)}
        b = {
            (w.j, w.k)
            for w in corollary_witness_search(
                Circle2(sites[0], 0.0), Circle2(sites[1], 0.0), Circle2(sites[2], 0.0), u0, u1
            )
        }
        assert a == b

    def test_equal_circles_give_all_six(self):
        cs = (circle(0, 0, 1), circle(8, 0, 1), circle(0, 8, 1))
        u = circle(2, 2, 0.5)
        ws = corollary_witness_search(*cs, u, u)
        assert sorted((w.j, w.k) for w in ws) == sorted(JK_PAIRS)

    def test_worked_circle_example_cross_checked_by_oracle(self):
        cs = (circle(0, 0, 1), circle(8, 0, 1), circle(0, 8, 1))
        us = (circle(2, 2, 0.5), circle(3, 2, 0.5))
        ws = corollary_witness_search(*cs, *us)
        assert ws
        expected = set()
        for j, k in JK_PAIRS:
            gens = GeneratorSet((us[k],) + tuple(c for i, c in enumerate(cs) if i != j))
            if sampling_oracle_contains(us[1 - k], gens):
                expected.add((j, k))
        assert {(w.j, w.k) for w in ws} == expected

    def test_hypothesis_checked(self):
        cs = (circle(0, 0, 1), circle(8, 0, 1), circle(0, 8, 1))
        with pytest.raises(InvalidInstance):
            corollary_witness_search(*cs, circle(7, 7, 0.5), circle(2, 2, 0.5))


class TestTwoCarouselPoints:
    sites = (pt(0, 0), pt(4, 0), pt(0, 4))

    def test_subtriangle_case(self):
        w = two_carousel_points(self.sites, pt(1, 1), pt(2, 1))
        assert (w.j, w.k) == (0, 0)
        assert w.slack > 0

    def test_subtriangle_case_along_extension(self):
        # on the far side of b0 from A0: falls in the sub-triangle missing A0
        w = two_carousel_points(self.sites, pt(1, 1), pt(1.9, 1.9))
        assert (w.j, w.k) == (0, 0)

    def test_collinear_with_vertex(self):
        w = two_carousel_points(self.sites, pt(1, 1), pt(0.5, 0.5))
        assert (w.j, w.k) == (0, 1)

    def test_boundary_point_rejected(self):
        # (2,2) lies on the hypotenuse, so it is not strictly interior
        with pytest.raises(NotInterior):
            two_carousel_points(self.sites, pt(1, 1), pt(2, 2))

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            two_carousel_points(self.sites, pt(1, 1), pt(1, 1))

    def test_exterior_rejected(self):
        with pytest.raises(NotInterior):
            two_carousel_points(self.sites, pt(5, 5), pt(1, 1))

    def test_fuzz_reverifies(self):
        for seed in range(500):
            sites, b0, b1 = random_points_instance(seed)
            w = two_carousel_points(sites, b0, b1)
            pts = (b0, b1)
            kept = tuple(Circle2(s, 0.0) for i, s in enumerate(sites) if i != w.j)
            gens = GeneratorSet((Circle2(pts[w.k], 0.0),) + kept)
            assert circle_in_hull(Circle2(pts[1 - w.k], 0.0), gens).contained


class TestXiSweep:
    def test_concentric_never_binds(self):
        inst = CarouselInstance(SITES_466, circle(2, 2, 1), circle(2, 2, 0.5))
        for j in range(3):
            rep = xi_sweep_fixed(inst, j, 0)
            assert rep.xi_star == 1.0
            assert rep.tangency is Tangency.NONE_AT_ONE

    def test_crossing_instance(self):
        # inclusion holds for small scales, fails at full scale; the second
        # instance keeps u_k at radius 0, so its legs run through its centre
        for own in (circle(2, 2, 0.4), circle(2, 2, 0.0)):
            inst = CarouselInstance(SITES_8, own, circle(2.5, 2.5, 1.2))
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
            pt(6.305934132773345, 3.525545954878842),
            pt(2.597177973958525, -6.826373526571974),
            pt(6.968564034641648, -0.8042745045463224),
        )
        u0 = circle(5.668003783748008, -0.8547170236518535, 0.6637857999305479)
        u1 = circle(5.9689922943097375, 1.0313558399652858, 0.40904997942265436)
        rep = xi_sweep_fixed(CarouselInstance(sites, u0, u1), 1, 0)
        assert rep.tangency is Tangency.LEG
        assert rep.xi_star == pytest.approx(0.81631924, abs=1e-8)
        assert abs(rep.slack_at_xi_star) < 1e-9
        a, b = sites[0], sites[2]
        line_dist = abs((b - a).cross(u1.center - a)) / (b - a).norm()
        assert line_dist - rep.xi_star * u1.radius > 0.3

    def test_base_side_inside_hypothesis_band(self):
        # u1 pokes 1e-7 out of the base line A0A1, which the hypothesis check
        # still accepts, so the base-side event falls just below zeta = 1
        inst = CarouselInstance(SITES_8, circle(2, 3, 0.5), circle(4, 1, 1 + 1e-7))
        assert sweep_slack(inst, 2, 0, 1.0) < 0.0
        rep = xi_sweep_fixed(inst, 2, 0)
        assert rep.xi_star == pytest.approx(1 / (1 + 1e-7), abs=1e-12)
        assert rep.tangency is Tangency.BASE_SIDE

    def test_leg_wins_tie_with_base_side(self):
        # u1 sits in the 30-degree corner at A1 between the base line and the
        # leg to u0, tangent to both at the same scale z0: the tie goes to the leg
        z0, half = 1 - 1e-7, math.radians(15)
        corner = pt(8, 0) + (0.4 / math.sin(half)) * pt(-math.cos(half), math.sin(half))
        leg_point = pt(8, 0) + 5 * pt(-math.cos(2 * half), math.sin(2 * half))
        own = leg_point + z0 * pt(-math.sin(2 * half), -math.cos(2 * half))
        inst = CarouselInstance(SITES_8, Circle2(own, 1.0), Circle2(corner, 0.4 / z0))
        assert [family for _, family in sweep_events(inst, 2, 0)] == [Tangency.LEG]
        rep = xi_sweep_fixed(inst, 2, 0)
        assert rep.xi_star == pytest.approx(z0, abs=1e-12)
        assert rep.tangency is Tangency.LEG

    def test_point_target_fails_from_zero(self):
        # a point target only gains room as u_k grows: here it is outside the
        # triangle u_k, A0, A1 at zeta = 0 and enters u_k at the front-arc event
        inst = CarouselInstance(SITES_8, circle(2, 2, 1.5), circle(2, 3.2, 0.0))
        assert (pytest.approx(0.8), Tangency.FRONT_ARC) in sweep_events(inst, 2, 0)
        assert sweep_slack(inst, 2, 0, 0.8) == pytest.approx(0.0, abs=1e-12)
        rep = xi_sweep_fixed(inst, 2, 0)
        assert (rep.xi_star, rep.tangency) == (0.0, Tangency.LEG)
        assert rep.slack_at_xi_star == pytest.approx(-1.2)

    def test_leg_event_at_zero(self):
        # the target's centre lies on the leg from u_k's centre to A1 and the
        # target outgrows the leg, so the inclusion fails for every zeta > 0
        inst = CarouselInstance(SITES_8, circle(2, 2, 1.0), circle(5, 1, 0.8))
        assert sweep_slack(inst, 2, 0, 1e-6) < 0.0
        rep = xi_sweep_fixed(inst, 2, 0)
        assert rep.xi_star == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.slack_at_xi_star) < 1e-12
        assert rep.tangency is Tangency.LEG

    def test_sweep_consistency_bracket(self):
        inst = CarouselInstance(
            (pt(0, 0), pt(8, 0), pt(0, 8)), circle(2, 2, 0.4), circle(2.5, 2.5, 1.2)
        )
        tol = 1e-9
        rep = xi_sweep_fixed(inst, 0, 0)
        assert sweep_slack(inst, 0, 0, rep.xi_star - tol) >= -1e-6
        assert sweep_slack(inst, 0, 0, rep.xi_star + tol) < 1e-6

    def test_never_good_pair_reports_zero(self):
        # u1 sits close to A0, so dropping A0 with k=0 never covers it
        inst = CarouselInstance(
            (pt(0, 0), pt(8, 0), pt(0, 8)), circle(5, 2, 0.3), circle(0.6, 0.6, 0.2)
        )
        assert sweep_slack(inst, 0, 0, 0.0) < 0
        rep = xi_sweep_fixed(inst, 0, 0)
        assert rep.xi_star == 0.0

    def test_point_circles_scale_free(self):
        inst = CarouselInstance(
            (pt(0, 0), pt(4, 0), pt(0, 4)), circle(1, 1, 0), circle(2, 1, 0)
        )
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
        inst = CarouselInstance(SITES_466, circle(2, 2, 1), circle(2, 2, 0.5))
        with pytest.raises(ValueError):
            xi_sweep_fixed(inst, 3, 0)


def _float_sweep_instances():
    """Random instances, plus equal, concentric and radius-0 circles and a flat triangle."""
    insts = [random_instance(seed) for seed in range(300)]
    for seed in range(100):
        sites, b0, b1 = random_points_instance(seed)
        insts.append(CarouselInstance(sites, Circle2(b0, 0.0), Circle2(b1, 0.0)))
    insts += [
        CarouselInstance(SITES_466, circle(2, 2, 0.5), circle(2, 2, 0.5)),
        CarouselInstance(SITES_466, circle(2, 2, 1), circle(2, 2, 0.5)),
        CarouselInstance(SITES_8, circle(2, 2, 0.0), circle(2.5, 2.5, 1.2)),
        CarouselInstance(SITES_8, circle(2, 2, 1.5), circle(2, 3.2, 0.0)),
        CarouselInstance(SITES_8, circle(2, 2, 1.0), circle(5, 1, 0.8)),
        CarouselInstance((pt(0, 0), pt(2, 0), pt(4, 0)), circle(1, 0, 0), circle(3, 0, 0)),
        # a point target on a site: a zero slack keeps the sign of 0.0 - r_t
        CarouselInstance(SITES_8, circle(2, 2, 1.0), circle(0, 0, 0.0)),
        CarouselInstance(SITES_8, circle(2, 3, 0.5), circle(4, 1, 1 + 1e-7)),
    ]
    return insts


def _unchecked_instances():
    """Circles anywhere, so that every event family falls inside (0, 1) often."""
    rng = random.Random(9)
    out = []
    for _ in range(300):
        sites = tuple(pt(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3))
        u0, u1 = (circle(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 5))
                  for _ in range(2))
        out.append(CarouselInstance(sites, u0, u1))
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
                events = [z for z, _ in sweep_events(inst, j, k)]
                edges = [0.0, *events, 1.0]
                zetas = edges + [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
                for zeta in zetas:
                    scaled = scaled_instance(inst, zeta)
                    ref = circle_in_hull(
                        scaled.circle(1 - k), witness_generators(scaled, j, k)
                    ).slack
                    assert _bits(sweep_slack(inst, j, k, zeta)) == _bits(ref), (inst, j, k, zeta)
                    checked += 1
        assert checked > 15_000

    def test_events_match_point2_reference(self):
        for inst in self.insts + self.unchecked:
            for j, k in JK_PAIRS:
                got = sweep_events(inst, j, k)
                ref = reference_sweep.sweep_events(inst, j, k)
                assert [(_bits(z), f) for z, f in got] == [(_bits(z), f) for z, f in ref]

    def test_validate_matches_circle_in_hull(self):
        rng = random.Random(5)
        for inst in self.insts[:300]:
            # move u1 by up to twice the site box, so about half leave the hull
            u1 = circle(
                inst.u1.center.x + rng.uniform(-20, 20),
                inst.u1.center.y + rng.uniform(-20, 20),
                inst.u1.radius,
            )
            bad = CarouselInstance(inst.sites, inst.u0, u1)
            res = circle_in_hull(u1, sites_as_generators(inst.sites))
            if res.contained:
                validate_instance(bad)
            else:
                msg = f"u1 is not inside the site hull (slack {res.slack:.3g})"
                with pytest.raises(InvalidInstance) as exc:
                    validate_instance(bad)
                assert str(exc.value) == msg

    @pytest.mark.parametrize("zeta", [-1e-300, -0.5, 1.0000000000000002, 2.0, math.nan])
    def test_zeta_out_of_range_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta must be in"):
            sweep_slack(self.insts[0], 0, 0, zeta)

    def test_envelope_evaluations_per_sweep(self, monkeypatch):
        # 2 hypothesis checks, one probe per interval up to the first that
        # fails (all of them when none does) and the final slack; no object-
        # level containment query is made
        calls = {"envelope": 0, "sweep_slack": 0}
        envelope_min, slack_of = witness._envelope_min, witness.sweep_slack

        def counted_envelope(terms):
            calls["envelope"] += 1
            return envelope_min(terms)

        def counted_slack(*args):
            calls["sweep_slack"] += 1
            return slack_of(*args)

        def forbidden(*args):
            raise AssertionError("the sweep must not build containment queries")

        monkeypatch.setattr(witness, "_envelope_min", counted_envelope)
        monkeypatch.setattr(witness, "sweep_slack", counted_slack)
        monkeypatch.setattr(hull, "circle_in_hull", forbidden)
        monkeypatch.setattr(witness, "circle_in_hull", forbidden)
        for inst in self.insts[:100]:
            for j, k in JK_PAIRS:
                edges = [0.0, *(z for z, _ in sweep_events(inst, j, k)), 1.0]
                mids = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
                probes = next(
                    (i + 1 for i, z in enumerate(mids) if slack_of(inst, j, k, z) < 0.0),
                    len(mids),
                )
                calls.update(envelope=0, sweep_slack=0)
                xi_sweep_fixed(inst, j, k)
                assert calls == {"envelope": 2 + probes + 1, "sweep_slack": probes + 1}


class TestZeroRadiusShortcut:
    def test_point_u1_matches_decomposition(self):
        rng = random.Random(48)
        for _ in range(50):
            seed = rng.randrange(2**32)
            base = random_instance(seed)
            inst = CarouselInstance(
                base.sites, base.u0, Circle2(base.u1.center, 0.0)
            )
            ws = witness_search(inst)
            assert ws
            # a k = 0 witness always exists when the target is a point
            assert any(w.k == 0 for w in ws)
            w = two_carousel_points(inst.sites, inst.u0.center, inst.u1.center)
            pts = (inst.u0.center, inst.u1.center)
            kept = tuple(
                Circle2(s, 0.0) for i, s in enumerate(inst.sites) if i != w.j
            )
            gens = GeneratorSet((Circle2(pts[w.k], 0.0),) + kept)
            assert circle_in_hull(Circle2(pts[1 - w.k], 0.0), gens).contained


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(42) == random_instance(42)
        assert random_instance(42) != random_instance(43)

    def test_hypothesis_slack_floor(self):
        for seed in range(50):
            inst = random_instance(seed)
            gens = sites_as_generators(inst.sites)
            assert circle_in_hull(inst.u0, gens).slack > 0.01
            assert circle_in_hull(inst.u1, gens).slack > 0.01

    def test_point_circle_config(self, monkeypatch):
        monkeypatch.setattr(witness, "RADIUS_RANGE", (0.0, 0.0))
        inst = random_instance(7)
        assert inst.u0.radius == 0.0 and inst.u1.radius == 0.0
        assert witness_search(inst)

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(witness, "COORD_RANGE", (-1.0, 1.0))
        monkeypatch.setattr(witness, "RADIUS_RANGE", (3.0, 3.0))
        monkeypatch.setattr(witness, "MAX_TRIES", 25)
        with pytest.raises(GenerationExhausted):
            random_instance(1)

    def test_corollary_generator_valid(self):
        c0, c1, c2, u0, u1 = random_corollary_instance(5)
        base = GeneratorSet((c0, c1, c2))
        assert circle_in_hull(u0, base).slack > 0.01
        assert circle_in_hull(u1, base).slack > 0.01
