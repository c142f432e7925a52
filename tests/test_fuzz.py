"""Seeded draws, the fuzz blocks built on them, and the worker count."""

import concurrent.futures
import math
import os

import numpy as np
import pytest
import reference_draws
from reference_draws import DrawConfig, set_witness_constants

from carousel import fuzz, witness
from carousel.errors import GenerationExhausted
from carousel.fuzz import FUZZ_KINDS, run_fuzz, run_oracle_check
from carousel.hull import circle_in_hull
from carousel.reports import canonical_json
from carousel.scenario import parse_scenario
from carousel.witness import (
    random_corollary_instance,
    random_corollary_instances,
    random_instance,
    random_instances,
    random_points_instance,
    random_points_instances,
)

SEEDS = range(5000)


def _hex(row) -> list[str]:
    """Every coordinate of a drawn row's (x, y, r) objects, as float.hex."""
    return [v.hex() for obj in row for v in obj]


# kind: (reference one-seed draw, one-seed draw, block draw)
DRAWS = {
    "theorem2d": (reference_draws.random_instance, random_instance, random_instances),
    "corollary2d": (
        reference_draws.random_corollary_instance,
        random_corollary_instance,
        random_corollary_instances,
    ),
    "points2d": (
        reference_draws.random_points_instance,
        random_points_instance,
        random_points_instances,
    ),
}


@pytest.fixture(scope="module")
def reference_hex():
    return {
        kind: [_hex(ref(seed)) for seed in SEEDS]
        for kind, (ref, _, _) in DRAWS.items()
    }


class TestDrawsMatchReference:
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_block_draws_are_bitwise_the_reference(self, kind, reference_hex):
        _, _, block = DRAWS[kind]
        got = [[v.hex() for v in row] for row in block(SEEDS).reshape(len(SEEDS), 15).tolist()]
        assert got == reference_hex[kind]

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_one_seed_draws_are_bitwise_the_reference(self, kind, reference_hex):
        _, one, _ = DRAWS[kind]
        assert [_hex(one(seed)) for seed in SEEDS] == reference_hex[kind]

    def test_one_seed_draws_keep_their_types(self):
        inst = random_instance(3)
        assert inst == reference_draws.random_instance(3)
        assert all(type(obj) is tuple and type(v) is float for obj in inst for v in obj)
        assert random_corollary_instance(3) == reference_draws.random_corollary_instance(3)
        assert random_points_instance(3) == reference_draws.random_points_instance(3)


def _outcome(draw, *args):
    try:
        draw(*args)
    except GenerationExhausted as exc:
        return str(exc)
    return None


class TestExhaustion:
    # the reference draws under each config, and the draws under the
    # witness constants set to match
    CONFIGS = [
        DrawConfig(max_tries=1),
        DrawConfig(max_tries=2),
        DrawConfig(max_tries=3, coord_range=(0.0, 1.0)),
        DrawConfig(radius_range=(20.0, 30.0), max_tries=50),  # the room test rejects all
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_messages_match_reference(self, kind, cfg, monkeypatch):
        ref, one, block = DRAWS[kind]
        seeds = range(60)
        expected = [_outcome(ref, seed, cfg) for seed in seeds]
        set_witness_constants(monkeypatch, cfg)
        assert [_outcome(one, seed) for seed in seeds] == expected
        # a block raises what drawing its seeds one after another raises first
        first = next((msg for msg in expected if msg is not None), None)
        assert _outcome(block, seeds) == first

    def test_every_message_is_reached(self):
        msgs = {
            _outcome(ref, seed, cfg)
            for ref, _, _ in DRAWS.values()
            for cfg in self.CONFIGS
            for seed in range(60)
        }
        assert {
            "could not sample a non-degenerate triangle",
            "no admissible circle after 50 rejections",
            "could not sample corollary generators",
            "could not sample interior points",
        } <= msgs


class TestClosedFormDraws:
    def test_theorem_draws_make_no_solve(self, monkeypatch, reference_hex):
        def no_solve(*args, **kwargs):
            raise AssertionError("a theorem2d draw called the kernel")

        monkeypatch.setattr(witness, "circles_in_hulls", no_solve)
        rows = random_instances(range(2000)).reshape(2000, 15).tolist()
        assert [[v.hex() for v in row] for row in rows] == reference_hex["theorem2d"][:2000]

    def test_hypotheses_clear_the_floor(self):
        slack, _ = witness._decide(random_instances(range(20_000)))
        assert (slack[:, :2] > witness.MIN_HYPOTHESIS_SLACK).all()

    def test_corollary_draws_make_no_batch_call(self, monkeypatch, reference_hex):
        def no_batch(*args, **kwargs):
            raise AssertionError("a corollary2d draw called the batch kernel")

        monkeypatch.setattr(witness, "circles_in_hulls", no_batch)
        rows = random_corollary_instances(range(2000)).reshape(2000, 15).tolist()
        assert [[v.hex() for v in row] for row in rows] == reference_hex["corollary2d"][:2000]

    def test_the_bound_decides_most_corollary_candidates(self, monkeypatch):
        calls = {"_envelope_min": 0, "_interior_point": 0}

        def counted(name):
            fn = getattr(witness, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(witness, name, counted(name))
        random_corollary_instances(range(1000))
        assert 0 < 3 * calls["_envelope_min"] <= calls["_interior_point"]

    def test_corollary_hypotheses_clear_the_floor(self):
        slack, _ = witness._decide(random_corollary_instances(range(20_000)))
        assert (slack[:, :2] > witness.MIN_HYPOTHESIS_SLACK).all()

    def test_the_bound_holds_at_the_floor(self):
        # each drawn circle's radius moved so that the bound lies 1e-12 to
        # 1e-3 above or below the floor: the bound never exceeds the slack
        # circle_in_hull computes, so a bound above the floor proves the slack is
        floor = witness.MIN_HYPOTHESIS_SLACK
        offsets = [sign * 10.0**-e for e in range(3, 13) for sign in (1.0, -1.0)]
        accepted = 0
        for row in random_corollary_instances(range(300)).tolist():
            gens = [tuple(g) for g in row[:3]]
            for x, y, _ in row[3:]:
                at_zero = witness._slack_bound(x, y, 0.0, gens)
                for offset in offsets:
                    r = at_zero - floor - offset
                    bound = witness._slack_bound(x, y, r, gens)
                    slack = circle_in_hull((x, y, r), gens).slack
                    assert bound <= slack, (row, r)
                    if bound > floor:
                        accepted += 1
                        assert slack > floor, (row, r)
        assert accepted >= 300 * 2 * 10


def test_histogram_bins_each_bound_with_the_slacks_above_it():
    # each finite bound and the float just below it, a negative slack and one
    # past the last finite bound; the counts are the loop-over-bounds output
    bounds = fuzz.SLACK_BINS[:-1]
    slacks = [*bounds, *(math.nextafter(b, -math.inf) for b in bounds), -0.5, 7.0]
    bins = [(b["lo"], b["hi"], b["count"]) for b in fuzz._histogram(slacks)]
    assert bins == [("-inf", 0.0, 2)] + [
        (lo, "inf" if hi == math.inf else hi, 2) for lo, hi in zip(bounds, fuzz.SLACK_BINS[1:])
    ]


class TestFuzzBlocks:
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_block_size_changes_no_report(self, monkeypatch, kind):
        monkeypatch.delenv("CAROUSEL_THREADS", raising=False)
        reports = set()
        for size in (1, 7, 500):
            monkeypatch.setattr(fuzz, "_SEED_BLOCK", size)
            reports.add(canonical_json(run_fuzz(300, 1, kind).to_dict()))
        assert len(reports) == 1

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_failures_dump_the_drawn_instance(self, monkeypatch, kind):
        # no natural seed lacks a witness, so the decision is made to say so
        monkeypatch.delenv("CAROUSEL_THREADS", raising=False)
        monkeypatch.setattr(
            fuzz, "best_witness_slacks_rows", lambda rows: [None] * len(rows)
        )
        monkeypatch.setattr(
            fuzz, "pair_inclusions_rows",
            lambda rows, pairs: ([-1.0] * len(rows), [False] * len(rows)),
        )
        rep = run_fuzz(12, 40, kind)
        assert not rep.ok
        assert [f["seed"] for f in rep.failures] == list(range(40, 52))
        for failure in rep.failures:
            sc = parse_scenario(failure["scenario"])
            assert (sc.kind, sc.seed) == (kind, failure["seed"])
            assert sc.row == DRAWS[kind][1](failure["seed"])
        assert sum(b["count"] for b in rep.slack_histogram) == 0


CAMPAIGNS = {
    "fuzz": lambda n, seed: run_fuzz(n, seed, "theorem2d"),
    "oracle": run_oracle_check,
}


class TestCampaignArguments:
    @pytest.mark.parametrize("campaign", CAMPAIGNS)
    @pytest.mark.parametrize("n, seed", [
        (True, 0), (5.0, 0), ("3", 0), (3, 2.5), (3, True), (3, "1"), (3, None),
    ])
    def test_non_integers_are_refused(self, campaign, n, seed):
        with pytest.raises(ValueError, match="integer"):
            CAMPAIGNS[campaign](n, seed)

    @pytest.mark.parametrize("campaign", CAMPAIGNS)
    @pytest.mark.parametrize("n, seed", [
        (np.int64(3), 1), (3, np.int64(1)), (np.int32(3), np.int64(-5)), (np.uint8(3), np.uint64(7)),
    ])
    def test_numpy_integers_are_ints(self, monkeypatch, campaign, n, seed):
        monkeypatch.delenv("CAROUSEL_THREADS", raising=False)
        report = CAMPAIGNS[campaign](n, seed).to_dict()
        assert (type(report["trials"]), type(report["seed"])) == (int, int)
        expected = CAMPAIGNS[campaign](int(n), int(seed)).to_dict()
        assert canonical_json(report) == canonical_json(expected)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the size asked for, starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


class TestWorkerCount:
    def test_capped_by_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setenv("CAROUSEL_THREADS", "64")
        cpus = os.cpu_count() or 1
        assert fuzz._worker_count(10) == min(10, cpus)
        assert fuzz._worker_count(1) == 1
        assert fuzz._worker_count(10**6) == min(64, cpus)
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        assert fuzz._worker_count(10) == 10
        assert fuzz._worker_count(10**6) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert fuzz._worker_count(10) == 1

    @pytest.mark.parametrize("raw", ["", "0", "-3", "many"])
    def test_unset_or_invalid_is_serial(self, monkeypatch, raw):
        monkeypatch.setenv("CAROUSEL_THREADS", raw)
        assert fuzz._worker_count(10) == 1

    def test_pools_are_no_larger_than_their_work(self, monkeypatch):
        monkeypatch.setattr(_InlinePool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        monkeypatch.setenv("CAROUSEL_THREADS", "64")
        parallel = canonical_json(run_fuzz(10, 1, "theorem2d").to_dict())  # 10 one-seed blocks
        oracle = run_oracle_check(40, 1).to_dict()  # 3 chunks of up to 16 trials
        assert _InlinePool.sizes == [10, 3]
        monkeypatch.delenv("CAROUSEL_THREADS")
        assert canonical_json(run_fuzz(10, 1, "theorem2d").to_dict()) == parallel
        assert run_oracle_check(40, 1).to_dict() == oracle
        assert _InlinePool.sizes == [10, 3]
