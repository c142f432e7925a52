"""Seeded fuzz campaigns and the oracle cross-check.

Each trial derives its own seed from the campaign seed, so trials are pure
and order-independent.  A campaign goes in blocks of seeds.  A block draws
its instances as rows of floats, in rounds: one set-level call decides the
pending rejection-sampling query of every seed still drawing
(``random_instances`` and its siblings).  One more such call then decides
all their inclusions (``best_witness_slacks_rows``, which reads each
trial's best witness slack from the slack and verdict arrays, or
``pair_inclusions_rows`` for the points kind, whose decomposition names
the one inclusion to solve).  Point and circle objects and a scenario are
built only for a trial that fails.  The set-level kernel is bitwise equal
to the one-query kernel and each trial's result depends only on its seed,
so blocks merge sorted by seed into the same report whatever their size.
CAROUSEL_THREADS (an environment variable) caps the parallel workers that
blocks are spread over; unset means single-threaded, and a pool gets no
more workers than it has blocks or the machine has CPUs.  Wall time is
measured but kept out of the serialized report so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .hull import GeneratorSet, circle_in_hull
from .oracle import ORACLE_SLACK_BAND, sampling_oracle_contains
from .planar import Circle2, Point2
from .scenario import (
    corollary_scenario_dict,
    instance_scenario_dict,
    points_scenario_dict,
)
from .witness import (
    RngConfig,
    best_witness_slacks_rows,
    corollary_of_row,
    decomposition_pairs,
    instance_of_row,
    pair_inclusions_rows,
    points_of_row,
    random_corollary_instances,
    random_instances,
    random_points_instances,
)

FUZZ_KINDS = ("theorem2d", "corollary2d", "points2d")

SLACK_BINS = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, math.inf)


@dataclass(frozen=True)
class FuzzReport:
    kind: str
    trials: int
    seed: int
    failures: tuple[dict, ...]
    slack_histogram: tuple[dict, ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # wall time deliberately omitted: reports must be reproducible bytes
        return {
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "failures": list(self.failures),
            "slack_histogram": list(self.slack_histogram),
        }


def _histogram(slacks: list[float]) -> tuple[dict, ...]:
    counts = [0] * (len(SLACK_BINS) - 1)
    below = 0
    for s in slacks:
        if s < 0.0:
            below += 1
            continue
        for i in range(len(SLACK_BINS) - 1):
            if SLACK_BINS[i] <= s < SLACK_BINS[i + 1]:
                counts[i] += 1
                break
    bins = [{"lo": SLACK_BINS[i], "hi": SLACK_BINS[i + 1], "count": counts[i]}
            for i in range(len(counts))]
    for b in bins:
        if b["hi"] == math.inf:
            b["hi"] = "inf"
    if below:
        bins.insert(0, {"lo": "-inf", "hi": 0.0, "count": below})
    return tuple(bins)


def _theorem_block(seeds, cfg: RngConfig) -> list[tuple[int, float | None, dict | None]]:
    rows = random_instances(seeds, cfg)
    best = best_witness_slacks_rows(rows, [True] * len(rows))
    return [
        (seed, slack, None) if slack is not None
        else (seed, None, instance_scenario_dict(instance_of_row(row), seed))
        for seed, row, slack in zip(seeds, rows, best)
    ]


def _corollary_block(seeds, cfg: RngConfig) -> list[tuple[int, float | None, dict | None]]:
    rows = random_corollary_instances(seeds, cfg)
    best = best_witness_slacks_rows(rows, [False] * len(rows))
    return [
        (seed, slack, None) if slack is not None else (seed, None, _corollary_dict(row, seed))
        for seed, row, slack in zip(seeds, rows, best)
    ]


def _corollary_dict(row, seed: int) -> dict:
    cs = corollary_of_row(row)
    return corollary_scenario_dict(cs[:3], cs[3:], seed)


def _points_block(seeds, cfg: RngConfig) -> list[tuple[int, float | None, dict | None]]:
    rows = random_points_instances(seeds, cfg)
    pairs = decomposition_pairs(rows)
    slacks, inside = pair_inclusions_rows(rows, pairs)
    return [
        (seed, slack, None) if ok
        else (seed, None, points_scenario_dict(*points_of_row(row), seed))
        for seed, row, slack, ok in zip(seeds, rows, slacks, inside)
    ]


_BLOCKS = {
    "theorem2d": _theorem_block,
    "corollary2d": _corollary_block,
    "points2d": _points_block,
}
# Trials per block: a block's instances are drawn in rounds and then decided
# in one set-level call, and the blocks are what the parallel path distributes.
_SEED_BLOCK = 500


def _worker_count(tasks: int) -> int:
    """Workers for ``tasks`` parallel tasks: CAROUSEL_THREADS, at most one per task and CPU.

    A pool that forks starts all of its workers on the first task, so a
    larger count would only start idle processes.
    """
    raw = os.environ.get("CAROUSEL_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, tasks, os.cpu_count() or 1))


def _map(fn, jobs: list, chunksize: int = 1) -> list:
    """``fn`` over ``jobs`` in order, over parallel workers when CAROUSEL_THREADS asks."""
    workers = _worker_count(-(-len(jobs) // chunksize))
    if workers == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunksize))


def _run_block(args):
    kind, seeds, cfg = args
    return _BLOCKS[kind](seeds, cfg)


def run_fuzz(
    n: int, seed: int, kind: str, config: RngConfig = RngConfig()
) -> FuzzReport:
    """Run n seeded trials of one claim kind; any failure is a finding.

    Every failure dumps as a self-contained scenario object inside the
    report, ready to be written to a file and re-checked in one command.
    """
    if kind not in FUZZ_KINDS:
        raise ValueError(f"kind must be one of {FUZZ_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    start = time.perf_counter()
    seeds = [(seed + i) % 2**64 for i in range(n)]
    size = min(_SEED_BLOCK, -(-n // _worker_count(n)))  # every worker gets a block
    jobs = [(kind, seeds[i : i + size], config) for i in range(0, n, size)]
    blocks = _map(_run_block, jobs)
    results = sorted((r for block in blocks for r in block), key=lambda r: r[0])
    slacks = [r[1] for r in results if r[1] is not None]
    failures = tuple(
        {"seed": r[0], "scenario": r[2]} for r in results if r[2] is not None
    )
    return FuzzReport(
        kind=kind,
        trials=n,
        seed=seed,
        failures=failures,
        slack_histogram=_histogram(slacks),
        wall_time=time.perf_counter() - start,
    )


# -- oracle cross-check ---------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    trials: int
    seed: int
    agreements: int
    disagreements: tuple[dict, ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return all(abs(d["slack"]) <= ORACLE_SLACK_BAND for d in self.disagreements)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "agreements": self.agreements,
            "disagreements": list(self.disagreements),
            "slack_band": ORACLE_SLACK_BAND,
            "within_band": self.ok,
        }


def random_containment_query(seed: int) -> tuple[Circle2, GeneratorSet]:
    """Deterministic random (target, generators) pair at desk scale."""
    rng = random.Random(seed)
    def circ() -> Circle2:
        r = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 3.0)
        return Circle2(Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)), r)
    n = rng.randint(1, 5)
    return circ(), GeneratorSet(tuple(circ() for _ in range(n)))


def _oracle_trial(args) -> tuple[int, bool, bool, float]:
    _, seed, _ = args
    target, gens = random_containment_query(seed)
    res = circle_in_hull(target, gens)
    oracle = sampling_oracle_contains(target, gens)
    return seed, res.contained, oracle, res.slack


def run_oracle_check(n: int, seed: int) -> OracleReport:
    """Compare the support-slack predicate with the sampling-polygon oracle."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    start = time.perf_counter()
    seeds = [(seed + i) % 2**64 for i in range(n)]
    jobs = [("oracle", s, None) for s in seeds]
    results = _map(_oracle_trial, jobs, chunksize=16)
    results.sort(key=lambda r: r[0])
    disagreements = tuple(
        {"seed": s, "predicate": a, "oracle": o, "slack": slack}
        for s, a, o, slack in results
        if a != o
    )
    agreements = n - len(disagreements)
    return OracleReport(
        trials=n,
        seed=seed,
        agreements=agreements,
        disagreements=disagreements,
        wall_time=time.perf_counter() - start,
    )
