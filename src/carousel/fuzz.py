"""Seeded fuzz campaigns and the oracle cross-check.

Each trial derives its own seed from the campaign seed, so trials are pure
and order-independent; results merge sorted by seed.  CAROUSEL_THREADS (an
environment variable) caps parallel workers; unset means single-threaded.
Wall time is measured but kept out of the serialized report so identical
inputs produce byte-identical files.
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
    corollary_witness_search,
    pair_generators,
    random_corollary_instance,
    random_instance,
    random_points_instance,
    two_carousel_points,
    witness_search,
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


def _theorem_trial(seed: int, cfg: RngConfig) -> tuple[int, float | None, dict | None]:
    inst = random_instance(seed, cfg)
    witnesses = witness_search(inst)
    if witnesses:
        return seed, witnesses[0].slack, None
    return seed, None, instance_scenario_dict(inst, seed)


def _corollary_trial(seed: int, cfg: RngConfig) -> tuple[int, float | None, dict | None]:
    c0, c1, c2, u0, u1 = random_corollary_instance(seed, cfg)
    witnesses = corollary_witness_search(c0, c1, c2, u0, u1)
    if witnesses:
        return seed, witnesses[0].slack, None
    return seed, None, corollary_scenario_dict((c0, c1, c2), (u0, u1), seed)


def _points_trial(seed: int, cfg: RngConfig) -> tuple[int, float | None, dict | None]:
    sites, b0, b1 = random_points_instance(seed, cfg)
    w = two_carousel_points(sites, b0, b1)
    # independent re-verification through the containment engine
    pts = (b0, b1)
    gens = pair_generators(Circle2(pts[w.k], 0.0), sites, w.j)
    res = circle_in_hull(Circle2(pts[1 - w.k], 0.0), gens)
    if res.contained:
        return seed, w.slack, None
    return seed, None, points_scenario_dict(sites, b0, b1, seed)


_TRIALS = {
    "theorem2d": _theorem_trial,
    "corollary2d": _corollary_trial,
    "points2d": _points_trial,
}


def _worker_count() -> int:
    raw = os.environ.get("CAROUSEL_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _run_trial(args):
    kind, seed, cfg = args
    return _TRIALS[kind](seed, cfg)


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
    workers = _worker_count()
    jobs = [(kind, s, config) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, jobs, chunksize=64))
    else:
        results = [_run_trial(job) for job in jobs]
    results.sort(key=lambda r: r[0])
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
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_oracle_trial, jobs, chunksize=16))
    else:
        results = [_oracle_trial(job) for job in jobs]
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
