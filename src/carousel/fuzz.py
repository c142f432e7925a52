"""Seeded fuzz campaigns and the exact oracle cross-check.

Each trial derives its own seed from the campaign seed, so trials are pure
and order-independent.  A campaign goes in blocks of seeds.  A block draws
its instances as rows of floats (``random_instances`` and its siblings).
Theorem and points draws place their objects in closed form, with no
solve, and corollary draws keep most of their rejection-sampled circles by
a closed-form bound on the slack, solving the rest one at a time on the
scalar kernel loop.  One set-level call then decides all their inclusions
(``best_witness_slacks_rows``, which reads each trial's best witness
slack from the slack and verdict arrays, or ``pair_inclusions_rows`` for
the points kind, whose decomposition names the one inclusion to solve).
Only these blocks use ``circles_in_hulls``: a one-row search, as in
``check`` and ``render``, runs on the scalar kernel.  A trial that fails
dumps its scenario straight from its row.  The set-level kernel is
bitwise equal to the one-query kernel and each
trial's result depends only on its seed, so blocks merge sorted by seed
into the same report whatever their size.  A campaign runs its blocks
one after another in the calling process.  Wall time is measured but kept
out of the serialized report so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass

from .hull import circle_in_hull
from .oracle import ORACLE_SLACK_BAND, sampling_oracle_contains
from .planar import is_integer
from .scenario import row_scenario_dict
from .witness import (
    best_witness_slacks_rows,
    pair_inclusions_rows,
    point_decomposition,
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
        # wall time deliberately left out: reports must be reproducible bytes
        return {
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "failures": list(self.failures),
            "slack_histogram": list(self.slack_histogram),
        }


def _histogram(slacks: list[float]) -> tuple[dict, ...]:
    # counts[0] holds the negative slacks, counts[i] the bin from SLACK_BINS[i - 1]
    counts = [0] * len(SLACK_BINS)
    for s in slacks:
        counts[bisect.bisect_right(SLACK_BINS, s)] += 1
    bins = [{"lo": lo, "hi": "inf" if hi == math.inf else hi, "count": c}
            for lo, hi, c in zip(SLACK_BINS, SLACK_BINS[1:], counts[1:])]
    if counts[0]:
        bins.insert(0, {"lo": "-inf", "hi": 0.0, "count": counts[0]})
    return tuple(bins)


def _run_block(kind: str, seeds: list[int]) -> list[tuple[int, float | None, dict | None]]:
    """Each seed's best witness slack, or None and the scenario of its drawn row."""
    if kind == "points2d":
        rows = random_points_instances(seeds)
        pairs = [point_decomposition(row) for row in rows.tolist()]
        slacks, inside = pair_inclusions_rows(rows, pairs)
        best = [s if ok else None for s, ok in zip(slacks, inside)]
    else:
        draw = random_instances if kind == "theorem2d" else random_corollary_instances
        rows = draw(seeds)
        best = best_witness_slacks_rows(rows)
    return [
        (seed, slack, None if slack is not None else row_scenario_dict(kind, row, seed))
        for seed, row, slack in zip(seeds, rows, best)
    ]


# Trials per block: a block's instances are drawn seed by seed and then decided
# in one set-level call, so the block size bounds the arrays of that call.
_SEED_BLOCK = 500


def _campaign_args(n, seed) -> tuple[int, int]:
    """``n`` and ``seed`` as ints; ValueError unless both are integers (a bool
    is none) and n >= 1.  A numpy integer is taken as an int.
    """
    if not is_integer(n) or n < 1:
        raise ValueError(f"need an integer n >= 1, got {n!r}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(n), int(seed)


def run_fuzz(n: int, seed: int, kind: str) -> FuzzReport:
    """Run n seeded trials of one claim kind; any failure is a finding.

    Every failure dumps as a self-contained scenario object inside the
    report, ready to be written to a file and re-checked in one command.
    Raises ValueError on an unknown kind and where ``_campaign_args`` does.
    """
    if kind not in FUZZ_KINDS:
        raise ValueError(f"kind must be one of {FUZZ_KINDS}, got {kind!r}")
    n, seed = _campaign_args(n, seed)
    start = time.perf_counter()
    seeds = [(seed + i) % 2**64 for i in range(n)]
    results = [
        r for i in range(0, n, _SEED_BLOCK) for r in _run_block(kind, seeds[i : i + _SEED_BLOCK])
    ]
    # seeds that wrap past 2**64 sort ahead of the ones before the wrap
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


def random_containment_query(seed: int) -> tuple[tuple, tuple]:
    """Deterministic random (target, generators) pair of (x, y, r) objects at desk scale."""
    rng = random.Random(seed)
    def circ() -> tuple[float, float, float]:
        r = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 3.0)
        return rng.uniform(-10, 10), rng.uniform(-10, 10), r
    n = rng.randint(1, 5)
    return circ(), tuple(circ() for _ in range(n))


def _oracle_trial(seed: int) -> tuple[int, bool, bool, float]:
    target, gens = random_containment_query(seed)
    res = circle_in_hull(target, gens)
    oracle = sampling_oracle_contains(target, gens)
    return seed, res.contained, oracle, res.slack


def run_oracle_check(n: int, seed: int) -> OracleReport:
    """Compare the float kernel's verdict with the oracle's exact one.

    Each trial is one ``random_containment_query``.  ``circle_in_hull``
    decides it with its slack band, and ``sampling_oracle_contains`` decides
    it exactly on integers, so every disagreement is a verdict that the
    kernel got wrong.  One within ORACLE_SLACK_BAND of a zero slack is what
    the kernel's float band allows; one outside it fails the run.  Raises
    ValueError where ``_campaign_args`` does.
    """
    n, seed = _campaign_args(n, seed)
    start = time.perf_counter()
    seeds = [(seed + i) % 2**64 for i in range(n)]
    results = [_oracle_trial(s) for s in seeds]
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
