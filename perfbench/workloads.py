"""Seeded inputs, job lists and output checks for the four benchmark workloads.

A workload is one *pass*: a fixed, seeded list of CLI invocations in a
shuffled order.  The benchmark repeats the pass for the measured time, so a
seed always gives the same inputs and the traced run can report exact call
counts per pass.  Inputs are drawn here with stdlib ``random`` and never with
the program's own generators, so a change to those cannot change the inputs.
This module imports nothing from ``carousel``.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("fuzz2d", "sweep2d", "oracle2d", "repro3d")

FUZZ_KINDS = ("theorem2d", "corollary2d", "points2d")
FUZZ_CAMPAIGNS = 30  # campaign seeds per pass; one job per kind each
FUZZ_TRIALS = 100  # --n of one fuzz job
ORACLE_JOBS = 160
ORACLE_TRIALS = 5
SWEEP_INSTANCES = 60
SWEEP_RENDER_EVERY = 2  # a render job for every second instance
# 35 of 45 jobs: the median falls inside the 4.1 latencies and the 90th
# percentile on the middle of the t=8 jobs, away from any cluster edge
REPRO_41_JOBS = 35
REPRO_42_T = range(3, 13)  # every t in 3..12; never narrowed

TANGENCIES = {"none_at_one", "leg", "front_arc", "base_side"}
SWEEP_SLACK_LIMIT = 1e-6

UNIT_OF_WORK = {
    "fuzz2d": "fuzz trials",
    "sweep2d": "sweep/render jobs",
    "oracle2d": "oracle trials",
    "repro3d": "sphere inclusions",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation, the work it stands for and how to check its output.

    ``check(stdout)`` is applied to jobs that exit 0; it returns None when
    the report is right and a short reason otherwise.
    """

    label: str
    argv: tuple[str, ...]
    items: int
    check: Callable[[str], str | None]


def _check_fuzz(n: int):
    def check(stdout: str) -> str | None:
        rep = json.loads(stdout)
        if rep.get("trials") != n:
            return f"check: trials {rep.get('trials')} != {n}"
        if rep.get("failures"):
            return "check: fuzz failures"
        return None

    return check


def _check_oracle(stdout: str) -> str | None:
    if json.loads(stdout).get("within_band") is not True:
        return "check: oracle outside band"
    return None


def _check_sweep(stdout: str) -> str | None:
    sweep = json.loads(stdout)["sweep"]
    xi = sweep["xi_star"]
    if not 0.0 <= xi <= 1.0:
        return "check: xi_star outside [0, 1]"
    if 0.0 < xi < 1.0 and not abs(sweep["slack_at_xi_star"]) < SWEEP_SLACK_LIMIT:
        return "check: slack at xi_star"
    if sweep["tangency"] not in TANGENCIES:
        return "check: unknown tangency"
    return None


def _check_render(svg_path: Path):
    def check(stdout: str) -> str | None:
        if not svg_path.exists():
            return "check: no svg written"
        text = svg_path.read_text(encoding="utf-8")
        svg_path.unlink()  # so the next pass must write it again
        if not text:
            return "check: empty svg"
        try:
            root = ET.fromstring(text)
        except ET.ParseError:
            return "check: svg is not XML"
        if not root.tag.endswith("svg"):
            return "check: root is not svg"
        return None

    return check


def _check_repro(outcomes: int):
    def check(stdout: str) -> str | None:
        rep = json.loads(stdout)
        if rep.get("verdict") != "verified":
            return f"check: verdict {rep.get('verdict')}"
        if len(rep["example"]["outcomes"]) != outcomes:
            return "check: outcome count"
        return None

    return check


# -- input generation -----------------------------------------------------------


def _fuzz2d(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for _ in range(FUZZ_CAMPAIGNS):
        seed = rng.randrange(2**32)
        for kind in FUZZ_KINDS:
            argv = ("fuzz", "--kind", kind, "--n", str(FUZZ_TRIALS), "--seed", str(seed))
            jobs.append(Job(f"fuzz {kind}", argv, FUZZ_TRIALS, _check_fuzz(FUZZ_TRIALS)))
    return jobs


def _oracle2d(rng: random.Random, workdir: Path) -> list[Job]:
    return [
        Job("oracle", ("oracle", "--n", str(ORACLE_TRIALS), "--seed", str(rng.randrange(2**32))),
            ORACLE_TRIALS, _check_oracle)
        for _ in range(ORACLE_JOBS)
    ]


def _segment_distance(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def sweep_instance(rng: random.Random) -> dict:
    """Sites in a box, two circles with positive clearance from every edge."""
    while True:
        sites = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = sites
        if abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) >= 16.0:  # no slivers
            break
    circles = []
    while len(circles) < 2:
        r1, r2 = math.sqrt(rng.random()), rng.random()
        weights = (1.0 - r1, r1 * (1.0 - r2), r1 * r2)
        centre = tuple(sum(w * s[i] for w, s in zip(weights, sites)) for i in (0, 1))
        clearance = min(_segment_distance(centre, sites[i], sites[(i + 1) % 3]) for i in range(3))
        if clearance < 0.05:
            continue
        circles.append([centre[0], centre[1], rng.uniform(0.0, clearance - 0.02)])
    return {
        "schema": "carousel/1",
        "kind": "sweep",
        "sites": [[x, y, 0.0] for x, y in sites],
        "circles": circles,
        "j": rng.randrange(3),
        "k": rng.randrange(2),
    }


def _sweep2d(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for i in range(SWEEP_INSTANCES):
        path = workdir / f"sweep{i}.json"
        path.write_text(json.dumps(sweep_instance(rng)), encoding="utf-8")
        for j in range(3):
            for k in range(2):
                argv = ("sweep", str(path), "--j", str(j), "--k", str(k))
                jobs.append(Job("sweep", argv, 1, _check_sweep))
        if i % SWEEP_RENDER_EVERY == 0:
            svg = workdir / f"sweep{i}.svg"
            jobs.append(Job("render", ("render", str(path), "-o", str(svg)), 1, _check_render(svg)))
    return jobs


def _repro3d(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for _ in range(REPRO_41_JOBS):
        side = rng.uniform(0.5, 2.0)
        r = side * rng.uniform(0.03, 0.15)  # spheres fit below r = 0.192 * side
        argv = ("repro3d", "--example", "4.1", "--side", repr(side), "--r", repr(r))
        jobs.append(Job("repro3d 4.1", argv, 8, _check_repro(8)))
    for t in REPRO_42_T:
        factor = rng.uniform(5.0, 50.0)
        argv = ("repro3d", "--example", "4.2", "--t", str(t), "--factor", repr(factor))
        jobs.append(Job(f"repro3d 4.2 t={t}", argv, 4 * t, _check_repro(4 * t)))
    return jobs


_BUILDERS = {
    "fuzz2d": _fuzz2d,
    "sweep2d": _sweep2d,
    "oracle2d": _oracle2d,
    "repro3d": _repro3d,
}


def build(workload: str, seed: int, workdir: str | Path) -> list[Job]:
    """The seeded pass of one workload; writes any input files into workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, workdir)
    rng.shuffle(jobs)
    return jobs
