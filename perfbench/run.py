#!/usr/bin/env python3
"""Benchmark of the carousel CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload fuzz2d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one workload closed-loop: CLI invocations one
after another through ``carousel.cli.main(argv)``, with stdout and stderr
captured and CAROUSEL_THREADS unset, repeating the workload's seeded pass of
jobs until ``--seconds`` have passed.  Every job's report is checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see NOTES.md).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the distinct jobs of the pass, so they do not depend on how many
executions fit into ``--seconds``; the per-execution counts are printed on
the ``failed_ratio`` line.  Work files and span dumps go to
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
PERCENTILE = 90  # the highest one with ten samples beyond it needs >= 100 jobs

# The host's speed drifts by up to 1.7x over tens of seconds, and it moves
# interpreted code most.  A fixed reference task that never touches the
# program is timed between jobs, and job times are scaled to a host on which
# it takes REFERENCE_NOMINAL_S (see NOTES.md).
REFERENCE_NOMINAL_S = 0.003
REFERENCE_EVERY_S = 0.5  # of job time between two reference samples
REFERENCE_REPEATS = 3  # a sample is the median of this many task timings

# Fresh-interpreter set-up: import the CLI, build the workload's inputs, and
# say "ready"; the parent times spawn-to-ready.
_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import carousel.cli, workloads\n"
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])\n"
    "print('ready', flush=True)\n"
)
# The set-up reference: a fresh interpreter that imports only the program's
# dependencies.  Set-up times are scaled to a host on which it takes
# BASELINE_NOMINAL_S, as job times are scaled by the Reference task.
_BASELINE = "import numpy, scipy.spatial\nprint('ready', flush=True)\n"
BASELINE_NOMINAL_S = 0.5


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


class Reference:
    """A fixed task of interpreted float arithmetic and numpy/scipy hull work.

    The mix is about 3:2, between the pure-Python 2D workloads and the
    array-heavy oracle and 3D ones.
    """

    def __init__(self) -> None:
        import numpy as np
        from scipy.spatial import ConvexHull

        self._np, self._hull = np, ConvexHull
        self._points = np.random.default_rng(0).standard_normal((3600, 2))
        self.samples: list[float] = []

    def _task_s(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(6000):
            acc += math.hypot(i * 0.5, 1.0) * math.cos(i)
        self._hull(self._points)
        self._np.cos(self._points).sum()
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(statistics.median(self._task_s() for _ in range(REFERENCE_REPEATS)))

    def scale_at(self, i: int) -> float:
        """Factor to nominal speed around sample i (median of its neighbours)."""
        near = self.samples[max(0, i - 1):i + 2]
        return REFERENCE_NOMINAL_S / statistics.median(near)


class Loop:
    """Closed loop over a pass of jobs, with outcome accounting per execution."""

    def __init__(self, cli, jobs: list[workloads.Job], reference: Reference | None = None):
        self.cli, self.jobs, self.reference = cli, jobs, reference
        self.position: list[int] = []  # index in the pass, per execution
        self.latency: list[float] = []  # seconds, per execution
        self.delivered: list[int] = []  # items, 0 for a failed execution
        self.ref_index: list[int] = []  # last reference sample before it
        self.failed = 0
        self.failed_positions: set[int] = set()  # jobs that failed at least once
        self.wrong = 0  # exited 0 with a report that fails its check
        self.reasons: collections.Counter = collections.Counter()
        self._since_ref = 0.0
        if reference is not None:
            reference.sample()

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def run_job(self, position: int) -> None:
        """Run one CLI invocation and account for its latency and outcome."""
        job = self.jobs[position]
        out, err = io.StringIO(), io.StringIO()
        reason = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejecting an argument
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed job
            code = None
            reason = type(exc).__name__
        elapsed = time.perf_counter() - start
        if reason is None and code != 0:
            reason = f"exit {code}"
        if reason is None:
            try:
                reason = job.check(out.getvalue())
            except (ValueError, KeyError, TypeError):
                reason = "check: malformed report"
            self.wrong += reason is not None
        if reason is not None:
            self.failed += 1
            self.failed_positions.add(position)
            self.reasons[f"{job.label}: {reason}"] += 1
        self.position.append(position)
        self.latency.append(elapsed)
        self.delivered.append(0 if reason else job.items)
        if self.reference is not None:
            self.ref_index.append(len(self.reference.samples) - 1)
            self._since_ref += elapsed
            if self._since_ref >= REFERENCE_EVERY_S:
                self.reference.sample()
                self._since_ref = 0.0

    def run_for(self, seconds: float) -> None:
        """Continue the repeated pass until ``seconds`` have passed (at least one job)."""
        start = time.perf_counter()
        ran = 0
        while ran == 0 or time.perf_counter() - start < seconds:
            self.run_job(self.attempted % len(self.jobs))
            ran += 1
        self.reference.sample()

    def finish_first_pass(self) -> None:
        """Run the jobs of the first pass that a short run did not reach."""
        while self.attempted < len(self.jobs):
            self.run_job(self.attempted)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> None:
        for position in range(len(self.jobs)):
            if tracer is not None:
                tracer.job += 1
            self.run_job(position)

    def items_per_s(self) -> float:
        return sum(self.delivered) / sum(self.latency)

    def scaled_latency(self) -> list[float]:
        return [t * self.reference.scale_at(i) for t, i in zip(self.latency, self.ref_index)]


def warm_up(cli, jobs: list[workloads.Job]) -> None:
    """One untimed job of each verb, so first-call caches are filled."""
    loop = Loop(cli, jobs)
    seen = set()
    for position, job in enumerate(jobs):
        if job.argv[0] not in seen:
            seen.add(job.argv[0])
            loop.run_job(position)


def time_to_ready(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until it prints "ready"; waits for its exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=os.environ.copy(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-400:]}")
    return elapsed


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of a fresh interpreter, raw and scaled by the baseline.

    Set-up is spawn until ``carousel.cli`` is imported and the workload's
    inputs are built.  The baseline runs right before it.
    """
    baseline = time_to_ready([sys.executable, "-c", _BASELINE])
    workdir = RUN_DIR / f"setup-{os.getpid()}"
    try:
        raw = time_to_ready([sys.executable, "-c", _PROBE, str(SRC), str(HERE),
                             workload, str(seed), str(workdir)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return raw, raw * BASELINE_NOMINAL_S / baseline


def import_cli():
    sys.path.insert(0, str(SRC))
    from carousel import cli

    if Path(cli.__file__).resolve().parent != SRC / "carousel":
        raise BenchError(f"imported carousel from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "CAROUSEL_THREADS": os.environ.get("CAROUSEL_THREADS", "unset"),
    }


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(workload: str, loop: Loop, setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics, with times scaled by the reference.

    items_per_s divides the items one pass delivers by the pass's typical
    duration: the sum over its jobs of each job's median scaled latency, so
    a short stall of the host does not count against the program.
    """
    scaled = loop.scaled_latency()
    by_job: dict[int, list[int]] = collections.defaultdict(list)
    for execution, position in enumerate(loop.position):
        by_job[position].append(execution)
    pass_s = sum(statistics.median(scaled[e] for e in ex) for ex in by_job.values())
    pass_items = sum(statistics.fmean(loop.delivered[e] for e in ex) for ex in by_job.values())

    lat_ms = [t * 1e3 for t in scaled]
    raw_ms = [t * 1e3 for t in loop.latency]
    n = len(lat_ms)
    beyond = n - math.ceil(n * PERCENTILE / 100)
    refs = loop.reference.samples
    unit = workloads.UNIT_OF_WORK[workload]
    metrics = {
        "items_per_s": (pass_items / pass_s, "1/s",
                        f"{sum(loop.delivered)} {unit} delivered in {sum(loop.latency):.3f} s "
                        f"of CLI time, raw {loop.items_per_s():.6g}"),
        "job_p50_ms": (statistics.median(lat_ms), "ms",
                       f"n={n}, raw {statistics.median(raw_ms):.6g}"),
        f"job_p{PERCENTILE}_ms": (percentile(lat_ms, PERCENTILE), "ms",
                                  f"n={n}, {beyond} beyond, raw {percentile(raw_ms, PERCENTILE):.6g}"),
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s",
                    f"median of {len(setup)} fresh interpreters, raw "
                    + " ".join(f"{raw:.3f}" for raw, _ in setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of this process"),
    }
    print(f"reference: median {statistics.median(refs) * 1e3:.4g} ms over {len(refs)} samples "
          f"(min {min(refs) * 1e3:.4g}, max {max(refs) * 1e3:.4g}); "
          f"job times below are scaled to a reference of {REFERENCE_NOMINAL_S * 1e3:g} ms, "
          f"set-up to a bare numpy and scipy import of {BASELINE_NOMINAL_S:g} s")
    for name, (value, unit_, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit_} ({note})")
    print(f"failed_ratio = {loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted} jobs)")
    return {name: (value, unit_) for name, (value, unit_, _) in metrics.items()}


def traced(cli, args, jobs) -> tuple[dict, list[Loop]]:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    tracer = tracing.Tracer()
    plain, spanned = Loop(cli, jobs), Loop(cli, jobs)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        plain.run_pass()
        tracer.install()
        try:
            spanned.run_pass(tracer)
        finally:
            tracer.uninstall()
        passes += 1

    metrics = tracer.layer_metrics(passes)
    untraced_ips, traced_ips = plain.items_per_s(), spanned.items_per_s()
    metrics["tracing.items_per_s_untraced"] = (untraced_ips, "1/s")
    metrics["tracing.items_per_s_traced"] = (traced_ips, "1/s")
    metrics["tracing.overhead"] = (1.0 - traced_ips / untraced_ips, "ratio")
    print(f"traced {passes} passes of {len(jobs)} jobs, {len(tracer.spans)} spans")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "passes": passes, "environment": environment()})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics, [plain, spanned]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("CAROUSEL_THREADS", None)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if not (SRC / "carousel" / "cli.py").is_file():
            raise BenchError(f"no carousel sources under {SRC}; run from a source checkout")
        cli = import_cli()
        jobs = workloads.build(args.workload, args.seed, workdir)
        print("environment " + json.dumps(environment(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: pass of {len(jobs)} jobs, "
              f"{sum(j.items for j in jobs)} {workloads.UNIT_OF_WORK[args.workload]}")
        warm_up(cli, jobs)
        if args.trace:
            metrics, loops = traced(cli, args, jobs)
        else:
            # set-up probes are spread over the run, so they meet the host's
            # speed phases as the jobs do
            reference = Reference()
            loop = Loop(cli, jobs, reference)
            setup = []
            for _ in range(SETUP_REPEATS):
                setup.append(probe_setup(args.workload, args.seed))
                loop.run_for(args.seconds / SETUP_REPEATS)
            loop.finish_first_pass()
            metrics, loops = end_to_end(args.workload, loop, setup), [loop]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons = sum((loop.reasons for loop in loops), collections.Counter())
    for reason, count in sorted(reasons.items()):
        print(f"failed {count}x {reason}")
    # Every pass runs the same job list, so the result line counts distinct
    # jobs: each ran at least once, and one that failed in any execution is
    # failed.  A count of executions would vary with the host's speed.
    result = {
        "correct": all(loop.wrong == 0 for loop in loops),
        "attempted": len(set().union(*(loop.position for loop in loops))),
        "failed": len(set().union(*(loop.failed_positions for loop in loops))),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
