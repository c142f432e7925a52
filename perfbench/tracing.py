"""Span tracing of carousel layers from outside the program.

``Tracer.install`` replaces each listed function, in every ``carousel.*``
module namespace that binds it, with a wrapper that records one span per
call: (layer, start, end, parent span, job id).  Wrapping every binding
matters because ``from .hull import circle_in_hull`` copies the name into the
importing module.  Spans stay in memory until ``write``; ``layer_metrics``
derives calls, total and self time and the ratios from them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "hull.circle_in_hull",
    "hull.hull_boundary",
    "witness.witness_search",
    "witness.corollary_witness_search",
    "witness.two_carousel_points",
    "witness.xi_sweep_fixed",
    "witness.sweep_slack",
    "witness.random_instance",
    "witness.random_points_instance",
    "witness.random_corollary_instance",
    "spheres.sphere_in_hull3",
    "spheres.projection_reduction",
    "spheres.example_4_1",
    "spheres.example_4_2",
    "oracle.sampling_oracle_contains",
    "svgfig.render_svg",
    "scenario.load_scenario",
    "reports.canonical_json",
    "fuzz.run_fuzz",
    "fuzz.run_oracle_check",
    "cli.main",
)

SOLVE = "hull.circle_in_hull"
# layers whose nested circle_in_hull calls ("solves") are counted
SOLVE_PARENTS = ("witness.xi_sweep_fixed", "witness.random_instance")
JK_PAIRS = 6  # (j, k) pairs tried by one witness_search

# per-call outcome counters, read off the wrapped function's return value
_OUTCOMES = {
    "hull.circle_in_hull": lambda res: int(res.contained),
    "spheres.sphere_in_hull3": lambda res: int(not res.contained),
    "witness.witness_search": len,
}

STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "mean_us": "us"}
RATIOS = {
    "witness.xi_sweep_fixed.solves_per_call": "solves/call",
    "witness.random_instance.solves_per_call": "solves/call",
    "witness.witness_search.found_ratio": "ratio",
    "hull.circle_in_hull.contained_ratio": "ratio",
    "spheres.sphere_in_hull3.refuted_ratio": "ratio",
}


class Tracer:
    """Collects spans from wrapped carousel functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.outcomes = {name: 0 for name in _OUTCOMES}
        self.job = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, name: str, fn):
        spans, stack, outcomes = self.spans, self._stack, self.outcomes
        outcome = _OUTCOMES.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.job)
            if outcome is not None:
                outcomes[name] += outcome(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "carousel" or n.startswith("carousel."))]
        for index, name in enumerate(LAYERS):
            module, func = name.rsplit(".", 1)
            original = getattr(sys.modules[f"carousel.{module}"], func)
            wrapper = self._wrap(index, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass of the job list; ratios over all calls.

        A layer's self time is its span's duration minus the time its child
        spans cover.  Ratios read 0 when their base is 0.
        """
        n = len(LAYERS)
        calls, total, child = [0] * n, [0] * n, [0] * len(self.spans)
        nested = {p: 0 for p in SOLVE_PARENTS}
        watch = {LAYERS.index(p): p for p in SOLVE_PARENTS}
        solve = LAYERS.index(SOLVE)
        spans = self.spans
        for index, start, end, parent, _ in spans:
            calls[index] += 1
            total[index] += end - start
            if parent >= 0:
                child[parent] += end - start
            if index == solve:
                while parent >= 0:
                    owner = watch.get(spans[parent][0])
                    if owner is not None:
                        nested[owner] += 1
                    parent = spans[parent][3]
        self_ns = [0] * n
        for sid, (index, start, end, _, _) in enumerate(spans):
            self_ns[index] += end - start - child[sid]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (calls[i] / passes, STAT_UNITS["calls"])
            out[f"{name}.total_s"] = (total[i] / passes / 1e9, STAT_UNITS["total_s"])
            out[f"{name}.self_s"] = (self_ns[i] / passes / 1e9, STAT_UNITS["self_s"])
            out[f"{name}.mean_us"] = (ratio(total[i] / 1e3, calls[i]), STAT_UNITS["mean_us"])
        count = dict(zip(LAYERS, calls))
        values = {
            "witness.xi_sweep_fixed.solves_per_call":
                ratio(nested["witness.xi_sweep_fixed"], count["witness.xi_sweep_fixed"]),
            "witness.random_instance.solves_per_call":
                ratio(nested["witness.random_instance"], count["witness.random_instance"]),
            "witness.witness_search.found_ratio":
                ratio(self.outcomes["witness.witness_search"],
                      JK_PAIRS * count["witness.witness_search"]),
            "hull.circle_in_hull.contained_ratio":
                ratio(self.outcomes["hull.circle_in_hull"], count["hull.circle_in_hull"]),
            "spheres.sphere_in_hull3.refuted_ratio":
                ratio(self.outcomes["spheres.sphere_in_hull3"], count["spheres.sphere_in_hull3"]),
        }
        for name, value in values.items():
            out[name] = (value, RATIOS[name])
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span as gzip'd JSON: names, field order and rows."""
        doc = {
            **meta,
            "layers": list(LAYERS),
            "fields": ["layer", "start_ns", "end_ns", "parent", "job"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with gzip.open(tmp, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
        tmp.replace(path)
