"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

A tiny run of each workload must print every end-to-end metric named in
BENCHMARK.json with its unit (plus failed_ratio), end with a result line of
the agreed shape, and a traced run must print every per-layer metric.  A copy
of the benchmark without the program's sources must fail without a result.
Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "0.5"):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
            "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return lines[:-1], result


def _check_metrics(result: dict, spec: list[dict], lines: list[str]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]


def test_end_to_end_metrics_of_every_workload():
    for workload in WORKLOADS:
        lines, result = _result(_run(workload, 0))
        _check_metrics(result, SPEC["end_to_end"], lines)
        assert any(line.startswith("failed_ratio = ") for line in lines), workload
        assert result["correct"], workload


def test_layer_metrics_of_a_traced_run():
    for workload in WORKLOADS:
        lines, result = _result(_run(workload, 1))
        _check_metrics(result, SPEC["per_layer"], lines)


def test_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=Path(tmp))
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for test in (test_fails_without_sources, test_end_to_end_metrics_of_every_workload,
                 test_layer_metrics_of_a_traced_run):
        test()
        print(f"ok {test.__name__}")
