"""The benchmark tracer's layer names still name functions of the package,
and a traced run of every verb still works.

``perfbench/tracing.py`` wraps each ``LAYERS`` entry, "module.function", by
``getattr`` on ``carousel.<module>``; a renamed or deleted function breaks
every traced benchmark run, and so does a layer whose return value no
longer has what the tracer reads off it.  The tracer is read as source and
executed in a fresh namespace, so nothing is imported from, or written to,
its directory.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> dict:
    """The namespace of ``tracing.py``, executed from source."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_layer_resolves_to_a_function():
    layers = _tracing()["LAYERS"]
    assert layers
    for name in layers:
        module, func = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"carousel.{module}"), func, None)
        assert callable(target), name


def test_cli_import_loads_every_traced_module():
    # the tracer looks each layer's module up in sys.modules and never imports
    # it, so every one must come with carousel.cli, in a fresh interpreter
    modules = sorted({name.rsplit(".", 1)[0] for name in _tracing()["LAYERS"]})
    probe = (
        "import sys, carousel.cli\n"
        "print(*[m for m in sys.argv[1:] if 'carousel.' + m not in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACING.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", probe, *modules], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == ""


def test_traced_run_of_every_verb(tmp_path):
    # the tracer wraps every layer around one job of each verb, reads the
    # outcome of circle_in_hull, sphere_in_hull3 and witness_search from
    # their return values, and counts one cli.main call per job
    from carousel import cli

    root = TRACING.parents[1]
    scenarios = sorted((root / "scenarios").glob("*.json"))
    sweep = root / "scenarios" / "sweep_leg_tangency.json"
    jobs = [["check", str(path)] for path in scenarios]
    jobs += [
        ["sweep", str(sweep), "--j", "1", "--k", "0"],
        ["render", str(sweep)],
        *(["fuzz", "--kind", kind, "--n", "5", "--seed", "3"]
          for kind in ("theorem2d", "corollary2d", "points2d")),
        ["oracle", "--n", "2", "--seed", "3"],
        ["repro3d", "--example", "4.1"],
    ]
    tracer = _tracing()["Tracer"]()
    tracer.install()
    try:
        for job, argv in enumerate(jobs):
            tracer.job = job
            out = "-o", str(tmp_path / f"job{job}.{'svg' if argv[0] == 'render' else 'json'}")
            assert cli.main([*argv, *out]) == 0, argv
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"][0] == len(jobs)
    assert metrics["hull.circle_in_hull.calls"][0] > 0
    assert metrics["witness.witness_search.calls"][0] > 0
    assert len(list(tmp_path.iterdir())) == len(jobs)
    assert cli.main.__module__ == "carousel.cli" and not hasattr(cli.main, "__wrapped__")
