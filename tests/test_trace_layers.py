"""The benchmark tracer's layer names still name functions of the package.

``perfbench/tracing.py`` wraps each ``LAYERS`` entry, "module.function", by
``getattr`` on ``carousel.<module>``; a renamed or deleted function breaks
every traced benchmark run.  The tracer is read as source and executed in a
fresh namespace, so nothing is imported from, or written to, its directory.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves_to_a_function():
    layers = _layers()
    assert layers
    for name in layers:
        module, func = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"carousel.{module}"), func, None)
        assert callable(target), name
