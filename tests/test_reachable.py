"""Every function of the package is reached by a verb, or says why it is not.

Every verb runs in process under ``sys.setprofile``: ``check`` and
``render`` of each file in ``scenarios/``, ``sweep`` of all six (j, k),
the three fuzz kinds, ``oracle``, and ``repro3d`` of Examples 4.1 and 4.2.
A function that none of them calls must be a layer that
``perfbench/tracing.py`` wraps (its ``LAYERS``, read from source as
``test_trace_layers.py`` reads it) or be on ``UNREACHED`` with its reason;
anything else is reachable only from the tests, and belongs in them.
"""

import importlib
import inspect
import pkgutil
import sys

import carousel
from carousel import cli
from test_trace_layers import TRACING, _tracing

ROOT = TRACING.parents[1]

# package functions that no verb calls, each with the reason it stays
UNREACHED = {
    "cli.run": "the console-script entry: it calls main on sys.argv and exits the process",
    "scenario._where": "words a schema error, which no valid scenario raises",
    "scenario.row_scenario_dict": "dumps a fuzz failure as a scenario; these campaigns have none",
}


def _package_functions() -> dict:
    """Each module-level function the package defines, as "module.name" -> function."""
    out = {}
    for info in pkgutil.iter_modules(carousel.__path__):
        module = importlib.import_module(f"carousel.{info.name}")
        for name, value in vars(module).items():
            if inspect.isfunction(inspect.unwrap(value)) and value.__module__ == module.__name__:
                out[f"{info.name}.{name}"] = value
    return out


def _verb_argvs() -> list:
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    sweep = ROOT / "scenarios" / "sweep_leg_tangency.json"
    argvs = [[verb, str(path)] for verb in ("check", "render") for path in scenarios]
    argvs += [["sweep", str(sweep), "--j", str(j), "--k", str(k)] for j in range(3) for k in range(2)]
    argvs += [["fuzz", "--kind", kind, "--n", "5", "--seed", "3"]
              for kind in ("theorem2d", "corollary2d", "points2d")]
    argvs += [["oracle", "--n", "30", "--seed", "3"]]
    argvs += [["repro3d", "--example", "4.1"], ["repro3d", "--example", "4.2"]]
    return argvs


def _called_by_verbs(functions: dict, tmp_path) -> set:
    """The names among ``functions`` that one run of every verb calls."""
    codes = {inspect.unwrap(f).__code__: name for name, f in functions.items()}
    for f in functions.values():  # a functools.cache hit would run no frame
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.add(codes[frame.f_code])

    for job, argv in enumerate(_verb_argvs()):
        out = tmp_path / f"job{job}.{'svg' if argv[0] == 'render' else 'json'}"
        sys.setprofile(profile)
        try:
            code = cli.main([*argv, "-o", str(out)])
        finally:
            sys.setprofile(None)
        assert code == 0, argv
    return called


def test_every_package_function_is_reached_or_named(tmp_path):
    functions = _package_functions()
    layers = set(_tracing()["LAYERS"])
    assert set(UNREACHED) <= set(functions), set(UNREACHED) - set(functions)
    called = _called_by_verbs(functions, tmp_path)
    assert "cli.main" in called and "hull.circle_in_hull" in called
    unreached = set(functions) - called
    assert unreached - layers - set(UNREACHED) == set()
    # an entry that a verb now reaches is stale
    assert set(UNREACHED) & called == set()
