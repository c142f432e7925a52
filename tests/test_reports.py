"""The canonical JSON writer is byte for byte the stdlib's sorted, indented dump."""

import json
import math
import random
from pathlib import Path

import pytest

from carousel import harness
from carousel.cli import main
from carousel.reports import canonical_json

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def stdlib(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_every_cli_report_matches_stdlib(tmp_path, monkeypatch):
    texts = []

    def checked(data):
        text = canonical_json(data)
        assert text == stdlib(data)
        texts.append(text)
        return text

    monkeypatch.setattr(harness, "canonical_json", checked)
    runs = [["check", str(path)] for path in sorted(SCENARIOS.glob("*.json"))]
    runs += [["sweep", str(SCENARIOS / "sweep_leg_tangency.json"), "--j", str(j), "--k", str(k)]
             for j in range(3) for k in range(2)]
    runs += [["sweep", str(SCENARIOS / "theorem_concentric.json"), "--j", "2", "--k", "1"]]
    runs += [["fuzz", "--kind", kind, "--n", "40", "--seed", "3"]
             for kind in ("theorem2d", "corollary2d", "points2d")]
    runs += [["oracle", "--n", "10", "--seed", "2"],
             ["repro3d", "--example", "4.1"],
             ["repro3d", "--example", "4.2", "--t", "5"]]
    bad = {"schema": "carousel/1", "kind": "theorem2d", "sites": [[0, 0, 0], [6, 0, 0], [0, 6, 0]],
           "circles": [[2, 2, 0.5], [9, 9, 0.5]]}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(bad), encoding="utf-8")
    runs += [["check", str(src)]]
    for i, argv in enumerate(runs):
        assert main(argv + ["-o", str(tmp_path / f"r{i}.json")]) in (0, 2)
    assert len(texts) == len(runs)


@pytest.mark.parametrize("data", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[], [{}], [[[]]]],
    True, False, None, 1, 0, -7, 2**70, [True, 1, 1.0, False, 0, 0.0],
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1, 2.0,
    "", "plain", "é ☃ 𝄞   \x00 \x1f \" \\ / \n\t", {"é": 1, "e": 2, "z": 3, "A": 4},
    {"sites": [[2, 2, 0.5], [0, 0, 0]], "t": (1, 2.5, "x")},
    [{"b": 1, "a": [-0.0, None]}, "s"],
])
def test_edge_values_match_stdlib(data):
    assert canonical_json(data) == stdlib(data)


def _random_value(rng: random.Random, depth: int):
    pick = rng.randrange(12 if depth < 4 else 7)
    if pick == 0:
        return rng.choice([None, True, False])
    if pick == 1:
        return rng.randint(-10**20, 10**20) if rng.random() < 0.3 else rng.randint(-5, 5)
    if pick in (2, 3):
        return rng.choice([
            rng.uniform(-1e3, 1e3),
            math.ldexp(rng.random(), rng.randint(-1074, 1023)),
            float(rng.randint(-100, 100)),
            -0.0, 5e-324, 0.1,
        ])
    if pick in (4, 5, 6):
        chars = "aZ09 \"\\/\b\f\n\r\t\x00\x7fé €\U0001d11e"
        return "".join(rng.choice(chars) for _ in range(rng.randrange(6)))
    if pick in (7, 8):
        items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        return tuple(items) if rng.random() < 0.3 else items
    keys = ["".join(rng.choice("abcé\"\n") for _ in range(rng.randrange(1, 4)))
            for _ in range(rng.randrange(5))]
    return {key: _random_value(rng, depth + 1) for key in keys}


def test_random_nested_values_match_stdlib():
    rng = random.Random(11)
    for _ in range(2000):
        data = _random_value(rng, 0)
        assert canonical_json(data) == stdlib(data)


def test_ints_stay_ints():
    # raw scenarios echo their numbers as written: [2, 2, 0.5] is not [2.0, 2.0, 0.5]
    assert canonical_json({"circles": [[2, 2, 0.5]]}) == (
        '{\n  "circles": [\n    [\n      2,\n      2,\n      0.5\n    ]\n  ]\n}\n'
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x, lambda x: [1, x], lambda x: {"a": {"b": (x,)}},
])
def test_non_finite_floats_raise(bad, wrap):
    with pytest.raises(ValueError):
        stdlib(wrap(bad))
    with pytest.raises(ValueError):
        canonical_json(wrap(bad))


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object(), {"a": [complex(1, 2)]}])
def test_unsupported_types_raise(bad):
    with pytest.raises(TypeError):
        canonical_json(bad)


def test_subclasses_match_stdlib():
    import enum

    import numpy as np

    class Level(enum.IntEnum):
        LOW = 3

    class Name(str):
        pass

    class Count(int):
        def __repr__(self):
            return "Count()"

        __str__ = __repr__

    data = {"f": np.float64(1.5), "z": np.float64(-0.0), "i": Level.LOW,
            "s": Name("x\n"), "l": [np.float64(0.1), Level.LOW, Name("é"), Count(4)]}
    assert canonical_json(data) == stdlib(data)
