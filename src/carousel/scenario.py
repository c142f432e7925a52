"""Scenario files: a small versioned JSON schema for every CLI verb.

Top-level object: ``schema`` must be "carousel/1"; ``kind`` picks the
geometry payload.  2D entries are [x, y, r] triples, 3D entries are
[x, y, z, r]; sites and bare points must carry r = 0.  A 2D scenario's
five entries are kept as one row of (x, y, r) float triples, the form every
2D procedure takes.  ``seed`` is optional.  Validation is strict: unknown
keys are rejected so fixtures stay diff-able.  The numeric bands are fixed (``planar.EPS_GEOM`` and
``planar.EPS_DECISION``), so no scenario field sets them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, SchemaError
from .planar import is_integer

SCHEMA_TAG = "carousel/1"

_COMMON_KEYS = {"schema", "kind", "seed"}
_KIND_KEYS = {
    "theorem2d": {"sites", "circles"},
    "corollary2d": {"circles"},
    "points2d": {"sites", "circles"},
    "sweep": {"sites", "circles", "j", "k"},
    "sphere3_ex41": {"side", "r"},
    "sphere3_ex42": {"t", "arc_radius_factor", "side", "r"},
}
KINDS = tuple(_KIND_KEYS)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario.

    ``row`` holds a 2D kind's five (x, y, r) objects b0, b1, b2, u0, u1:
    the sites and then the circles, or the five circles of corollary2d.
    """

    kind: str
    seed: int | None
    row: tuple[tuple[float, float, float], ...] = ()
    j: int = 0
    k: int = 0
    side: float = 1.0
    r: float = 0.1
    t: int = 3
    arc_radius_factor: float = 10.0
    raw: dict = field(default_factory=dict, compare=False)


def _where(key: str, i: int | None) -> str:
    return key if i is None else f"{key}[{i}]"


def _num(v, key: str, i: int | None = None) -> float:
    """A finite number of field ``key`` (of its entry i, if given) as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{_where(key, i)}: expected a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:  # a JSON integer beyond float range
        f = math.inf
    if not math.isfinite(f):
        raise SchemaError(f"{_where(key, i)}: number must be finite")
    return f


def _array2d(data, key: str, count: int, point_only: bool = False):
    """Field ``key`` as ``count`` (x, y, r) float triples.

    Each entry is checked in one pass, and its location ``key[i]`` is
    spelled only in the message of an error.
    """
    if key not in data:
        raise SchemaError(f"missing field {key!r}")
    arr = data[key]
    if not isinstance(arr, list) or len(arr) != count:
        raise SchemaError(f"field {key!r} must be a list of {count} entries")
    out = []
    for i, v in enumerate(arr):
        if not isinstance(v, list) or len(v) != 3:
            raise SchemaError(f"{key}[{i}]: expected [x, y, r]")
        x, y, r = _num(v[0], key, i), _num(v[1], key, i), _num(v[2], key, i)
        if r < 0.0:
            raise SchemaError(f"{key}[{i}]: radius must be >= 0")
        if point_only and r != 0.0:
            raise SchemaError(f"{key}[{i}]: must have radius 0")
        out.append((x, y, r))
    return tuple(out)


def scenario_kind(data) -> str:
    """The kind of a decoded scenario object, once its schema tag and field names check out."""
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object")
    if data.get("schema") != SCHEMA_TAG:
        raise SchemaError(f"schema must be {SCHEMA_TAG!r}, got {data.get('schema')!r}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"unknown fields for kind {kind!r}: {sorted(unknown)}")
    return kind


def parse_scenario(data: dict) -> Scenario:
    """Validate a decoded scenario object and build the typed payload."""
    return build_scenario(scenario_kind(data), data)


def build_scenario(kind: str, data: dict) -> Scenario:
    """Validate and build the payload of a decoded object whose ``scenario_kind`` is ``kind``."""
    seed = None
    if "seed" in data:
        s = data["seed"]
        if not is_integer(s) or not 0 <= s < 2**64:
            raise SchemaError("seed must be an unsigned 64-bit integer")
        seed = int(s)

    kwargs = dict(kind=kind, seed=seed, raw=data)

    if kind in ("theorem2d", "sweep"):
        kwargs["row"] = _array2d(data, "sites", 3, point_only=True) + _array2d(data, "circles", 2)
        if kind == "sweep":
            for key, hi in (("j", 2), ("k", 1)):
                if key in data:
                    v = data[key]
                    if not is_integer(v) or not 0 <= v <= hi:
                        raise SchemaError(f"{key} must be an integer in 0..{hi}")
                    kwargs[key] = int(v)
    elif kind == "points2d":
        kwargs["row"] = (_array2d(data, "sites", 3, point_only=True)
                         + _array2d(data, "circles", 2, point_only=True))
    elif kind == "corollary2d":
        kwargs["row"] = _array2d(data, "circles", 5)
    elif kind == "sphere3_ex41":
        kwargs["side"] = _num(data.get("side", 1.0), "side")
        kwargs["r"] = _num(data.get("r", 0.1), "r")
        if kwargs["side"] <= 0.0 or kwargs["r"] <= 0.0:
            raise SchemaError("side and r must be positive")
    elif kind == "sphere3_ex42":
        tval = data.get("t", 3)
        if not is_integer(tval) or tval < 3:
            raise SchemaError("t must be an integer >= 3")
        kwargs["t"] = int(tval)
        kwargs["arc_radius_factor"] = _num(data.get("arc_radius_factor", 10.0), "arc_radius_factor")
        kwargs["side"] = _num(data.get("side", 1.0), "side")
        kwargs["r"] = _num(data.get("r", 0.1), "r")
        if kwargs["arc_radius_factor"] <= 0.0 or kwargs["side"] <= 0.0 or kwargs["r"] <= 0.0:
            raise SchemaError("arc_radius_factor, side and r must be positive")

    return Scenario(**kwargs)


def decode_scenario(path: str | Path):
    """Read and decode a UTF-8 JSON scenario file, without validating it.

    A file that cannot be read, is not UTF-8, is not JSON or nests too
    deeply for the decoder raises ParseError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Read, decode and validate a scenario file."""
    return parse_scenario(decode_scenario(path))


def row_scenario_dict(kind: str, row, seed: int) -> dict:
    """Self-contained scenario object reproducing one drawn row of a fuzz kind.

    ``row`` holds five (x, y, r) objects: the sites and then u0, u1 for
    theorem2d, the sites and then b0, b1 (radius 0) for points2d, or the
    circles c0, c1, c2, u0, u1 for corollary2d.
    """
    objs = [[float(v) for v in obj] for obj in row]
    data = {"schema": SCHEMA_TAG, "kind": kind, "seed": seed}
    if kind == "corollary2d":
        data["circles"] = objs
    else:
        data["sites"], data["circles"] = objs[:3], objs[3:]
    return data
