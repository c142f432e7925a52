"""Deterministic report serialization.

Reports are canonical JSON: sorted keys, two-space indent, shortest
round-trip float repr, trailing newline.  Anything time-dependent stays out
of the serialized payload so identical inputs give byte-identical files.

``canonical_json`` writes the bytes of ``json.dumps(data, sort_keys=True,
indent=2, allow_nan=False) + "\\n"`` with a small writer of its own: CPython
skips its C encoder whenever ``indent`` is set, and the pure-Python
encoder's chain of generators costs more than a short report's solves.
"""

from __future__ import annotations

import json

from . import __version__
from .hull import ContainmentResult
from .spheres import Example41Report, Example42Report, PairOutcome
from .witness import Witness, XiSweepReport

TOOL_INFO = {"name": "carousel", "version": __version__}


_STR = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    if x - x != 0.0:  # NaN or an infinity
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# scalar writers by exact type; subclasses go through the isinstance tests below
_SCALARS = {
    str: _STR,
    float: _float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write(o, out: list, indent: str) -> None:
    """Append the JSON text of ``o`` to ``out``; ``indent`` is the newline before its items."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        out.append(scalar(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _STR(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in o:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(sep + scalar(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    # subclasses, tested in the stdlib encoder's order so a bool is not an int
    elif isinstance(o, str):
        out.append(_STR(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def canonical_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    Holds for str-keyed dicts, lists, tuples, str, int, float, bool and
    None, the types reports are made of; NaN and infinities raise
    ValueError, and any other type or key TypeError.
    """
    out: list[str] = []
    _write(data, out, "\n")
    out.append("\n")
    return "".join(out)


def containment_to_dict(res: ContainmentResult) -> dict:
    """A 2D or 3D verdict; a 3D witness direction's tuple is written as an array."""
    return {
        "contained": res.contained,
        "slack": res.slack,
        "witness_direction": res.witness_direction,
    }


def _outcome_to_dict(o: PairOutcome) -> dict:
    out = {"j": o.j, "k": o.k, **containment_to_dict(o.result)}
    if o.projection_certificate is not None:
        out["projection_certificate"] = containment_to_dict(o.projection_certificate)
    return out


def witness_to_dict(w: Witness) -> dict:
    return {"j": w.j, "k": w.k, "slack": w.slack}


def sweep_to_dict(rep: XiSweepReport) -> dict:
    return {
        "j": rep.j,
        "k": rep.k,
        "xi_star": rep.xi_star,
        "slack_at_xi_star": rep.slack_at_xi_star,
        "tangency": rep.tangency.value,
    }


def _refutations_to_dict(rep: Example41Report | Example42Report) -> dict:
    """Whether an example refutes every inclusion, and each inclusion's outcome."""
    return {
        "all_refuted": rep.all_refuted,
        "outcomes": [_outcome_to_dict(o) for o in rep.outcomes],
    }


def example41_to_dict(rep: Example41Report) -> dict:
    return {
        "side": rep.side,
        "r": rep.r,
        "face_distances": [list(d) for d in rep.face_distances],
        "centers": [list(s[:3]) for s in rep.spheres],
        **_refutations_to_dict(rep),
    }


def example42_to_dict(rep: Example42Report) -> dict:
    return {
        "t": rep.t,
        "arc_radius_factor": rep.arc_radius_factor,
        "side": rep.side,
        "arc_center": list(rep.arc_center),
        "arc_radius": rep.arc_radius,
        "sphere_indices": list(rep.sphere_indices),
        "spheres": [list(s) for s in rep.spheres],
        "tangency_residuals": list(rep.tangency_residuals),
        "interior_margins": list(rep.interior_margins),
        **_refutations_to_dict(rep),
    }
