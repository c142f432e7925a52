"""Scenario execution: dispatch a validated scenario to its module operation.

Exit-code contract: 0 the scenario's claim is verified, 1 it is refuted or
fails, 2 the input is invalid, 3 the program itself failed.  Reports are
deterministic functions of the scenario bytes.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CarouselError
from .reports import (
    TOOL_INFO,
    canonical_json,
    example41_to_dict,
    example42_to_dict,
    sweep_to_dict,
    witness_to_dict,
)
from .scenario import Scenario
from .spheres import example_4_1, example_4_2
from .witness import two_carousel_points, witness_search, xi_sweep_fixed

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _judged(body: dict, claim: str, holds: bool) -> tuple[dict, int]:
    """A report body with its claim and the verdict on it, and the exit code."""
    verdict = "verified" if holds else "refuted"
    return {**body, "claim": claim, "verdict": verdict}, EXIT_VERIFIED if holds else EXIT_REFUTED


def _run_witness(scenario: Scenario) -> tuple[dict, int]:
    """theorem2d and corollary2d: the row's bases are sites iff their radii are 0."""
    witnesses = witness_search(scenario.row)
    body = {"witnesses": [witness_to_dict(w) for w in witnesses]}
    return _judged(body, "a witness pair exists", bool(witnesses))


def _run_points(scenario: Scenario) -> tuple[dict, int]:
    w, holds = two_carousel_points(scenario.row)
    return _judged({"witness": witness_to_dict(w)}, "the decomposition yields a witness", holds)


def _run_sweep(scenario: Scenario) -> tuple[dict, int]:
    rep = xi_sweep_fixed(scenario.row, scenario.j, scenario.k)
    return _judged({"sweep": sweep_to_dict(rep)}, "critical scale located", True)


def _run_ex41(scenario: Scenario) -> tuple[dict, int]:
    rep = example_4_1(scenario.side, scenario.r)
    return _judged({"example": example41_to_dict(rep)}, "all 8 inclusions refuted", rep.all_refuted)


def _run_ex42(scenario: Scenario) -> tuple[dict, int]:
    rep = example_4_2(scenario.t, scenario.arc_radius_factor, scenario.side, scenario.r)
    claim = "every sphere refuted against the others"
    return _judged({"example": example42_to_dict(rep)}, claim, rep.all_refuted)


_RUNNERS = {
    "theorem2d": _run_witness,
    "corollary2d": _run_witness,
    "points2d": _run_points,
    "sweep": _run_sweep,
    "sphere3_ex41": _run_ex41,
    "sphere3_ex42": _run_ex42,
}


def run_scenario_obj(scenario: Scenario) -> tuple[dict, int]:
    """Execute one scenario; returns (report dict, exit code).

    Scenario geometry that violates an operation's hypotheses (for example a
    circle outside the site hull, a point on the triangle's boundary or a
    sphere radius too large for its tetrahedron) is an input error, not a
    refutation: any CarouselError of the run gives the verdict "input_error"
    and the message.
    """
    head = {"tool": TOOL_INFO, "kind": scenario.kind, "scenario": scenario.raw}
    try:
        body, code = _RUNNERS[scenario.kind](scenario)
    except CarouselError as exc:
        return {**head, "verdict": "input_error", "error": str(exc)}, EXIT_INPUT_ERROR
    return {**head, **body}, code


def write_report(report: dict, path: str | Path | None) -> str:
    text = canonical_json(report)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
