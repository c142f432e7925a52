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
from .scenario import Scenario, load_scenario
from .spheres import example_4_1, example_4_2
from .witness import (
    corollary_witness_search,
    two_carousel_points,
    witness_search,
    xi_sweep_fixed,
)

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _witness_report(witnesses) -> tuple[dict, int]:
    report = {
        "witnesses": [witness_to_dict(w) for w in witnesses],
        "claim": "a witness pair exists",
        "verdict": "verified" if witnesses else "refuted",
    }
    return report, EXIT_VERIFIED if witnesses else EXIT_REFUTED


def _run_theorem(scenario: Scenario) -> tuple[dict, int]:
    return _witness_report(witness_search(scenario.instance()))


def _run_corollary(scenario: Scenario) -> tuple[dict, int]:
    return _witness_report(corollary_witness_search(*scenario.circles))


def _run_points(scenario: Scenario) -> tuple[dict, int]:
    b0, b1 = (c.center for c in scenario.circles)
    w = two_carousel_points(scenario.sites, b0, b1)
    body = {
        "witness": witness_to_dict(w),
        "claim": "the decomposition yields a witness",
        "verdict": "verified",
    }
    return body, EXIT_VERIFIED


def _run_sweep(scenario: Scenario) -> tuple[dict, int]:
    rep = xi_sweep_fixed(scenario.instance(), scenario.j, scenario.k)
    body = {
        "sweep": sweep_to_dict(rep),
        "claim": "critical scale located",
        "verdict": "verified",
    }
    return body, EXIT_VERIFIED


def _run_ex41(scenario: Scenario) -> tuple[dict, int]:
    rep = example_4_1(scenario.side, scenario.r)
    body = {
        "example": example41_to_dict(rep),
        "claim": "all 8 inclusions refuted",
        "verdict": "verified" if rep.all_refuted else "refuted",
    }
    return body, EXIT_VERIFIED if rep.all_refuted else EXIT_REFUTED


def _run_ex42(scenario: Scenario) -> tuple[dict, int]:
    rep = example_4_2(scenario.t, scenario.arc_radius_factor, scenario.side, scenario.r)
    body = {
        "example": example42_to_dict(rep),
        "claim": "every sphere refuted against the others",
        "verdict": "verified" if rep.all_refuted else "refuted",
    }
    return body, EXIT_VERIFIED if rep.all_refuted else EXIT_REFUTED


_RUNNERS = {
    "theorem2d": _run_theorem,
    "corollary2d": _run_corollary,
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


def run_scenario(path: str | Path) -> tuple[dict, int]:
    """Load and execute a scenario file, as ``run_scenario_obj`` does."""
    return run_scenario_obj(load_scenario(path))


def write_report(report: dict, path: str | Path | None) -> str:
    text = canonical_json(report)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
