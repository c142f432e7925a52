"""Scenario execution: dispatch a validated scenario to its module operation.

Exit-code contract: 0 the scenario's claim is verified, 1 it is refuted or
fails, 2 the input is invalid, 3 the program itself failed.  Reports are
deterministic functions of the scenario bytes.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CarouselError, InvalidInstance
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


def _witness_report(kind: str, witnesses) -> tuple[dict, int]:
    report = {
        "witnesses": [witness_to_dict(w) for w in witnesses],
        "claim": "a witness pair exists",
        "verdict": "verified" if witnesses else "refuted",
    }
    return report, EXIT_VERIFIED if witnesses else EXIT_REFUTED


def run_scenario_obj(scenario: Scenario) -> tuple[dict, int]:
    """Execute one scenario; returns (report dict, exit code)."""
    kind = scenario.kind
    tol = scenario.tolerance
    if kind == "theorem2d":
        body, code = _witness_report(kind, witness_search(scenario.instance(), tol))
    elif kind == "corollary2d":
        c0, c1, c2, u0, u1 = scenario.circles
        body, code = _witness_report(kind, corollary_witness_search(c0, c1, c2, u0, u1, tol))
    elif kind == "points2d":
        sites = scenario.sites
        b0 = scenario.circles[0].center
        b1 = scenario.circles[1].center
        w = two_carousel_points(sites, b0, b1, tol)
        body = {
            "witness": witness_to_dict(w),
            "claim": "the decomposition yields a witness",
            "verdict": "verified",
        }
        code = EXIT_VERIFIED
    elif kind == "sweep":
        j = scenario.j if scenario.j is not None else 0
        k = scenario.k if scenario.k is not None else 0
        tol_bisect = scenario.tol if scenario.tol is not None else 1e-9
        rep = xi_sweep_fixed(scenario.instance(), j, k, tol_bisect, tol)
        body = {
            "sweep": sweep_to_dict(rep),
            "claim": "critical scale located",
            "verdict": "verified",
        }
        code = EXIT_VERIFIED
    elif kind == "sphere3_ex41":
        rep = example_4_1(scenario.side, scenario.r, tol)
        body = {
            "example": example41_to_dict(rep),
            "claim": "all 8 inclusions refuted",
            "verdict": "verified" if rep.all_refuted else "refuted",
        }
        code = EXIT_VERIFIED if rep.all_refuted else EXIT_REFUTED
    elif kind == "sphere3_ex42":
        rep = example_4_2(scenario.t, scenario.arc_radius_factor, scenario.side, scenario.r, tol)
        body = {
            "example": example42_to_dict(rep),
            "claim": "every sphere refuted against the others",
            "verdict": "verified" if rep.all_refuted else "refuted",
        }
        code = EXIT_VERIFIED if rep.all_refuted else EXIT_REFUTED
    else:  # pragma: no cover - parse_scenario rejects unknown kinds
        raise CarouselError(f"unhandled kind {kind!r}")

    report = {"tool": TOOL_INFO, "kind": kind, "scenario": scenario.raw, **body}
    return report, code


def run_scenario(path: str | Path) -> tuple[dict, int]:
    """Load and execute a scenario file.

    Scenario geometry that violates an operation's hypotheses (for example a
    circle outside the site hull) is an input error, not a refutation.
    """
    scenario = load_scenario(path)
    try:
        return run_scenario_obj(scenario)
    except InvalidInstance as exc:
        report = {
            "tool": TOOL_INFO,
            "kind": scenario.kind,
            "scenario": scenario.raw,
            "verdict": "input_error",
            "error": str(exc),
        }
        return report, EXIT_INPUT_ERROR


def write_report(report: dict, path: str | Path | None) -> str:
    text = canonical_json(report)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
