"""Scenario schema, CLI verbs, exit codes, report and SVG determinism."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from carousel import ParseError, SchemaError
from carousel.cli import main
from carousel.harness import run_scenario_obj
from carousel.planar import EPS_DECISION
from carousel.reports import canonical_json
from carousel.scenario import load_scenario, parse_scenario
from carousel.svgfig import render_svg
from carousel.witness import pair_objects, scaled_instance, xi_sweep_fixed
from test_readme import CLI_LINES

THEOREM = {
    "schema": "carousel/1",
    "kind": "theorem2d",
    "sites": [[0, 0, 0], [6, 0, 0], [0, 6, 0]],
    "circles": [[2, 2, 0.5], [2, 2, 0.5]],
}

SWEEP = {
    "schema": "carousel/1",
    "kind": "sweep",
    "sites": [[0, 0, 0], [8, 0, 0], [0, 8, 0]],
    "circles": [[2, 2, 0.4], [2.5, 2.5, 1.2]],
    "j": 0,
    "k": 0,
}

POINTS = {
    "schema": "carousel/1",
    "kind": "points2d",
    "sites": [[0, 0, 0], [4, 0, 0], [0, 4, 0]],
    "circles": [[1, 1, 0], [2, 1, 0]],
}

COROLLARY = {
    "schema": "carousel/1",
    "kind": "corollary2d",
    "circles": [[0, 0, 1], [8, 0, 1], [0, 8, 1], [2, 2, 0.5], [3, 2, 0.5]],
}

EX41 = {"schema": "carousel/1", "kind": "sphere3_ex41", "side": 1.0, "r": 0.1}
EX42 = {"schema": "carousel/1", "kind": "sphere3_ex42", "t": 4}

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# a file that is not UTF-8, and JSON nested deeper than the decoder can go
UNDECODABLE = [b"\xff\xfe{}", b"[" * 200_000]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write(tmp: Path, name: str, data) -> Path:
    path = tmp / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestSchema:
    def test_roundtrip_minimal(self):
        sc = parse_scenario(THEOREM)
        assert sc.kind == "theorem2d"
        assert sc.row == tuple(tuple(float(v) for v in obj)
                               for obj in THEOREM["sites"] + THEOREM["circles"])

    def test_schema_tag_required(self):
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "schema": "carousel/2"})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as exc:
            parse_scenario({**THEOREM, "kind": "mystery"})
        assert str(exc.value) == (
            "kind must be one of ('theorem2d', 'corollary2d', 'points2d', 'sweep', "
            "'sphere3_ex41', 'sphere3_ex42'), got 'mystery'"
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "extra": 1})

    def test_site_radius_must_be_zero(self):
        bad = {**THEOREM, "sites": [[0, 0, 0.1], [6, 0, 0], [0, 6, 0]]}
        with pytest.raises(SchemaError):
            parse_scenario(bad)

    def test_wrong_entry_arity(self):
        bad = {**THEOREM, "circles": [[2, 2], [2, 2, 0.5]]}
        with pytest.raises(SchemaError):
            parse_scenario(bad)

    def test_nonfinite_rejected(self):
        bad = {**THEOREM, "circles": [[2, 2, 1], [2, 2, float("inf")]]}
        with pytest.raises((SchemaError, ValueError)):
            parse_scenario(json.loads(json.dumps(bad).replace("Infinity", "1e999")))

    @pytest.mark.parametrize("bad", [
        {**EX41, "side": 10**400},
        {**THEOREM, "sites": [[10**400, 0, 0], [6, 0, 0], [0, 6, 0]]},
    ], ids=["ex41-side", "theorem-site"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, bad):
        with pytest.raises(SchemaError, match="number must be finite"):
            parse_scenario(bad)
        assert main(["check", str(write(tmp_path, "big.json", bad))]) == 2
        assert "number must be finite" in capsys.readouterr().err

    def test_seed_range(self):
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "seed": -1})
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "seed": 2**64})
        assert parse_scenario({**THEOREM, "seed": 2**64 - 1}).seed == 2**64 - 1

    def test_tolerance_key_rejected(self, tmp_path):
        # the bands are fixed constants; a scenario cannot set them
        bad = {**THEOREM, "tolerance": {"eps_geom": 1e-10, "eps_decision": 1e-5}}
        with pytest.raises(SchemaError, match="tolerance"):
            parse_scenario(bad)
        assert main(["check", str(write(tmp_path, "t.json", bad))]) == 2

    def test_every_kind_has_a_runner_and_a_renderer(self):
        from carousel import harness, svgfig
        from carousel.scenario import KINDS

        assert set(harness._RUNNERS) == set(svgfig._RENDERERS) == set(KINDS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scenario(p)

    @pytest.mark.parametrize("verb", ["check", "sweep", "render"])
    @pytest.mark.parametrize("raw", UNDECODABLE, ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_file_is_an_input_error(self, tmp_path, capsys, raw, verb):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            load_scenario(p)
        out = ["-o", str(tmp_path / "fig.svg")] if verb == "render" else []
        assert main([verb, str(p), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {p}: ")
        assert "Traceback" not in err


class TestCheckVerb:
    def test_theorem_verified(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", THEOREM)
        out = tmp_path / "rep.json"
        assert main(["check", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "verified"
        assert len(report["witnesses"]) == 6

    def test_points_verified(self, tmp_path):
        path = write(tmp_path, "p.json", POINTS)
        out = tmp_path / "rep.json"
        assert main(["check", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["witness"]["j"] == 0 and report["witness"]["k"] == 0

    def test_points_refuted_when_the_named_inclusion_fails(self, tmp_path):
        # near-cevian points whose named pair (1, 1) fails the kernel by more
        # than the band; the verdict is the kernel's, and the pair is reported
        data = {
            **POINTS,
            "sites": [[2.602854361276897e-05, 8.915528520913464e-05, 0],
                      [0.00029981593005159356, -3.251141663660107e-05, 0],
                      [0.00029902406559807835, -0.00010977566199580497, 0]],
            "circles": [[0.0001668238053490119, 1.1195100114414079e-07, 0],
                        [0.00017941549069409667, -1.0354520423146949e-05, 0]],
        }
        out = tmp_path / "rep.json"
        assert main(["check", str(write(tmp_path, "p.json", data)), "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["verdict"] == "refuted"
        assert (report["witness"]["j"], report["witness"]["k"]) == (1, 1)
        assert report["witness"]["slack"] < -EPS_DECISION

    def test_points_fringe_is_located(self):
        # both points pass the interiority test, and theorem2d verifies them;
        # b1 lies within the orientation band of one cevian, and the side of
        # each cevian read once places it in a sub-triangle
        data = {
            **POINTS,
            "sites": [[-3495.044769918209, -7015.892409932034, 0],
                      [2350.1090744356807, -3485.508093066656, 0],
                      [76.98699372583562, -9877.326524963666, 0]],
            "circles": [[-403.99434342425013, -7718.291317651524, 0],
                        [-403.99172696622, -7718.2872964155795, 0]],
        }
        assert run_scenario_obj(parse_scenario({**data, "kind": "theorem2d"}))[1] == 0
        report, _ = run_scenario_obj(parse_scenario(data))
        assert report["verdict"] == "verified", report.get("error")

    @pytest.mark.parametrize("sites, circles", [
        ([[0, 0, 0], [8, 0, 0], [0, 8, 0]], [[2, 2, 0.4], [2.5, 2.5, 1.2]]),
        (THEOREM["sites"], THEOREM["circles"]),
        (THEOREM["sites"], [[2, 2, 0.5], [100, 100, 1]]),
        ([[0, 0, 0], [2, 0, 0], [5, 0, 0]], [[1, 0, 0.1], [3, 0, 0]]),
        ([[0, 0, 0], [2, 0, 0], [5, 0, 0]], [[1, 0, 0], [3, 0, 0]]),
    ], ids=["general", "concentric", "outside", "collinear", "collinear-points"])
    def test_corollary_with_point_generators_is_the_theorem(self, sites, circles):
        # bases of radius 0 are sites, whichever kind the scenario names
        def run(data):
            report, code = run_scenario_obj(parse_scenario(data))
            return {k: v for k, v in report.items() if k not in ("kind", "scenario")}, code

        theorem = run({**THEOREM, "sites": sites, "circles": circles})
        corollary = run({**COROLLARY, "circles": sites + circles})
        assert corollary == theorem

    @pytest.mark.parametrize("sites, circles", [
        ([[0, 0, 0], [8, 0, 0], [0, 8, 0]], [[2, 2, 0.4], [2.5, 2.5, 1.2]]),
        (THEOREM["sites"], THEOREM["circles"]),
        ([[0, 0, 0], [2, 0, 0], [5, 0, 0]], [[1, 0, 0], [3, 0, 0]]),
    ], ids=["general", "concentric", "collinear-points"])
    def test_corollary_with_point_generators_draws_the_theorem_figure(self, sites, circles):
        # bases of radius 0 are drawn as sites, a triangle with dots, as they are decided
        theorem = render_svg(parse_scenario({**THEOREM, "sites": sites, "circles": circles}))
        corollary = render_svg(parse_scenario({**COROLLARY, "circles": sites + circles}))
        title = "<title>carousel theorem2d</title>"
        assert theorem.count(title) == 1 and "<polygon " in theorem
        assert corollary == theorem.replace(title, "<title>carousel corollary2d</title>")

    def test_corollary_point_generator_beside_circles_is_a_dot(self):
        # each base is drawn by its own radius: c0, a point, is a dot and
        # not an invisible circle of radius 0; the others stay circles
        svg = render_svg(parse_scenario({**COROLLARY, "circles": [
            [0, 0, 0], [8, 0, 1], [0, 8, 1], [2, 2, 0.4], [2.5, 2.5, 1.2]]}))
        assert 'r="0.000000"' not in svg
        assert '<circle cx="0.000000" cy="-0.000000" r="0.060000" fill="#000000"/>' in svg
        assert svg.count('stroke="#303030"') == 2
        assert "<polygon " not in svg  # no site triangle: two bases are circles

    def test_ex42_small_side_verified(self, tmp_path):
        # the interiority margin is EPS_DECISION * side, so side 1e-6 fits
        path = write(tmp_path, "e.json", {**EX42, "side": 1e-6})
        out = tmp_path / "rep.json"
        assert main(["check", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True

    def test_ex41_verified(self, tmp_path):
        path = write(tmp_path, "e.json", EX41)
        out = tmp_path / "rep.json"
        assert main(["check", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["example"]["all_refuted"] is True
        assert len(report["example"]["outcomes"]) == 8

    # sha256 of each scenario file's check report; any change to them is listed in CHANGES.md
    @pytest.mark.parametrize("name, digest", [
        ("corollary_circles", "857ee420ce3bd9aff3ef77918ee0b09386791d2da803d9bd552f7c49c937e07e"),
        ("points_decomposition",
         "313469624b38016855bc657dc52f47f1fbe3009b2da9d01cc2a76def589de479"),
        ("sphere_counterexample_41",
         "8d2b6084dd452038cf0e0738db2d4e246c119cd58ab77b152326e302c85c9e23"),
        ("sphere_counterexample_42",
         "611a11e4aaafa6a40b6a50a7df4e7570144c891126a449efbd1a309a10453858"),
        ("sweep_leg_tangency", "66e5f0527bdd2e33ae7ace7f7fab6806ee4161db1c55c4f0a5a46669bd98a0b0"),
        ("theorem_concentric", "8a1ee61fb954c9a1e61cfbc6a9e61c3d425ad4136db3e792ea9bd5bd5224a001"),
        ("theorem_point_on_site",
         "53dbbf0a1308939e9e5a5059f9fcd4764f05af340dd39051bdb814789b6711f9"),
    ])
    def test_scenario_report_is_pinned(self, tmp_path, name, digest):
        out = tmp_path / f"{name}.json"
        assert main(["check", str(SCENARIOS / f"{name}.json"), "-o", str(out)]) == 0
        assert sha256_of(out) == digest

    def test_malformed_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("nope", encoding="utf-8")
        assert main(["check", str(p)]) == 2

    def test_schema_violation_exits_2(self, tmp_path):
        p = write(tmp_path, "bad.json", {**THEOREM, "kind": "mystery"})
        assert main(["check", str(p)]) == 2

    def test_invalid_geometry_exits_2(self, tmp_path):
        bad = {**THEOREM, "circles": [[3, 3, 2], [2, 2, 0.5]]}  # pokes out
        p = write(tmp_path, "bad.json", bad)
        assert main(["check", str(p)]) == 2

    def test_report_to_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", THEOREM)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"] == "verified"


@pytest.mark.parametrize("argv,message", [
    (["check", {**POINTS, "circles": [[1, 1, 0], [5, 1, 0]]}],
     "b1 is not strictly inside the site triangle"),
    (["check", {**POINTS, "circles": [[1, 1, 0], [1, 1, 0]]}],
     "the two interior points coincide"),
    (["check", {**EX41, "r": 0.3}],
     "radius 0.3 does not fit strictly inside (min face distance 0.19245)"),
    (["repro3d", "--example", "4.1", "--r", "0.3"],
     "radius 0.3 does not fit strictly inside (min face distance 0.19245)"),
    (["repro3d", "--example", "4.1", "--side", "1e308"],
     "the construction leaves the float range "
     "(coordinates must be finite, got (1e+308, 1e+308, inf))"),
    (["repro3d", "--example", "4.1", "--side", "1e200", "--r", "1e199"],
     "the construction leaves the float range "
     "(coordinates must be finite, got (-inf, -inf, -inf))"),
    (["repro3d", "--example", "4.2", "--t", "3", "--side", "1e200", "--r", "1e199"],
     "the construction leaves the float range "
     "(coordinates must be finite, got (-inf, -inf, -inf))"),
    (["repro3d", "--example", "4.2", "--t", "3", "--factor", "1e308", "--side", "2"],
     "the construction leaves the float range "
     "(coordinates must be finite, got (inf, -inf, nan))"),
    (["repro3d", "--example", "4.1", "--side", "1e-200", "--r", "1e-201"],
     "the construction leaves the float range (cannot normalize the zero vector)"),
    (["repro3d", "--example", "4.2", "--t", "3", "--side", "1.01",
      "--factor", "1.7798941929329858e+308"],
     "the construction leaves the float range (length must be finite, got inf for "
     "(1.2711610061536462e+308, -1.2711610061536462e+308, -0.16833333333333333))"),
], ids=["points-outside", "points-coincide", "ex41-radius", "repro3d-radius",
        "ex41-side-overflow", "ex41-scale-overflow", "ex42-scale-overflow",
        "ex42-factor-overflow", "ex41-scale-underflow", "ex42-length-overflow"])
def test_broken_hypothesis_of_every_kind_writes_input_error_report(
    tmp_path, capsys, argv, message
):
    # each kind's hypothesis error is a report over whatever -o held before
    argv = [write(tmp_path, "bad.json", a) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "rep.json"
    out.write_text("stale", encoding="utf-8")
    assert main([str(a) for a in argv] + ["-o", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["verdict"] == "input_error"
    assert report["error"] == message
    assert message in capsys.readouterr().err


class TestSweepVerb:
    def test_sweep_with_flags(self, tmp_path):
        path = write(tmp_path, "s.json", {k: v for k, v in SWEEP.items() if k not in ("j", "k")})
        out = tmp_path / "rep.json"
        assert main(["sweep", str(path), "--j", "0", "--k", "0", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert 0.0 < report["sweep"]["xi_star"] < 1.0
        assert report["sweep"]["tangency"] in ("leg", "front_arc")

    def test_sweep_accepts_theorem_scenario(self, tmp_path):
        path = write(tmp_path, "t.json", THEOREM)
        out = tmp_path / "rep.json"
        assert main(["sweep", str(path), "--j", "1", "--k", "0", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["sweep"]["xi_star"] == 1.0

    # sha256 of the reports as written when every sweep probe built a scaled
    # instance and a containment query; any change to them is listed in CHANGES.md
    @pytest.mark.parametrize("j, k, digest", [
        (0, 0, "66e5f0527bdd2e33ae7ace7f7fab6806ee4161db1c55c4f0a5a46669bd98a0b0"),
        (0, 1, "bd409b6c5f4b7a17804042da14d3ab895936a509d4b34c3fefd25a6550db4567"),
        (1, 0, "ff35c621521739fd8850b14f4c6eec7b093063ee8023ff8c028a036b5b50be22"),
        (1, 1, "6b636bdc8a68be10723f8ef442a18f2dd032fa4860e5343982813a2e14bbe74c"),
        (2, 0, "ff24c0e2ce7553ffb3c7e8feb33930ce48cbe31683dd9eb41669970b5bc0aac0"),
        (2, 1, "c5f54f051125b54e87dbe41ba24a35b4cda0e4c9c2d79b8df8f2cbb9811f72a0"),
    ])
    def test_report_is_pinned(self, tmp_path, j, k, digest):
        out = tmp_path / "rep.json"
        src = SCENARIOS / "sweep_leg_tangency.json"
        assert main(["sweep", str(src), "--j", str(j), "--k", str(k), "-o", str(out)]) == 0
        assert sha256_of(out) == digest

    @pytest.mark.parametrize("j, k, digest", [
        (1, 0, "bedc89d035aad1c1ed1294fdc963a81e9dccd24f939622c6308292d59b156f15"),
        (2, 1, "86e9c516147af56f3142437e223e0caf33819885926d52a271cfdd0be06e4a85"),
        (0, 1, "eaab5c7f064e684699ebeefd3ca87474b103bd8c251f786ca63aa47ecbd90f3d"),
    ])
    def test_theorem_report_is_pinned(self, tmp_path, j, k, digest):
        out = tmp_path / "rep.json"
        src = SCENARIOS / "theorem_concentric.json"
        assert main(["sweep", str(src), "--j", str(j), "--k", str(k), "-o", str(out)]) == 0
        assert sha256_of(out) == digest

    def test_theorem_file_reports_as_its_sweep_file(self, tmp_path):
        # the overrides and the kind go into the scenario object the report
        # echoes, so a theorem2d copy of a sweep file gives the same bytes
        data = json.loads((SCENARIOS / "sweep_leg_tangency.json").read_text())
        theorem = {key: v for key, v in data.items() if key not in ("j", "k")}
        src = write(tmp_path, "t.json", {**theorem, "kind": "theorem2d"})
        out = tmp_path / "rep.json"
        assert main(["sweep", str(src), "--j", "0", "--k", "0", "-o", str(out)]) == 0
        assert sha256_of(out) == (
            "66e5f0527bdd2e33ae7ace7f7fab6806ee4161db1c55c4f0a5a46669bd98a0b0"
        )

    def test_broken_hypothesis_writes_input_error_report(self, tmp_path, capsys):
        # u1 lies outside the sites' hull: the report says so, as check's
        # does, and replaces whatever an earlier run left at -o
        bad = {**SWEEP, "sites": [[0, 0, 0], [6, 0, 0], [0, 6, 0]],
               "circles": [[2, 2, 0.5], [9, 9, 0.5]]}
        src = write(tmp_path, "bad.json", bad)
        out = tmp_path / "rep.json"
        out.write_text("stale", encoding="utf-8")
        assert main(["sweep", str(src), "-o", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "input_error"
        assert report["error"] == "u1 is not inside the site hull (slack -8.99)"
        assert "u1 is not inside the site hull" in capsys.readouterr().err
        checked = tmp_path / "check.json"
        assert main(["check", str(src), "-o", str(checked)]) == 2
        assert out.read_bytes() == checked.read_bytes()
        assert sha256_of(out) == (
            "8e2c9e658da01595f2e8fc149044d66919672e32f59679acf95b8e436ba8a8e7"
        )

    def test_points_scenario_rejected(self, tmp_path, capsys):
        src = write(tmp_path, "p.json", POINTS)
        assert main(["sweep", str(src)]) == 2
        assert "sweep needs a sweep/theorem2d scenario, got 'points2d'" in (
            capsys.readouterr().err
        )

    def test_pair_out_of_range_rejected(self, tmp_path, capsys):
        src = write(tmp_path, "s.json", SWEEP)
        out = tmp_path / "rep.json"
        assert main(["sweep", str(src), "--j", "3", "-o", str(out)]) == 2
        assert "j must be an integer in 0..2" in capsys.readouterr().err
        assert not out.exists()

    def test_theorem_file_keeps_its_own_field_check(self, tmp_path):
        # a theorem2d file may not carry j or k, even though the sweep adds them
        src = write(tmp_path, "t.json", {**THEOREM, "j": 0})
        assert main(["sweep", str(src), "--j", "0"]) == 2


class TestFuzzVerb:
    def test_small_campaign_green(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["fuzz", "--kind", "theorem2d", "--n", "25", "--seed", "7",
                     "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["trials"] == 25
        assert report["failures"] == []
        assert sum(b["count"] for b in report["slack_histogram"]) == 25

    def test_failure_dump_roundtrips(self, tmp_path):
        # exercise the dump path directly with a fabricated record
        from carousel.scenario import row_scenario_dict
        from carousel.witness import random_instance, random_instances

        row = random_instances([3])[0]
        dump = row_scenario_dict("theorem2d", row, 3)
        path = tmp_path / "dump.json"
        path.write_text(canonical_json(dump), encoding="utf-8")
        sc = load_scenario(path)
        assert sc.kind == "theorem2d"
        assert sc.row == random_instance(3)
        assert main(["check", str(path)]) == 0

    @pytest.mark.parametrize("kind, digest", [
        ("theorem2d", "d5cfd4b804d339f602552491b1d7ce2e4da1ce6216b077ce256bdc357d05d0cd"),
        ("corollary2d", "c62c58f90934b24845039aab3c1eabfb5f5fd3a3c2a6d58a1801c5bc1d3adc23"),
        ("points2d", "ea3aa74064db8d715d4d6fc1a42f7d9c1fd1bbf29e8bb2aa8eadef89ec583d52"),
    ])
    def test_report_is_pinned(self, tmp_path, kind, digest):
        # sha256 of the canonical report as written when every trial was
        # solved one query at a time; any change to it is listed in CHANGES.md
        out = tmp_path / "rep.json"
        assert main(["fuzz", "--kind", kind, "--n", "300", "--seed", "1", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind, digest", [
        ("theorem2d", "db5a0eb7159de07c2d34e8dbfef55d12b140f3db5c522b01dcba3c0d358c87fa"),
        ("corollary2d", "12f01bb0e76ca72094d3b5b69f7684cdd95417d49603c19c51ec0b73838270e7"),
        ("points2d", "96080963568d0dc499b69c44f1bc3b8d00985a9f9ab194df62dc415a0719776b"),
    ])
    def test_10k_report_is_pinned(self, tmp_path, kind, digest):
        # sha256 of the canonical report as written when every instance was
        # drawn one seed and one rejection query at a time; any change to it
        # is listed in CHANGES.md
        out = tmp_path / "rep.json"
        assert main(["fuzz", "--kind", kind, "--n", "10000", "--seed", "1", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_no_trials_is_an_input_error(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--kind", "theorem2d", "--n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "need at least 1 trial" in err
        assert "Traceback" not in err


class TestOracleVerb:
    def test_small_run(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["oracle", "--n", "20", "--seed", "3", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["trials"] == 20
        assert report["within_band"] is True

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_no_trials_is_an_input_error(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "need at least 1 trial" in err
        assert "Traceback" not in err

    # sha256 of the canonical report of ``oracle --n 300 --seed 1`` as first
    # written by the oracle that located every target sample; any change to
    # it is listed in CHANGES.md
    DIGEST_300 = "eb125602925acdab27899936082c5f60f618799657febe93521b8e86c7c9c876"
    # and of ``oracle --n 1000`` at seeds 1-5
    DIGESTS_1000 = {
        1: "b64902904008e8b3e65e4efa35e357962ea76d2e0c01f7207b4acc51d893c650",
        2: "86562e24ef7508d0d03b005564379a14011b50d5932537fc41363cf263a63972",
        3: "bac84b0241b59e34eac2d3c56ba27fef2411f630ebf9b6e48c723471a2f88052",
        4: "db440fcf5d6e6712abee861143e93b5bdae9661529b24d2ae3db2ad7d790de23",
        5: "72fda9d3c722d1084e099330ee777e94d97a0ee2a2f7858624076b2d0305b0c2",
    }

    def test_report_is_pinned(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["oracle", "--n", "300", "--seed", "1", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST_300

    @pytest.mark.parametrize("seed", sorted(DIGESTS_1000))
    def test_reports_of_a_thousand_trials_are_pinned(self, tmp_path, seed):
        out = tmp_path / "rep.json"
        assert main(["oracle", "--n", "1000", "--seed", str(seed), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS_1000[seed]


class TestRepro3dVerb:
    def test_ex41(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True

    def test_ex41_report_is_pinned(self, tmp_path):
        # sha256 of the side 1, r 0.1 report once its projection certificates
        # carried only the verdict, slack and witness direction
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.1", "-o", str(out)]) == 0
        assert sha256_of(out) == (
            "8d2b6084dd452038cf0e0738db2d4e246c119cd58ab77b152326e302c85c9e23"
        )

    @pytest.mark.parametrize("side,r,digest", [
        ("0.5", "0.07", "46439b7cdc5c4be0d6331d5ebc499e29a0e0b3bc3d5c6b5376937a33ade4e830"),
        ("2", "0.3", "77965c91059e0b2d5ea4a364f6e608b6263fbceda83eceacdf2ffc72851e8d01"),
    ], ids=["side0.5", "side2"])
    def test_more_ex41_reports_are_pinned(self, tmp_path, side, r, digest):
        # sha256 of the reports as written when the construction built Point3 objects
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.1", "--side", side, "--r", r, "-o", str(out)]) == 0
        assert sha256_of(out) == digest

    @pytest.mark.parametrize("t,factor,digest", [
        ("3", "5.0", "9def6be8de34c781a9e03d548b58eb8aef1351047e059b095964b56bdf17aad8"),
        ("8", "23.5", "f894fb8916d5cb891f2c8413f15fe7b41d0084394664bde9ef5174ba6cd07dc6"),
        ("12", "50.0", "1e9b8d00a2a61b79b89c99060ed99a90937b726cd0b16805e1d8ab9013fab0f2"),
    ], ids=["t3", "t8", "t12"])
    def test_ex42_reports_are_pinned(self, tmp_path, t, factor, digest):
        # sha256 of the reports as written when the construction built Point3 objects
        out = tmp_path / "rep.json"
        argv = ["repro3d", "--example", "4.2", "--t", t, "--factor", factor, "-o", str(out)]
        assert main(argv) == 0
        assert sha256_of(out) == digest

    def test_scaled_copies_verify_from_1e_minus_150_to_1e150(self, tmp_path):
        out = tmp_path / "rep.json"
        for k in range(-150, 151, 10):
            side, r = repr(10.0**k), repr(10.0**k / 10)
            for example in (["4.1"], ["4.2", "--t", "3"]):
                argv = ["repro3d", "--example", *example, "--side", side, "--r", r]
                assert main(argv + ["-o", str(out)]) == 0, (example, side)
                assert json.loads(out.read_text())["example"]["all_refuted"] is True

    @pytest.mark.parametrize("side", ["1e77", "1e-100"])
    @pytest.mark.parametrize("example", [["4.1"], ["4.2", "--t", "3"]], ids=["ex41", "ex42"])
    def test_squared_norms_out_of_range_still_verify(self, tmp_path, example, side):
        # the squared face normal overflows at 1e77 and underflows at 1e-100
        out = tmp_path / "rep.json"
        r = repr(float(side) / 10)
        argv = ["repro3d", "--example", *example, "--side", side, "--r", r, "-o", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True

    @pytest.mark.parametrize("example", [["4.1"], ["4.2", "--t", "3"]], ids=["ex41", "ex42"])
    def test_products_out_of_range_are_input_errors(self, tmp_path, example):
        # at side 1e160 a face normal's coordinates (side squared) overflow
        out = tmp_path / "rep.json"
        argv = ["repro3d", "--example", *example, "--side", "1e160", "--r", "1e159"]
        assert main(argv + ["-o", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "input_error"
        assert report["error"].startswith("the construction leaves the float range (")

    def test_non_finite_side_is_an_input_error(self, capsys):
        assert main(["repro3d", "--example", "4.1", "--side", "nan"]) == 2
        assert "side: number must be finite" in capsys.readouterr().err

    def test_tiny_ex41_scenario_checks_and_renders(self, tmp_path):
        # the section plane's degeneracy tests are relative to the input's size
        tiny = {**EX41, "side": 1e-13, "r": 1e-14}
        check_and_render(tmp_path, write(tmp_path, "ex41.json", tiny))

    def test_ex42(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.2", "--t", "3", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())["example"]
        assert rep["all_refuted"] is True
        assert max(rep["tangency_residuals"]) <= 1e-9

    def test_ex42_t12(self, tmp_path):
        # the long chains once crashed the report writer and exited 1
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.2", "--t", "12", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True

    def test_ex42_t32(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.2", "--t", "32", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["example"]["outcomes"]) == 128

    @pytest.mark.parametrize("argv", [
        ["--example", "4.1", "--side", "1e-6", "--r", "1e-7"],
        ["--example", "4.2", "--t", "5", "--side", "1e-6", "--r", "1e-7"],
    ], ids=["ex41", "ex42"])
    def test_scaled_copy_verifies(self, tmp_path, argv):
        out = tmp_path / "rep.json"
        assert main(["repro3d", *argv, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True

    def test_ex42_t12_small_scale(self, tmp_path):
        # slacks near -4.6e-7 at this scale: the verdict must not flip with size
        out = tmp_path / "rep.json"
        argv = ["repro3d", "--example", "4.2", "--t", "12", "--side", "0.01", "--r", "0.001"]
        assert main(argv + ["-o", str(out)]) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True


class TestInternalError:
    def test_crash_exits_3_with_traceback(self, monkeypatch, capsys):
        from carousel import cli

        def crash(args):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(cli._COMMANDS, "repro3d", crash)
        assert main(["repro3d", "--example", "4.1"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: injected fault" in err


class TestParserReuse:
    def test_consecutive_calls_share_no_state(self, tmp_path):
        from carousel import cli

        src = write(tmp_path, "s.json", SWEEP)
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--kind", "no-such-kind", "--n", "3"])
        assert exc.value.code == 2
        assert main(["sweep", str(src), "--j", "1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["sweep"]["j"] == 1
        assert main(["sweep", str(src), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["sweep"]["j"] == 0  # no --j carried over
        assert main(["repro3d", "--example", "4.1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "verified"
        with pytest.raises(SystemExit) as exc:
            main(["oracle"])
        assert exc.value.code == 2
        assert main(["oracle", "--n", "3", "--seed", "2", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["trials"] == 3
        assert cli._build_parsers() is cli._build_parsers()


def _parse_outcome(parse, argv, capsys):
    """What a parse gives: its namespace, or its exit code, and what it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *CLI_LINES,
    ["sweep", "f.json", "--bogus"],
    ["fuzz", "--kind", "no-such-kind", "--n", "3"],
    ["oracle"],
    ["fuzz", "--n", "0"],
    ["sweep"],
    ["sweep", "--help"],
    ["no-such-verb"],
    [],
], ids=lambda argv: " ".join(argv) or "empty")
def test_verb_dispatch_parses_as_the_full_parser(capsys, argv):
    from carousel import cli

    full = _parse_outcome(cli._build_parsers()[0].parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_args, argv, capsys) == full
    result, _, err = full
    if not isinstance(result, argparse.Namespace) and result != 0:
        assert result == 2
        usage, *_, error = err.splitlines()
        assert usage.startswith("usage: carousel") and ": error: " in error


def _fresh(args, **kwargs) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports carousel from this checkout."""
    import carousel

    src = Path(carousel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


# ``python -m carousel`` with its argv, printing last whether numpy was imported
_NUMPY_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy' in sys.modules))\n"
    "runpy.run_module('carousel', run_name='__main__', alter_sys=True)\n"
)


# every fuzz kind and the oracle, in process with CAROUSEL_THREADS set to argv[1]
# (unset when empty), printing last which process-pool modules were imported
_CAMPAIGN_PROBE = """
import os, sys
os.environ.pop("CAROUSEL_THREADS", None)
if sys.argv[1]:
    os.environ["CAROUSEL_THREADS"] = sys.argv[1]
from carousel.cli import main
for kind in ("theorem2d", "corollary2d", "points2d"):
    assert main(["fuzz", "--kind", kind, "--n", "1000", "--seed", "1"]) == 0
assert main(["oracle", "--n", "300", "--seed", "1"]) == 0
print(*[m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules])
"""


# each one-row 2D library entry on a scenario's row, printing last whether numpy was imported
_ONE_ROW_PROBE = """
import sys
from pathlib import Path
from carousel import (circle_in_hull, corollary_witness_search, hull_boundary,
                      two_carousel_points, witness_search, xi_sweep_fixed)
from carousel.oracle import sampling_oracle_contains
from carousel.scenario import load_scenario
from carousel.witness import pair_objects

def row(name):
    return load_scenario(Path(sys.argv[1], name)).row

theorem = row("theorem_concentric.json")
assert witness_search(theorem) and witness_search(row("theorem_point_on_site.json"))
assert corollary_witness_search(row("corollary_circles.json"))
assert two_carousel_points(row("points_decomposition.json"))[1]
assert xi_sweep_fixed(row("sweep_leg_tangency.json"), 0, 0).xi_star > 0.0
target, gens = pair_objects(theorem, 1, 0)
assert circle_in_hull(target, gens).contained and hull_boundary(gens)
assert sampling_oracle_contains(target, gens)
print("numpy" in sys.modules)
"""


class TestStartup:
    def test_one_row_library_entries_leave_numpy_out(self):
        # a one-row search or sweep and a one-query solve run on plain floats
        done = _fresh(["-c", _ONE_ROW_PROBE, str(SCENARIOS)], check=True)
        assert done.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_out(self):
        probe = "import sys, carousel.cli; print('scipy' in sys.modules)"
        assert _fresh(["-c", probe], check=True).stdout.strip() == "False"

    def test_cli_import_leaves_the_process_pool_out(self):
        # no verb starts a process, so nothing imports the pool
        probe = "import sys, carousel.cli; print('concurrent.futures.process' in sys.modules)"
        assert _fresh(["-c", probe], check=True).stdout.strip() == "False"

    def test_campaigns_start_no_process(self):
        # set or unset, CAROUSEL_THREADS starts no pool: every campaign runs
        # in this process and writes the bytes of an unset run
        reports = [_fresh(["-c", _CAMPAIGN_PROBE, threads], check=True).stdout
                   for threads in ("2", "")]
        *report, loaded = reports[0].splitlines(keepends=True)
        assert loaded == "\n"
        assert reports[1] == reports[0]
        assert '"verb": "oracle"' in "".join(report)

    def test_cli_import_leaves_numpy_out(self):
        # numpy is imported by the first function that builds an array
        probe = "import sys, carousel, carousel.cli; print('numpy' in sys.modules)"
        assert _fresh(["-c", probe], check=True).stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["repro3d", "--example", "4.1"],
        ["repro3d", "--example", "4.2", "--t", "5"],
        *(["fuzz", "--n", "20", "--seed", "3", "--kind", kind]
          for kind in ("theorem2d", "corollary2d", "points2d")),
    ], ids=" ".join)
    def test_numpy_verbs_import_it_when_they_run(self, capsys, argv):
        # from a cold start numpy is first imported inside the job; the verb
        # must still exit 0 and print what it prints in process
        argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
        done = _fresh(["-c", _NUMPY_PROBE, *argv])
        assert done.returncode == 0, done.stderr
        *report, imported = done.stdout.splitlines(keepends=True)
        assert imported == "True\n"
        assert main(argv) == 0
        assert "".join(report) == capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["oracle", "--n", "0"], 2),
        (["sweep", "sweep_leg_tangency.json", "--j", "0", "--k", "0"], 0),
        (["sweep", "--help"], 0),
        (["sweep", "--bogus"], 2),
        (["sweep", "sweep_leg_tangency.json", "--j", "1", "--k", "0"], 0),
        (["check", "sweep_leg_tangency.json"], 0),
        (["render", "sweep_leg_tangency.json", "-o", "out.svg"], 0),
        (["check", "points_decomposition.json"], 0),
        (["render", "points_decomposition.json", "-o", "out.svg"], 0),
        (["oracle", "--n", "20", "--seed", "3"], 0),
        (["check", "theorem_concentric.json"], 0),
        (["render", "theorem_concentric.json", "-o", "out.svg"], 0),
        (["check", "corollary_circles.json"], 0),
        (["render", "corollary_circles.json", "-o", "out.svg"], 0),
    ])
    def test_python_dash_m_runs_the_cli(self, tmp_path, argv, code):
        # none of these builds an array: the witness search, the sweep and
        # the points decomposition run on plain floats, and so do the
        # figures of their scenarios and every usage path, and the oracle
        # verb decides each query on exact integers after one scalar kernel
        # call, so none may load numpy
        argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
        done = _fresh(["-c", _NUMPY_PROBE, *argv], cwd=tmp_path)
        assert done.returncode == code, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


SVG_NS = "{http://www.w3.org/2000/svg}"

PATH_GRAMMAR = re.compile(
    r"^M -?\d+\.\d+ -?\d+\.\d+"
    r"(( L -?\d+\.\d+ -?\d+\.\d+)|( A \d+\.\d+ \d+\.\d+ 0 [01] [01] -?\d+\.\d+ -?\d+\.\d+))*"
    r"( Z)?$"
)


def assert_valid_svg(path: Path):
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("viewBox")
    paths = root.findall(f".//{SVG_NS}path")
    for el in paths:
        assert PATH_GRAMMAR.match(el.get("d")), el.get("d")


class TestRenderVerb:
    @pytest.mark.parametrize(
        "name,payload",
        [
            ("theorem", THEOREM),
            ("points", POINTS),
            ("corollary", COROLLARY),
            ("sweep", SWEEP),
            ("ex41", EX41),
            ("ex42", EX42),
        ],
    )
    def test_render_all_kinds(self, tmp_path, name, payload):
        src = write(tmp_path, f"{name}.json", payload)
        out = tmp_path / f"{name}.svg"
        assert main(["render", str(src), "-o", str(out)]) == 0
        assert_valid_svg(out)

    def test_sweep_figure_has_arc_and_marker(self, tmp_path):
        src = write(tmp_path, "sweep.json", SWEEP)
        out = tmp_path / "sweep.svg"
        assert main(["render", str(src), "-o", str(out)]) == 0
        text = out.read_text()
        assert " A " in text  # hull back arc rendered as an SVG arc
        assert "tangency=" in text
        assert 'stroke="#cc0000"' in text  # touch marker at the critical scale

    def test_sweep_figure_is_pinned(self, tmp_path):
        # sha256 of the figure whose marker sits at the sweep's own touch
        # direction.  The scenario is symmetric about y = x and touches both
        # legs at xi_star; a probe past xi_star had marked the mirror point.
        path = SCENARIOS / "sweep_leg_tangency.json"
        out = tmp_path / "sweep.svg"
        assert main(["render", str(path), "-o", str(out)]) == 0
        assert sha256_of(out) == (
            "be86a13c06e1e3e5e1bcd1a6b20d139aa0dc6728e73022db28a6089a890ee139"
        )
        sc = load_scenario(path)
        rep = xi_sweep_fixed(sc.row, sc.j, sc.k)
        (tx, ty, tr), _ = pair_objects(scaled_instance(sc.row, rep.xi_star), sc.j, sc.k)
        stroke = ET.parse(out).getroot().findall(f"{SVG_NS}line[@stroke='#cc0000']")[0]
        x1, y1, x2, y2 = (float(stroke.get(a)) for a in ("x1", "y1", "x2", "y2"))
        centre = (0.5 * (x1 + x2), -0.5 * (y1 + y2))
        assert centre == pytest.approx((
            tx + tr * math.cos(rep.touch_direction),
            ty + tr * math.sin(rep.touch_direction),
        ), abs=1e-6)
        assert centre == pytest.approx((2.2507, 1.6098), abs=1e-4)

    def test_sweep_marker_at_missing_probe_direction(self, tmp_path):
        # xi_star = 0.270372 with a leg tangency: a probe 1e-4 past xi_star
        # still read a slack inside the decision band and drew no marker
        src = write(tmp_path, "sweep.json", {
            "schema": "carousel/1", "kind": "sweep",
            "sites": [[-4.98837722514576, 0.4061000069479981, 0],
                      [-1.3261745517473926, 9.017317300948335, 0],
                      [-4.2495430837506305, -3.8917651254603864, 0]],
            "circles": [[-2.3246370172551702, 6.084936991408851, 0.12408589291411641],
                        [-3.797460025818067, 1.7480414784204625, 0.294003784100763]],
            "j": 2, "k": 1,
        })
        out = tmp_path / "sweep.svg"
        assert main(["render", str(src), "-o", str(out)]) == 0
        text = out.read_text()
        assert "xi*=0.270372" in text and "tangency=leg" in text
        assert 'stroke="#cc0000"' in text

    # sha256 of each figure as drawn when the sweep figure still probed for
    # its touch direction; no other figure reads the sweep
    @pytest.mark.parametrize("name, digest", [
        ("corollary_circles", "45f6469d908f3be537c08f56cd8471ca4d4a189f2c7167e5534039760cd780b5"),
        ("points_decomposition",
         "0a63d4f6728f379b5ba9936611c5b7ce5e1981279a05207514bd49181aedaf91"),
        ("sphere_counterexample_41",
         "ceb15a986d74e32844b4343205b75422821c2a81d143a84d507bd3a034a62d65"),
        ("sphere_counterexample_42",
         "541077a98422198bf014d032e80c862dbbc4cb61f6b2042da41e99c079951480"),
        ("theorem_concentric", "75bb5e8a5dd7921fdc9a6f20ff0fbd1531917ad0f724b359b6bb88ca331e1527"),
        ("theorem_point_on_site",
         "d323daa436478df37815a5e836fdfe7a6ef80a0166b2872ede7d51aa1f08fa79"),
    ])
    def test_scenario_figure_is_pinned(self, tmp_path, name, digest):
        out = tmp_path / f"{name}.svg"
        assert main(["render", str(SCENARIOS / f"{name}.json"), "-o", str(out)]) == 0
        assert sha256_of(out) == digest

    @pytest.mark.parametrize("side", [1e-13, 1e-100, 1e4])
    @pytest.mark.parametrize("payload", [EX41, EX42], ids=["ex41", "ex42"])
    def test_3d_figures_are_drawn_in_units_of_the_side(self, tmp_path, payload, side):
        # a scaled copy draws the unit figure: every number agrees to the printed digits
        def numbers(scale):
            src = write(tmp_path, "s.json", {**payload, "side": scale, "r": 0.1 * scale})
            out = tmp_path / "fig.svg"
            assert main(["render", str(src), "-o", str(out)]) == 0
            return [float(x) for x in re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", out.read_text())]

        unit = numbers(1.0)
        scaled = numbers(side)
        assert len(scaled) == len(unit)
        assert scaled == pytest.approx(unit, rel=0.0, abs=1e-6)

    def test_ex42_figure_has_dashed_guide_arc(self, tmp_path):
        src = write(tmp_path, "ex42.json", EX42)
        out = tmp_path / "ex42.svg"
        assert main(["render", str(src), "-o", str(out)]) == 0
        assert "stroke-dasharray" in out.read_text()


# inputs whose drawn hull is a segment or a single point: the theorem allows
# radius-0 circles on a site or on a line through two sites
DEGENERATE = {
    "theorem-collinear": {**THEOREM, "sites": [[0, 0, 0], [4, 0, 0], [8, 0, 0]],
                          "circles": [[1, 0, 0], [2, 0, 0]]},
    "theorem-point-on-site": {**THEOREM, "sites": [[2, 3, 0], [-2, -4, 0], [4, -3, 0]],
                              "circles": [[4, -3, 0], [2.8, 0.6, 0]]},
    "sweep-collinear": {**SWEEP, "sites": [[0, 0, 0], [4, 0, 0], [8, 0, 0]],
                        "circles": [[1, 0, 0], [2, 0, 0]]},
    "corollary-segment": {**COROLLARY,
                          "circles": [[0, 0, 0], [4, 0, 0], [8, 0, 0], [1, 0, 0], [2, 0, 0]]},
    "theorem-one-point": {**THEOREM, "sites": [[1, 1, 0]] * 3, "circles": [[1, 1, 0]] * 2},
}


def check_and_render(tmp_path: Path, src: Path) -> str:
    """Run ``check`` (exit 0) and ``render`` (valid SVG) on a scenario; return the SVG."""
    assert main(["check", str(src), "-o", str(tmp_path / "rep.json")]) == 0
    out = tmp_path / "fig.svg"
    assert main(["render", str(src), "-o", str(out)]) == 0
    assert_valid_svg(out)
    return out.read_text()


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_hull_renders_what_check_verifies(tmp_path, name):
    text = check_and_render(tmp_path, write(tmp_path, "deg.json", DEGENERATE[name]))
    hulls = re.findall(r'<path d="([^"]*)"', text)
    if name == "theorem-one-point":
        assert hulls == []  # a single point has no chain to draw
    else:  # a segment is drawn there and back
        assert len(hulls) == 1
        assert re.fullmatch(r"M (\S+ \S+) L \S+ \S+ L \1 Z", hulls[0]), hulls[0]


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_every_scenario_checks_and_renders(tmp_path, path):
    text = check_and_render(tmp_path, path)
    assert 'd=""' not in text


class TestDeterminism:
    def test_reports_and_svg_are_byte_identical(self, tmp_path):
        jobs = [
            (["check", "{src}"], THEOREM, "t.json"),
            (["sweep", "{src}", "--j", "0", "--k", "0"], SWEEP, "s.json"),
            (["fuzz", "--kind", "points2d", "--n", "15", "--seed", "11"], None, None),
            (["oracle", "--n", "10", "--seed", "5"], None, None),
            (["repro3d", "--example", "4.1"], None, None),
        ]
        for argv, payload, name in jobs:
            outs = []
            for run in (1, 2):
                out = tmp_path / f"out{run}.json"
                args = [a.format(src=write(tmp_path, name, payload)) if "{src}" in a else a
                        for a in argv]
                assert main(args + ["-o", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], argv

        src = write(tmp_path, "fig.json", SWEEP)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["render", str(src), "-o", str(a)]) == 0
        assert main(["render", str(src), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
