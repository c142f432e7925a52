"""Scenario schema, CLI verbs, exit codes, report and SVG determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from carousel import ParseError, SchemaError
from carousel.cli import main
from carousel.reports import canonical_json
from carousel.scenario import load_scenario, parse_scenario

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


def write(tmp: Path, name: str, data) -> Path:
    path = tmp / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestSchema:
    def test_roundtrip_minimal(self):
        sc = parse_scenario(THEOREM)
        assert sc.kind == "theorem2d"
        assert len(sc.sites) == 3 and len(sc.circles) == 2

    def test_schema_tag_required(self):
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "schema": "carousel/2"})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "kind": "mystery"})

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

    def test_seed_range(self):
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "seed": -1})
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "seed": 2**64})
        assert parse_scenario({**THEOREM, "seed": 2**64 - 1}).seed == 2**64 - 1

    def test_tolerance_override(self):
        sc = parse_scenario(
            {**THEOREM, "tolerance": {"eps_geom": 1e-10, "eps_decision": 1e-5}}
        )
        assert sc.tolerance.eps_geom == 1e-10
        with pytest.raises(SchemaError):
            parse_scenario({**THEOREM, "tolerance": {"eps_geom": 1.0, "eps_decision": 0.5}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scenario(p)


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

    def test_ex41_verified(self, tmp_path):
        path = write(tmp_path, "e.json", EX41)
        out = tmp_path / "rep.json"
        assert main(["check", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["example"]["all_refuted"] is True
        assert len(report["example"]["outcomes"]) == 8

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
        from carousel.scenario import instance_scenario_dict
        from carousel.witness import random_instance

        inst = random_instance(3)
        dump = instance_scenario_dict(inst, seed=3)
        path = tmp_path / "dump.json"
        path.write_text(canonical_json(dump), encoding="utf-8")
        sc = load_scenario(path)
        assert sc.kind == "theorem2d"
        assert sc.instance() == inst
        assert main(["check", str(path)]) == 0


class TestOracleVerb:
    def test_small_run(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["oracle", "--n", "20", "--seed", "3", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["trials"] == 20
        assert report["within_band"] is True

    def test_report_is_pinned(self, tmp_path):
        # sha256 of the canonical report as first written by the oracle that
        # located every target sample; any change to it is listed in CHANGES.md
        out = tmp_path / "rep.json"
        assert main(["oracle", "--n", "300", "--seed", "1", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "eb125602925acdab27899936082c5f60f618799657febe93521b8e86c7c9c876"
        )


class TestRepro3dVerb:
    def test_ex41(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["repro3d", "--example", "4.1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["example"]["all_refuted"] is True

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
        assert cli._build_parser() is cli._build_parser()


class TestStartup:
    def test_cli_import_leaves_scipy_out(self):
        import carousel

        src = Path(carousel.__file__).resolve().parents[1]
        probe = "import sys, carousel.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


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

    def test_ex42_figure_has_dashed_guide_arc(self, tmp_path):
        src = write(tmp_path, "ex42.json", EX42)
        out = tmp_path / "ex42.svg"
        assert main(["render", str(src), "-o", str(out)]) == 0
        assert "stroke-dasharray" in out.read_text()


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
