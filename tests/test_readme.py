"""The README's examples run as written: the library sketch and every CLI line.

The prose of the library sketch names only functions and types that exist.
"""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import carousel
from carousel.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


# each `carousel ...` line of the shell blocks, as its argv after the program name
CLI_LINES = [
    shlex.split(line, comments=True)[1:]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("carousel ")
]


def test_library_sketch_runs(capsys):
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_library_sketch_names_only_package_attributes():
    # every backticked call-like name, `name(` or `module.name(`, of the section
    section = README.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(?:\w+\.)*(\w+)\(", section))
    modules = [carousel] + [
        importlib.import_module(f"carousel.{m.name}")
        for m in pkgutil.iter_modules(carousel.__path__)
    ]
    assert len(named) >= 10
    assert sorted(n for n in named if not any(hasattr(m, n) for m in modules)) == []


def test_every_verb_has_a_line():
    assert {argv[0] for argv in CLI_LINES} == {
        "check", "sweep", "fuzz", "oracle", "repro3d", "render"
    }


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(a[:3]) for a in CLI_LINES])
def test_cli_line_exits_0(argv, tmp_path, monkeypatch):
    # scenario paths are relative to the checkout; every output goes to tmp_path
    monkeypatch.chdir(ROOT)
    if "-o" in argv:
        i = argv.index("-o") + 1
        argv = [*argv[:i], str(tmp_path / Path(argv[i]).name), *argv[i + 1:]]
    else:
        argv = [*argv, "-o", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert any(tmp_path.iterdir())
