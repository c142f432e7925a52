"""Command-line interface.

Verbs: check, fuzz, oracle, sweep, repro3d, render.  Reports go to stdout or
to -o as canonical JSON; human summaries and timings go to stderr so the
machine-readable stream stays reproducible byte for byte.

The parsers are built once per process.  When the first argument names a
verb, the rest goes straight to that verb's parser, which is what the
top-level parser would hand it, and arguments it leaves over are rejected
by the top-level parser as before; any other command line (no verb, ``-h``,
an unknown verb) takes the full parse.  Both give the same namespace, usage
lines and exit code 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import traceback
from pathlib import Path

from .errors import CarouselError, ParseError, SchemaError
from .fuzz import FUZZ_KINDS, run_fuzz, run_oracle_check
from .harness import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_REFUTED,
    EXIT_VERIFIED,
    run_scenario_obj,
    write_report,
)
from .reports import TOOL_INFO, canonical_json
from .scenario import (
    build_scenario,
    decode_scenario,
    load_scenario,
    parse_scenario,
    scenario_kind,
)
from .svgfig import render_svg


def _trial_count(text: str) -> int:
    """A --n value: a whole number of trials, at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 trial, got {n}")
    return n


@functools.cache  # built once per process: parse_args leaves the parsers unchanged
def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each verb's subparser, by verb."""
    parser = argparse.ArgumentParser(
        prog="carousel",
        description="verify carousel witnesses, sweep critical scales, and "
        "reproduce the sphere counterexamples",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="run a scenario file and report its verdict")
    p.add_argument("scenario", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("fuzz", help="seeded fuzz campaign over random instances")
    p.add_argument("--kind", choices=FUZZ_KINDS, required=True)
    p.add_argument("--n", type=_trial_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--dump-dir", type=Path, default=None,
                   help="write one scenario file per failure here")

    p = sub.add_parser("oracle", help="cross-check the float predicate against its exact decision")
    p.add_argument("--n", type=_trial_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("sweep", help="trace the critical scale for a fixed witness pair")
    p.add_argument("scenario", type=Path)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("repro3d", help="reproduce a 3D counterexample")
    p.add_argument("--example", choices=("4.1", "4.2"), required=True)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--factor", type=float, default=10.0)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("render", help="emit an SVG figure for a scenario")
    p.add_argument("scenario", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)

    return parser, dict(sub.choices)


def _parse_args(argv) -> argparse.Namespace:
    """``_build_parsers()[0].parse_args(argv)``, parsing a verb's arguments only once."""
    parser, verbs = _build_parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in verbs:
        return parser.parse_args(argv)
    args, extras = verbs[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.verb = argv[0]
    return args


def _verdict(report: dict) -> str:
    """A scenario report's verdict, and its message when the input broke a hypothesis."""
    if "error" in report:
        return f"{report['verdict']}: {report['error']}"
    return report["verdict"]


def _emit(report: dict, output: Path | None) -> None:
    text = write_report(report, output)
    if output is None:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    report, code = run_scenario_obj(load_scenario(args.scenario))
    _emit(report, args.output)
    print(f"check: {_verdict(report)}", file=sys.stderr)
    return code


def _cmd_fuzz(args) -> int:
    rep = run_fuzz(args.n, args.seed, args.kind)
    report = {"tool": TOOL_INFO, "verb": "fuzz", **rep.to_dict()}
    _emit(report, args.output)
    if args.dump_dir is not None and rep.failures:
        args.dump_dir.mkdir(parents=True, exist_ok=True)
        for fail in rep.failures:
            path = args.dump_dir / f"failure_{fail['seed']}.json"
            path.write_text(canonical_json(fail["scenario"]), encoding="utf-8")
    print(
        f"fuzz {args.kind}: {rep.trials} trials, {len(rep.failures)} failures, "
        f"{rep.wall_time:.2f}s",
        file=sys.stderr,
    )
    return EXIT_VERIFIED if rep.ok else EXIT_REFUTED


def _cmd_oracle(args) -> int:
    rep = run_oracle_check(args.n, args.seed)
    report = {"tool": TOOL_INFO, "verb": "oracle", **rep.to_dict()}
    _emit(report, args.output)
    print(
        f"oracle: {rep.agreements}/{rep.trials} agree, "
        f"{len(rep.disagreements)} disagreements, {rep.wall_time:.2f}s",
        file=sys.stderr,
    )
    return EXIT_VERIFIED if rep.ok else EXIT_REFUTED


def _cmd_sweep(args) -> int:
    data = decode_scenario(args.scenario)
    kind = scenario_kind(data)
    if kind not in ("sweep", "theorem2d"):
        raise SchemaError(f"sweep needs a sweep/theorem2d scenario, got {kind!r}")
    overrides = {key: v for key, v in (("j", args.j), ("k", args.k)) if v is not None}
    # the kind is checked once: a sweep allows every field of a theorem2d scenario, and j, k
    data = {**data, "kind": "sweep", **overrides}
    report, code = run_scenario_obj(build_scenario("sweep", data))
    _emit(report, args.output)
    if "sweep" in report:
        print(f"sweep: xi_star={report['sweep']['xi_star']}", file=sys.stderr)
    else:
        print(f"sweep: {_verdict(report)}", file=sys.stderr)
    return code


def _cmd_repro3d(args) -> int:
    if args.example == "4.1":
        data = {"schema": "carousel/1", "kind": "sphere3_ex41",
                "side": args.side, "r": args.r}
    else:
        data = {"schema": "carousel/1", "kind": "sphere3_ex42", "t": args.t,
                "arc_radius_factor": args.factor, "side": args.side, "r": args.r}
    report, code = run_scenario_obj(parse_scenario(data))
    _emit(report, args.output)
    print(f"repro3d {args.example}: {_verdict(report)}", file=sys.stderr)
    return code


def _cmd_render(args) -> int:
    scenario = load_scenario(args.scenario)
    text = render_svg(scenario)
    args.output.write_text(text, encoding="utf-8")
    print(f"render: wrote {args.output}", file=sys.stderr)
    return EXIT_VERIFIED


_COMMANDS = {
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "repro3d": _cmd_repro3d,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    start = time.perf_counter()
    try:
        code = _COMMANDS[args.verb](args)
    except (ParseError, SchemaError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CarouselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:  # a crash must not read as "refuted"
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    print(f"done in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
