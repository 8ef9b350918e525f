"""Command-line front end.

Three subcommands: check a property against a model, diagnose a violated
property (optionally exporting the counterexample), and diagnose-trace to
re-rank a previously exported counterexample without the model.

Exit codes: 0 the property holds, 1 it is violated (and was diagnosed),
2 usage, parse or validation trouble, 3 a resource budget was exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from typing import Optional

from .checker import DEFAULT_EPSILON, check_property
from .counterexample import (DEFAULT_MAX_PATHS, DEFAULT_MIN_PROB,
                             build_mipcx, counterexample_from_json,
                             counterexample_to_json, verify_counterexample)
from .diagnosis import generate_diagnoses
from .errors import BudgetError, DomainError, ParseError
from .mdp import parse_explicit_model, validate_mdp
from .pctl import parse_property, path_atoms
from .program import DEFAULT_STATE_CAP, build_mdp, parse_program

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3

_CONST_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(.+)\Z")


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_const_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        m = _CONST_RE.match(pair)
        if m is None:
            raise _UsageError(f"--const expects NAME=VALUE, got {pair!r}")
        name, raw = m.group(1), m.group(2)
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise _UsageError(
                    f"--const {name}: value {raw!r} is not a number") from None
        out[name] = value
    return out


def _detect_format(path: str, text: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext in (".tra", ".txt"):
        return "explicit"
    if ext in (".pm", ".nm", ".prism"):
        return "program"
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return "explicit" if line.split()[0] == "STATES" else "program"
    return "explicit"


def _load_model(args):
    """Returns (mdp, source map or None)."""
    text = _read_text(args.model)
    fmt = args.model_format
    if fmt == "auto":
        fmt = _detect_format(args.model, text)
    if fmt == "explicit":
        if args.const:
            raise _UsageError("--const only applies to guarded-command models")
        labels_text = None
        if args.labels:
            labels_text = _read_text(args.labels)
        m = parse_explicit_model(text, labels_text, filename=args.model,
                                 labels_filename=args.labels)
        return m, None
    if args.labels:
        raise _UsageError("--labels only applies to explicit models; "
                          "guarded-command models define labels inline")
    program = parse_program(text, filename=args.model)
    overrides = _parse_const_overrides(args.const)
    return build_mdp(program, overrides, state_cap=args.state_cap)


def _property_text(args) -> str:
    if args.prop and args.props_file:
        raise _UsageError("give either --prop or --props-file, not both")
    if args.prop:
        return args.prop
    if not args.props_file:
        raise _UsageError("a property is required: --prop or --props-file")
    found = []
    for raw in _read_text(args.props_file).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            found.append(line)
    if len(found) != 1:
        raise _UsageError(f"{args.props_file}: expected exactly one property, "
                          f"found {len(found)}")
    return found[0]


def _load_property(args, m):
    """Parse the property; every atom it names must be in m's alphabet."""
    alphabet = set(m.ap_names)
    spec = parse_property(_property_text(args), defined_labels=alphabet)
    unknown = sorted(path_atoms(spec.path) - alphabet)
    if unknown:
        raise DomainError(f"unknown atomic proposition {unknown[0]!r}")
    return spec


def _validated(m):
    problems = validate_mdp(m)
    if problems:
        for v in problems:
            print(f"invalid model: {v}", file=sys.stderr)
        raise _UsageError(f"model failed validation with {len(problems)} "
                          f"problem(s)")
    return m


def _emit(args, text: str) -> None:
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _verdict_output(args, spec, verdict) -> None:
    if args.format == "json":
        payload = {
            "property": str(spec),
            "comparison": spec.comparison,
            "threshold": spec.threshold,
            "pmax": verdict.pmax,
            "holds": verdict.holds,
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return
    word = "HOLDS" if verdict.holds else "VIOLATED"
    _emit(args, f"property: {spec}\n"
                f"Pmax = {verdict.pmax:.6g}\n"
                f"verdict: {word} (threshold {spec.threshold:g})\n")


def _report_output(args, report) -> None:
    if args.format == "json":
        _emit(args, report.to_json())
    else:
        _emit(args, report.render_text(normalize=args.normalize))


def _cmd_check(args) -> int:
    m, _ = _load_model(args)
    _validated(m)
    spec = _load_property(args, m)
    verdict = check_property(m, spec, epsilon=args.epsilon)
    _verdict_output(args, spec, verdict)
    return EXIT_HOLDS if verdict.holds else EXIT_VIOLATED


def _cmd_diagnose(args) -> int:
    m, smap = _load_model(args)
    _validated(m)
    spec = _load_property(args, m)
    verdict = check_property(m, spec, epsilon=args.epsilon)
    if verdict.holds:
        _verdict_output(args, spec, verdict)
        return EXIT_HOLDS
    cx = build_mipcx(m, spec, epsilon=args.epsilon, max_paths=args.max_paths,
                     min_prob=args.min_prob)
    if args.export_cx:
        _write_text(args.export_cx, counterexample_to_json(cx))
    _report_output(args, generate_diagnoses(cx, source_map=smap,
                                            pmax=verdict.pmax))
    return EXIT_VIOLATED


def _cmd_diagnose_trace(args) -> int:
    cx = counterexample_from_json(_read_text(args.trace))
    if args.prop:
        defined = set().union(*cx.labels.values())
        cx = replace(cx, spec=parse_property(args.prop,
                                             defined_labels=defined))
    problems = verify_counterexample(cx)
    if problems:
        for p in problems:
            print(f"invalid counterexample: {p}", file=sys.stderr)
        raise _UsageError(f"counterexample failed verification with "
                          f"{len(problems)} problem(s)")
    _report_output(args, generate_diagnoses(cx))
    return EXIT_VIOLATED


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default: text)")
    sub.add_argument("--out", metavar="PATH",
                     help="write the report here instead of stdout")


def _add_model_flags(sub):
    sub.add_argument("--model", required=True, metavar="PATH",
                     help="model file: explicit transitions or a "
                          "guarded-command program")
    sub.add_argument("--model-format", choices=("auto", "explicit", "program"),
                     default="auto",
                     help="override model format detection (default: auto)")
    sub.add_argument("--labels", metavar="PATH",
                     help="label file for explicit models")
    sub.add_argument("--const", action="append", metavar="NAME=VALUE",
                     help="set a program constant; repeatable")
    sub.add_argument("--prop", metavar="PROPERTY",
                     help="property to check, e.g. 'P<=0.1 [ a U b ]'")
    sub.add_argument("--props-file", metavar="PATH",
                     help="file holding exactly one property")
    sub.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                     metavar="EPS",
                     help="value iteration stopping tolerance "
                          f"(default: {DEFAULT_EPSILON:g})")
    sub.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                     metavar="N",
                     help="abort program elaboration beyond N states "
                          f"(default: {DEFAULT_STATE_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpdiag",
        description="Check safety properties of MDPs and explain violations.")
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="compute Pmax and the verdict")
    _add_model_flags(check)
    _add_output_flags(check)

    diag = subs.add_parser("diagnose",
                           help="build a counterexample and rank its causes")
    _add_model_flags(diag)
    _add_output_flags(diag)
    diag.add_argument("--max-paths", type=int, default=DEFAULT_MAX_PATHS,
                      metavar="N",
                      help="cap on enumerated counterexample paths "
                           f"(default: {DEFAULT_MAX_PATHS})")
    diag.add_argument("--min-prob", type=float, default=DEFAULT_MIN_PROB,
                      metavar="P",
                      help="stop enumerating below this path probability "
                           f"(default: {DEFAULT_MIN_PROB:g})")
    diag.add_argument("--normalize", action="store_true",
                      help="show cause masses normalized by the "
                           "counterexample's total probability")
    diag.add_argument("--export-cx", metavar="PATH",
                      help="also write the counterexample as JSON")

    trace = subs.add_parser("diagnose-trace",
                            help="re-rank an exported counterexample")
    trace.add_argument("--trace", required=True, metavar="PATH",
                       help="counterexample JSON from diagnose --export-cx")
    trace.add_argument("--prop", metavar="PROPERTY",
                       help="override the property stored in the trace")
    trace.add_argument("--normalize", action="store_true",
                       help="show cause masses normalized by the "
                            "counterexample's total probability")
    _add_output_flags(trace)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "diagnose": _cmd_diagnose,
        "diagnose-trace": _cmd_diagnose_trace,
    }
    try:
        return handlers[args.command](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_UsageError, ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
