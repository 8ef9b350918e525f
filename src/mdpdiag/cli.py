"""Command-line front end.

Three subcommands: check a property against a model, diagnose a violated
property (optionally exporting the counterexample), and diagnose-trace to
re-rank a previously exported counterexample without the model.

Exit codes: 0 the property holds, 1 it is violated (and was diagnosed),
2 usage, parse or validation trouble (input that is not UTF-8 or nests
past the recursion limit included), 3 a resource budget was exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable

from .checker import DEFAULT_EPSILON, check_property
from .counterexample import (DEFAULT_MAX_PATHS, DEFAULT_MIN_PROB,
                             build_mipcx, counterexample_from_json,
                             counterexample_to_json, verify_counterexample)
from .diagnosis import generate_diagnoses, render_text_report
from .errors import BudgetError, DomainError, ParseError
from .mdp import content_lines, parse_explicit_model, validate_mdp
from .pctl import parse_property
from .program import DEFAULT_STATE_CAP, build_mdp, parse_program
from .records import replace

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
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 text "
                          f"(byte {exc.start})") from None


def _write_text(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
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


def _load_model(args):
    """Returns (mdp, source map or None)."""
    if args.state_cap < 1:
        raise _UsageError(f"--state-cap must be at least 1, got "
                          f"{args.state_cap}")
    text = _read_text(args.model)
    # every explicit model starts with 'STATES <n>', and no program can; an
    # empty file goes to the explicit parser, which says so
    first = next(content_lines(text), (0, "STATES"))[1]
    if first.split()[0] == "STATES":
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


def _load_property(args, m):
    if args.prop and args.props_file:
        raise _UsageError("give either --prop or --props-file, not both")
    if args.prop:
        return parse_property(args.prop, defined_labels=m.ap_names)
    if not args.props_file:
        raise _UsageError("a property is required: --prop or --props-file")
    text = _read_text(args.props_file)
    found = list(content_lines(text))
    if len(found) != 1:
        raise _UsageError(f"{args.props_file}: expected exactly one property, "
                          f"found {len(found)}")
    no, line = found[0]
    try:
        return parse_property(line, defined_labels=m.ap_names)
    except ParseError as exc:
        # the property is one stripped line of the file
        raw = text.splitlines()[no - 1]
        raise ParseError(exc.message, line=no, filename=args.props_file,
                         column=exc.column + len(raw) - len(raw.lstrip())
                         ) from None


def _validated(m):
    problems = validate_mdp(m)
    if problems:
        for v in problems:
            print(f"invalid model: {v}", file=sys.stderr)
        raise _UsageError(f"model failed validation with {len(problems)} "
                          f"problem(s)")
    return m


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the chunks to the --out file or to stdout as they come."""
    if args.out:
        _write_text(args.out, chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: stop, and send the flush at exit to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _verdict_output(args, spec, verdict) -> None:
    if args.format == "json":
        payload = {
            "property": str(spec),
            "comparison": spec.comparison,
            "threshold": spec.threshold,
            "pmax": verdict.pmax,
            "holds": verdict.holds,
        }
        _emit(args, [json.dumps(payload, indent=2) + "\n"])
        return
    word = "HOLDS" if verdict.holds else "VIOLATED"
    _emit(args, [f"property: {spec}\n"
                 f"Pmax = {verdict.pmax:.6g}\n"
                 f"verdict: {word} (threshold {spec.threshold:g})\n"])


def _report_output(args, report) -> None:
    if args.format == "json":
        _emit(args, [report.to_json()])
    else:
        _emit(args, render_text_report(report, normalize=args.normalize))


def _cmd_check(args) -> int:
    m, _ = _load_model(args)
    _validated(m)
    spec = _load_property(args, m)
    verdict = check_property(m, spec, epsilon=args.epsilon)
    _verdict_output(args, spec, verdict)
    return EXIT_HOLDS if verdict.holds else EXIT_VIOLATED


def _cmd_diagnose(args) -> int:
    if args.max_paths < 1:
        raise _UsageError(f"--max-paths must be at least 1, got "
                          f"{args.max_paths}")
    # a NaN floor passes this test; build_mipcx rejects it by name
    if args.min_prob < 0.0 or args.min_prob > 1.0:
        raise _UsageError(f"--min-prob must lie in [0, 1], got "
                          f"{args.min_prob:g}")
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
        _write_text(args.export_cx, [counterexample_to_json(cx)])
    _report_output(args, generate_diagnoses(cx, source_map=smap,
                                            pmax=verdict.pmax))
    return EXIT_VIOLATED


def _cmd_diagnose_trace(args) -> int:
    text = _read_text(args.trace)
    try:
        cx = counterexample_from_json(text)
    except ParseError as exc:
        raise ParseError(str(exc), filename=args.trace) from None
    if args.prop:
        cx = replace(cx, spec=parse_property(
            args.prop, defined_labels=cx.alphabet()))
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
                     help="model file: explicit transitions (first line "
                          "'STATES <n>') or a guarded-command program")
    sub.add_argument("--labels", metavar="PATH",
                     help="label file for explicit models")
    sub.add_argument("--const", action="append", metavar="NAME=VALUE",
                     help="set a program constant; repeatable")
    sub.add_argument("--prop", metavar="PROPERTY",
                     help="property P<=p or P<p [ phi U phi ], U<=k for a "
                          "step bound, e.g. 'P<=0.1 [ a U<=5 !b ]'")
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


def main(argv: list[str] | None = None) -> int:
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
    except RecursionError:
        # every recursion in the package walks a tree read from the input
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
