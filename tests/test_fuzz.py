"""Seeded mutation fuzz of every reader.

Each bundled input (the demo model and labels, the csma and zeroconf
programs, the golden demo counterexample and the properties) is mutated
with a fixed seed: spans are deleted, doubled or replaced, lines
swapped, and tokens inserted from a pool of the input's own words,
punctuation and extreme numbers. Every mutant either goes through the
whole pipeline (read, check, and when the property is violated build,
verify, diagnose, export and import the counterexample) or raises
ParseError, DomainError or BudgetError; through cli.main it exits 0 to
3 with no traceback. A property that parses prints as text that parses
back to the same PropertySpec.

Nothing a mutant declares is allocated: models are read under a small
state cap, so a huge STATES header or variable range meets the cap
first (test_mdp.py and test_cli.py pin a header over the cap with Mdp
patched to fail), and counterexamples are searched under a small path
budget.
"""

import contextlib
import io
import random
import re
from pathlib import Path

import pytest

from mdpdiag import (BudgetError, DomainError, ParseError, build_mdp,
                     build_mipcx, check_property, counterexample_from_json,
                     counterexample_to_json, generate_diagnoses,
                     parse_explicit_model, parse_program, parse_property,
                     verify_counterexample)
from mdpdiag.cli import main
from mdpdiag.mdp import content_lines

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
CX_JSON = ROOT / "tests" / "golden" / "demo.cx.json"

STATE_CAP = 500
MAX_PATHS = 40
EXPECTED = (ParseError, DomainError, BudgetError)
MUTANTS = 200  # per reader, in-process
CLI_MUTANTS = 40  # per reader, through cli.main

POOL = ("0", "1", "-1", "0.5", "2e-3", "1e308", "9999999999998", "nan",
        "inf", "-0", "00", " ", "\n", "(", ")", "[", "]", "{", "}", '"',
        ",", ":", ";", "&", "|", "!", "U", "U<=", "P", "<=", "<", "->", "'",
        "+", "*", "=", "..", "true", "false", "null", "é", "\t")


def read(name: str) -> str:
    return (MODELS / name).read_text()


def mutate(rng: random.Random, text: str, times: int) -> str:
    """text with times random edits, each at most a dozen characters
    wide, new material drawn from POOL and from text's own words."""
    words = sorted(set(re.findall(r"\w+|\S", text)))
    for _ in range(times):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(1, 13))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:j] + text[i:j] + text[j:]
        elif op in (2, 3):
            token = rng.choice(POOL if rng.random() < 0.5 else words)
            text = text[:i] + token + text[j if op == 2 else i:]
        else:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


def mutants(seed: str, texts: dict[str, str], count: int):
    """count dicts like texts, each with one of its entries mutated."""
    rng = random.Random(seed)
    names = sorted(texts)
    for _ in range(count):
        out = dict(texts)
        name = rng.choice(names)
        out[name] = mutate(rng, out[name], rng.randint(1, 3))
        yield out


def diagnose(m, spec) -> None:
    """Check spec on m; when it is violated, build, verify, diagnose,
    export and import the counterexample."""
    if check_property(m, spec).holds:
        return
    cx = build_mipcx(m, spec, max_paths=MAX_PATHS)
    assert verify_counterexample(cx) == []
    report = generate_diagnoses(cx)
    report.render_text()
    again = generate_diagnoses(counterexample_from_json(
        counterexample_to_json(cx)))
    assert again.to_json() == report.to_json()


# the files of each bundled model's diagnose query, by option
QUERIES = {
    "demo": {"--model": MODELS / "demo.tra", "--labels": MODELS / "demo.lab",
             "--props-file": MODELS / "demo.props"},
    **{name: {"--model": MODELS / f"{name}.pm",
              "--props-file": MODELS / f"{name}.props"}
       for name in ("csma", "zeroconf")},
}
MDPS = {"demo": parse_explicit_model(read("demo.tra"), read("demo.lab")),
        **{name: build_mdp(parse_program(read(f"{name}.pm"), name))[0]
           for name in ("csma", "zeroconf")}}
ALPHABET = set().union(*(m.ap_names for m in MDPS.values()))


def properties(name: str, text: str, alphabet) -> list:
    """The properties of a props file, each printed and parsed back."""
    specs = []
    for _, line in content_lines(text):
        spec = parse_property(line, defined_labels=alphabet)
        assert parse_property(str(spec), defined_labels=alphabet) == spec, (
            name, line, str(spec))
        specs.append(spec)
    return specs


def explicit_run(texts):
    m = parse_explicit_model(texts["--model"], texts["--labels"],
                             state_cap=STATE_CAP)
    for spec in properties("demo", read("demo.props"), m.ap_names):
        diagnose(m, spec)


def program_run(name):
    def run(texts):
        m, _ = build_mdp(parse_program(texts["--model"], name),
                         state_cap=STATE_CAP)
        for spec in properties(name, read(f"{name}.props"), m.ap_names):
            diagnose(m, spec)
    return run


def trace_run(texts):
    cx = counterexample_from_json(texts["--trace"])
    verify_counterexample(cx)
    generate_diagnoses(cx).render_text(normalize=True)
    counterexample_to_json(cx)


def property_run(name):
    def run(texts):
        for spec in properties(name, texts["--props-file"], ALPHABET):
            diagnose(MDPS[name], spec)
    return run


# reader -> (the model whose query it changes, None for a trace; the
# texts it mutates, by option; what reading a mutant runs in-process)
READERS = {
    "explicit": ("demo", {"--model": read("demo.tra"),
                          "--labels": read("demo.lab")}, explicit_run),
    **{name: (name, {"--model": read(f"{name}.pm")}, program_run(name))
       for name in ("csma", "zeroconf")},
    "trace": (None, {"--trace": CX_JSON.read_text()}, trace_run),
    **{f"{name}-props": (name, {"--props-file": read(f"{name}.props")},
                         property_run(name)) for name in QUERIES},
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutants_pass_or_raise_a_package_error(reader):
    _, texts, run = READERS[reader]
    seen = {}
    for mutant in mutants(f"fuzz-{reader}", texts, MUTANTS):
        try:
            run(mutant)
            result = "ok"
        except EXPECTED as exc:
            result = type(exc).__name__
        seen[result] = seen.get(result, 0) + 1
    # the mutants reach both ends: some still go through, some are refused
    assert seen.get("ok", 0) > 0 and len(seen) > 1, seen


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutants_exit_0_to_3_through_the_cli(reader, tmp_path):
    model, texts, _ = READERS[reader]
    for k, mutant in enumerate(mutants(f"cli-{reader}", texts, CLI_MUTANTS)):
        if model is None:
            argv, files = ["diagnose-trace"], {}
        else:
            argv = ["diagnose", "--state-cap", str(STATE_CAP),
                    "--max-paths", str(MAX_PATHS)]
            files = dict(QUERIES[model])
        for option, text in mutant.items():
            files[option] = tmp_path / f"{k}{option}"
            files[option].write_text(text, encoding="utf-8")
        for option, path in files.items():
            argv += [option, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert 0 <= code <= 3, (k, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), (k, err.getvalue())
