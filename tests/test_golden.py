"""Reports for the bundled models and fixtures, byte for byte against
tests/golden/.

The golden files hold the output of `mdpdiag diagnose` before the checker
layer was rewritten for speed, and the `diagnose-trace` reports of the
exported demo counterexample and the library reports of the two fixtures
before the counterexample layers were made to work per distinct state.
The `check` verdicts, the JSON and normalized `diagnose` reports and the
re-ranking under `diagnose-trace --prop` were added before the second
copies of the mass index, the induced chain and the parsers were removed.
Any change to a report, however small, shows up here; a deliberate one
means regenerating the file with the command or call in its test case and
saying why in CHANGES.md.
"""

from pathlib import Path

import pytest

from mdpdiag import (blame_gap_mdp, blame_gap_property, build_mipcx,
                     check_property, demo_mdp, demo_property,
                     generate_diagnoses)
from mdpdiag.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

DEMO = ("--model", str(MODELS / "demo.tra"), "--labels",
        str(MODELS / "demo.lab"), "--props-file", str(MODELS / "demo.props"))

CSMA = ("--model", str(MODELS / "csma.pm"),
        "--props-file", str(MODELS / "csma.props"))
ZEROCONF = ("--model", str(MODELS / "zeroconf.pm"),
            "--props-file", str(MODELS / "zeroconf.props"))

REPORTS = [
    ("demo.diagnose.txt", DEMO),
    ("demo.diagnose.json", (*DEMO, "--format", "json")),
    ("demo.diagnose_normalize.txt", (*DEMO, "--normalize")),
    ("csma.diagnose.txt", CSMA),
    ("csma.diagnose.json", (*CSMA, "--format", "json")),
    ("zeroconf.diagnose.txt", ZEROCONF),
    ("zeroconf.diagnose.json", (*ZEROCONF, "--format", "json")),
]


@pytest.mark.parametrize("golden, args", REPORTS,
                         ids=[name for name, _ in REPORTS])
def test_diagnose_report(capsys, golden, args):
    code = main(["diagnose", *args])
    out = capsys.readouterr().out
    assert code == 1
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


CHECKS = [
    ("demo.check.txt", DEMO, 1),
    ("demo.check.json", (*DEMO, "--format", "json"), 1),
    ("demo.check_holds.txt", (*DEMO[:4], "--prop",
                              "P<=0.9 [ (a|b) U (c&d) ]"), 0),
]


@pytest.mark.parametrize("golden, args, expected", CHECKS,
                         ids=[name for name, _, _ in CHECKS])
def test_check_verdict(capsys, golden, args, expected):
    code = main(["check", *args])
    out = capsys.readouterr().out
    assert code == expected
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_exported_counterexample(capsys, tmp_path):
    exported = tmp_path / "cx.json"
    code = main(["diagnose", *DEMO, "--export-cx", str(exported)])
    capsys.readouterr()
    assert code == 1
    assert exported.read_bytes() == (GOLDEN / "demo.cx.json").read_bytes()


TRACES = [
    ("demo.trace.txt", ()),
    ("demo.trace.json", ("--format", "json")),
    ("demo.trace_prop.txt", ("--prop", "P<=0.3 [ (a|b) U (c&d) ]")),
]


@pytest.mark.parametrize("golden, args", TRACES,
                         ids=[name for name, _ in TRACES])
def test_diagnose_trace_report(capsys, golden, args):
    code = main(["diagnose-trace", "--trace", str(GOLDEN / "demo.cx.json"),
                 *args])
    out = capsys.readouterr().out
    assert code == 1
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


FIXTURES = {
    "demo_mdp": (demo_mdp, demo_property),
    "blame_gap_mdp": (blame_gap_mdp, blame_gap_property),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_reports(name):
    model, prop = FIXTURES[name]
    m, spec = model(), prop()
    report = generate_diagnoses(build_mipcx(m, spec),
                                pmax=check_property(m, spec).pmax)
    assert (report.render_text().encode("utf-8")
            == (GOLDEN / f"{name}.report.txt").read_bytes())
    assert (report.to_json().encode("utf-8")
            == (GOLDEN / f"{name}.report.json").read_bytes())
