"""CLI reports for the bundled models, byte for byte against tests/golden/.

The golden files hold the output of `mdpdiag diagnose` before the checker
layer was rewritten for speed. Any change to a report, however small, shows
up here; a deliberate one means regenerating the file with the command in
its test case and saying why in CHANGES.md.
"""

from pathlib import Path

import pytest

from mdpdiag.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

DEMO = ("--model", str(MODELS / "demo.tra"), "--labels",
        str(MODELS / "demo.lab"), "--props-file", str(MODELS / "demo.props"))

REPORTS = [
    ("demo.diagnose.txt", DEMO),
    ("csma.diagnose.txt", ("--model", str(MODELS / "csma.pm"),
                           "--props-file", str(MODELS / "csma.props"))),
    ("zeroconf.diagnose.json", ("--model", str(MODELS / "zeroconf.pm"),
                                "--props-file",
                                str(MODELS / "zeroconf.props"),
                                "--format", "json")),
]


@pytest.mark.parametrize("golden, args", REPORTS,
                         ids=[name for name, _ in REPORTS])
def test_diagnose_report(capsys, golden, args):
    code = main(["diagnose", *args])
    out = capsys.readouterr().out
    assert code == 1
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_exported_counterexample(capsys, tmp_path):
    exported = tmp_path / "cx.json"
    code = main(["diagnose", *DEMO, "--export-cx", str(exported)])
    capsys.readouterr()
    assert code == 1
    assert exported.read_bytes() == (GOLDEN / "demo.cx.json").read_bytes()
