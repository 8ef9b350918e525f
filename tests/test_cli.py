"""End-to-end runs of the command-line front end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdpdiag
from mdpdiag import build_mipcx, generate_diagnoses
from mdpdiag.cli import main
from fixtures import (serialize_explicit_model, serialize_labels,
                      slow_exit_mdp, slow_exit_property)

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = str(MODELS / "demo.tra")
DEMO_LAB = str(MODELS / "demo.lab")
DEMO_PROP = "P<=0.5 [ (a|b) U (c&d) ]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def demo_args(*extra, prop=DEMO_PROP):
    return ("--model", DEMO, "--labels", DEMO_LAB, "--prop", prop) + extra


class TestCheck:
    def test_violated(self, capsys):
        code, out, _ = run(capsys, "check", *demo_args())
        assert code == 1
        assert "Pmax = 0.882" in out
        assert "VIOLATED" in out
        assert "property: P<=0.5 [ (a | b) U (c & d) ]" in out

    def test_holds(self, capsys):
        code, out, _ = run(capsys, "check",
                           *demo_args(prop="P<=0.9 [ (a|b) U (c&d) ]"))
        assert code == 0
        assert "HOLDS" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json", *demo_args())
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["pmax"] == pytest.approx(0.882, abs=1e-9)
        assert payload["threshold"] == 0.5
        code2, out2, _ = run(capsys, "check", "--format", "json",
                             *demo_args())
        assert out2 == out and code2 == code

    def test_props_file(self, capsys):
        code, out, _ = run(capsys, "check", "--model", DEMO, "--labels",
                           DEMO_LAB, "--props-file",
                           str(MODELS / "demo.props"))
        assert code == 1 and "VIOLATED" in out

    def test_prop_and_props_file_conflict(self, capsys, tmp_path):
        f = tmp_path / "p.props"
        f.write_text(DEMO_PROP + "\n")
        code, _, err = run(capsys, "check", "--model", DEMO, "--labels",
                           DEMO_LAB, "--prop", DEMO_PROP,
                           "--props-file", str(f))
        assert code == 2 and "not both" in err

    def test_property_required(self, capsys):
        code, _, err = run(capsys, "check", "--model", DEMO,
                           "--labels", DEMO_LAB)
        assert code == 2 and "property is required" in err

    def test_props_file_must_hold_one_property(self, capsys, tmp_path):
        f = tmp_path / "p.props"
        f.write_text("P<=0.5 [ a U b ]\nP<=0.4 [ a U b ]\n")
        code, _, err = run(capsys, "check", "--model", DEMO, "--labels",
                           DEMO_LAB, "--props-file", str(f))
        assert code == 2 and "exactly one" in err

    def test_props_file_error_names_the_file_and_line(self, capsys, tmp_path):
        f = tmp_path / "p.props"
        f.write_text("# the demo property\n\n  P<=0.5 [ (a | b) & !zz U c ]\n")
        code, out, err = run(capsys, "check", "--model", DEMO, "--labels",
                             DEMO_LAB, "--props-file", str(f))
        assert (code, out) == (2, "")
        assert err == (f"error: {f}, line 3, column 23: unknown atomic "
                       "proposition 'zz'\n")

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "check", "--model", "/no/such.tra",
                           "--prop", DEMO_PROP)
        assert code == 2 and "cannot read" in err

    def test_invalid_model_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.tra"
        bad.write_text("STATES 2\nINIT 0\n0 a 1 0.7\n1 a 1 1.0\n")
        code, out, err = run(capsys, "check", "--model", str(bad),
                             "--prop", "P<=0.5 [ true U x ]")
        assert (code, out) == (2, "")
        assert err == "error: probabilities sum to 0.7 for state 0 action 'a'\n"

    def test_state_without_actions_rejected(self, capsys, tmp_path):
        bad = tmp_path / "sink.tra"
        bad.write_text("STATES 3\nINIT 0\n0 a 1 1.0\n")
        code, out, err = run(capsys, "check", "--model", str(bad),
                             "--prop", "P<=0.5 [ true U x ]")
        assert (code, out) == (2, "")
        assert err == (
            "invalid model: [no-enabled-action] state 1: state has no "
            "enabled action\n"
            "invalid model: [no-enabled-action] state 2: state has no "
            "enabled action\n"
            "error: model failed validation with 2 problem(s)\n")

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    def test_nan_probability_rejected(self, capsys, tmp_path, command):
        bad = tmp_path / "nan.tra"
        bad.write_text("STATES 3\nINIT 0\n0 a 1 nan\n0 a 2 0.5\n"
                       "1 a 1 1.0\n2 a 2 1.0\n")
        code, out, err = run(capsys, command, "--model", str(bad),
                             "--prop", "P<=0.5 [ true U x ]")
        assert (code, out) == (2, "")
        # the first fault only: NaN is not positive, before the row's sum
        assert err == ("error: nonpositive probability nan to successor 1 "
                       "for state 0 action 'a'\n")

    def test_undefined_quoted_label(self, capsys):
        code, _, err = run(capsys, "check",
                           *demo_args(prop='P<=0.5 [ true U "nope" ]'))
        assert code == 2 and "undefined label" in err

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    def test_misspelled_bare_atom(self, capsys, command):
        code, out, err = run(capsys, command,
                             *demo_args(prop="P<=0.5 [ (a|b) U (c&dd) ]"))
        assert code == 2
        assert "unknown atomic proposition 'dd'" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    @pytest.mark.parametrize("prop,where", [
        ("P>=0.5 [ (a|b) U (c&d) ]", "column 2: expected the comparison"),
        ("P>0.5 [ (a|b) U (c&d) ]", "column 2: expected the comparison"),
        ("P<=0.5 [ (a|b) W (c&d) ]", "column 16: expected 'U'"),
    ])
    def test_lower_threshold_and_weak_until_do_not_parse(self, capsys,
                                                          command, prop,
                                                          where):
        code, out, err = run(capsys, command, *demo_args(prop=prop))
        assert code == 2 and out == ""
        assert f"error: line 1, {where}" in err

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    def test_strict_zero_threshold_is_a_usage_error(self, capsys, command):
        # P<0 holds nowhere, and diagnose would find no path to show
        code, out, err = run(capsys, command,
                             *demo_args(prop="P<0 [ a U false ]"))
        assert code == 2 and out == ""
        assert ("error: line 1, column 3: P<0 holds in no model; a "
                "threshold after '<' must be above 0") in err

    def test_bad_epsilon(self, capsys):
        code, _, err = run(capsys, "check", "--epsilon", "-1", *demo_args())
        assert code == 2 and "epsilon" in err

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    @pytest.mark.parametrize("eps", ["0", "inf", "-inf", "nan", "1", "2"])
    def test_epsilon_must_be_positive_and_finite(self, capsys, command, eps):
        # inf, 1 and 2 once printed Pmax = 0 and HOLDS: a residual never
        # exceeds 1, so one sweep stopped the iteration; nan ran out of
        # sweeps
        code, out, err = run(capsys, command, f"--epsilon={eps}",
                             *demo_args())
        assert code == 2 and "epsilon must be positive and finite" in err
        assert out == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "verdict.txt"
        code, out, _ = run(capsys, "check", "--out", str(target),
                           *demo_args())
        assert code == 1
        assert out == ""
        assert "Pmax = 0.882" in target.read_text()


class TestProgramModels:
    def test_zeroconf_violated(self, capsys):
        code, out, _ = run(capsys, "check", "--model",
                           str(MODELS / "zeroconf.pm"), "--props-file",
                           str(MODELS / "zeroconf.props"))
        assert code == 1
        assert "Pmax = 0.48" in out

    def test_const_override_changes_verdict(self, capsys):
        code, out, _ = run(capsys, "check", "--model",
                           str(MODELS / "csma.pm"), "--props-file",
                           str(MODELS / "csma.props"), "--const", "K=0")
        assert code == 0
        assert "Pmax = 0.64" in out

    def test_unknown_constant(self, capsys):
        code, _, err = run(capsys, "check", "--model",
                           str(MODELS / "csma.pm"), "--props-file",
                           str(MODELS / "csma.props"), "--const", "Z=1")
        assert code == 2 and "undeclared" in err

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    def test_nan_probability_rejected(self, capsys, tmp_path, command):
        bad = tmp_path / "nan.pm"
        bad.write_text("module m\n s:[0..2];\n"
                       " [go] s=0 -> 1e999*0:(s'=1) + 0.5:(s'=2);\n"
                       " [] s>0 -> (s'=s);\nendmodule\n"
                       'label "q" = s=1;\n')
        code, out, err = run(capsys, command, "--model", str(bad),
                             "--prop", "P<=0.5 [ true U q ]")
        assert code == 2 and out == ""
        assert "branch probability nan must be positive" in err

    @pytest.mark.parametrize("pair,needle", [
        ("K", "NAME=VALUE"),
        ("K=abc", "not a number"),
        ("K=nan", "constant 'K' is declared int, got nan"),
        ("K=inf", "constant 'K' is declared int, got inf"),
        ("K=1e400", "constant 'K' is declared int, got inf"),
    ])
    def test_bad_const_syntax(self, capsys, pair, needle):
        code, _, err = run(capsys, "check", "--model",
                           str(MODELS / "csma.pm"), "--props-file",
                           str(MODELS / "csma.props"), "--const", pair)
        assert code == 2 and needle in err

    def test_const_rejected_for_explicit_models(self, capsys):
        code, _, err = run(capsys, "check", "--const", "K=1", *demo_args())
        assert code == 2 and "guarded-command" in err

    def test_labels_rejected_for_program_models(self, capsys):
        code, _, err = run(capsys, "check", "--model",
                           str(MODELS / "zeroconf.pm"), "--labels", DEMO_LAB,
                           "--props-file", str(MODELS / "zeroconf.props"))
        assert code == 2 and "explicit models" in err

    @pytest.mark.parametrize("command", ["check", "diagnose"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_state_cap_below_one_is_a_usage_error(self, capsys, command,
                                                  cap):
        code, out, err = run(capsys, command, "--model",
                             str(MODELS / "zeroconf.pm"), "--props-file",
                             str(MODELS / "zeroconf.props"),
                             "--state-cap", cap)
        assert code == 2 and out == ""
        assert f"--state-cap must be at least 1, got {cap}" in err

    def test_state_cap_budget(self, capsys):
        code, _, err = run(capsys, "check", "--model",
                           str(MODELS / "zeroconf.pm"), "--props-file",
                           str(MODELS / "zeroconf.props"),
                           "--state-cap", "5")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("target", ["ghost", '"ghost"'])
    def test_label_holding_nowhere_is_false(self, capsys, tmp_path, target):
        model = tmp_path / "counter.pm"
        model.write_text("module counter\n"
                         "  c : [0..2] init 0;\n"
                         "  [tick] c < 2 -> (c'=c+1);\n"
                         "  [stay] c = 2 -> true;\n"
                         "endmodule\n"
                         "label \"ghost\" = c > 5;\n")
        code, out, err = run(capsys, "check", "--model", str(model),
                             "--prop", f"P<=0.5 [ true U {target} ]")
        assert code == 0, err
        assert "Pmax = 0\n" in out

    def test_program_read_off_the_content_not_the_extension(self, capsys,
                                                            tmp_path):
        model = tmp_path / "zeroconf.tra"
        model.write_text((MODELS / "zeroconf.pm").read_text())
        code, out, _ = run(capsys, "check", "--model", str(model),
                           "--props-file", str(MODELS / "zeroconf.props"))
        assert code == 1 and "Pmax = 0.48" in out

    def test_explicit_read_off_the_content_not_the_extension(self, capsys,
                                                             tmp_path):
        model = tmp_path / "demo.pm"
        model.write_text((MODELS / "demo.tra").read_text())
        code, out, _ = run(capsys, "check", "--model", str(model),
                           "--labels", DEMO_LAB, "--prop", DEMO_PROP)
        assert code == 1 and "VIOLATED" in out


class TestDiagnose:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "diagnose", *demo_args())
        assert code == 1
        assert "verdict: VIOLATED (Pmax = 0.882, threshold 0.5)" in out
        assert "counterexample: 3 paths, total probability 0.6" in out
        assert "ranked actions by blame:" in out
        assert "1. action alpha0 at state 0: dB = 0.6" in out
        assert "most blamed action: alpha0 at 0" in out

    def test_witness_scheduler_extracted_once(self, capsys, monkeypatch):
        import mdpdiag.checker as checker
        original = checker.extract_max_scheduler
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)
        # patch every module of the package that holds the function
        for name, module in list(sys.modules.items()):
            if (name.startswith("mdpdiag") and
                    getattr(module, "extract_max_scheduler", None) is original):
                monkeypatch.setattr(module, "extract_max_scheduler", counted)
        code, _, _ = run(capsys, "diagnose", *demo_args())
        assert code == 1 and len(calls) == 1

    def test_holding_property_reports_verdict_only(self, capsys):
        code, out, _ = run(capsys, "diagnose",
                           *demo_args(prop="P<=0.9 [ (a|b) U (c&d) ]"))
        assert code == 0
        assert "HOLDS" in out
        assert "blame" not in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--format", "json",
                           *demo_args())
        assert code == 1
        payload = json.loads(out)
        assert payload["pmax"] == pytest.approx(0.882, abs=1e-9)
        assert [e["action"] for e in payload["actions"]] == [
            "alpha0", "alpha2", "alpha1", "alpha4"]
        assert [e["dB"] for e in payload["actions"]] == pytest.approx(
            [0.6, 0.275, 0.25, 0.15], abs=1e-9)

    def test_normalize_flag(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--normalize", *demo_args())
        assert code == 1
        assert "share" in out and "normalized mass" in out

    def test_path_budget_exit(self, capsys):
        code, _, err = run(capsys, "diagnose", "--max-paths", "2",
                           *demo_args())
        assert code == 3 and "incomplete" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_path_cap_below_one_is_a_usage_error(self, capsys, cap):
        code, out, err = run(capsys, "diagnose", "--max-paths", cap,
                             *demo_args())
        assert code == 2 and out == ""
        assert f"--max-paths must be at least 1, got {cap}" in err

    @pytest.mark.parametrize("floor", ["-0.5", "2", "inf"])
    def test_min_prob_outside_the_unit_interval_is_a_usage_error(
            self, capsys, floor):
        code, out, err = run(capsys, "diagnose", "--min-prob", floor,
                             *demo_args())
        assert code == 2 and out == ""
        assert f"--min-prob must lie in [0, 1], got {float(floor):g}" in err

    @pytest.mark.parametrize("floor", ["0", "1"])
    def test_min_prob_bounds_are_allowed(self, capsys, floor):
        code, _, err = run(capsys, "diagnose", "--min-prob", floor,
                           *demo_args())
        assert code in (1, 3) and "--min-prob" not in err

    def test_nan_min_prob_rejected(self, capsys):
        code, out, err = run(capsys, "diagnose", "--min-prob", "nan",
                             *demo_args())
        assert code == 2 and "min_prob" in err
        assert out == ""

    def test_checks_once(self, capsys, sweep_calls):
        # build_mipcx reuses the value vector of the CLI's own check
        code, _, _ = run(capsys, "diagnose", *demo_args())
        assert code == 1
        assert len(sweep_calls) == 1

    def test_program_model_report_carries_source_lines(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--model",
                           str(MODELS / "zeroconf.pm"), "--props-file",
                           str(MODELS / "zeroconf.props"))
        assert code == 1
        assert "command: module" in out


class TestDiagnoseTrace:
    def export(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        code, out, _ = run(capsys, "diagnose", "--format", "json",
                           "--export-cx", str(path), *demo_args())
        assert code == 1
        return path, json.loads(out)

    def test_round_trip_matches_model_route(self, capsys, tmp_path):
        path, model_report = self.export(capsys, tmp_path)
        code, out, _ = run(capsys, "diagnose-trace", "--format", "json",
                           "--trace", str(path))
        assert code == 1
        trace_report = json.loads(out)
        assert model_report["pmax"] == pytest.approx(0.882, abs=1e-9)
        assert trace_report["pmax"] is None
        del model_report["pmax"], trace_report["pmax"]
        assert trace_report == model_report

    def test_property_override(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        code, out, _ = run(capsys, "diagnose-trace", "--trace", str(path),
                           "--prop", "P<0.45 [ (a|b) U (c&d) ]")
        assert code == 1
        assert "property: P<0.45 [ (a | b) U (c & d) ]" in out

    def test_override_failing_verification(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        code, _, err = run(capsys, "diagnose-trace", "--trace", str(path),
                           "--prop", "P<=0.7 [ (a|b) U (c&d) ]")
        assert code == 2
        assert "invalid counterexample" in err
        assert "does not witness" in err

    def test_tampered_trace_rejected(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["paths"][0]["probability"] = 0.9
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "diagnose-trace", "--trace", str(path))
        assert code == 2 and "disagrees" in err

    def test_lower_threshold_override_does_not_parse(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(path),
                             "--prop", "P>0.1 [ (a|b) U (c&d) ]")
        assert code == 2 and out == ""
        assert "error: line 1, column 2: expected the comparison" in err

    def test_weak_until_in_stored_property_rejected(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        data = json.loads(path.read_text())
        assert data["property"] == "P<=0.5 [ (a | b) U (c & d) ]"
        data["property"] = "P<=0.5 [ (a | b) W (c & d) ]"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(path))
        assert code == 2 and out == ""
        assert (f"error: {path}: property field, line 1, column 18: "
                "expected 'U'") in err

    def test_stored_property_keeps_to_the_alphabet(self, capsys, tmp_path):
        # the same text is rejected as --prop and as the trace's property
        prop = "P<=0.5 [ (a | b) & !zz U (c & d) ]"
        want = "line 1, column 21: unknown atomic proposition 'zz'\n"
        code, out, err = run(capsys, "check", *demo_args(prop=prop))
        assert (code, out, err) == (2, "", "error: " + want)
        path, _ = self.export(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["property"] = prop
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(path))
        assert (code, out, err) == (
            2, "", f"error: {path}: property field, " + want)

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text.replace('"states": [', '"states": ["0", ', 1),
         "malformed path entry 0"),
        (lambda text: text[:len(text) // 2], "invalid JSON: "),
    ], ids=["malformed-entry", "truncated"])
    def test_trace_errors_name_the_trace(self, capsys, tmp_path, damage,
                                         message):
        path, _ = self.export(capsys, tmp_path)
        path.write_text(damage(path.read_text()))
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {message}")

    def test_invalid_trace_json(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "diagnose-trace", "--trace", str(path))
        assert code == 2 and "invalid JSON" in err

    def test_program_model_trace_keeps_state_names(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        csma = ("--model", str(MODELS / "csma.pm"), "--props-file",
                str(MODELS / "csma.props"))
        code, direct, _ = run(capsys, "diagnose", "--export-cx", str(path),
                              *csma)
        assert code == 1
        code, traced, _ = run(capsys, "diagnose-trace", "--trace", str(path))
        assert code == 1

        def path_lines(report):
            return [ln for ln in report.splitlines()
                    if re.match(r" +\d+\) ", ln)]

        assert len(path_lines(direct)) == 3
        assert path_lines(traced) == path_lines(direct)
        assert "busy=0,s1=0,r1=0,s2=0,r2=0 -start1->" in path_lines(traced)[0]

    def test_misspelled_bare_atom(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(path),
                             "--prop", "P<=0.5 [ (a|b) U (c&dd) ]")
        assert code == 2 and out == ""
        assert "unknown atomic proposition 'dd'" in err
        assert "invalid counterexample" not in err

    def test_atoms_off_the_paths_travel_with_the_trace(self, capsys,
                                                      tmp_path):
        # csma's gave_up labels no state on the counterexample's paths
        path = tmp_path / "cx.json"
        code, _, _ = run(capsys, "diagnose", "--export-cx", str(path),
                         "--model", str(MODELS / "csma.pm"), "--props-file",
                         str(MODELS / "csma.props"))
        assert code == 1
        assert "gave_up" in json.loads(path.read_text())["ap_names"]
        code, out, _ = run(capsys, "diagnose-trace", "--trace", str(path),
                           "--prop", 'P<=0.5 [ !"gave_up" U delivered_all ]')
        assert code == 1 and "property: P<=0.5" in out
        code, _, err = run(capsys, "diagnose-trace", "--trace", str(path),
                           "--prop", "P<=0.5 [ !gave_upp U delivered_all ]")
        assert code == 2 and "unknown atomic proposition 'gave_upp'" in err

    def test_normalize(self, capsys, tmp_path):
        path, _ = self.export(capsys, tmp_path)
        code, out, _ = run(capsys, "diagnose-trace", "--normalize",
                           "--trace", str(path))
        assert code == 1 and "share" in out


class TestReportOutput:
    """diagnose and diagnose-trace write the report as it is made, to the
    --out file or to stdout."""

    COMMANDS = {"diagnose": ("diagnose", *demo_args()),
                "diagnose-trace": ("diagnose-trace", "--trace",
                                   str(GOLDEN / "demo.cx.json"))}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path,
                                             command, fmt):
        argv = (*self.COMMANDS[command], "--format", fmt)
        code, out, _ = run(capsys, *argv)
        target = tmp_path / "report"
        assert run(capsys, *argv, "--out", str(target)) == (1, "", "")
        assert code == 1
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unwritable_out(self, capsys, tmp_path, command, fmt):
        target = tmp_path / "missing" / "report"
        code, out, err = run(capsys, *self.COMMANDS[command], "--format",
                             fmt, "--out", str(target))
        assert (code, out) == (2, "")
        assert f"cannot write {target}" in err

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    def test_reader_closing_the_pipe_early(self, tmp_path, unbuffered):
        """A reader that stops after one line (`| head -n 1`) ends the
        report quietly, and the exit code stays the verdict's."""
        m, spec = slow_exit_mdp(), slow_exit_property()
        # larger than any pipe buffer (at most 1 MiB by default on Linux),
        # so the write after the reader left is certain to fail
        report = generate_diagnoses(build_mipcx(m, spec)).render_text()
        assert len(report) > 2 << 20
        model, labels = tmp_path / "slow.tra", tmp_path / "slow.lab"
        model.write_text(serialize_explicit_model(m))
        labels.write_text(serialize_labels(m))
        env = dict(os.environ, PYTHONWARNINGS="error",
                   PYTHONPATH=str(Path(mdpdiag.__file__).parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdpdiag.cli", "diagnose", "--model",
             str(model), "--labels", str(labels), "--prop", str(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first == report.splitlines(keepends=True)[0].encode()
        assert err == b""


class TestUnreadableInput:
    """Input that cannot be read or is nested past the recursion limit is
    an error (exit 2), never a traceback."""

    @pytest.mark.parametrize("which", ["model", "labels", "props", "trace"])
    def test_file_not_utf8(self, capsys, tmp_path, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"STATES 2\n\xff\xfe\n")
        files = {"model": DEMO, "labels": DEMO_LAB,
                 "props": str(MODELS / "demo.props"), which: str(bad)}
        if which == "trace":
            argv = ("diagnose-trace", "--trace", files["trace"])
        else:
            argv = ("check", "--model", files["model"], "--labels",
                    files["labels"], "--props-file", files["props"])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"cannot read {bad}: not UTF-8 text" in err

    @pytest.mark.parametrize("phi", ["(" * 3000 + "a" + ")" * 3000,
                                     "!" * 5000 + "a"],
                             ids=["parentheses", "negations"])
    def test_deep_property(self, capsys, phi):
        code, out, err = run(capsys, "check",
                             *demo_args(prop=f"P<=0.5 [ {phi} U c ]"))
        assert code == 2 and out == ""
        assert "error: input nested too deeply" in err

    @pytest.mark.parametrize("expr", ["(" * 3000 + "s=1" + ")" * 3000,
                                      "s=1" + "+0" * 5000],
                             ids=["parentheses", "long-sum"])
    def test_deep_program_expression(self, capsys, tmp_path, expr):
        model = tmp_path / "deep.pm"
        model.write_text("module m\n  s : [0..1];\n"
                         "  [go] s=0 -> (s'=1);\nendmodule\n"
                         f'label "q" = {expr};\n')
        code, out, err = run(capsys, "check", "--model", str(model),
                             "--prop", "P<=0.5 [ true U q ]")
        assert code == 2 and out == ""
        assert "error: input nested too deeply" in err

    def test_deep_trace_json(self, capsys, tmp_path):
        trace = tmp_path / "cx.json"
        trace.write_text('{"format_version": 1, "labels": '
                         + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(trace))
        assert code == 2 and out == ""
        assert "error: input nested too deeply" in err


class TestArgparseBehavior:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_required_flag(self, capsys):
        assert main(["check"]) == 2
