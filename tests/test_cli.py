"""End-to-end runs of the command-line front end."""

import gc
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdpdiag
from mdpdiag import (And, Atom, Not, Or, build_mipcx, find_causes,
                     generate_diagnoses)
from mdpdiag import cli, mdp
from mdpdiag.cli import main
from mdpdiag.program import (Binary, BoolLit, Call, Name, Num, Unary,
                             compile_expr)
from fixtures import (serialize_explicit_model, serialize_labels,
                      slow_exit_mdp, slow_exit_property, step_counting_mdp,
                      tied_chain)

# the benchmark's input generators, read only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

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

    def test_threshold_printed_as_in_the_property(self, capsys):
        # to six digits it would read as 0.882, the Pmax it is compared with
        code, out, _ = run(capsys, "check",
                           *demo_args(prop="P<=0.8819999 [ (a|b) U (c&d) ]"))
        assert code == 1
        assert "verdict: VIOLATED (threshold 0.8819999)\n" in out

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

    def test_label_with_a_double_quote_rejected(self, capsys, tmp_path):
        lab = tmp_path / "quote.lab"
        lab.write_text('0: a"b\n')
        code, out, err = run(capsys, "check", "--model", DEMO, "--labels",
                             str(lab), "--prop", "P<=0.5 [ true U a ]")
        assert (code, out) == (2, "")
        assert err == (f"error: {lab}, line 1: label 'a\"b' holds '\"', "
                       "which no property can name\n")

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

    @pytest.mark.parametrize("case", ["slow-self-loop", "two-state-cycle",
                                      "slow-exit"])
    def test_slowly_left_cycles_are_violated(self, capsys, tmp_path, case):
        # ROADMAP item 1 (i), (ii) and (iv): value iteration stopped short
        # of Pmax (0.490002, 0.999981, 0.4997506) and said HOLDS
        if case == "slow-exit":
            tra, lab, _ = workloads.slow_exit(str(tmp_path), 1019)
            prop = "P<=0.4999 [ ok U goal ]"
        else:
            if case == "slow-self-loop":
                m = mdpdiag.Mdp(3, 0, {
                    (0, "a"): [(0, 1 - 1e-4), (1, 5e-5), (2, 5e-5)],
                    (1, "s"): [(1, 1.0)], (2, "s"): [(2, 1.0)]},
                    labels={1: {"goal"}})
                prop = "P<=0.495 [ true U goal ]"
            else:
                m = mdpdiag.Mdp(3, 0, {(0, "a"): [(1, 0.95), (2, 0.05)],
                                       (1, "b"): [(0, 1.0)],
                                       (2, "s"): [(2, 1.0)]},
                                labels={0: {"ok"}, 1: {"ok"}, 2: {"goal"}})
                prop = "P<=0.999999 [ ok U goal ]"
            tra, lab = tmp_path / "m.tra", tmp_path / "m.lab"
            tra.write_text(serialize_explicit_model(m))
            lab.write_text(serialize_labels(m))
        code, out, _ = run(capsys, "check", "--model", str(tra), "--labels",
                           str(lab), "--prop", prop)
        assert code == 1 and "verdict: VIOLATED" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "verdict.txt"
        code, out, _ = run(capsys, "check", "--out", str(target),
                           *demo_args())
        assert code == 1
        assert out == ""
        assert "Pmax = 0.882" in target.read_text()

    def test_state_cap_bounds_explicit_models(self, capsys, tmp_path,
                                              monkeypatch):
        def no_model(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(mdp, "Mdp", no_model)
        huge = tmp_path / "huge.tra"
        huge.write_text("STATES 9999999999998\nINIT 0\n0 a 0 1.0\n")
        for command in ("check", "diagnose"):
            code, out, err = run(capsys, command, "--model", str(huge),
                                 "--prop", "P<=0.5 [ true U true ]")
            assert code == 3 and out == ""
            assert err == ("error: state count 9999999999998 exceeds the "
                           "cap of 1000000 states\n")
        code, _, err = run(capsys, "check", *demo_args("--state-cap", "7"))
        assert code == 3 and "state count 8 exceeds the cap of 7" in err


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

    def test_threshold_near_one_printed_as_in_the_property(self, capsys):
        # to six digits it would read as 1
        _, out, _ = run(capsys, "check", "--model", str(MODELS / "csma.pm"),
                        "--const", "K=20", "--prop",
                        'P<=0.9999995 [ !"gave_up" U "delivered_all" ]')
        assert "(threshold 0.9999995)\n" in out

    def test_csma_near_one_is_violated(self, capsys):
        # ROADMAP item 1 (vi): value iteration stopped at 0.9999990784 and
        # said HOLDS; the exact Pmax is (1 - 0.2**21)**2
        code, out, _ = run(capsys, "check", "--model", str(MODELS / "csma.pm"),
                           "--const", "K=20", "--prop",
                           'P<=0.9999995 [ !"gave_up" U "delivered_all" ]')
        assert code == 1
        assert "Pmax = 1\nverdict: VIOLATED (threshold 0.9999995)\n" in out

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

    @pytest.mark.parametrize("update,message", [
        ("0.5000000009:({v}'=1) + 0.5:({v}'=2)",
         "probabilities sum to 1.0000000018 for state 0 action 'go'"),
        ("1e-200:({v}'=1) + 1:({v}'=2)",
         "nonpositive probability 0.0 to successor 1 for state 0 action 'go'"),
    ])
    def test_synchronized_distribution_fault(self, capsys, tmp_path, update,
                                             message):
        # each command keeps the distribution rule, their product does not
        bad = tmp_path / "sync.pm"
        bad.write_text("".join(
            f"module m{i}\n  {v} : [0..2] init 0;\n"
            f"  [go] {v} = 0 -> {update.format(v=v)};\nendmodule\n"
            for i, v in enumerate("xy")))
        code, out, err = run(capsys, "check", "--model", str(bad),
                             "--prop", "P<=0.5 [ true U false ]")
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_report_threshold_printed_as_in_the_property(self, capsys):
        code, out, _ = run(capsys, "diagnose",
                           *demo_args(prop="P<=0.8819999 [ (a|b) U (c&d) ]"))
        assert code == 1
        assert ("verdict: VIOLATED (Pmax = 0.882, threshold 0.8819999)\n"
                in out)

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

    def test_checks_once(self, capsys, pmax_runs):
        # build_mipcx reuses the value vector of the CLI's own check
        code, _, _ = run(capsys, "diagnose", *demo_args())
        assert code == 1
        assert len(pmax_runs) == 1

    def test_program_model_report_carries_source_lines(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--model",
                           str(MODELS / "zeroconf.pm"), "--props-file",
                           str(MODELS / "zeroconf.props"))
        assert code == 1
        assert "command: module" in out


class TestStepBoundedDiagnosis:
    """A step-bounded violation is diagnosed through a witness that counts
    steps; one action per state would gather 1/2 of the 3/4 (see
    step_counting_mdp), below the threshold 0.6."""

    PROP = "P<=0.6 [ true U<=4 goal ]"

    def model_args(self, tmp_path):
        m = step_counting_mdp()
        tra, lab = tmp_path / "m.tra", tmp_path / "m.lab"
        tra.write_text(serialize_explicit_model(m))
        lab.write_text(serialize_labels(m))
        return "--model", str(tra), "--labels", str(lab)

    def export(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        code, out, err = run(capsys, "diagnose", "--export-cx", str(path),
                             *self.model_args(tmp_path), "--prop", self.PROP)
        assert (code, err) == (1, "")
        return path, out

    def test_diagnose_gathers_the_mass_the_check_reports(self, capsys,
                                                        tmp_path):
        code, out, _ = run(capsys, "check", *self.model_args(tmp_path),
                           "--prop", self.PROP)
        assert code == 1 and "Pmax = 0.75\n" in out
        path, out = self.export(capsys, tmp_path)
        assert "verdict: VIOLATED (Pmax = 0.75, threshold 0.6)\n" in out
        assert "counterexample: 2 paths, total probability 0.75\n" in out
        assert "0 -go-> 2 -slow-> 3 -on-> 4 -on-> 5   p=0.5\n" in out
        assert "0 -go-> 1 -go-> 2 -fast-> 5   p=0.25\n" in out
        data = json.loads(path.read_text())
        assert data["total_mass"] == 0.75 and data["scheduler"] == {}
        assert data["step_scheduler"]["2"] == {"2": "fast", "3": "slow"}

    def test_retrace_matches_the_model_route(self, capsys, tmp_path):
        path, out = self.export(capsys, tmp_path)
        code, again, err = run(capsys, "diagnose-trace", "--trace", str(path))
        assert (code, err) == (1, "")
        # the trace knows no Pmax, so its verdict line is gone
        assert again == "".join(line for line in out.splitlines(True)
                                if not line.startswith("verdict:"))

    @pytest.mark.parametrize("prop, problem", [
        ("P<=0.6 [ true U<=6 goal ]", "bounds 6"),
        ("P<=0.6 [ true U<=2 goal ]", "bounds 2"),
        ("P<=0.6 [ true U goal ]", "has no step bound")])
    def test_retrace_under_another_bound_fails_verification(
            self, capsys, tmp_path, prop, problem):
        path, _ = self.export(capsys, tmp_path)
        code, out, err = run(capsys, "diagnose-trace", "--trace", str(path),
                             "--prop", prop)
        assert (code, out) == (2, "")
        assert (f"invalid counterexample: the scheduler counts 4 steps, but "
                f"the property {prop} {problem}\n") in err
        assert err.endswith("problem(s)\n") and "Traceback" not in err


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


# Runs one query as `python -m mdpdiag.cli` does, then names on stderr's
# last line the package modules that executed: a registered submodule that
# has not run is still the lazy loader's module subclass.
_PROBE = """
import json, runpy, sys, types
try:
    runpy.run_module("mdpdiag.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
ran = sorted(name.split(".")[1] for name, module in sys.modules.items()
             if name.startswith("mdpdiag.")
             and type(module) is types.ModuleType)
print(json.dumps([code, ran]), file=sys.stderr)
"""

PIPELINE = {"pctl", "mdp", "graph", "bounded", "checker", "counterexample",
            "diagnosis", "program"}


def _subprocess_env():
    return dict(os.environ,
                PYTHONPATH=str(Path(mdpdiag.__file__).parent.parent))


def executed(*argv):
    """Exit code of the query and the set of package modules it ran."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=_subprocess_env())
    code, ran = json.loads(proc.stderr.splitlines()[-1])
    return code, set(ran)


class TestLoading:
    """A query runs only the submodules it uses; each is registered in
    sys.modules from the start and executes on first attribute access."""

    def test_help_runs_no_pipeline_module(self):
        code, ran = executed("--help")
        assert code == 0 and not ran & PIPELINE

    def test_explicit_check_runs_no_counterexample_diagnosis_or_program(self):
        code, ran = executed("check", *demo_args())
        assert code == 1
        assert {"pctl", "mdp", "checker"} <= ran
        assert not ran & {"counterexample", "diagnosis", "program"}

    def test_step_bounded_check_runs_no_graph(self):
        # a step bound sweeps the pairs within reach: no components, and
        # only a step bound runs the module that solves it
        code, ran = executed("check", "--model", str(MODELS / "csma.pm"),
                             "--prop",
                             'P<=0.7 [ !"gave_up" U<=4 "delivered_all" ]')
        assert code == 0 and {"checker", "bounded"} <= ran
        assert "graph" not in ran
        code, ran = executed("check", *demo_args())
        assert code == 1 and "graph" in ran and "bounded" not in ran

    def test_program_check_runs_program(self):
        code, ran = executed("check", "--model", str(MODELS / "zeroconf.pm"),
                             "--props-file", str(MODELS / "zeroconf.props"))
        assert code == 1 and "program" in ran

    @pytest.mark.parametrize("argv", [
        ("diagnose",) + demo_args(),
        ("diagnose-trace", "--trace", str(GOLDEN / "demo.cx.json")),
    ], ids=["diagnose", "diagnose-trace"])
    def test_explicit_diagnosis_runs_no_program(self, argv):
        code, ran = executed(*argv)
        assert code == 1 and {"counterexample", "diagnosis"} <= ran
        assert "program" not in ran

    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("check",) + demo_args(),
        ("diagnose",) + demo_args(),
    ], ids=["help", "check", "diagnose"])
    def test_text_output_imports_no_json(self, argv):
        probe = ("import runpy, sys\n"
                 "try:\n"
                 "    runpy.run_module('mdpdiag.cli', run_name='__main__')\n"
                 "except SystemExit:\n"
                 "    pass\n"
                 "print('json' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, timeout=120,
                              env=_subprocess_env())
        assert proc.stderr.splitlines()[-1] == "False"

    def test_trace_runs_no_checker_graph_or_program(self):
        code, ran = executed("diagnose-trace", "--trace",
                             str(GOLDEN / "demo.cx.json"))
        assert code == 1 and {"pctl", "mdp", "counterexample",
                              "diagnosis"} <= ran
        assert not ran & {"checker", "graph", "program"}
        code, ran = executed("diagnose", *demo_args())
        assert code == 1 and {"checker", "counterexample"} <= ran

    def test_every_submodule_registered_after_importing_the_cli(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, mdpdiag.cli; print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, timeout=60, check=True,
            env=_subprocess_env())
        registered = set(out.stdout.split())
        assert {f"mdpdiag.{name}" for name in PIPELINE | {"errors", "records"}
                } <= registered

    def test_star_import_binds_every_public_name(self):
        names = {}
        exec("from mdpdiag import *", names)
        assert len(mdpdiag.__all__) == 58
        assert set(mdpdiag.__all__) <= set(names)
        assert names["build_mdp"] is mdpdiag.program.build_mdp

    def test_help_warns_of_nothing(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "mdpdiag.cli", "--help"],
            capture_output=True, text=True, timeout=60, env=_subprocess_env())
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: mdpdiag")


@pytest.fixture
def collector():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollector:
    """main runs its command with automatic cyclic collection paused, over
    data that reference counting alone frees."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, want", [
        (("check",) + demo_args(prop="P<=0.9 [ (a|b) U (c&d) ]"), 0),
        (("check",) + demo_args(), 1),
        (("diagnose",) + demo_args("--max-paths", "0"), 2),
        (("check", "--model", str(MODELS / "zeroconf.pm"), "--props-file",
          str(MODELS / "zeroconf.props"), "--state-cap", "5"), 3),
        (("--help",), 0),
        (("check",), 2),
        (("check",) + demo_args(prop=f"P<=0.5 [ {'!' * 5000}a U c ]"), 2),
    ], ids=["holds", "violated", "usage", "budget", "help", "argparse",
            "recursion"])
    def test_main_restores_the_collector(self, capsys, collector, enabled,
                                         argv, want):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        code, _, _ = run(capsys, *argv)
        assert code == want
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("fault, want, message", [
        (MemoryError(), 3, "error: out of memory\n"),
        (KeyError("lost"), 4, "error: internal error: KeyError('lost')\n"),
        (ZeroDivisionError("boom"), 4,
         "error: internal error: ZeroDivisionError('boom')\n"),
    ], ids=["memory", "key", "zero-division"])
    def test_a_crash_exits_with_no_verdict_code(self, capsys, monkeypatch,
                                                collector, enabled, fault,
                                                want, message):
        def crash(args):
            raise fault

        monkeypatch.setattr(cli, "_cmd_check", crash)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        code, out, err = run(capsys, "check", *demo_args())
        assert code == want and out == ""
        assert gc.isenabled() is enabled
        first, rest = err.split("\n", 1)
        assert first + "\n" == message
        # an internal error prints its traceback; running out of memory
        # is a budget, not a fault
        if want == 4:
            assert rest.startswith("Traceback (most recent call last):")
            assert rest.endswith(f"{type(fault).__name__}: {fault}\n")
        else:
            assert rest == ""

    def test_diagnose_makes_no_collection_pass(self, capsys, monkeypatch):
        inside = [False]
        passes = []
        run_command = cli._run

        def marked(argv):
            inside[0] = True
            try:
                return run_command(argv)
            finally:
                inside[0] = False

        def count(phase, info):
            if phase == "start" and inside[0]:
                passes.append(info["generation"])

        monkeypatch.setattr(cli, "_run", marked)
        gc.callbacks.append(count)
        try:
            code, _, _ = run(capsys, "diagnose", "--model",
                             str(MODELS / "csma.pm"), "--const", "K=20",
                             "--props-file", str(MODELS / "csma.props"))
        finally:
            gc.callbacks.remove(count)
        assert code == 1 and passes == []

    def test_find_causes_and_compile_expr_leave_no_cycle(self, collector):
        phi = Or(And(Atom("a"), Not(Atom("b"))), Not(And(Atom("b"),
                                                         Atom("c"))))
        s = Name("s")
        exprs = [
            Binary("&", Binary("=", s, Num(1)),
                   Unary("!", Binary("<", Call("min", (s, Num(3))),
                                     Num(2)))),
            Binary("+", Binary("*", s, Num(2.5)), Unary("-", Name("K"))),
            Binary("|", BoolLit(True), Num(1)),  # ill-typed: an error closure
        ]
        gc.collect()
        gc.disable()
        for _ in range(50):
            assert find_causes(0, {0: {"a"}}, phi) == {
                ("a", True): 0.5, ("b", False): 0.5, ("c", False): 1 / 3}
            codes = [compile_expr(e, {"K": 4}, {"s": 0}) for e in exprs]
            assert [c.kind for c in codes] == ["bool", "float", "error"]
            assert [c.fn((1,)) for c in codes[:2]] == [False, -1.5]
        assert gc.collect() == 0

    def test_diagnosis_leaves_no_cycle_per_state(self, capsys, tmp_path,
                                                 collector):
        left = []
        for n in (50, 400):
            m = tied_chain(random.Random(n), n)
            tra, lab = tmp_path / f"{n}.tra", tmp_path / f"{n}.lab"
            tra.write_text(serialize_explicit_model(m))
            lab.write_text(serialize_labels(m))
            gc.collect()
            gc.disable()
            code, _, _ = run(capsys, "diagnose", "--model", str(tra),
                             "--labels", str(lab),
                             "--prop", "P<=0.01 [ p U q ]")
            assert code == 1
            left.append(gc.collect())
        assert left[0] == left[1]
