"""Guarded-command parsing, constant folding, and state-space elaboration."""

from pathlib import Path

import pytest

from mdpdiag import (BudgetError, DomainError, ParseError, build_mdp,
                     fold_constants, parse_program, validate_mdp)

MODELS = Path(__file__).resolve().parent.parent / "models"

COUNTER = """\
module counter
  c : [0..2] init 0;
  [tick] c < 2 -> (c'=c+1);
  [stay] c = 2 -> true;
endmodule
label "full" = c = 2;
"""

SYNC = """\
module left
  a : [0..1] init 0;
  [go] a = 0 -> 0.5:(a'=1) + 0.5:(a'=0);
  [go] a = 1 -> true;
endmodule
module right
  b : [0..1] init 0;
  [go] b = 0 -> 0.3:(b'=1) + 0.7:(b'=0);
  [go] b = 1 -> true;
endmodule
"""

CONSTS = """\
const int K = 2;
const int L = K + 1;
const double p = 0.25;
const int M;
module only
  x : [0..L] init K;
  [step] x > 0 -> p:(x'=x-1) + 0.75:(x'=x);
  [stay] x = 0 -> true;
endmodule
"""


def build(text, constants=None, **kw):
    return build_mdp(parse_program(text), constants=constants, **kw)


def enabled_names(m, s):
    return [m.action_name(a) for a in m.enabled_actions(s)]


class TestParsing:
    def test_program_structure(self):
        prog = parse_program(COUNTER, filename="counter.pm")
        assert prog.filename == "counter.pm"
        assert [m.name for m in prog.modules] == ["counter"]
        mod = prog.modules[0]
        assert [v.name for v in mod.variables] == ["c"]
        assert [c.label for c in mod.commands] == ["tick", "stay"]
        assert mod.commands[0].line == 3
        assert [l.name for l in prog.labels] == ["full"]

    def test_updates_and_probabilities(self):
        prog = parse_program(SYNC)
        cmd = prog.modules[0].commands[0]
        assert len(cmd.updates) == 2
        assert cmd.updates[0].prob is not None
        assert len(cmd.updates[0].assignments) == 1
        # bare 'true' update carries no assignments and no probability
        stay = prog.modules[0].commands[1]
        assert len(stay.updates) == 1
        assert stay.updates[0].prob is None
        assert stay.updates[0].assignments == ()

    def test_comments_are_ignored(self):
        text = "// header\nmodule m // trailing\n  x : [0..1];\n" \
               "  [a] true -> true; // note\nendmodule\n"
        prog = parse_program(text)
        assert prog.modules[0].name == "m"
        assert prog.modules[0].commands[0].line == 4

    def test_unlabelled_command(self):
        prog = parse_program(
            "module m\n x : [0..1];\n [] x = 0 -> (x'=1);\nendmodule\n")
        assert prog.modules[0].commands[0].label == ""

    @pytest.mark.parametrize("text,needle", [
        ("const int K = 1;", "declares no module"),
        ("module m\n x : [0..1];\n", "missing 'endmodule'"),
        ("module m\n x : [0..1];\nendmodule\nwhat\n", "expected 'const'"),
        ("const bool K = 1;\nmodule m\n x:[0..1];\nendmodule\n",
         "'int' or 'double'"),
        ("const int K = min(3);\nmodule m\n x:[0..1];\nendmodule\n",
         "at least two arguments"),
        ("module m\n [123] true -> true;\nendmodule\n", "action label"),
        ("module m\n x : [0..1];\n [a] true -> @;\nendmodule\n",
         "unexpected character"),
        ("module m\n x : 3;\nendmodule\n", "expected '\\['"),
        ("label \"has space\" = true;\nmodule m\n x:[0..1];\nendmodule\n",
         "plain identifier"),
        ("label x = true;\nmodule m\n x:[0..1];\nendmodule\n",
         "quoted label name"),
    ])
    def test_parse_errors(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_program(text)

    def test_error_carries_line_and_filename(self):
        try:
            parse_program("module m\n x : 3;\nendmodule\n", filename="f.pm")
        except ParseError as exc:
            assert exc.line == 2
            assert "f.pm" in str(exc)
        else:
            pytest.fail("expected ParseError")


class TestConstants:
    def test_fold_in_declaration_order(self):
        prog = parse_program(CONSTS)
        values = fold_constants(prog, {"M": 7})
        assert values == {"K": 2, "L": 3, "p": 0.25, "M": 7}
        assert isinstance(values["p"], float)

    def test_override_feeds_later_definitions(self):
        values = fold_constants(parse_program(CONSTS), {"K": 5, "M": 0})
        assert values["L"] == 6

    def test_integral_float_coerces_for_int_kind(self):
        values = fold_constants(parse_program(CONSTS), {"K": 4.0, "M": 0})
        assert values["K"] == 4 and isinstance(values["K"], int)

    def test_fractional_override_for_int_rejected(self):
        with pytest.raises(DomainError, match="declared int"):
            fold_constants(parse_program(CONSTS), {"K": 2.5, "M": 0})

    def test_missing_value_rejected(self):
        with pytest.raises(DomainError, match="has no value"):
            fold_constants(parse_program(CONSTS))

    def test_undeclared_override_rejected(self):
        with pytest.raises(DomainError, match="undeclared"):
            fold_constants(parse_program(CONSTS), {"M": 0, "Z": 1})

    def test_duplicate_definition_rejected(self):
        text = "const int K = 1;\nconst int K = 2;\n" \
               "module m\n x:[0..1];\n [a] true -> true;\nendmodule\n"
        with pytest.raises(ParseError, match="defined twice"):
            fold_constants(parse_program(text))

    def test_expression_vocabulary(self):
        text = ("const int A = min(3, 5);\nconst int B = max(2 * 3, 4);\n"
                "const int C = -2 + A;\nconst double D = 1 - 0.2;\n"
                "module m\n x:[0..1];\n [a] true -> true;\nendmodule\n")
        values = fold_constants(parse_program(text))
        assert values == {"A": 3, "B": 6, "C": 1,
                          "D": pytest.approx(0.8)}


class TestValidationErrors:
    def check(self, text, needle, constants=None):
        with pytest.raises(ParseError, match=needle):
            build(text, constants)

    def test_duplicate_module(self):
        self.check("module m\n x:[0..1];\n [a] true -> true;\nendmodule\n"
                   "module m\n y:[0..1];\n [b] true -> true;\nendmodule\n",
                   "defined twice")

    def test_duplicate_variable_across_modules(self):
        self.check("module m\n x:[0..1];\n [a] true -> true;\nendmodule\n"
                   "module n\n x:[0..1];\n [b] true -> true;\nendmodule\n",
                   "already in use")

    def test_variable_shadowing_constant(self):
        self.check("const int x = 1;\n"
                   "module m\n x:[0..1];\n [a] true -> true;\nendmodule\n",
                   "already in use")

    def test_non_integer_bounds(self):
        self.check("const double p = 0.25;\n"
                   "module m\n x:[0..p];\n [a] true -> true;\nendmodule\n",
                   "must be integers")

    def test_empty_range(self):
        self.check("module m\n x:[2..1];\n [a] true -> true;\nendmodule\n",
                   "empty range")

    def test_init_out_of_range(self):
        self.check("module m\n x:[0..1] init 5;\n [a] true -> true;\n"
                   "endmodule\n", "escapes")

    def test_unknown_identifier_in_guard(self):
        self.check("module m\n x:[0..1];\n [a] z = 0 -> true;\nendmodule\n",
                   "unknown identifier 'z'")

    # of two unknown names the leftmost is reported, not the first in
    # alphabetical order
    @pytest.mark.parametrize("command, label, needle", [
        ("[a] zz = 0 & aa = 0 -> true;", "", "unknown identifier 'zz'"),
        ("[a] true -> (x'=zz+aa);", "", "unknown identifier 'zz'"),
        ("[a] true -> true;", 'label "l" = zz = 0 | aa = 1;\n',
         "unknown identifier 'zz'"),
        ("[a] true -> zz + x:(x'=0);", "",
         "branch probability must be constant, found 'zz'"),
    ], ids=["guard", "update", "label", "probability"])
    def test_leftmost_unknown_name(self, command, label, needle):
        self.check(f"module m\n x:[0..1];\n {command}\nendmodule\n{label}",
                   needle)

    def test_probability_must_be_constant(self):
        self.check("module m\n x:[0..1];\n"
                   " [a] true -> x:(x'=0) + 1:(x'=1);\nendmodule\n",
                   "must be constant, found 'x'")

    def test_probability_must_be_positive(self):
        self.check("module m\n x:[0..1];\n"
                   " [a] true -> 0:(x'=0) + 1:(x'=1);\nendmodule\n",
                   "positive")

    def test_probability_sum(self):
        self.check("module m\n x:[0..1];\n"
                   " [a] true -> 0.5:(x'=0) + 0.6:(x'=1);\nendmodule\n",
                   "expected 1")

    def test_nan_probability_rejected(self):
        # every comparison with nan is false, so "p <= 0" let it through
        self.check("module m\n x:[0..1];\n"
                   " [a] true -> 1e999*0:(x'=0) + 0.5:(x'=1);\nendmodule\n",
                   "branch probability nan must be positive")

    def test_assignment_to_foreign_variable(self):
        self.check("module a\n x:[0..1];\n [go] true -> (y'=1);\nendmodule\n"
                   "module b\n y:[0..1];\n [go] true -> true;\nendmodule\n",
                   "owned by 'b'")

    def test_assignment_to_unknown_variable(self):
        self.check("module m\n x:[0..1];\n [a] true -> (z'=1);\nendmodule\n",
                   "unknown variable")

    def test_variable_assigned_twice_in_update(self):
        self.check("module m\n x:[0..1];\n"
                   " [a] true -> (x'=1) & (x'=0);\nendmodule\n",
                   "assigned twice")

    def test_duplicate_label_definition(self):
        self.check("module m\n x:[0..1];\n [a] true -> true;\nendmodule\n"
                   "label \"l\" = x = 0;\nlabel \"l\" = x = 1;\n",
                   "defined twice")

    def test_label_must_be_boolean(self):
        self.check("module m\n x:[0..1];\n [a] true -> true;\nendmodule\n"
                   "label \"l\" = x + 1;\n", "must be boolean")

    def test_guard_type_error_surfaces_at_build(self):
        self.check("module m\n x:[0..1];\n [a] x | true -> true;\n"
                   "endmodule\n", "boolean operand")

    def test_update_value_must_be_integer(self):
        self.check("module m\n x:[0..1];\n [a] true -> (x'=true);\n"
                   "endmodule\n", "must be an integer")


class TestElaboration:
    def test_counter_states_and_names(self):
        m, _ = build(COUNTER)
        assert m.num_states == 3
        assert m.state_names == ("c=0", "c=1", "c=2")
        assert m.init == 0
        assert enabled_names(m, 0) == ["tick"]
        assert dict(m.distribution(0, 0)) == {1: 1.0}
        assert enabled_names(m, 2) == ["stay"]
        assert dict(m.distribution(2, m.action_id("stay"))) == {2: 1.0}

    def test_counter_labels(self):
        m, _ = build(COUNTER)
        assert m.ap_names == ["full"]
        assert m.labels_of(2) == frozenset({"full"})
        assert m.labels_of(0) == frozenset()

    def test_label_holding_nowhere_is_still_known(self):
        text = COUNTER + "label \"ghost\" = c > 5;\n"
        m, _ = build(text)
        assert "ghost" in m.ap_names
        assert all("ghost" not in m.labels_of(s) for s in m.states)

    def test_synchronized_product_distribution(self):
        m, _ = build(SYNC)
        assert m.num_states == 4
        assert m.state_names[0] == "a=0,b=0"
        go = m.action_id("go")
        assert dict(m.distribution(0, go)) == pytest.approx(
            {1: 0.15, 2: 0.35, 3: 0.15, 0: 0.35})
        assert m.state_names[1] == "a=1,b=1"
        assert m.state_names[2] == "a=1,b=0"
        assert m.state_names[3] == "a=0,b=1"

    def test_combination_signatures_name_actions(self):
        m, _ = build(SYNC)
        assert enabled_names(m, 1) == ["go#1.1"]
        assert enabled_names(m, 2) == ["go#1.0"]
        assert enabled_names(m, 3) == ["go#0.1"]

    def test_blocked_synchronization(self):
        text = ("module one\n x : [0..1] init 0;\n"
                " [go] x = 0 -> (x'=1);\n [] x = 1 -> true;\nendmodule\n"
                "module two\n y : [0..1] init 1;\n"
                " [go] y = 0 -> (y'=1);\n [] y = 1 -> (y'=0);\nendmodule\n")
        m, _ = build(text)
        # two's guard blocks 'go' at the initial state; only the
        # unlabelled command of module two can move
        assert enabled_names(m, 0) == ["two:9"]

    def test_internal_commands_interleave(self):
        text = ("module one\n x : [0..1] init 0;\n"
                " [] x = 0 -> (x'=1);\n [] x = 1 -> true;\nendmodule\n"
                "module two\n y : [0..1] init 0;\n"
                " [] y = 0 -> (y'=1);\n [] y = 1 -> true;\nendmodule\n")
        m, _ = build(text)
        assert enabled_names(m, 0) == ["one:3", "two:8"]

    def test_same_line_internal_commands_disambiguated(self):
        text = ("module m\n x : [0..1] init 0;\n"
                " [] x = 0 -> (x'=1); [] x = 0 -> true;\nendmodule\n")
        m, _ = build(text)
        assert enabled_names(m, 0) == ["m:3", "m:3#1"]

    def test_local_nondeterminism_within_one_label(self):
        text = ("module pick\n x : [0..2] init 0;\n"
                " [try] x = 0 -> (x'=1);\n [try] x = 0 -> (x'=2);\n"
                " [] x > 0 -> true;\nendmodule\n")
        m, _ = build(text)
        assert enabled_names(m, 0) == ["try", "try#1"]
        assert dict(m.distribution(0, m.action_id("try"))) == {1: 1.0}
        assert dict(m.distribution(0, m.action_id("try#1"))) == {2: 1.0}

    def test_updates_read_the_source_state(self):
        text = ("module pair\n x : [0..1] init 0;\n y : [0..1] init 1;\n"
                " [swap] true -> (x'=y) & (y'=x);\nendmodule\n")
        m, _ = build(text)
        assert m.state_names == ("x=0,y=1", "x=1,y=0")
        swap = m.action_id("swap")
        assert dict(m.distribution(0, swap)) == {1: 1.0}
        assert dict(m.distribution(1, swap)) == {0: 1.0}

    def test_duplicate_targets_merge(self):
        text = ("module m\n x : [0..1] init 0;\n"
                " [a] x = 0 -> 0.5:(x'=1) + 0.5:(x'=1);\n"
                " [a] x = 1 -> true;\nendmodule\n")
        m, _ = build(text)
        assert dict(m.distribution(0, 0)) == {1: pytest.approx(1.0)}

    def test_constants_shape_the_state_space(self):
        m, _ = build(CONSTS, constants={"M": 0})
        assert m.num_states == 3  # x walks 2 -> 1 -> 0
        assert m.state_names[0] == "x=2"
        assert dict(m.distribution(0, m.action_id("step"))) == pytest.approx(
            {1: 0.25, 0: 0.75})

    def test_update_escaping_bounds(self):
        text = ("module e\n x : [0..1] init 0;\n [up] x = 0 -> (x'=2);\n"
                "endmodule\n")
        with pytest.raises(DomainError,
                           match=r"line 3: update x'=2 leaves \[0\.\.1\] "
                                 r"at state x=0"):
            build(text)

    def test_state_cap(self):
        text = ("module b\n n : [0..99] init 0;\n"
                " [inc] n < 99 -> (n'=n+1);\n [done] n = 99 -> true;\n"
                "endmodule\n")
        with pytest.raises(BudgetError, match="cap"):
            build(text, state_cap=10)

    def test_deadlocks_surface_through_validation_not_build(self):
        text = "module m\n x : [0..1] init 0;\n [a] x = 0 -> (x'=1);\n" \
               "endmodule\n"
        m, _ = build(text)
        kinds = {v.kind for v in validate_mdp(m)}
        assert kinds == {"no-enabled-action"}

    def test_rebuild_is_deterministic(self):
        from fixtures import serialize_explicit_model
        one, _ = build(SYNC)
        two, _ = build(SYNC)
        assert serialize_explicit_model(one) == serialize_explicit_model(two)
        assert one.state_names == two.state_names
        assert one.action_names == two.action_names


class TestSourceMap:
    def test_synchronized_transition_names_both_modules(self):
        m, smap = build(SYNC)
        assert smap[m.action_id("go")] == (("left", 3), ("right", 8))

    def test_lookup_covers_every_transition(self):
        m, smap = build(SYNC)
        assert set(smap) == set(range(len(m.action_names)))
        for (s, aid), dist in m.transition_items():
            cmds = smap[aid]
            assert cmds, (s, aid)
            assert all(isinstance(mod, str) and isinstance(line, int)
                       for mod, line in cmds)

    def test_transitions_of_an_action_share_its_commands(self):
        # go#i.j fires the i-th go command of left and the j-th of right,
        # wherever it is enabled; csma has 7,610 transitions of 7 actions
        m, smap = build(SYNC)
        assert {m.action_name(a): cmds for a, cmds in smap.items()} == {
            "go": (("left", 3), ("right", 8)),
            "go#0.1": (("left", 3), ("right", 9)),
            "go#1.0": (("left", 4), ("right", 8)),
            "go#1.1": (("left", 4), ("right", 9)),
        }
        csma = parse_program((MODELS / "csma.pm").read_text(), "csma.pm")
        m, smap = build_mdp(csma, {"K": 20})
        assert sum(len(d) for _, d in m.transition_items()) == 7_610
        assert len(smap) == len(m.action_names) == 7

    def test_unknown_action_is_empty(self):
        _, smap = build(SYNC)
        assert smap.get(99, ()) == ()


class TestShippedModels:
    def test_zeroconf_model(self):
        text = (MODELS / "zeroconf.pm").read_text()
        m, smap = build_mdp(parse_program(text, "zeroconf.pm"))
        assert m.num_states == 29
        assert validate_mdp(m) == []
        assert {"configured", "timeout"} <= set(m.ap_names)
        assert len(smap) > 0

    def test_csma_model_and_override(self):
        text = (MODELS / "csma.pm").read_text()
        prog = parse_program(text, "csma.pm")
        base, _ = build_mdp(prog)
        assert base.num_states == 60
        assert validate_mdp(base) == []
        bigger, _ = build_mdp(prog, constants={"K": 3})
        assert bigger.num_states == 180
        assert validate_mdp(bigger) == []
