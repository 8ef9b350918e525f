"""Property grammar, finite-path semantics, and normal forms."""

import pytest

from mdpdiag import (FALSE, TRUE, And, Atom, DomainError, FalseFormula, Not,
                     Or, ParseError, PathFormula, PropertySpec, TrueFormula,
                     eval_state_formula, parse_property, to_nnf)
from mdpdiag.records import replace

from fixtures import parse_state_formula
from oracles import atoms_of, eval_path_formula, path_atoms

A, B, C, D = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def is_nnf(phi) -> bool:
    if isinstance(phi, Not):
        return isinstance(phi.child, Atom)
    if isinstance(phi, (And, Or)):
        return is_nnf(phi.left) and is_nnf(phi.right)
    return isinstance(phi, (TrueFormula, FalseFormula, Atom))


class TestParsing:
    def test_demo_property_shape(self):
        spec = parse_property("P<=0.5 [ (a|b) U (c&d) ]")
        assert spec.comparison == "<="
        assert spec.threshold == 0.5
        assert spec.path == PathFormula(Or(A, B), And(C, D))

    def test_all_comparisons_accepted_by_parser(self):
        for cmp in ("<", "<="):
            spec = parse_property(f"P{cmp}0.3 [ a U b ]")
            assert spec.comparison == cmp

    def test_step_bound(self):
        spec = parse_property("P<0.1 [ x U<=12 y ]")
        assert spec.path.bound == 12
        assert spec.threshold == 0.1

    def test_weak_until(self):
        with pytest.raises(ParseError,
                           match="^line 1, column 10: expected 'U' between"):
            parse_property("P<=0 [ a W b ]")

    @pytest.mark.parametrize("cmp", [">", ">="])
    def test_lower_threshold(self, cmp):
        with pytest.raises(ParseError,
                           match="^line 1, column 2: .* '<=' or '<' after 'P'"):
            parse_property(f"P{cmp}0.5 [ a U b ]")

    def test_w_is_an_atom(self):
        spec = parse_property("P<=0.5 [ W U !W ]")
        assert spec.path == PathFormula(Atom("W"), Not(Atom("W")))

    def test_precedence_or_binds_loosest(self):
        assert parse_state_formula("a|b&c") == Or(A, And(B, C))
        assert parse_state_formula("!a&b") == And(Not(A), B)
        assert parse_state_formula("!(a&b)") == Not(And(A, B))
        assert parse_state_formula("a&b&c") == And(And(A, B), C)

    def test_constants(self):
        assert parse_state_formula("true") is TRUE
        assert parse_state_formula("false") is FALSE
        assert parse_state_formula("!true") == Not(TRUE)

    def test_double_negation_parses(self):
        assert parse_state_formula("!!a") == Not(Not(A))

    def test_quoted_labels_resolve_against_table(self):
        spec = parse_property('P<=0.5 [ !"cfg" U "late" ]',
                              defined_labels={"cfg", "late"})
        assert spec.path.left == Not(Atom("cfg"))
        assert spec.path.right == Atom("late")

    def test_quoted_label_without_table_rejected(self):
        with pytest.raises(ParseError, match="label table"):
            parse_property('P<=0.5 [ "cfg" U b ]')

    def test_quoted_label_not_defined_rejected(self):
        with pytest.raises(ParseError, match="undefined label"):
            parse_property('P<=0.5 [ "cfg" U b ]', defined_labels={"other"})

    def test_bare_atoms_checked_against_table(self):
        spec = parse_property('P<=0.5 [ a U "b" ]', defined_labels={"a", "b"})
        assert spec.path == PathFormula(A, B)
        with pytest.raises(ParseError) as exc:
            parse_property("P<=0.5 [ (a | b) & !zz U b ]",
                           defined_labels={"a", "b"})
        assert str(exc.value) == ("line 1, column 21: unknown atomic "
                                  "proposition 'zz'")

    @pytest.mark.parametrize("text,needle", [
        ("", "starts with 'P'"),
        ("Q<=0.5 [ a U b ]", "starts with 'P'"),
        ("P 0.5 [ a U b ]", "comparison"),
        ("P<= [ a U b ]", "threshold"),
        ("P<=1.5 [ a U b ]", "outside"),
        ("P<0 [ a U b ]", "column 3: P<0 holds in no model"),
        ("P<0.000 [ a U b ]", "column 3: P<0 holds in no model"),
        ("P<=0.5 a U b", "expected '\\['"),
        ("P<=0.5 [ a U b ] extra", "trailing"),
        ("P<=0.5 [ a b ]", "expected 'U'"),
        ("P<=0.5 [ a U ]", "state formula"),
        ("P<=0.5 [ (a U b ]", "expected '\\)'"),
        ("P<=0.5 [ a U<=2.5 b ]", "nonnegative integer"),
        ("P<=0.5 [ U U b ]", "reserved"),
        ("P<=0.5 [ P<=0.3 [ a U b ] U c ]", "nested"),
        ("P<=0.5 [ a U b ] $", "unexpected character"),
    ])
    def test_parse_errors(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_property(text)

    def test_parse_error_position(self):
        try:
            parse_property("P<=0.5 [ a U\n@ ]")
        except ParseError as exc:
            assert exc.line == 2 and exc.column == 1
        else:
            pytest.fail("expected ParseError")

    def test_state_formula_trailing_input(self):
        with pytest.raises(ParseError, match="^line 1, column 12: expected 'U'"):
            parse_property("P<=0.5 [ a b U c ]")


class TestAstValidation:
    def test_negative_bound(self):
        with pytest.raises(DomainError):
            PathFormula(A, B, bound=-1)

    @pytest.mark.parametrize("bound", [2.5, 2.0, True, False, "2"])
    def test_bound_must_be_an_int(self, bound):
        # 2.5 would print as U<=2.5, which the parser rejects, and True
        # would equal bound 1
        message = f"^step bound must be an int, got {bound!r}$"
        with pytest.raises(DomainError, match=message):
            PathFormula(A, B, bound)
        with pytest.raises(DomainError, match="step bound must be an int"):
            replace(PathFormula(A, B, 2), bound=bound)

    def test_bad_comparison(self):
        with pytest.raises(DomainError):
            PropertySpec("==", 0.5, PathFormula(A, B))

    def test_threshold_out_of_range(self):
        with pytest.raises(DomainError):
            PropertySpec("<=", 1.2, PathFormula(A, B))
        with pytest.raises(DomainError):
            PropertySpec("<=", -0.1, PathFormula(A, B))
        with pytest.raises(DomainError, match="P<0 holds in no model"):
            PropertySpec("<", 0.0, PathFormula(A, B))
        assert PropertySpec("<=", 0.0, PathFormula(A, B)).threshold == 0.0


class TestFormatting:
    def test_demo_format(self):
        spec = parse_property("P<=0.5 [ (a|b) U (c&d) ]")
        assert str(spec) == "P<=0.5 [ (a | b) U (c & d) ]"

    def test_integral_threshold_prints_as_int(self):
        spec = PropertySpec("<", 1.0, PathFormula(TRUE, A))
        assert str(spec) == "P<1 [ true U a ]"

    def test_bound_format(self):
        spec = parse_property("P<0.1 [ x U<=12 y ]")
        assert str(spec) == "P<0.1 [ x U<=12 y ]"

    @pytest.mark.parametrize("text", [
        "P<=0.5 [ (a|b) U (c&d) ]",
        "P<0.25 [ !a&b U<=3 c|d&a ]",
        "P<=1 [ true U false ]",
        "P<0.75 [ !(a|b) U !!c ]",
        "P<=0.5 [ (a&b|c)&d U a ]",
    ])
    def test_round_trip(self, text):
        spec = parse_property(text)
        assert parse_property(str(spec)) == spec

    def test_quoted_labels_print_bare(self):
        spec = parse_property('P<=0.5 [ !"cfg" U "late" ]',
                              defined_labels={"cfg", "late"})
        printed = str(spec)
        assert '"' not in printed
        assert parse_property(printed) == spec


class TestEvaluation:
    labels = {0: {"a"}, 1: {"a", "b"}, 2: {"c"}}

    def test_state_formula_basics(self):
        assert eval_state_formula(self.labels, 0, A)
        assert not eval_state_formula(self.labels, 0, B)
        assert eval_state_formula(self.labels, 1, And(A, B))
        assert eval_state_formula(self.labels, 2, Or(A, C))
        assert eval_state_formula(self.labels, 2, Not(A))
        assert eval_state_formula(self.labels, 0, TRUE)
        assert not eval_state_formula(self.labels, 0, FALSE)

    def test_unknown_atom_defaults_false(self):
        assert not eval_state_formula(self.labels, 0, Atom("zz"))

    def test_state_missing_from_labelling_has_no_aps(self):
        assert not eval_state_formula(self.labels, 9, A)

    def test_until_satisfied_midway(self):
        psi = PathFormula(A, C)
        assert eval_path_formula(self.labels, (0, 1, 2), psi)

    def test_until_fails_when_left_breaks_first(self):
        psi = PathFormula(B, C)
        # position 0 has a but not b, and no c yet
        assert not eval_path_formula(self.labels, (0, 1, 2), psi)

    def test_until_right_at_first_position(self):
        psi = PathFormula(FALSE, A)
        assert eval_path_formula(self.labels, (0,), psi)

    def test_until_unresolved_prefix_is_false(self):
        psi = PathFormula(A, C)
        assert not eval_path_formula(self.labels, (0, 1), psi)

    def test_bound_cuts_off_late_target(self):
        psi = PathFormula(A, C, bound=1)
        assert not eval_path_formula(self.labels, (0, 1, 2), psi)
        assert eval_path_formula(self.labels, (0, 1, 2),
                                 PathFormula(A, C, bound=2))

    def test_bound_zero_checks_only_first_state(self):
        assert eval_path_formula(self.labels, (2, 0), PathFormula(A, C, bound=0))
        assert not eval_path_formula(self.labels, (0, 2),
                                     PathFormula(A, C, bound=0))

class TestNormalForm:
    def test_push_through_and(self):
        assert to_nnf(Not(And(A, B))) == Or(Not(A), Not(B))

    def test_push_through_or(self):
        assert to_nnf(Not(Or(A, B))) == And(Not(A), Not(B))

    def test_double_negation(self):
        assert to_nnf(Not(Not(A))) == A

    def test_constants(self):
        assert to_nnf(Not(TRUE)) is FALSE
        assert to_nnf(Not(FALSE)) is TRUE

    def test_nested(self):
        phi = Not(Or(And(A, Not(B)), C))
        nnf = to_nnf(phi)
        assert is_nnf(nnf)
        assert nnf == And(Or(Not(A), B), Not(C))

    def test_nnf_fixpoint(self):
        phi = Or(And(A, Not(B)), Not(C))
        assert to_nnf(phi) == phi
        assert is_nnf(phi)

    def test_is_nnf_rejects_inner_negation(self):
        assert not is_nnf(Not(And(A, B)))
        assert not is_nnf(Not(Not(A)))

    def test_semantics_preserved(self):
        labels = {0: {"a"}, 1: {"b"}, 2: {"a", "b"}, 3: set()}
        phi = Not(Or(And(A, Not(B)), Not(A)))
        for s in labels:
            assert (eval_state_formula(labels, s, phi)
                    == eval_state_formula(labels, s, to_nnf(phi)))


class TestAtoms:
    def test_atoms_of(self):
        assert atoms_of(Or(And(A, Not(B)), C)) == {"a", "b", "c"}
        assert atoms_of(TRUE) == frozenset()

    def test_path_atoms(self):
        psi = PathFormula(Or(A, B), And(C, D))
        assert path_atoms(psi) == {"a", "b", "c", "d"}
