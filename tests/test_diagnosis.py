"""Cause extraction, responsibility, blame, and the diagnosis report."""

import random
import tracemalloc
from collections import Counter

import pytest

from mdpdiag import diagnosis, pctl
from mdpdiag import (FALSE, TRUE, And, Atom, BudgetError, Cause, Counterexample,
                     DomainError, FinitePath, Not, Or, ParseError, PathForest,
                     WeightedPath, build_mipcx, check_property,
                     collect_causes, counterexample_from_json,
                     counterexample_to_json, find_causes, generate_diagnoses,
                     parse_property, render_text_report)
from mdpdiag.diagnosis import MASS_EQ_TOL
from mdpdiag.records import replace
from fixtures import (blame_gap_mdp, blame_gap_property, bundled_model,
                      demo_mdp, demo_property, slow_exit_mdp,
                      slow_exit_property)
from oracles import (blame, check_prop1, check_prop2, is_critical,
                     path_atoms, random_mdp, responsibility_oracle,
                     state_mass, transition_mass)


def demo_cx():
    return build_mipcx(demo_mdp(), demo_property())


def make_cx(paths, total, spec_text, labels, action_names=("a",)):
    labels = {s: frozenset(v) for s, v in labels.items()}
    return Counterexample(PathForest.of_paths(paths), total, None,
                          parse_property(spec_text), labels, action_names)


def wp(states, prob, actions=None):
    if actions is None:
        actions = (0,) * (len(states) - 1)
    return WeightedPath(FinitePath(tuple(states), tuple(actions)), prob)


def loop_cx():
    """A single path revisiting its start; mass bookkeeping is per path,
    so per-transition masses no longer partition the state mass here."""
    return make_cx([wp((0, 1, 0, 2), 0.125)], 0.125, "P<=0.1 [ g U t ]",
                   {0: {"g"}, 1: {"g"}, 2: {"t"}})


class TestMasses:
    def test_state_mass_demo(self):
        cx = demo_cx()
        assert state_mass(cx, 0) == pytest.approx(0.6)
        assert state_mass(cx, 2) == pytest.approx(0.35)
        assert state_mass(cx, 4) == pytest.approx(0.15)
        assert state_mass(cx, 6) == 0.0

    def test_transition_mass_demo(self):
        cx = demo_cx()
        a0 = cx.action_names.index("alpha0")
        a2 = cx.action_names.index("alpha2")
        assert transition_mass(cx, 0, a0, 2) == pytest.approx(0.35)
        assert transition_mass(cx, 0, a0, 1) == pytest.approx(0.25)
        assert transition_mass(cx, 2, a2, 4) == pytest.approx(0.15)
        assert transition_mass(cx, 2, a2, 7) == 0.0

    def test_revisited_state_counts_once_per_path(self):
        cx = loop_cx()
        assert state_mass(cx, 0) == pytest.approx(0.125)

    def test_repeated_transition_counts_once_per_path(self):
        cx = make_cx([wp((0, 1, 0, 1, 0, 2), 0.5)], 0.5,
                     "P<=0.1 [ g U t ]",
                     {0: {"g"}, 1: {"g"}, 2: {"t"}})
        assert transition_mass(cx, 0, 0, 1) == pytest.approx(0.5)


AB = {0: {"a", "b"}}
A_ONLY = {0: {"a"}}


class TestFindCauses:
    def test_true_atom(self):
        assert find_causes(0, A_ONLY, Atom("a")) == {("a", True): 1.0}

    def test_false_atom_rejected(self):
        with pytest.raises(DomainError, match="does not hold"):
            find_causes(0, A_ONLY, Atom("b"))

    def test_negative_literal(self):
        assert find_causes(0, A_ONLY, Not(Atom("b"))) == {("b", False): 1.0}

    def test_false_negative_literal_rejected(self):
        with pytest.raises(DomainError, match="does not hold"):
            find_causes(0, A_ONLY, Not(Atom("a")))

    # each case with the causes and the node count of the same walk over
    # the negation pushed down to the atoms (!(a&b) as !a | !b, ...); a
    # negation is read where it is written and costs no step
    @pytest.mark.parametrize("labels, phi, causes, steps", [
        (A_ONLY, Not(And(Atom("a"), Atom("b"))), {("b", False): 1.0}, 2),
        ({}, Not(And(Atom("a"), Atom("b"))),
         {("a", False): 0.5, ("b", False): 0.5}, 3),
        ({}, Not(Or(Atom("a"), Atom("b"))),
         {("a", False): 1.0, ("b", False): 1.0}, 3),
        (A_ONLY, Not(Not(Atom("a"))), {("a", True): 1.0}, 1),
        (A_ONLY, Not(FALSE), {}, 1),
        (AB, Not(Or(And(Atom("a"), Not(Atom("b"))), Atom("c"))),
         {("b", True): 1.0, ("c", False): 1.0}, 4),
    ], ids=["not-and", "not-and-split", "not-or", "not-not", "not-false",
            "nested"])
    def test_negation_read_as_written(self, labels, phi, causes, steps):
        counter = [0]
        assert find_causes(0, labels, phi, 0, counter) == causes
        assert counter == [steps]

    def test_negated_true_rejected(self):
        counter = [0]
        with pytest.raises(DomainError, match="does not hold at state 0$"):
            find_causes(0, A_ONLY, Not(TRUE), 0, counter)
        assert counter == [1]

    def test_negated_disjunction_rejected_at_its_true_side(self):
        with pytest.raises(DomainError, match="a is true there"):
            find_causes(0, A_ONLY, Not(Or(Atom("a"), Atom("b"))))

    def test_conjunction_keeps_full_responsibility(self):
        got = find_causes(0, AB, And(Atom("a"), Atom("b")))
        assert got == {("a", True): 1.0, ("b", True): 1.0}

    def test_disjunction_single_side(self):
        got = find_causes(0, A_ONLY, Or(Atom("a"), Atom("b")))
        assert got == {("a", True): 1.0}

    def test_disjunction_both_sides_split(self):
        got = find_causes(0, AB, Or(Atom("a"), Atom("b")))
        assert got == {("a", True): 0.5, ("b", True): 0.5}

    def test_nested_disjunctions_accumulate(self):
        labels = {0: {"a", "b", "c"}}
        got = find_causes(0, labels, Or(Or(Atom("a"), Atom("b")), Atom("c")))
        assert got == {("a", True): pytest.approx(1 / 3),
                       ("b", True): pytest.approx(1 / 3),
                       ("c", True): 0.5}

    def test_duplicate_literal_keeps_best_degree(self):
        got = find_causes(0, AB, And(Atom("a"), Or(Atom("a"), Atom("b"))))
        assert got == {("a", True): 1.0, ("b", True): 0.5}

    def test_constant_true_contributes_nothing(self):
        assert find_causes(0, A_ONLY, TRUE) == {}

    def test_unsatisfied_disjunction_rejected(self):
        with pytest.raises(DomainError, match="does not hold"):
            find_causes(0, A_ONLY, Or(Atom("c"), Atom("d")))

    def test_evaluations_grow_linearly_in_a_chain_of_disjunctions(
            self, monkeypatch):
        # x0 | (x1 | (... | x(n-1))) with the last atom alone true: a walk
        # that evaluated both whole sides of every | would evaluate each
        # suffix again, about n * n / 2 calls in all
        calls = []
        evaluate = pctl.eval_state_formula

        def counting(labels, s, phi):
            calls.append(phi)
            return evaluate(labels, s, phi)

        monkeypatch.setattr(pctl, "eval_state_formula", counting)
        monkeypatch.setattr(diagnosis, "eval_state_formula", counting)
        counts = []
        for n in (100, 200, 400):
            phi = Atom(f"x{n - 1}")
            for i in reversed(range(n - 1)):
                phi = Or(Atom(f"x{i}"), phi)
            counter = [0]
            calls.clear()
            got = find_causes(0, {0: {f"x{n - 1}"}}, phi, 0, counter)
            assert got == {(f"x{n - 1}", True): 1.0}
            assert counter == [n]
            # the chain has 2n - 1 subformulas, each evaluated once at most
            assert 0 < len(calls) <= 2 * n - 1
            counts.append(len(calls))
        assert counts[1] <= 2 * counts[0] and counts[2] <= 2 * counts[1]


class TestCriticality:
    def test_guard_literal_on_dominant_state(self):
        assert is_critical(demo_cx(), 2, ("b", True))

    def test_literal_at_init(self):
        assert is_critical(demo_cx(), 0, ("a", True))

    def test_redundant_disjunct_is_not_critical(self):
        # state 4 keeps its guard through b after a is flipped away
        assert not is_critical(demo_cx(), 4, ("a", True))

    def test_flip_creating_an_earlier_target_still_satisfies(self):
        cx = make_cx([wp((0, 1, 2), 0.6)], 0.6, "P<=0.5 [ g U t ]",
                     {0: {"g"}, 1: {"g"}, 2: {"t"}})
        assert not is_critical(cx, 1, ("t", False))

    def test_literal_must_describe_the_state(self):
        with pytest.raises(DomainError, match="describe"):
            is_critical(demo_cx(), 0, ("a", False))


class TestResponsibilityOracle:
    def test_full_responsibility_at_init(self):
        assert responsibility_oracle(demo_cx(), 0, ("a", True)) == 1.0

    def test_half_responsibility_needs_one_helper(self):
        cx = demo_cx()
        assert responsibility_oracle(cx, 4, ("a", True)) == 0.5
        assert responsibility_oracle(cx, 4, ("b", True)) == 0.5

    def test_target_literals(self):
        cx = demo_cx()
        assert responsibility_oracle(cx, 3, ("c", True)) == 1.0
        assert responsibility_oracle(cx, 7, ("d", True)) == 1.0

    def test_irrelevant_state_has_no_responsibility(self):
        assert responsibility_oracle(demo_cx(), 6, ("a", False)) is None

    def test_helper_world_must_stay_valid(self):
        # h is off-alphabet: flipping it changes nothing, and the subsets
        # that do invalidate must not be credited to it
        cx = make_cx([wp((0, 3), 0.6)], 0.6, "P<=0.5 [ g U t ]",
                     {0: {"g", "h"}, 3: {"t"}})
        assert responsibility_oracle(cx, 0, ("h", True)) is None
        assert responsibility_oracle(cx, 0, ("g", True)) == 1.0

    def test_alphabet_cap(self):
        names = [f"a{i}" for i in range(21)]
        spec = f"P<=0.5 [ ({' | '.join(names)}) U t ]"
        cx = make_cx([wp((0, 3), 0.6)], 0.6, spec,
                     {0: {"a0"}, 3: {"t"}})
        with pytest.raises(BudgetError, match="cap"):
            responsibility_oracle(cx, 0, ("a0", True))
        assert responsibility_oracle(cx, 0, ("a0", True), var_cap=25) == 1.0

    def test_agrees_with_syntactic_degrees_on_demo(self):
        cx = demo_cx()
        for (s, ap, value), cause in collect_causes(cx).items():
            got = responsibility_oracle(cx, s, (ap, value))
            if got is not None:
                assert got == pytest.approx(cause.dr)


def random_counterexamples(seed=7, models=400):
    """Counterexamples on seeded random models over {a, b, c, d}, each
    model checked against one of four properties mixing &, | and !."""
    props = [parse_property(text) for text in (
        "P<=0.3 [ (a | b) U (c & d) ]", "P<=0.3 [ !c U (a & b) ]",
        "P<=0.3 [ (a & !d) U (b | c) ]", "P<=0.3 [ !(a & b) U (c | !d) ]")]
    rng = random.Random(seed)
    for i in range(models):
        m = random_mdp(rng, aps=("a", "b", "c", "d"))
        if not check_property(m, props[i % 4]).holds:
            yield build_mipcx(m, props[i % 4])


class TestAgainstOracle:
    """Syntactic cause extraction against the semantic definition."""

    @pytest.mark.parametrize("name, count", [("demo", 11), ("zeroconf", 13),
                                             ("csma", 13)])
    def test_bundled_models_rank_as_the_oracle(self, name, count):
        report = generate_diagnoses(build_mipcx(*bundled_model(name)))
        cx = report.counterexample
        semantic = {}
        for s in sorted(set(cx.forest.states)):
            for ap in sorted(path_atoms(cx.spec.path)):
                literal = (ap, ap in cx.labels.get(s, ()))
                dr = responsibility_oracle(cx, s, literal)
                if dr is not None:
                    semantic[(s, *literal)] = dr
        assert len(semantic) == count
        assert semantic == {(c.state, c.ap, c.value): c.dr
                            for c in report.causes}
        # hence the same most responsible causes and blame ranking
        scores = {key: dr * state_mass(cx, key[0])
                  for key, dr in semantic.items()}
        top = max(scores.values())
        assert ({key for key, v in scores.items() if top - v <= MASS_EQ_TOL}
                == {(c.state, c.ap, c.value)
                    for c in report.most_responsible})
        causes = {key: Cause(*key, dr, "") for key, dr in semantic.items()}
        for e in report.entries:
            assert blame(cx, e.state, e.action, causes) == pytest.approx(
                e.db, abs=MASS_EQ_TOL)

    def test_every_syntactic_cause_is_semantic(self):
        seen = Counter()
        for cx in random_counterexamples():
            seen["counterexamples"] += 1
            for (s, ap, value), cause in collect_causes(cx).items():
                seen["causes"] += 1
                assert responsibility_oracle(cx, s, (ap, value)) == cause.dr
        assert seen == {"counterexamples": 268, "causes": 535}

    def test_every_export_imports_with_the_same_report(self):
        # 60 of them name an atom that labels no state of their model
        outside = 0
        for cx in random_counterexamples():
            outside += not pctl.atoms(cx.spec.path) <= set(cx.ap_names)
            again = counterexample_from_json(counterexample_to_json(cx))
            before, after = generate_diagnoses(cx), generate_diagnoses(again)
            assert after.render_text() == before.render_text()
            assert after.to_json() == before.to_json()
        assert outside == 60

    def test_documented_gap(self):
        # the diagnosis module docstring and README quote these counts
        semantic, missed = 0, Counter()
        for cx in random_counterexamples():
            found = collect_causes(cx)
            for s in set(cx.forest.states):
                for ap in path_atoms(cx.spec.path):
                    literal = (ap, ap in cx.labels.get(s, ()))
                    dr = responsibility_oracle(cx, s, literal)
                    if dr is not None:
                        semantic += 1
                        if (s, *literal) not in found:
                            missed[dr] += 1
        assert semantic == 574
        assert missed == {1 / 3: 30, 1 / 4: 9}


class TestCollectCauses:
    def test_demo_cause_table(self):
        got = {(s, ap): (c.dr, c.origin)
               for (s, ap, _), c in collect_causes(demo_cx()).items()}
        assert got == {
            (0, "a"): (1.0, "guard"),
            (1, "a"): (1.0, "guard"),
            (2, "b"): (1.0, "guard"),
            (4, "a"): (0.5, "guard"),
            (4, "b"): (0.5, "guard"),
            (3, "c"): (1.0, "target"),
            (3, "d"): (1.0, "target"),
            (5, "c"): (1.0, "target"),
            (5, "d"): (1.0, "target"),
            (7, "c"): (1.0, "target"),
            (7, "d"): (1.0, "target"),
        }

    def test_guard_and_target_roles_merge(self):
        cx = make_cx([wp((0, 1), 0.3), wp((0, 1, 2), 0.3)], 0.6,
                     "P<=0.1 [ (g|t) U t ]",
                     {0: {"g"}, 1: {"t"}, 2: {"t"}})
        causes = collect_causes(cx)
        assert causes[(1, "t", True)].origin == "both"
        assert causes[(1, "t", True)].dr == 1.0
        assert causes[(0, "g", True)].origin == "guard"
        assert causes[(2, "t", True)].origin == "target"

    def test_masses_left_for_report_stage(self):
        for c in collect_causes(demo_cx()).values():
            assert c.mass == 0.0 and c.normalized_mass == 0.0


class TestBlame:
    def test_demo_blame_values(self):
        cx = demo_cx()
        causes = collect_causes(cx)
        names = cx.action_names
        assert blame(cx, 0, names.index("alpha0"), causes) == pytest.approx(0.6)
        assert blame(cx, 2, names.index("alpha2"), causes) == pytest.approx(0.275)
        assert blame(cx, 1, names.index("alpha1"), causes) == pytest.approx(0.25)
        assert blame(cx, 4, names.index("alpha4"), causes) == pytest.approx(0.15)

    def test_action_outside_counterexample_gets_none(self):
        cx = demo_cx()
        causes = collect_causes(cx)
        assert blame(cx, 5, cx.action_names.index("alpha5"), causes) == 0.0


class TestStructuralPropositions:
    def test_hold_across_demo_counterexample(self):
        cx = demo_cx()
        steps = {(u, a, v) for p in cx.paths for _, u, a, v in p.path.steps()}
        for u, a, v in steps:
            assert check_prop1(cx, u, a, v)
        for u, a in {(u, a) for u, a, _ in steps}:
            assert check_prop2(cx, u, a)

    def test_prop1_fails_on_state_revisiting_path(self):
        cx = loop_cx()
        # equal masses despite two distinct successors of (0, action 0)
        assert state_mass(cx, 0) == transition_mass(cx, 0, 0, 1)
        assert not check_prop1(cx, 0, 0, 1)

    def test_prop2_fails_on_state_revisiting_path(self):
        cx = loop_cx()
        db = blame(cx, 0, 0, collect_causes(cx))
        assert db == pytest.approx(0.25)
        assert db > cx.total_mass
        assert not check_prop2(cx, 0, 0)


class TestReport:
    def test_demo_blame_ranking(self):
        report = generate_diagnoses(demo_cx())
        assert [(e.action_label, e.state) for e in report.entries] == [
            ("alpha0", 0), ("alpha2", 2), ("alpha1", 1), ("alpha4", 4)]
        assert [e.db for e in report.entries] == pytest.approx(
            [0.6, 0.275, 0.25, 0.15], abs=1e-9)

    def test_demo_cause_ranking(self):
        report = generate_diagnoses(demo_cx())
        head = [(c.state, c.ap) for c in report.causes[:5]]
        assert head == [(0, "a"), (2, "b"), (1, "a"), (7, "c"), (7, "d")]
        assert report.causes[0].score == pytest.approx(0.6)
        assert report.causes[1].normalized_mass == pytest.approx(0.35 / 0.6)
        assert report.causes[2].normalized_mass == pytest.approx(0.25 / 0.6)

    def test_most_responsible_and_most_blamed(self):
        report = generate_diagnoses(demo_cx())
        assert [(c.state, c.ap) for c in report.most_responsible] == [(0, "a")]
        assert [(e.state, e.action_label) for e in report.most_blamed] == [
            (0, "alpha0")]

    def test_transition_cause_sets(self):
        report = generate_diagnoses(demo_cx())
        by_action = {e.action_label: e for e in report.entries}
        a2 = by_action["alpha2"]
        assert [t.target for t in a2.transitions] == [3, 4]
        assert [(c.ap, c.dr) for c in a2.transitions[0].causes] == [
            ("c", 1.0), ("d", 1.0)]
        assert [(c.ap, c.dr) for c in a2.transitions[1].causes] == [
            ("a", 0.5), ("b", 0.5)]

    def test_operation_count_demo(self):
        assert generate_diagnoses(demo_cx()).operation_count == 41

    def test_blame_gap_fixture_separates_the_two_rankings(self):
        cx = build_mipcx(blame_gap_mdp(), blame_gap_property())
        assert [p.probability for p in cx.paths] == pytest.approx(
            [0.4, 0.3, 0.3])
        report = generate_diagnoses(cx)
        assert [(c.state, c.ap) for c in report.most_responsible] == [
            (3, "bad")]
        assert [e.action_label for e in report.most_blamed] == ["wide"]
        blames = {e.action_label: e.db for e in report.entries}
        assert blames == pytest.approx(
            {"wide": 0.6, "narrow": 0.4, "choose": 0.0})

    def test_ranking_is_invariant_under_normalization(self):
        report = generate_diagnoses(demo_cx())
        scores = [c.dr * c.normalized_mass for c in report.causes]
        assert scores == sorted(scores, reverse=True)

    def test_report_is_deterministic(self):
        one = generate_diagnoses(demo_cx())
        two = generate_diagnoses(demo_cx())
        assert one.to_json() == two.to_json()
        assert one.render_text() == two.render_text()

    def test_report_follows_the_counterexample_spec(self):
        cx = demo_cx()
        spec = parse_property("P<0.45 [ (a|b) U (c&d) ]")
        report = generate_diagnoses(replace(cx, spec=spec))
        assert report.spec is spec
        assert report.counterexample.spec is spec
        assert cx.spec.threshold == 0.5  # input untouched

    def test_weak_until_rejected(self):
        with pytest.raises(ParseError, match="column 12: expected 'U'"):
            parse_property("P<=0.5 [ a W c ]")

    def test_dict_shape(self):
        report = generate_diagnoses(demo_cx(), pmax=0.882)
        data = report.to_dict()
        assert data["format_version"] == 1
        assert data["property"] == "P<=0.5 [ (a | b) U (c & d) ]"
        assert data["pmax"] == 0.882
        assert data["counterexample"]["total_mass"] == pytest.approx(0.6)
        first = data["actions"][0]
        assert first["state"] == 0 and first["action"] == "alpha0"
        assert first["dB"] == pytest.approx(0.6)
        causes = first["transitions"][0]["causes"]
        assert causes[0]["literal"] == "b" and causes[0]["dR"] == 1.0
        assert data["most_blamed"] == [
            {"state": 0, "action": "alpha0", "dB": pytest.approx(0.6)}]

    def test_text_rendering(self):
        report = generate_diagnoses(demo_cx(), pmax=0.882)
        text = report.render_text()
        assert text.startswith("property: P<=0.5 [ (a | b) U (c & d) ]\n")
        assert "verdict: VIOLATED (Pmax = 0.882, threshold 0.5)" in text
        assert "counterexample: 3 paths, total probability 0.6" in text
        assert "1) 0 -alpha0-> 1 -alpha1-> 7   p=0.25" in text
        assert "1. action alpha0 at state 0: dB = 0.6" in text
        assert "most responsible cause: (0, a)" in text
        assert "most blamed action: alpha0 at 0" in text
        assert "score" in text and "share" not in text

    def test_text_rendering_without_pmax_or_normalization(self):
        text = generate_diagnoses(demo_cx()).render_text()
        assert "verdict" not in text

    def test_normalized_rendering(self):
        text = generate_diagnoses(demo_cx()).render_text(normalize=True)
        assert "normalized mass" in text and "share" in text
        assert "score" not in text

    def test_lines_end_in_newlines_and_join_to_the_text(self):
        report = generate_diagnoses(demo_cx(), pmax=0.882)
        lines = list(render_text_report(report, normalize=True))
        assert all(line.endswith("\n") and "\n" not in line[:-1]
                   for line in lines)
        assert "".join(lines) == report.render_text(normalize=True)

    def test_rendering_holds_one_path_text_at_a_time(self):
        # 575 paths of up to 1,150 steps: a report of about 3 MB, whose
        # longest line is about 10 kB
        report = generate_diagnoses(build_mipcx(slow_exit_mdp(),
                                                slow_exit_property()))
        size = 0
        tracemalloc.start()
        try:
            for line in render_text_report(report):
                size += len(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = "".join(render_text_report(report))
        assert text == report.render_text()
        assert size == len(text) > 2_000_000
        assert peak < len(text) / 4
