"""Model container, validation, paths, schedulers, and the text format."""

import random

import pytest

from mdpdiag import (DomainError, FinitePath, Mdp, ParseError, Scheduler,
                     induce_dtmc, parse_explicit_model, parse_labels_text,
                     path_probability, validate_mdp)

from fixtures import demo_mdp, serialize_explicit_model, serialize_labels
from oracles import random_mdp


def two_action_mdp():
    return Mdp(3, 0, {
        (0, "go"): [(1, 0.5), (2, 0.5)],
        (0, "wait"): [(0, 1.0)],
        (1, "stay"): [(1, 1.0)],
        (2, "stay"): [(2, 1.0)],
    }, labels={1: {"goal"}})


class TestConstruction:
    def test_actions_interned_in_encounter_order(self):
        m = two_action_mdp()
        assert m.action_names == ["go", "wait", "stay"]
        assert m.action_id("stay") == 2
        assert m.action_name(1) == "wait"

    def test_enabled_actions_sorted_ascending(self):
        m = Mdp(1, 0, {
            (0, "z"): [(0, 1.0)],
            (0, "a"): [(0, 1.0)],
        })
        # ids follow encounter order, the enabled list is sorted by id
        assert m.enabled_actions(0) == (0, 1)

    def test_enabled_actions_include_empty_distribution(self):
        m = Mdp(3, 0, {(0, "none"): [], (0, "a"): [(1, 0.5), (2, 0.5)]})
        assert m.enabled_actions(0) == (0, 1)
        assert m.distribution(0, m.action_id("none")) == ()
        assert [(v.kind, v.state) for v in validate_mdp(m)
                if v.kind == "distribution-sum"] == [("distribution-sum", 0)]

    def test_distribution_and_successors(self):
        m = two_action_mdp()
        assert m.distribution(0, m.action_id("go")) == ((1, 0.5), (2, 0.5))
        assert {t for t, _ in m.distribution(0, m.action_id("go"))} == {1, 2}

    def test_disabled_action_raises(self):
        m = two_action_mdp()
        with pytest.raises(DomainError):
            m.distribution(1, m.action_id("go"))

    def test_unknown_state_raises(self):
        m = two_action_mdp()
        with pytest.raises(DomainError):
            m.enabled_actions(7)
        with pytest.raises(DomainError):
            m.labels_of(-1)

    def test_unknown_action_name_raises(self):
        m = two_action_mdp()
        with pytest.raises(DomainError):
            m.action_id("nope")

    @pytest.mark.parametrize("init, transitions, labels, needle", [
        (5, {}, {}, "initial state 5"),
        (0, {(2, "a"): [(0, 1.0)]}, {}, "source state 2"),
        (0, {}, {3: {"x"}}, "labelled state 3"),
    ], ids=["init", "source", "label"])
    def test_state_id_out_of_range_rejected(self, init, transitions, labels,
                                            needle):
        rows = {(0, "a"): [(1, 1.0)], (1, "a"): [(1, 1.0)]}
        with pytest.raises(DomainError,
                           match=f"^{needle} outside the states 0..1$"):
            Mdp(2, init, {**rows, **transitions}, labels)

    def test_duplicate_state_action_pair_rejected(self):
        with pytest.raises(DomainError):
            Mdp(1, 0, {(0, "a"): [(0, 1.0)], ("0", "a"): [(0, 1.0)]})

    def test_labels_and_label_map(self):
        m = two_action_mdp()
        assert m.labels_of(1) == frozenset({"goal"})
        assert m.labels_of(0) == frozenset()
        assert m.label_map() == {0: frozenset(), 1: frozenset({"goal"}),
                                 2: frozenset()}
        assert m.ap_names == ["goal"]

    def test_declared_alphabet_follows_labelled_atoms(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0)], (1, "a"): [(1, 1.0)]},
                labels={1: {"goal", "busy"}}, ap_names=["idle", "goal"])
        assert m.ap_names == ["busy", "goal", "idle"]
        assert all("idle" not in m.labels_of(s) for s in m.states)

    def test_state_names_default_to_ids(self):
        m = two_action_mdp()
        assert m.state_name(2) == "2"
        named = Mdp(1, 0, {(0, "a"): [(0, 1.0)]}, state_names=("x=0",))
        assert named.state_name(0) == "x=0"


class TestValidation:
    def test_demo_fixture_is_valid(self):
        assert validate_mdp(demo_mdp()) == []

    def test_successor_out_of_range(self):
        # the constructor rejects the model, so validate_mdp never sees it
        with pytest.raises(DomainError, match="^state 0 has successor 5 "
                                              "outside the states 0..1$"):
            Mdp(2, 0, {(0, "a"): [(5, 1.0)], (1, "a"): [(1, 1.0)]})

    def test_nonpositive_probability(self):
        m = Mdp(2, 0, {(0, "a"): [(0, 0.0), (1, 1.0)], (1, "a"): [(1, 1.0)]})
        kinds = {v.kind for v in validate_mdp(m)}
        assert "nonpositive-probability" in kinds

    def test_nan_probability(self):
        m = Mdp(3, 0, {(0, "a"): [(1, float("nan")), (2, 0.5)],
                       (1, "a"): [(1, 1.0)], (2, "a"): [(2, 1.0)]})
        assert [(v.kind, v.state) for v in validate_mdp(m)] == [
            ("nonpositive-probability", 0), ("distribution-sum", 0)]

    def test_duplicate_successor(self):
        m = Mdp(1, 0, {(0, "a"): [(0, 0.5), (0, 0.5)]})
        kinds = {v.kind for v in validate_mdp(m)}
        assert "duplicate-transition" in kinds

    def test_distribution_sum_off(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 0.7)], (1, "a"): [(1, 1.0)]})
        out = [v for v in validate_mdp(m) if v.kind == "distribution-sum"]
        assert len(out) == 1 and out[0].state == 0

    def test_sum_within_tolerance_accepted(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0 + 5e-10)], (1, "a"): [(1, 1.0)]})
        assert validate_mdp(m) == []

    def test_deadlock_state_reported(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0)]})
        out = [v for v in validate_mdp(m) if v.kind == "no-enabled-action"]
        assert [v.state for v in out] == [1]

    def test_violation_str_mentions_location(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 0.7)], (1, "a"): [(1, 1.0)]})
        text = str(validate_mdp(m)[0])
        assert "state 0" in text and "distribution-sum" in text


class TestPaths:
    def test_step_iteration(self):
        p = FinitePath((0, 2, 1), (4, 7))
        assert list(p.steps()) == [(0, 0, 4, 2), (1, 2, 7, 1)]
        assert len(p) == 2

    def test_single_state_path(self):
        p = FinitePath((3,), ())
        assert len(p) == 0 and list(p.steps()) == []

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DomainError):
            FinitePath((0, 1), ())
        with pytest.raises(DomainError):
            FinitePath((), ())

    def test_path_probability_demo(self):
        m = demo_mdp()
        a = m.action_id
        p = FinitePath((0, 2, 4, 5), (a("alpha0"), a("alpha2"), a("alpha4")))
        assert path_probability(m, p) == pytest.approx(0.5 * 0.6 * 0.5)

    def test_path_probability_empty_product(self):
        assert path_probability(demo_mdp(), FinitePath((0,), ())) == 1.0

    def test_path_probability_missing_step(self):
        m = demo_mdp()
        bad = FinitePath((0, 3), (m.action_id("alpha0"),))
        with pytest.raises(DomainError, match="step 0"):
            path_probability(m, bad)

    def test_path_probability_disabled_action(self):
        m = demo_mdp()
        bad = FinitePath((0, 1), (m.action_id("alpha1"),))
        with pytest.raises(DomainError, match="not enabled"):
            path_probability(m, bad)


class TestScheduler:
    def test_action_for(self):
        s = Scheduler({0: 1})
        assert s.action_for(0) == 1
        with pytest.raises(DomainError):
            s.action_for(9)

    def test_induce_keeps_original_ids_and_provenance(self):
        m = two_action_mdp()
        sched = Scheduler({0: m.action_id("go"), 1: m.action_id("stay"),
                           2: m.action_id("stay")})
        d = induce_dtmc(m, sched)
        assert d.states == (0, 1, 2)
        assert d.init == 0
        go, stay = m.action_id("go"), m.action_id("stay")
        assert d.choices == {0: ((go, ((1, 0.5), (2, 0.5))),),
                             1: ((stay, ((1, 1.0),)),),
                             2: ((stay, ((2, 1.0),)),)}
        assert d.labels[1] == frozenset({"goal"})

    def test_induce_only_reachable_states(self):
        m = two_action_mdp()
        sched = Scheduler({0: m.action_id("wait"), 1: 2, 2: 2})
        d = induce_dtmc(m, sched)
        assert d.states == (0,)

    def test_induce_missing_choice(self):
        m = two_action_mdp()
        with pytest.raises(DomainError, match="undefined"):
            induce_dtmc(m, Scheduler({0: m.action_id("go")}))

    def test_induce_disabled_choice(self):
        m = two_action_mdp()
        sched = Scheduler({0: m.action_id("stay")})
        with pytest.raises(DomainError, match="disabled"):
            induce_dtmc(m, sched)


def structure(m):
    """Name-keyed view that ignores interning order."""
    trans = {}
    for (s, aid), dist in m.transition_items():
        trans[(s, m.action_name(aid))] = sorted(dist)
    return m.num_states, m.init, trans, m.label_map()


class TestExplicitFormat:
    def test_parse_minimal(self):
        m = parse_explicit_model(
            "# comment\nSTATES 2\nINIT 0\n0 a 1 1.0\n1 b 1 1.0\n")
        assert m.num_states == 2
        assert m.action_names == ["a", "b"]

    def test_round_trip_demo(self):
        m = demo_mdp()
        again = parse_explicit_model(serialize_explicit_model(m),
                                     serialize_labels(m))
        assert structure(again) == structure(m)

    def test_round_trip_random_models(self):
        rng = random.Random(20240817)
        for _ in range(25):
            m = random_mdp(rng)
            again = parse_explicit_model(serialize_explicit_model(m),
                                         serialize_labels(m))
            assert structure(again) == structure(m)

    def test_labels_parse(self):
        labels = parse_labels_text("0: a b\n2: c\n", 3)
        assert labels == {0: {"a", "b"}, 2: {"c"}}

    @pytest.mark.parametrize("text,needle", [
        ("", "empty"),
        ("STATES x\n", "integer"),
        ("STATES 0\n", "positive"),
        ("STATES 2\n", "INIT"),
        ("STATES 2\nINIT 9\n", "out of range"),
        ("STATES 2\nINIT 0\n0 a 1\n", "expected"),
        ("STATES 2\nINIT 0\n0 a 5 1.0\n", "out of range"),
        ("STATES 2\nINIT 0\n0 a 1 huh\n", "number"),
        ("STATES 2\nINIT 0\nx a 1 0.5\n", "integers"),
    ])
    def test_parse_errors(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_explicit_model(text)

    def test_label_parse_errors(self):
        with pytest.raises(ParseError, match="expected"):
            parse_labels_text("no colon here\n", 2)
        with pytest.raises(ParseError, match="out of range"):
            parse_labels_text("7: a\n", 2)
        with pytest.raises(ParseError, match="integer"):
            parse_labels_text("x: a\n", 2)

    def test_parse_error_carries_position(self):
        try:
            parse_explicit_model("STATES 2\nINIT 0\n0 a 1\n",
                                 filename="m.tra")
        except ParseError as exc:
            assert exc.line == 3
            assert "m.tra" in str(exc)
        else:
            pytest.fail("expected ParseError")
