"""Model container, validation, paths, schedulers, and the text format."""

import random
import re
from fractions import Fraction

import pytest

from mdpdiag import (DomainError, FinitePath, Mdp, ParseError, Scheduler,
                     eval_state_formula, induce_dtmc, parse_explicit_model,
                     parse_labels_text, parse_property, path_probability,
                     validate_mdp)
from mdpdiag.mdp import live_states
from mdpdiag.pctl import until_sets

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

    def test_empty_distribution_rejected(self):
        # every action carries a distribution, so an empty one is no choice
        with pytest.raises(DomainError,
                           match="empty distribution for state 1 action 'none'"):
            Mdp(3, 0, {(0, "a"): [(1, 0.5), (2, 0.5)], (1, "none"): []})
        with pytest.raises(DomainError, match="state 0 action 'none'"):
            Mdp(1, 0, {(0, "none"): iter(())})

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

    # int() would take these, truncating 1.7 to 1 and reading "1" as 1, and
    # operator.index would take True as 1
    @pytest.mark.parametrize("num_states, init, transitions, labels, needle", [
        (2, 0.9, {}, {}, "initial state 0.9"),
        (2, 0, {("1", "b"): [(1, 1.0)]}, {}, "source state '1'"),
        (2, 0, {(0, "b"): [(1.7, 1.0)]}, {}, "state 0 has successor 1.7"),
        (2, 0, {}, {1.2: {"p"}}, "labelled state 1.2"),
        (2.5, 0, {}, {}, "state count 2.5"),
        (2, False, {}, {}, "initial state False"),
        (2, 0, {(True, "b"): [(1, 1.0)]}, {}, "source state True"),
        (2, 0, {(0, "b"): [(True, 1.0)]}, {}, "state 0 has successor True"),
        (2, 0, {}, {True: {"p"}}, "labelled state True"),
        (True, 0, {}, {}, "state count True"),
    ], ids=["init", "source", "successor", "label", "count", "init-bool",
            "source-bool", "successor-bool", "label-bool", "count-bool"])
    def test_state_id_not_an_integer_rejected(self, num_states, init,
                                              transitions, labels, needle):
        rows = {(0, "a"): [(1, 1.0)], (1, "a"): [(1, 1.0)]}
        with pytest.raises(DomainError,
                           match=f"^{re.escape(needle)}, not an integer$"):
            Mdp(num_states, init, {**rows, **transitions}, labels)

    @pytest.mark.parametrize("num_states", [0, -1])
    def test_state_count_below_one_rejected(self, num_states):
        with pytest.raises(DomainError, match=(
                f"^state count must be positive, got {num_states}$")):
            Mdp(num_states, 0, {})

    # float() would read "0.5", and True as 1.0
    @pytest.mark.parametrize("p", ["0.5", True, None, "x", 0.5j])
    def test_probability_not_a_number_rejected(self, p):
        with pytest.raises(DomainError, match=(
                f"^non-numeric probability {re.escape(repr(p))} to successor 1 "
                "for state 0 action 'a'$")):
            Mdp(2, 0, {(0, "a"): [(0, 0.5), (1, p)], (1, "a"): [(1, 1.0)]})

    def test_real_probabilities_read_as_floats(self):
        m = Mdp(2, 0, {(0, "a"): [(0, Fraction(1, 4)), (1, 0.75)],
                       (1, "a"): [(1, 1)]})
        assert m.choice_table() == [((0, ((0, 0.25), (1, 0.75))),),
                                    ((0, ((1, 1.0),)),)]
        assert type(m.distribution(1, 0)[0][1]) is float

    @pytest.mark.parametrize("p", [10 ** 400, Fraction(10 ** 400)],
                             ids=["int", "Fraction"])
    def test_probability_past_float_range_rejected(self, p):
        # float() raises OverflowError for both; the first fault still wins
        with pytest.raises(DomainError, match=(
                "^probability to successor 1 out of float range "
                "for state 0 action 'a'$")):
            Mdp(2, 0, {(0, "a"): [(0, 0.5), (1, p), (1, 0.5)],
                       (1, "a"): [(1, 1.0)]})
        with pytest.raises(DomainError, match="^successor 0 listed twice"):
            Mdp(1, 0, {(0, "a"): [(0, 0.5), (0, 0.5), (0, p)]})

    def test_duplicate_state_action_pair_rejected(self):
        class Zero:  # a second key for state 0
            def __index__(self):
                return 0
        with pytest.raises(DomainError, match="listed twice"):
            Mdp(1, 0, {(0, "a"): [(0, 1.0)], (Zero(), "a"): [(0, 1.0)]})

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

    def test_alphabet_sorts_each_states_unseen_names_after_the_seen_ones(self):
        # states in the order labels lists them; each adds its new names,
        # sorted, and a name seen before keeps its place
        m = Mdp(3, 0, {(s, "a"): [(s, 1.0)] for s in range(3)},
                labels={2: {"m", "c"}, 0: {"z", "m", "a", "c"},
                        1: {"c", "y", "a", "b"}},
                ap_names=["d", "a"])
        assert m.ap_names == ["c", "m", "a", "z", "b", "y", "d"]

    def test_state_names_default_to_ids(self):
        m = two_action_mdp()
        assert m.state_name(2) == "2"
        named = Mdp(1, 0, {(0, "a"): [(0, 1.0)]}, state_names=("x=0",))
        assert named.state_name(0) == "x=0"

    def test_names_of_reads_a_sequence_at_the_states_asked_for(self):
        read = []

        class Names(tuple):
            def __getitem__(self, s):
                read.append(s)
                return super().__getitem__(s)

        t = {(s, "a"): [(s, 1.0)] for s in range(3)}
        assert Mdp(3, 0, t).names_of([0, 2]) is None
        named = Mdp(3, 0, t, state_names=Names(("x", "y", "z")))
        assert named.names_of([2, 0]) == {2: "z", 0: "x"}
        assert read == [2, 0]
        assert "state_names" not in vars(named)
        once = Mdp(3, 0, t, state_names=iter(("x", "y", "z")))
        assert once.names_of([1]) == {1: "y"}
        assert once.state_name(2) == "z" and once.state_name(3) == "3"


class TestValidation:
    """The constructor holds every action to a probability distribution;
    validate_mdp is left with the states without actions."""

    def test_demo_fixture_is_valid(self):
        assert validate_mdp(demo_mdp()) == []

    def test_successor_out_of_range(self):
        with pytest.raises(DomainError, match="^state 0 has successor 5 "
                                              "outside the states 0..1$"):
            Mdp(2, 0, {(0, "a"): [(5, 1.0)], (1, "a"): [(1, 1.0)]})

    def test_nonpositive_probability(self):
        with pytest.raises(DomainError, match=(
                r"^nonpositive probability 0\.0 to successor 0 "
                "for state 0 action 'a'$")):
            Mdp(2, 0, {(0, "a"): [(0, 0.0), (1, 1.0)], (1, "a"): [(1, 1.0)]})
        with pytest.raises(DomainError, match="probability -0.5 to successor 1"):
            Mdp(2, 0, {(0, "a"): [(0, 1.5), (1, -0.5)], (1, "a"): [(1, 1.0)]})

    def test_nan_probability(self):
        # NaN fails the positivity rule, before its sum is looked at
        with pytest.raises(DomainError, match=(
                "^nonpositive probability nan to successor 1 "
                "for state 0 action 'a'$")):
            Mdp(3, 0, {(0, "a"): [(1, float("nan")), (2, 0.5)],
                       (1, "a"): [(1, 1.0)], (2, "a"): [(2, 1.0)]})

    def test_duplicate_successor(self):
        with pytest.raises(DomainError, match=(
                "^successor 0 listed twice for state 0 action 'a'$")):
            Mdp(1, 0, {(0, "a"): [(0, 0.5), (0, 0.5)]})

    def test_distribution_sum_off(self):
        with pytest.raises(DomainError, match=(
                r"^probabilities sum to 0\.7 for state 0 action 'a'$")):
            Mdp(2, 0, {(0, "a"): [(1, 0.7)], (1, "a"): [(1, 1.0)]})

    @pytest.mark.parametrize("p", [0.9, 0.3])
    def test_rows_that_are_no_distribution(self, p):
        # checked as Pmax 1.8 and 0.6 while the library took them
        with pytest.raises(DomainError, match=(
                f"^probabilities sum to {2 * p!r} for state 0 action 'a'$")):
            Mdp(3, 0, {(0, "a"): [(1, p), (2, p)], (1, "a"): [(1, 1.0)],
                       (2, "a"): [(2, 1.0)]}, labels={1: {"goal"}, 2: {"goal"}})

    def test_first_fault_in_row_order(self):
        # each row's pairs in turn, its sum after them, and the rows in the
        # order the transitions list them
        with pytest.raises(DomainError, match="^successor 1 listed twice"):
            Mdp(2, 0, {(0, "a"): [(1, 0.5), (1, 0.5), (0, 0.0)]})
        with pytest.raises(DomainError, match="^nonpositive probability"):
            Mdp(2, 0, {(0, "a"): [(1, 0.0), (1, 0.5)]})
        with pytest.raises(DomainError, match="for state 1 action 'b'$"):
            Mdp(2, 0, {(1, "b"): [(1, 0.5)], (0, "a"): [(0, 0.5)]})
        with pytest.raises(DomainError, match="^state 0 has successor 2"):
            Mdp(2, 0, {(0, "a"): [(2, 1.0), (1, 0.0)]})

    def test_sum_within_tolerance_accepted(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0 + 5e-10)], (1, "a"): [(1, 1.0)]})
        assert validate_mdp(m) == []
        with pytest.raises(DomainError, match="sum to 1.000000002 "):
            Mdp(2, 0, {(0, "a"): [(1, 1.0 + 2e-9)], (1, "a"): [(1, 1.0)]})

    def test_deadlock_state_reported(self):
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0)]})
        assert [(v.kind, v.state) for v in validate_mdp(m)] == [
            ("no-enabled-action", 1)]

    def test_violation_str_mentions_location(self):
        m = Mdp(3, 0, {(0, "a"): [(1, 1.0)]})
        assert [str(v) for v in validate_mdp(m)] == [
            "[no-enabled-action] state 1: state has no enabled action",
            "[no-enabled-action] state 2: state has no enabled action"]


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


# until operands of random properties over p, q and zz, which labels no state
UNTILS = [parse_property(f"P<=0.5 [ {text} ]").path for text in (
    "p U q", "true U q", "!p U (p & q)", "(p | q) U !q", "p U<=3 (q | zz)",
    "!zz U p", "(p & !q) U false")]


class TestUntilSets:
    def brute_force(self, m, psi):
        labels = m.label_map()
        right = {s for s in m.states if eval_state_formula(labels, s, psi.right)}
        left = {s for s in m.states if eval_state_formula(labels, s, psi.left)}
        live = set(right)
        grew = True
        while grew:
            grew = False
            for (s, _), dist in m.transition_items():
                if (s in left - right and s not in live
                        and any(t in live for t, _ in dist)):
                    live.add(s)
                    grew = True
        return right, left - right, live

    def test_match_brute_force_on_random_models(self):
        rng = random.Random(1608)
        for _ in range(300):
            m = random_mdp(rng, max_states=8, max_actions=3)
            psi = rng.choice(UNTILS)
            want_targets, want_guard, want_live = self.brute_force(m, psi)
            targets, guard = until_sets(m.label_map(), m.states, psi)
            assert (targets, guard) == (want_targets, want_guard)
            preds, live = live_states(m.choice_table(), guard, targets)
            assert live == want_live
            steps = {(s, t) for (s, _), dist in m.transition_items()
                     if s in guard for t, _ in dist}
            assert {(s, t) for t, ss in preds.items() for s in ss} == steps

    def test_over_a_subset_and_an_induced_chain(self):
        rng = random.Random(7881)
        for _ in range(100):
            m = random_mdp(rng, max_states=8, max_actions=3)
            psi = rng.choice(UNTILS)
            sched = Scheduler({s: rng.choice(m.enabled_actions(s))
                               for s in m.states})
            d = induce_dtmc(m, sched)
            targets, guard = until_sets(d.labels, d.states, psi)
            full_targets, full_guard = until_sets(m.label_map(), m.states, psi)
            assert targets == full_targets & set(d.states)
            assert guard == full_guard & set(d.states)
            _, live = live_states(d.choices, guard, targets)
            chain = Mdp(m.num_states, m.init,
                        {(s, "x"): dist for s in d.states
                         for _, dist in d.choices[s]}, m.label_map())
            assert live == self.brute_force(chain, psi)[2] & set(d.states)

    def test_left_operand_only_where_the_right_one_fails(self):
        looked_up = []

        class Recording(dict):
            def get(self, s, default=None):
                looked_up.append(s)
                return super().get(s, default)

        labels = Recording({0: {"q"}, 1: {"p"}})
        psi = parse_property("P<=0.5 [ p U q ]").path
        assert until_sets(labels, range(3), psi) == ({0}, {1})
        assert looked_up == [0, 1, 1, 2, 2]


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
