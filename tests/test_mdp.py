"""Model container, validation, paths, schedulers, and the text format."""

import random
import re
from fractions import Fraction

import pytest

from mdpdiag import mdp
from mdpdiag import (BudgetError, DomainError, FinitePath, Mdp, ParseError,
                     Scheduler, eval_state_formula, induce_dtmc,
                     parse_explicit_model, parse_labels_text, parse_property,
                     path_probability, validate_mdp)
from mdpdiag.mdp import live_states
from mdpdiag.pctl import until_sets

from fixtures import (bundled_model, demo_mdp, serialize_explicit_model,
                      serialize_labels)
from oracles import label_map, random_mdp


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
        assert label_map(m) == {0: frozenset(), 1: frozenset({"goal"}),
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

    @pytest.mark.parametrize("labels, ap_names, message", [
        ({1: {'a"b'}}, None, 'label \'a"b\' of state 1'),
        ({1: {"ok"}}, ["ok", 'x"'], 'label \'x"\' in ap_names')])
    def test_name_holding_a_double_quote_rejected(self, labels, ap_names,
                                                  message):
        # no property can name it: a quoted atom ends at its first '"'
        with pytest.raises(DomainError, match=f"^{message} holds '\"', "
                           "which no property can name$"):
            Mdp(2, 0, {(0, "a"): [(1, 1.0)], (1, "a"): [(1, 1.0)]}, labels,
                ap_names=ap_names)

    def test_states_sharing_a_label_set_share_its_frozenset(self):
        shared = {"ok"}
        m = Mdp(3, 0, {(s, "a"): [(s, 1.0)] for s in range(3)},
                labels={0: shared, 1: shared, 2: {"ok"}})
        assert m.labels_of(0) is m.labels_of(1)
        assert m.labels_of(2) == m.labels_of(0)
        # build_mdp hands one label-set object to every state with the
        # same labels: 570 labelled states of csma at K=20, 8 objects
        csma, _ = bundled_model("csma")
        assert len(csma.labels) == 570
        assert len(set(map(id, csma.labels.values()))) == 8

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
        assert validate_mdp(m) == [1]

    def test_every_sink_reported_in_ascending_order(self):
        m = Mdp(5, 2, {(3, "b"): [(1, 1.0)], (1, "a"): [(4, 1.0)]})
        assert validate_mdp(m) == [0, 2, 4]


class TestChoiceTable:
    """Mdp.from_choice_table keeps a finished table and checks it once."""

    def test_rebuilds_the_compiled_model_keeping_its_rows(self):
        rng = random.Random(36)
        for _ in range(50):
            m = random_mdp(rng)
            table = m.choice_table()
            again = Mdp.from_choice_table(m.num_states, m.init, table,
                                          m.action_names, m.labels,
                                          ap_names=m.ap_names)
            assert list(again.transition_items()) == list(m.transition_items())
            assert all(row is table[s]
                       for s, row in enumerate(again.choice_table()))
            assert again.action_names == m.action_names
            assert all(again.action_id(a) == m.action_id(a)
                       for a in m.action_names)
            assert again.labels == m.labels and again.ap_names == m.ap_names

    @pytest.mark.parametrize("dist", [
        ((1, 0.7),), ((0, 0.0), (1, 1.0)), ((0, 0.5), (0, 0.5)), ((5, 1.0),),
        (), ((1, float("nan")), (0, 0.5)), ((1, 1.0 + 2e-9),),
        ((1, 0.5), (1, 0.5), (0, 0.0)),
    ])
    def test_faults_read_as_the_constructors(self, dist):
        with pytest.raises(DomainError) as compiled:
            Mdp(2, 0, {(0, "a"): dist, (1, "a"): [(1, 1.0)]})
        with pytest.raises(DomainError) as kept:
            Mdp.from_choice_table(2, 0, [((0, dist),), ((0, ((1, 1.0),)),)],
                                  ["a"])
        assert str(kept.value) == str(compiled.value)

    def test_first_faulty_row_in_state_order(self):
        with pytest.raises(DomainError, match="for state 0 action 'b'$"):
            Mdp.from_choice_table(2, 0, [((1, ((1, 0.5),)),),
                                         ((0, ((1, 0.5),)),)], ["a", "b"])

    @pytest.mark.parametrize("row", [
        ((1, ((0, 1.0),)), (0, ((0, 1.0),))), ((0, ((0, 1.0),)),) * 2,
        ((2, ((0, 1.0),)),), ((-1, ((0, 1.0),)),), ((True, ((0, 1.0),)),),
    ])
    def test_ids_must_ascend_in_range(self, row):
        with pytest.raises(DomainError, match="^state 0 lists action id .* "
                                              "out of ascending order in 0..1$"):
            Mdp.from_choice_table(1, 0, [row], ["a", "b"])

    @pytest.mark.parametrize("dist", [[(0, 1.0)], ((0, 1),), ([0, 1.0],)])
    def test_distributions_must_be_tuples_of_ints_and_floats(self, dist):
        # Mdp(...) converts these; a finished table is kept as it is
        assert Mdp(1, 0, {(0, "a"): dist}).distribution(0, 0) == ((0, 1.0),)
        with pytest.raises(DomainError, match=(
                r"^not a tuple of \(int, float\) pairs for state 0 action 'a'$")):
            Mdp.from_choice_table(1, 0, [((0, dist),)], ["a"])

    def test_table_states_names_and_labels_are_checked(self):
        row = ((0, ((0, 1.0),)),)
        with pytest.raises(DomainError, match="^1 rows of choices for 2 states$"):
            Mdp.from_choice_table(2, 0, [row], ["a"])
        with pytest.raises(DomainError, match="^initial state 1 outside"):
            Mdp.from_choice_table(1, 1, [row], ["a"])
        with pytest.raises(DomainError, match="^an action name is listed twice$"):
            Mdp.from_choice_table(1, 0, [row], ["a", "a"])
        with pytest.raises(DomainError, match="^labelled state 3 outside"):
            Mdp.from_choice_table(1, 0, [row], ["a"], labels={3: {"p"}})
        with pytest.raises(DomainError, match="holds '\"'"):
            Mdp.from_choice_table(1, 0, [row], ["a"], ap_names=['a"b'])


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

    def test_a_counting_scheduler_induces_a_chain_of_pairs(self):
        # a pair without a choice, or of no steps left, ends the chain
        m = two_action_mdp()
        go, stay = m.action_id("go"), m.action_id("stay")
        sched = Scheduler({(0, 2): go, (2, 1): stay, (1, 0): stay}, 2)
        d = induce_dtmc(m, sched)
        assert d.init == (0, 2)
        assert d.states == ((0, 2), (1, 1), (2, 0), (2, 1))
        assert d.choices == {(0, 2): ((go, (((1, 1), 0.5), ((2, 1), 0.5))),),
                             (1, 1): (), (2, 1): ((stay, (((2, 0), 1.0),)),),
                             (2, 0): ()}
        assert d.labels == {(0, 2): frozenset(), (1, 1): {"goal"},
                            (2, 1): frozenset(), (2, 0): frozenset()}
        with pytest.raises(DomainError, match="disabled action id 2 at "
                           r"state \(0, 2\)"):
            induce_dtmc(m, Scheduler({(0, 2): 2}, 2))


# until operands of random properties over p, q and zz, which labels no state
UNTILS = [parse_property(f"P<=0.5 [ {text} ]").path for text in (
    "p U q", "true U q", "!p U (p & q)", "(p | q) U !q", "p U<=3 (q | zz)",
    "!zz U p", "(p & !q) U false")]


class TestUntilSets:
    def brute_force(self, m, psi):
        labels = label_map(m)
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
            targets, guard = until_sets(label_map(m), m.states, psi)
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
            full_targets, full_guard = until_sets(label_map(m), m.states, psi)
            assert targets == full_targets & set(d.states)
            assert guard == full_guard & set(d.states)
            _, live = live_states(d.choices, guard, targets)
            chain = Mdp(m.num_states, m.init,
                        {(s, "x"): dist for s in d.states
                         for _, dist in d.choices[s]}, label_map(m))
            assert live == self.brute_force(chain, psi)[2] & set(d.states)

    def test_match_brute_force_on_random_formulas(self):
        # operands as the parser builds them: constants, an atom outside
        # the alphabet, nested negations and disjunctions; states a random
        # subset, listed with repeats, of a model labelling more states
        rng = random.Random(3054)

        def formula(depth):
            pick = rng.randrange(7 if depth else 3)
            if pick == 0:
                return rng.choice(("p", "q", "zz"))
            if pick == 1:
                return rng.choice(("true", "false"))
            if pick == 2:
                return f"!{formula(depth - 1) if depth else 'p'}"
            if pick == 3:
                return f"!({formula(depth - 1)})"
            op = "&" if pick == 4 else "|"
            return f"({formula(depth - 1)} {op} {formula(depth - 1)})"

        for _ in range(300):
            m = random_mdp(rng, max_states=10)
            psi = parse_property(
                f"P<=0.5 [ {formula(3)} U {formula(3)} ]").path
            labels = label_map(m)
            states = [s for s in m.states if rng.random() < 0.7] * 2
            right = {s for s in states
                     if eval_state_formula(labels, s, psi.right)}
            left = {s for s in states
                    if eval_state_formula(labels, s, psi.left)}
            assert until_sets(labels, states, psi) == (right, left - right)


def structure(m):
    """Name-keyed view that ignores interning order."""
    trans = {}
    for (s, aid), dist in m.transition_items():
        trans[(s, m.action_name(aid))] = sorted(dist)
    return m.num_states, m.init, trans, label_map(m)


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

    def test_state_count_over_the_cap(self, monkeypatch):
        def no_model(*args):
            raise AssertionError("a model was built")

        # a count over the cap is refused as read, before any row exists
        monkeypatch.setattr(mdp, "Mdp", no_model)
        with pytest.raises(BudgetError, match="state count 9999999999998 "
                           "exceeds the cap of 1000000 states"):
            parse_explicit_model("STATES 9999999999998\nINIT 0\n0 a 0 1.0\n")
        with pytest.raises(BudgetError, match="cap of 2 states"):
            parse_explicit_model("STATES 3\nINIT 0\n", state_cap=2)
        # build_mdp counts its initial state against the same cap
        for cap in (0, -5):
            with pytest.raises(BudgetError, match=(
                    f"^state count 1 exceeds the cap of {cap} states$")):
                parse_explicit_model("STATES 1\nINIT 0\n0 a 0 1.0\n",
                                     state_cap=cap)
        monkeypatch.undo()
        assert parse_explicit_model("STATES 3\nINIT 0\n",
                                    state_cap=3).num_states == 3

    def test_label_parse_errors(self):
        with pytest.raises(ParseError, match="expected"):
            parse_labels_text("no colon here\n", 2)
        with pytest.raises(ParseError, match="out of range"):
            parse_labels_text("7: a\n", 2)
        with pytest.raises(ParseError, match="integer"):
            parse_labels_text("x: a\n", 2)

    @pytest.mark.parametrize("token", ['a"b', '"a"', '"'])
    def test_label_with_a_double_quote_rejected(self, token):
        # a property quotes a label as "...", so it cannot name this one
        with pytest.raises(ParseError) as err:
            parse_labels_text(f"0: ok\n# note\n1: c {token}\n", 2,
                              filename="m.lab")
        assert str(err.value) == (f"m.lab, line 3: label {token!r} holds "
                                  "'\"', which no property can name")

    def test_parse_error_carries_position(self):
        try:
            parse_explicit_model("STATES 2\nINIT 0\n0 a 1\n",
                                 filename="m.tra")
        except ParseError as exc:
            assert exc.line == 3
            assert "m.tra" in str(exc)
        else:
            pytest.fail("expected ParseError")
