"""Path enumeration, greedy counterexample assembly, and the JSON form."""

import json
import math
import random
from itertools import islice
from pathlib import Path

import pytest

import mdpdiag.bounded as bounded
import mdpdiag.counterexample as counterexample
from mdpdiag import (Atom, BudgetError, Counterexample, DomainError, Dtmc,
                     FinitePath, Mdp, ParseError, PathForest, PathFormula,
                     PropertySpec, Scheduler, WeightedPath, build_mipcx,
                     check_property,
                     counterexample_from_dict, counterexample_from_json,
                     counterexample_to_dict, counterexample_to_json,
                     enumerate_satisfying_paths, eval_state_formula,
                     extract_max_scheduler, generate_diagnoses, induce_dtmc,
                     parse_explicit_model, parse_property,
                     verify_counterexample)
from mdpdiag.cli import main
from mdpdiag.records import replace

from fixtures import (bundled_model, demo_mdp, demo_property, slow_exit_mdp,
                      slow_exit_property, step_counting_mdp,
                      step_counting_property)
from oracles import (bounded_pmax_exact, cx_import_fault, forest_of,
                     label_map, list_satisfying_paths, prefix_paths,
                     random_layered_mdp, random_mdp)

GOLDEN = Path(__file__).resolve().parent / "golden"

# values put into a path entry; the last of each is valid, though 10 ** 6
# in place of a state may leave a labelled state on no path
_STATE_EDITS = (1.0, True, -3, "1", None, 10 ** 6)
_ACTION_EDITS = (0, None, True, ["x"], 1.5, "zz")
_PROBABILITY_EDITS = ("0.2", True, 10 ** 400, None, 0.5)


def corrupt(rng: random.Random, data: dict) -> None:
    """One seeded edit of data's paths, scheduler, step_scheduler (where
    the export has one) or total_mass: mostly a fault, sometimes a valid
    change."""
    paths = data["paths"]
    i = rng.randrange(len(paths))
    entry = paths[i]
    lists = isinstance(entry, dict) and all(
        isinstance(entry.get(f), list) for f in ("states", "actions"))
    kinds = 9 if "step_scheduler" in data else 8
    kind = rng.randrange(kinds) if lists else rng.randrange(5, kinds)
    if kind == 8:
        corrupt_step_scheduler(rng, data)
        return
    if kind < 2:
        seq = entry["states" if kind == 0 else "actions"]
        if seq:
            seq[rng.randrange(len(seq))] = rng.choice(
                _STATE_EDITS if kind == 0 else _ACTION_EDITS)
    elif kind == 2:
        rng.choice([lambda: entry["actions"].pop() if entry["actions"] else 0,
                    lambda: entry["states"].append(0),
                    lambda: entry["actions"].append("zz"),
                    lambda: (entry["states"].clear(),
                             entry["actions"].clear())])()
    elif kind == 3:
        del entry[rng.choice(["states", "actions", "probability"])]
    elif kind == 4:
        entry["probability"] = rng.choice(_PROBABILITY_EDITS)
    elif kind == 5:
        paths[i] = rng.choice(["bogus", [], None, {}])
    elif kind == 6 and not (isinstance(data["scheduler"], dict)
                            and data["scheduler"]):
        data["scheduler"] = rng.choice([[], 0, {}])
    elif kind == 6:
        sched = data["scheduler"]
        key, name = rng.choice(sorted(sched.items()))
        rng.choice([lambda: sched.update({key: 0}),
                    lambda: sched.update({"x": name}),
                    lambda: sched.update({" 1": name}),
                    lambda: sched.update({"01": name})])()
    else:
        data["total_mass"] = rng.choice(["0.6", True, None, 0.5])


def corrupt_step_scheduler(rng: random.Random, data: dict) -> None:
    """One seeded edit of data's step_scheduler, or of the property or
    scheduler it needs."""
    steps = data["step_scheduler"]
    rows = isinstance(steps, dict) and all(
        isinstance(row, dict) and row for row in steps.values()) and steps
    if not rows or rng.random() < 0.2:
        rng.choice([
            lambda: data.update({"step_scheduler": rng.choice(
                [[], 0, {"0": "go"}, {"0": {"4": 1}}, {}])}),
            lambda: data.update({"property": "P<=0.6 [ true U goal ]"}),
            lambda: data.update({"scheduler": {"0": "go"}})])()
        return
    state = rng.choice(sorted(steps))
    row = steps[state]
    left, name = rng.choice(sorted(row.items()))
    rng.choice([lambda: row.update({rng.choice(["0", "5", "x", "04", " 1"]):
                                    name}),
                lambda: steps.update({rng.choice(["x", "01", "-1"]): row}),
                lambda: row.update({left: rng.choice([0, None, "zz"])}),
                lambda: row.update({left: "fast"})])()


def demo_chain():
    m = demo_mdp()
    # one action per state, interned in state order
    return induce_dtmc(m, Scheduler({s: s for s in m.states}))


def probs(stream):
    return [wp.probability for wp in stream]


def named_mdp():
    """Half the mass reaches t in one step; state 2 is never on a path."""
    return Mdp(3, 0, {(0, "go"): [(1, 0.5), (2, 0.5)],
                      (1, "stay"): [(1, 1.0)],
                      (2, "stay"): [(2, 1.0)]},
               labels={0: {"g"}, 1: {"t"}},
               state_names=("x=0", "x=1", "x=2"))


NAMED_PROP = "P<=0.4 [ g U t ]"


class TestEnumeration:
    def test_demo_order_and_values(self):
        got = prefix_paths(enumerate_satisfying_paths(
            demo_chain(), demo_property().path))
        states = [wp.path.states for wp in got]
        assert states == [(0, 1, 7), (0, 2, 3), (0, 2, 4, 5), (0, 4, 5),
                          (0, 2, 4, 3), (0, 4, 3)]
        assert probs(got) == pytest.approx(
            [0.25, 0.2, 0.15, 0.12, 0.09, 0.072], abs=1e-12)

    def test_demo_paths_exhaust_pmax(self):
        got = prefix_paths(enumerate_satisfying_paths(
            demo_chain(), demo_property().path))
        assert sum(probs(got)) == pytest.approx(0.882, abs=1e-12)

    def test_max_paths_truncates(self):
        got = prefix_paths(enumerate_satisfying_paths(
            demo_chain(), demo_property().path, max_paths=2))
        assert probs(got) == pytest.approx([0.25, 0.2])

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_of_zero_or_less_yields_nothing(self, cap):
        assert list(enumerate_satisfying_paths(demo_chain(),
                                               demo_property().path,
                                               max_paths=cap)) == []
        # the branch where init already satisfies the target
        at_target = PathFormula(demo_property().path.left, Atom("a"))
        assert list(enumerate_satisfying_paths(demo_chain(), at_target,
                                               max_paths=cap)) == []
        assert len(list(enumerate_satisfying_paths(demo_chain(), at_target,
                                                   max_paths=1))) == 1

    def test_nan_min_prob_rejected(self):
        # nan compares false with every probability: no floor at all
        with pytest.raises(DomainError, match="min_prob"):
            list(enumerate_satisfying_paths(demo_chain(),
                                            demo_property().path,
                                            min_prob=math.nan))
        with pytest.raises(DomainError, match="min_prob"):
            build_mipcx(demo_mdp(), demo_property(), min_prob=math.nan)

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_nonpositive_probability_in_a_hand_built_chain(self, p):
        # Dtmc checks nothing; the search names the step it cannot take
        d = Dtmc((0, 1), 0, {0: ((0, ((1, p), (0, 1.0))),),
                             1: ((0, ((1, 1.0),)),)}, {0: {"p"}, 1: {"q"}})
        with pytest.raises(DomainError, match=(
                f"^nonpositive probability {p!r} to successor 1 "
                "for state 0$")):
            list(enumerate_satisfying_paths(
                d, parse_property("P<=0.5 [ p U q ]").path, max_paths=5))

    def test_min_prob_cuts_the_stream(self):
        got = prefix_paths(enumerate_satisfying_paths(
            demo_chain(), demo_property().path, min_prob=0.1))
        assert probs(got) == pytest.approx([0.25, 0.2, 0.15, 0.12])

    def test_step_bound_filters_long_paths(self):
        psi = PathFormula(demo_property().path.left,
                          demo_property().path.right, bound=2)
        got = prefix_paths(enumerate_satisfying_paths(demo_chain(), psi))
        assert probs(got) == pytest.approx([0.25, 0.2, 0.12, 0.072])
        assert all(len(wp.path) <= 2 for wp in got)

    def test_tight_bound_leaves_nothing(self):
        psi = PathFormula(demo_property().path.left,
                          demo_property().path.right, bound=1)
        assert list(enumerate_satisfying_paths(demo_chain(), psi)) == []

    def test_init_satisfying_target_gives_empty_path(self):
        psi = PathFormula(Atom("b"), Atom("a"))
        got = prefix_paths(enumerate_satisfying_paths(demo_chain(), psi))
        assert len(got) == 1
        assert got[0].path.states == (0,)
        assert got[0].path.actions == ()
        assert got[0].probability == 1.0

    def test_init_failing_both_operands_gives_nothing(self):
        psi = PathFormula(Atom("c"), Atom("d"))
        assert list(enumerate_satisfying_paths(demo_chain(), psi)) == []

    def test_unreachable_target_gives_nothing(self):
        psi = PathFormula(Atom("a"), Atom("nowhere"))
        assert list(enumerate_satisfying_paths(demo_chain(), psi)) == []

    def test_weak_until_rejected(self):
        with pytest.raises(ParseError, match="column 12: expected 'U'"):
            parse_property("P<=0.5 [ a W c ]")

    def test_equal_probabilities_order_lexicographically(self):
        m = Mdp(3, 0, {
            (0, "a"): [(2, 0.5), (1, 0.5)],
            (1, "b"): [(1, 1.0)],
            (2, "b"): [(2, 1.0)],
        }, labels={0: {"g"}, 1: {"t"}, 2: {"t"}})
        d = induce_dtmc(m, Scheduler({0: 0, 1: 1, 2: 1}))
        got = prefix_paths(enumerate_satisfying_paths(
            d, PathFormula(Atom("g"), Atom("t"))))
        assert [wp.path.states for wp in got] == [(0, 1), (0, 2)]

    def test_matches_exhaustive_listing_on_layered_chains(self):
        rng = random.Random(77001)
        psi = PathFormula(Atom("live"), Atom("goal"))
        checked = 0
        for _ in range(40):
            m = random_layered_mdp(rng)
            sched = Scheduler({s: m.enabled_actions(s)[0] for s in m.states})
            d = induce_dtmc(m, sched)
            sat1 = {s for s in d.states
                    if eval_state_formula(d.labels, s, psi.left)}
            sat2 = {s for s in d.states
                    if eval_state_formula(d.labels, s, psi.right)}
            trans = {s: dist for s in d.states for _, dist in d.choices[s]}
            want = {tuple(states): p
                    for states, p in list_satisfying_paths(trans, d.init,
                                                           sat1, sat2, 20)}
            got = prefix_paths(enumerate_satisfying_paths(d, psi))
            got_map = {wp.path.states: wp.probability for wp in got}
            assert set(got_map) == set(want)
            for key, p in want.items():
                assert got_map[key] == pytest.approx(p, abs=1e-12)
            seq = probs(got)
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
            checked += bool(want)
        assert checked >= 10  # generator params keep most seeds nontrivial

    def test_ties_follow_state_sequences_on_cyclic_chains(self):
        # uniform branching makes many paths equally probable
        rng = random.Random(77002)
        psi = PathFormula(Atom("p"), Atom("g"), bound=5)
        ties = 0
        for _ in range(40):
            n = rng.randint(3, 6)
            trans = {}
            for s in range(n):
                succs = rng.sample(range(n), rng.randint(1, min(3, n)))
                trans[(s, "a")] = [(t, 1.0 / len(succs)) for t in succs]
            labels = {s: {"g"} if s and rng.random() < 0.3 else {"p"}
                      for s in range(n)}
            d = induce_dtmc(Mdp(n, 0, trans, labels),
                            Scheduler({s: 0 for s in range(n)}))
            sat1 = {s for s in d.states if "p" in d.labels[s]}
            sat2 = {s for s in d.states if "g" in d.labels[s]}

            trans = {s: dist for s in d.states for _, dist in d.choices[s]}

            def cost(states):
                c = 0.0
                for u, t in zip(states, states[1:]):
                    c -= math.log(dict(trans[u])[t])
                return c

            listed = list_satisfying_paths(trans, d.init, sat1, sat2,
                                           psi.bound)
            want = sorted((states for states, _ in listed),
                          key=lambda states: (cost(states), states))
            got = [wp.path.states for wp in
                   prefix_paths(enumerate_satisfying_paths(d, psi))]
            assert got == want
            ties += sum(cost(a) == cost(b) for a, b in zip(want, want[1:]))
        assert ties >= 20


class TestBuildMipcx:
    def test_demo_greedy_set(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        assert len(cx.paths) == 3
        assert probs(cx.paths) == pytest.approx([0.25, 0.2, 0.15], abs=1e-12)
        assert cx.total_mass == pytest.approx(0.6, abs=1e-9)
        assert cx.scheduler is not None
        assert cx.spec == demo_property()

    def test_labels_cover_exactly_the_path_states(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        assert set(cx.labels) == set(cx.forest.states) == {0, 1, 2, 3, 4, 5, 7}
        assert cx.labels[3] == {"c", "d"}

    def test_builds_through_the_public_search(self, monkeypatch):
        # perfbench's counterexample.enumerate span wraps this name
        calls, items = [], []
        search = counterexample.enumerate_satisfying_paths

        def counting(*args, **kwargs):
            calls.append(args)
            for item in search(*args, **kwargs):
                items.append(item)
                yield item

        monkeypatch.setattr(counterexample, "enumerate_satisfying_paths",
                            counting)
        cx = build_mipcx(demo_mdp(), demo_property())
        assert len(calls) == 1
        assert len(items) == len(cx.forest.leaves) == 3

    def test_holding_property_has_no_counterexample(self):
        with pytest.raises(DomainError, match="holds"):
            build_mipcx(demo_mdp(), parse_property("P<=0.9 [ (a|b) U (c&d) ]"))

    def test_path_budget_raises_with_partial_mass(self):
        with pytest.raises(BudgetError) as info:
            build_mipcx(demo_mdp(), demo_property(), max_paths=2)
        assert info.value.partial == pytest.approx(0.45, abs=1e-12)

    def test_min_prob_floor_raises_when_mass_runs_out(self):
        spec = parse_property("P<=0.85 [ (a|b) U (c&d) ]")
        with pytest.raises(BudgetError) as info:
            build_mipcx(demo_mdp(), spec, min_prob=0.1)
        assert info.value.partial == pytest.approx(0.72, abs=1e-12)

    def test_strict_threshold_needs_only_matching_mass(self):
        spec = parse_property("P<0.45 [ (a|b) U (c&d) ]")
        cx = build_mipcx(demo_mdp(), spec)
        # 0.25 + 0.2 meets a strict bound exactly
        assert len(cx.paths) == 2
        assert cx.total_mass == pytest.approx(0.45, abs=1e-12)

    def test_action_and_state_names_travel_along(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        first = cx.paths[0].path
        assert [cx.action_name(a) for a in first.actions] == ["alpha0",
                                                              "alpha1"]
        assert cx.state_name(0) == "0"
        assert cx.state_names is None

    def test_state_names_cover_exactly_the_path_states(self):
        cx = build_mipcx(named_mdp(), parse_property(NAMED_PROP))
        assert cx.state_names == {0: "x=0", 1: "x=1"}
        assert cx.state_name(1) == "x=1"
        assert cx.state_name(2) == "2"

    def test_verifies_clean(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        assert verify_counterexample(cx) == []


class TestStepCountingWitness:
    """Under a step bound the witness counts steps: the search runs on the
    chain of pairs (state, steps left) it induces, whose paths carry the
    Pmax that the check reports, and a path drops the counter."""

    def test_the_witness_carries_pmax(self):
        m, spec = step_counting_mdp(), step_counting_property()
        verdict = check_property(m, spec)
        assert not verdict.holds and verdict.pmax == 0.75
        cx = build_mipcx(m, spec)
        assert cx.total_mass == 0.75
        assert [(wp.path.states, wp.probability) for wp in cx.paths] == [
            ((0, 2, 3, 4, 5), 0.5), ((0, 1, 2, 5), 0.25)]
        slow, fast = m.action_id("slow"), m.action_id("fast")
        assert cx.scheduler.bound == 4
        assert (cx.scheduler.choice[2, 3], cx.scheduler.choice[2, 2]) == (
            slow, fast)
        assert verify_counterexample(cx) == []
        # one action per state gathers 1/2 at most, which violates nothing
        for aid in (slow, fast):
            chain = induce_dtmc(m, Scheduler({s: aid if s == 2 else
                                              m.enabled_actions(s)[0]
                                              for s in m.states}))
            assert math.fsum(p for _, p in enumerate_satisfying_paths(
                chain, spec.path)) == 0.5

    def test_the_chain_has_pairs_for_states(self):
        m, spec = step_counting_mdp(), step_counting_property()
        vv = check_property(m, spec).value_vector
        chain = induce_dtmc(m, extract_max_scheduler(m, vv))
        assert chain.init == (0, 4)
        assert chain.choices[2, 3] == ((m.action_id("slow"),
                                        (((3, 2), 1.0),)),)
        # a target and a pair of no steps left end the chain
        assert chain.choices[5, 0] == chain.choices[5, 1] == ()
        assert chain.labels[5, 1] == {"goal"}

    def test_paths_must_follow_the_counted_choices(self):
        m, spec = step_counting_mdp(), step_counting_property()
        cx = build_mipcx(m, spec)
        slow, fast = m.action_id("slow"), m.action_id("fast")
        swapped = dict(cx.scheduler.choice)
        swapped[2, 2], swapped[2, 3] = slow, fast
        problems = verify_counterexample(
            replace(cx, scheduler=Scheduler(swapped, 4)))
        assert problems == [
            "path 0: at state 2, position 1, the path takes action slow, "
            "where the scheduler chooses fast",
            "path 1: at state 2, position 2, the path takes action fast, "
            "where the scheduler chooses slow"]
        # a memoryless scheduler is read at the state, as before
        go, on = m.action_id("go"), m.action_id("on")
        memoryless = Scheduler({0: go, 1: go, 2: slow, 3: on, 4: on})
        assert verify_counterexample(replace(cx, scheduler=memoryless)) == [
            "path 1: at state 2, position 2, the path takes action fast, "
            "where the scheduler chooses slow"]

    @pytest.mark.parametrize("prop, problem", [
        ("P<=0.6 [ true U<=5 goal ]", "bounds 5"),
        ("P<=0.6 [ true U<=3 goal ]", "bounds 3"),
        ("P<=0.6 [ true U goal ]", "has no step bound")])
    def test_another_bound_is_a_verification_problem(self, prop, problem):
        cx = build_mipcx(step_counting_mdp(), step_counting_property())
        again = counterexample_from_json(counterexample_to_json(cx))
        problems = verify_counterexample(
            replace(again, spec=parse_property(prop)))
        assert (f"the scheduler counts 4 steps, but the property "
                f"{parse_property(prop)} {problem}") in problems

    def test_export_writes_the_counted_choices(self):
        cx = build_mipcx(step_counting_mdp(), step_counting_property())
        data = counterexample_to_dict(cx)
        assert data["scheduler"] == {}
        assert data["step_scheduler"] == {
            "0": {"4": "go"}, "1": {"3": "go"},
            "2": {"2": "fast", "3": "slow"}, "3": {"2": "on"},
            "4": {"1": "on"}}
        assert list(data)[5:7] == ["scheduler", "step_scheduler"]
        text = counterexample_to_json(cx)
        again = counterexample_from_json(text)
        assert again.scheduler.bound == 4
        assert {(s, j): again.action_name(a)
                for (s, j), a in again.scheduler.choice.items()} == {
            (s, j): cx.action_name(a)
            for (s, j), a in cx.scheduler.choice.items()}
        assert verify_counterexample(again) == []
        assert counterexample_to_json(again) == text

    def test_unbounded_exports_have_no_step_scheduler(self):
        assert "step_scheduler" not in counterexample_to_dict(
            build_mipcx(demo_mdp(), demo_property()))

    def test_random_bounded_models(self):
        # bounds 0 to 12: every violated verdict, at the default budget,
        # yields a counterexample of more mass than the threshold; the
        # witness chain's satisfying paths are its exhaustive listing, and
        # carry the exact step-indexed Pmax
        rng = random.Random(16087881)
        violated = 0
        for _ in range(150):
            m = random_mdp(rng, max_states=6, max_actions=3)
            psi = PathFormula(Atom("p"), Atom("q"), bound=rng.randint(0, 12))
            labels = label_map(m)
            interior = {s for s in m.states
                        if eval_state_formula(labels, s, psi.left)}
            targets = {s for s in m.states
                       if eval_state_formula(labels, s, psi.right)}
            pmax = bounded_pmax_exact(m, interior, targets,
                                      psi.bound)[m.init]
            spec = PropertySpec("<=", pmax * rng.choice((0.3, 0.8, 0.99)),
                                psi)
            verdict = check_property(m, spec)
            assert verdict.pmax == pytest.approx(pmax, abs=1e-12)
            if verdict.holds:
                assert pmax == 0.0
                continue
            violated += 1
            cx = build_mipcx(m, spec)
            assert cx.total_mass > spec.threshold
            assert verify_counterexample(cx) == []
            chain = induce_dtmc(m, cx.scheduler)
            got = {wp.path.states: wp.probability for wp in prefix_paths(
                enumerate_satisfying_paths(chain, psi))}
            trans = {x: dist for x in chain.states
                     for _, dist in chain.choices[x]}
            want = dict(list_satisfying_paths(
                trans, chain.init, {x for x in chain.states
                                    if x[0] in interior},
                {x for x in chain.states if x[0] in targets}, psi.bound))
            assert got.keys() == want.keys()
            for key, p in want.items():
                assert got[key] == pytest.approx(p, abs=1e-12)
            assert math.fsum(got.values()) == pytest.approx(pmax, abs=1e-12)
        assert violated >= 60

    def test_a_huge_bound_on_a_cycle_runs_out_of_pairs(self, monkeypatch):
        # the counted choices of U<=10**18 on a cycle would never end
        monkeypatch.setattr(bounded, "STEP_WITNESS_CAP", 500)
        spec = parse_property("P<=0.45 [ ok U<=1000000000000000000 goal ]")
        with pytest.raises(BudgetError, match="chooses at more than 500 "
                           r"pairs \(state, steps left\)"):
            build_mipcx(slow_exit_mdp(), spec)


GT_LABELS = {0: frozenset({"g"}), 1: frozenset({"g"}), 2: frozenset({"t"}),
             3: frozenset()}


def make_cx(paths, total, spec_text="P<=0.1 [ g U t ]"):
    spec = parse_property(spec_text)
    return Counterexample(forest_of(paths), total, None, spec, GT_LABELS,
                          ("a",))


def imported_cx(paths):
    """The JSON import of make_cx(paths), with the labels of the states
    on the paths."""
    data = counterexample_to_dict(make_cx(paths, 0.5))
    on_paths = {s for wp in paths for s in wp.path.states}
    data["labels"] = {k: v for k, v in data["labels"].items()
                      if int(k) in on_paths}
    return counterexample_from_dict(data)


def wp(states, prob):
    return WeightedPath(FinitePath(tuple(states), (0,) * (len(states) - 1)),
                        prob)


def distinct_prefixes(paths) -> int:
    """The number of distinct prefixes of paths, counted in a trie of
    nested dicts keyed by (action into the state, state)."""
    root, count = {}, 0
    for wp in paths:
        level = root
        for key in zip((-1, *wp.path.actions), wp.path.states):
            if key not in level:
                level[key] = {}
                count += 1
            level = level[key]
    return count


@pytest.fixture(scope="module")
def slow_exit_cx():
    return build_mipcx(slow_exit_mdp(), slow_exit_property())


class TestPathForest:
    def test_repeated_paths_share_one_leaf(self):
        p, q = wp((0, 1, 2), 0.25), wp((0, 2), 0.125)
        forest = imported_cx([p, q, p]).forest
        assert forest == forest_of([p, q, p])
        assert forest.leaves[0] == forest.leaves[2] != forest.leaves[1]
        assert forest.probabilities == [0.25, 0.125, 0.25]
        assert len(forest.states) == 4

    def test_a_path_may_run_on_through_another_leaf(self):
        short, long = wp((0, 1), 0.25), wp((0, 1, 0, 1, 2), 0.125)
        forest = imported_cx([long, short]).forest
        assert forest == forest_of([long, short])
        assert len(forest.states) == 5
        node = forest.leaves[0]
        for _ in range(3):
            node = forest.parents[node]
        assert node == forest.leaves[1]

    def test_paths_may_start_at_different_states(self):
        paths = [wp((0, 2), 0.25), wp((1, 2), 0.25), wp((0, 1, 2), 0.125)]
        cx = imported_cx(paths)
        forest = cx.forest
        roots = [n for n, p in enumerate(forest.parents) if p < 0]
        assert [forest.states[n] for n in roots] == [0, 1]
        assert forest == forest_of(paths)
        assert cx.paths == tuple(paths)

    @pytest.mark.parametrize("name", ["demo", "zeroconf", "csma",
                                      "slow-exit"])
    def test_built_and_imported_forests_are_those_of_their_paths(
            self, name, slow_exit_cx):
        cx = (slow_exit_cx if name == "slow-exit"
              else build_mipcx(*bundled_model(name)))
        again = counterexample_from_json(counterexample_to_json(cx))
        assert forest_of(cx.paths) == cx.forest
        assert forest_of(again.paths) == again.forest

    def test_nodes_number_parents_first(self, slow_exit_cx):
        forest = slow_exit_cx.forest
        assert all(p < n for n, p in enumerate(forest.parents))
        assert all(a == -1 for a, p in zip(forest.actions, forest.parents)
                   if p < 0)

    def test_slow_exit_has_one_node_per_distinct_prefix(self, slow_exit_cx):
        forest = slow_exit_cx.forest
        steps = sum(len(w.path) for w in slow_exit_cx.paths)
        assert (len(forest.leaves), steps) == (575, 331_200)
        assert len(forest.states) == distinct_prefixes(slow_exit_cx.paths)
        assert len(forest.states) == 1725

    def test_slow_exit_paths_are_the_enumerated_stream(self, slow_exit_cx):
        m = slow_exit_mdp()
        verdict = check_property(m, slow_exit_property())
        chain = induce_dtmc(m, extract_max_scheduler(m, verdict.value_vector))
        stream = islice(enumerate_satisfying_paths(
            chain, slow_exit_property().path), 575)
        assert slow_exit_cx.paths == tuple(prefix_paths(stream))

    def test_slow_exit_operation_count(self, slow_exit_cx):
        assert generate_diagnoses(slow_exit_cx).operation_count == 3455

    def test_flat_view_is_built_once(self, slow_exit_cx):
        assert slow_exit_cx.paths is slow_exit_cx.paths


class TestVerification:
    def assert_complaint(self, cx, needle):
        problems = verify_counterexample(cx)
        assert any(needle in p for p in problems), problems

    def test_clean_manual_counterexample(self):
        assert verify_counterexample(make_cx([wp((0, 2), 0.5)], 0.5)) == []

    def test_duplicate_path(self):
        cx = make_cx([wp((0, 2), 0.3), wp((0, 2), 0.3)], 0.6)
        self.assert_complaint(cx, "duplicates path 0")

    def test_probability_out_of_range(self):
        self.assert_complaint(make_cx([wp((0, 2), 1.5)], 1.5), "outside")

    def test_final_state_not_target(self):
        self.assert_complaint(make_cx([wp((0, 1), 0.5)], 0.5),
                              "does not satisfy the until target")

    def test_path_passing_through_target(self):
        self.assert_complaint(make_cx([wp((0, 2, 2), 0.5)], 0.5),
                              "first such state")

    def test_interior_state_failing_guard(self):
        self.assert_complaint(make_cx([wp((0, 3, 2), 0.5)], 0.5),
                              "fails the until guard")

    def test_mass_sum_mismatch(self):
        self.assert_complaint(make_cx([wp((0, 2), 0.5)], 0.7), "disagrees")

    def test_mass_not_witnessing(self):
        cx = make_cx([wp((0, 2), 0.5)], 0.5, "P<=0.9 [ g U t ]")
        self.assert_complaint(cx, "does not witness")

    def test_no_paths(self):
        self.assert_complaint(make_cx([], 0.0), "no paths")

    def test_step_bound_violation(self):
        cx = make_cx([wp((0, 1, 2), 0.5)], 0.5, "P<=0.1 [ g U<=1 t ]")
        self.assert_complaint(cx, "exceed the bound")

    def test_external_labelling_overrides_embedded(self):
        cx = make_cx([wp((0, 2), 0.5)], 0.5)
        problems = verify_counterexample(replace(cx, labels={0: {"g"},
                                                             2: {"g"}}))
        assert any("until target" in p for p in problems)

    def test_paths_follow_the_scheduler(self):
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        assert verify_counterexample(counterexample_from_dict(data)) == []
        data["scheduler"]["1"] = "alpha5"
        assert verify_counterexample(counterexample_from_dict(data)) == [
            "path 0: at state 1, position 1, the path takes action alpha1, "
            "where the scheduler chooses alpha5"]
        del data["scheduler"]["1"]
        assert verify_counterexample(counterexample_from_dict(data)) == [
            "path 0: at state 1, position 1, the path takes action alpha1, "
            "where the scheduler makes no choice"]

    def test_path_leaving_the_scheduler_twice_is_reported_once(self):
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        data["scheduler"].update({"0": "alpha7", "2": "alpha7"})
        problems = verify_counterexample(counterexample_from_dict(data))
        assert problems == [
            f"path {i}: at state 0, position 0, the path takes action "
            "alpha0, where the scheduler chooses alpha7" for i in range(3)]

    def test_weak_until_spec_rejected(self):
        data = counterexample_to_dict(make_cx([wp((0, 2), 0.5)], 0.5))
        data["property"] = "P<=0.1 [ g W t ]"
        with pytest.raises(ParseError, match="column 12: expected 'U'"):
            counterexample_from_dict(data)


class TestJsonInterchange:
    def test_dict_round_trip_is_lossless(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        data = counterexample_to_dict(cx)
        again = counterexample_from_dict(data)
        assert counterexample_to_dict(again) == data

    def test_json_round_trip(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        again = counterexample_from_json(counterexample_to_json(cx))
        assert counterexample_to_dict(again) == counterexample_to_dict(cx)
        assert verify_counterexample(again) == []

    def test_reload_reinterns_actions_sorted(self):
        # interning order in the model is deliberately not alphabetic
        m = Mdp(3, 0, {
            (0, "zeta"): [(1, 0.5), (2, 0.5)],
            (1, "alpha"): [(1, 1.0)],
            (2, "alpha"): [(2, 1.0)],
        }, labels={0: {"g"}, 1: {"t"}, 2: {"t"}})
        cx = build_mipcx(m, parse_property("P<=0.4 [ g U t ]"))
        again = counterexample_from_dict(counterexample_to_dict(cx))
        assert again.action_names == ("alpha", "zeta")
        for before, after in zip(cx.paths, again.paths):
            assert ([cx.action_name(a) for a in before.path.actions]
                    == [again.action_name(a) for a in after.path.actions])

    def test_dict_shape(self):
        cx = build_mipcx(demo_mdp(), demo_property())
        data = counterexample_to_dict(cx)
        assert data["format_version"] == 1
        assert data["property"] == "P<=0.5 [ (a | b) U (c & d) ]"
        assert data["threshold"] == 0.5
        assert data["paths"][0] == {"states": [0, 1, 7],
                                    "actions": ["alpha0", "alpha1"],
                                    "probability": 0.25}
        assert data["labels"]["3"] == ["c", "d"]
        assert data["scheduler"]["0"] == "alpha0"

    def test_state_names_round_trip(self):
        cx = build_mipcx(named_mdp(), parse_property(NAMED_PROP))
        data = counterexample_to_dict(cx)
        assert data["state_names"] == {"0": "x=0", "1": "x=1"}
        again = counterexample_from_json(counterexample_to_json(cx))
        assert again.state_names == cx.state_names
        assert counterexample_to_dict(again) == data

    def spare_atom_cx(self):
        m = Mdp(3, 0, {(0, "a"): [(1, 0.5), (2, 0.5)],
                       (1, "a"): [(1, 1.0)], (2, "a"): [(2, 1.0)]},
                labels={0: {"g"}, 1: {"t"}}, ap_names=["z"])
        return build_mipcx(m, parse_property("P<=0.4 [ g U t ]"))

    def test_alphabet_beyond_the_path_labels_round_trips(self):
        data = counterexample_to_dict(self.spare_atom_cx())
        assert data["ap_names"] == ["g", "t", "z"]
        again = counterexample_from_json(json.dumps(data))
        assert again.alphabet() == {"g", "t", "z"}
        assert counterexample_to_dict(again) == data

    def test_property_atoms_outside_the_alphabet_round_trip(self):
        # d labels no state of the model, so it is false everywhere
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0)], (1, "a"): [(1, 1.0)]},
                {1: {"goal"}})
        cx = build_mipcx(m, parse_property("P<=0.5 [ !d U goal ]"))
        assert cx.alphabet() == {"d", "goal"}
        text = counterexample_to_json(cx)
        assert json.loads(text)["ap_names"] == ["d", "goal"]
        again = counterexample_from_json(text)
        assert again.spec == cx.spec
        assert counterexample_to_json(again) == text

    @pytest.mark.parametrize("left, right", [
        ("true", "U"), ("x-y", "P"), ("false", "1")])
    def test_labels_that_read_otherwise_round_trip(self, left, right):
        m = parse_explicit_model(
            "STATES 3\nINIT 0\n0 a 1 0.6\n0 a 2 0.4\n1 a 1 1.0\n"
            "2 a 2 1.0\n", f"0: {left}\n1: {right}\n")
        spec = parse_property(f'P<=0.5 [ "{left}" U "{right}" ]',
                              m.ap_names)
        cx = build_mipcx(m, spec)
        text = counterexample_to_json(cx)
        assert json.loads(text)["property"] == (
            f'P<=0.5 [ "{left}" U "{right}" ]')
        again = counterexample_from_json(text)
        assert again.spec == spec
        assert counterexample_to_json(again) == text

    def test_alphabet_of_the_path_labels_is_not_written(self):
        assert "ap_names" not in self.base()
        assert counterexample_from_dict(self.base()).alphabet() == set("abcd")

    @pytest.mark.parametrize("names", ["z", [1], {"z": "z"}, [["z"]]],
                             ids=["string", "number", "object", "nested"])
    def test_bad_ap_names_rejected(self, names):
        data = counterexample_to_dict(self.spare_atom_cx())
        data["ap_names"] = names
        with pytest.raises(ParseError, match="ap_names"):
            counterexample_from_dict(data)

    def test_unnamed_export_has_no_state_names(self):
        assert "state_names" not in self.base()
        assert counterexample_from_dict(self.base()).state_names is None

    @pytest.mark.parametrize("names", [
        ["x=0", "x=1"],
        {"0": "x=0", "1": 1},
        {"0": "x=0", "1": ["x=1"]},
        {"0": "x=0", " 1": "x=1"},
        {"+0": "x=0", "1": "x=1"},
        {"0": "x=0", "one": "x=1"},
    ], ids=["list", "number", "list-value", "key-space", "key-plus",
            "key-word"])
    def test_bad_state_names_rejected(self, names):
        data = counterexample_to_dict(build_mipcx(named_mdp(),
                                                  parse_property(NAMED_PROP)))
        data["state_names"] = names
        with pytest.raises(ParseError, match="state_names"):
            counterexample_from_json(json.dumps(data))

    @pytest.mark.parametrize("key, value", [("labels", ["zz"]),
                                            ("state_names", "zz")])
    def test_states_off_the_paths_rejected(self, key, value):
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        data.setdefault(key, {})["99"] = value
        with pytest.raises(ParseError, match=f"counterexample {key} name "
                                             "state 99, which lies on no path"):
            counterexample_from_dict(data)

    def test_scheduler_off_the_paths_allowed(self):
        # the export writes the whole witness; state 6 lies on no path
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        assert "6" in data["scheduler"] and "6" not in data["labels"]
        data["scheduler"]["99"] = "alpha0"
        cx = counterexample_from_dict(data)
        assert cx.scheduler.choice[99] == cx.scheduler.choice[0]
        assert verify_counterexample(cx) == []

    def test_invalid_json_text(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            counterexample_from_json("{nope")

    def base(self):
        return counterexample_to_dict(build_mipcx(demo_mdp(),
                                                  demo_property()))

    def test_non_object_rejected(self):
        with pytest.raises(ParseError, match="object"):
            counterexample_from_dict([1, 2])

    def test_missing_key_rejected(self):
        data = self.base()
        del data["paths"]
        with pytest.raises(ParseError, match="missing 'paths'"):
            counterexample_from_dict(data)

    def test_unsupported_version(self):
        data = self.base()
        data["format_version"] = 99
        with pytest.raises(ParseError, match="format_version"):
            counterexample_from_dict(data)

    @pytest.mark.parametrize("field", ["labels", "ap_names"])
    def test_name_holding_a_double_quote_rejected(self, field):
        # no property can name it: a quoted atom ends at its first '"'
        data = self.base()
        if field == "labels":
            data["labels"]["0"] = ['a"b']
        else:
            data["ap_names"] = ["a", 'a"b']
        with pytest.raises(ParseError, match="^counterexample label "
                           "'a\"b' holds '\"', which no property can "
                           "name$"):
            counterexample_from_dict(data)

    def test_bad_labels_shape(self):
        data = self.base()
        data["labels"] = ["a"]
        with pytest.raises(ParseError, match="labels"):
            counterexample_from_dict(data)

    def test_paths_must_be_a_list(self):
        data = self.base()
        data["paths"] = {"states": [0]}
        with pytest.raises(ParseError, match="list"):
            counterexample_from_dict(data)

    def test_path_entry_must_be_an_object(self):
        data = self.base()
        data["paths"][0] = "bogus"
        with pytest.raises(ParseError, match="path entry 0"):
            counterexample_from_dict(data)

    def test_path_entry_missing_field(self):
        data = self.base()
        del data["paths"][1]["probability"]
        with pytest.raises(ParseError, match="path entry 1"):
            counterexample_from_dict(data)

    def test_path_entry_bad_state(self):
        data = self.base()
        data["paths"][0]["states"][0] = "x"
        with pytest.raises(ParseError, match="path entry 0"):
            counterexample_from_dict(data)

    def test_path_entry_length_mismatch(self):
        data = self.base()
        data["paths"][0]["actions"].append("alpha0")
        with pytest.raises(ParseError, match="path entry 0"):
            counterexample_from_dict(data)

    def test_bad_scheduler_shape(self):
        data = self.base()
        data["scheduler"] = ["alpha0"]
        with pytest.raises(ParseError, match="scheduler"):
            counterexample_from_dict(data)

    def test_bad_scheduler_state(self):
        data = self.base()
        data["scheduler"]["oops"] = "alpha0"
        with pytest.raises(ParseError, match="scheduler"):
            counterexample_from_dict(data)

    def test_bad_total_mass(self):
        data = self.base()
        data["total_mass"] = "heavy"
        with pytest.raises(ParseError, match="number"):
            counterexample_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("states", "017"),
        ("states", [0.9, 1.9, 7.9]),
        ("states", [0.0, 1.0, 7.0]),
        ("states", [0, True, 7]),
        ("states", ["0", "1", "7"]),
        ("states", {"0": 0, "1": 1, "7": 7}),
        ("states", 17),
        ("actions", "ab"),
        ("actions", {"alpha0": 0, "alpha1": 1}),
        ("actions", 2),
        ("actions", [["x"], "alpha1"]),
    ], ids=["string", "floats", "integral-floats", "bool", "strings",
            "object", "number", "actions-string", "actions-object",
            "actions-number", "actions-unhashable"])
    def test_path_entry_needs_lists_of_json_integers(self, field, value):
        # the first path of the exported demo is 0 -alpha0-> 1 -alpha1-> 7
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        data["paths"][0][field] = value
        with pytest.raises(ParseError, match="malformed path entry 0"):
            counterexample_from_dict(data)
        with pytest.raises(ParseError, match="malformed path entry 0"):
            counterexample_from_json(json.dumps(data))

    @pytest.mark.parametrize("field, position, value", [
        ("states", 1, 2.0),
        ("states", 0, False),
        ("states", 0, 0.0),
        ("states", 2, -4),
        ("actions", 1, 4),
        ("actions", 2, None),
        ("actions", 2, ["x"]),
    ], ids=["float-in-prefix", "bool-in-prefix", "float-root", "negative",
            "number-action", "null-action", "unhashable-action"])
    def test_checks_reach_inside_a_shared_prefix(self, field, position,
                                                 value):
        # path 2, 0 -alpha0-> 2 -alpha2-> 4 -alpha4-> 5, shares 0 -alpha0->
        # 2 with path 1; 2.0, false and 0.0 equal the states there, and
        # its actions at positions 1 and 2 lie past that prefix
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        assert data["paths"][1]["states"][:2] == [0, 2]
        data["paths"][2][field][position] = value
        with pytest.raises(ParseError, match="^malformed path entry 2$"):
            counterexample_from_dict(data)
        with pytest.raises(ParseError, match="^malformed path entry 2$"):
            counterexample_from_json(json.dumps(data))

    @pytest.mark.parametrize("edit, message", [
        # the entries in file order, each one in full before the next
        (lambda d: (d["paths"][0]["states"].__setitem__(1, 1.0),
                    d["paths"][2]["actions"].__setitem__(0, 0)),
         "malformed path entry 0"),
        (lambda d: (d["paths"][0]["actions"].pop(),
                    d["paths"][2]["actions"].__setitem__(2, True)),
         "path entry 0: 3 states need 2 actions, got 1"),
        (lambda d: (d["paths"].__setitem__(0, {"states": [0]}),
                    d["paths"].__setitem__(1, "bogus")),
         "malformed path entry 0"),
        # the scheduler's shape comes after every entry
        (lambda d: (d["paths"][1]["states"].__setitem__(1, True),
                    d.update({"scheduler": []})),
         "malformed path entry 1"),
        (lambda d: (d["paths"][0]["actions"].__setitem__(0, 0),
                    d.update({"scheduler": {"0": 0}})),
         "malformed path entry 0"),
        (lambda d: (d["paths"][0]["actions"].pop(),
                    d["paths"][1]["states"].__setitem__(0, -1)),
         "path entry 0: 3 states need 2 actions, got 1"),
        (lambda d: (d["paths"][1].update({"probability": "0.2"}),
                    d["paths"][2]["actions"].pop()),
         "malformed path entry 1"),
        (lambda d: (d["paths"][2]["states"].clear(),
                    d["paths"][2]["actions"].clear()),
         "path entry 2: a path needs at least one state"),
        # scheduler ids, total_mass and the tables come after the paths
        (lambda d: (d["paths"][2]["states"].append(6),
                    d["scheduler"].update({"x": "alpha0"})),
         "path entry 2: 5 states need 4 actions, got 3"),
        (lambda d: (d["scheduler"].update({"x": "alpha0"}),
                    d.update({"total_mass": "0.6"})),
         "malformed scheduler mapping"),
    ], ids=["states-then-actions", "length-then-actions", "two-objects",
            "states-and-scheduler", "actions-and-scheduler",
            "length-then-states", "probability-then-length", "empty",
            "length-and-scheduler-id", "scheduler-id-and-mass"])
    def test_the_documented_fault_is_reported_first(self, edit, message):
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        edit(data)
        with pytest.raises(ParseError, match=f"^{message}$"):
            counterexample_from_dict(data)
        with pytest.raises(ParseError, match=f"^{message}$"):
            counterexample_from_json(json.dumps(data))

    @pytest.fixture(scope="class")
    def exports(self, slow_exit_cx):
        """The demo trace, the first 12 paths of the slow-exit export with
        the labels of the states on them, and the export of a step-bounded
        counterexample, with its step_scheduler."""
        demo = json.loads((GOLDEN / "demo.cx.json").read_text())
        sliced = counterexample_to_dict(slow_exit_cx)
        del sliced["paths"][12:]
        on_paths = {s for p in sliced["paths"] for s in p["states"]}
        sliced["labels"] = {k: v for k, v in sliced["labels"].items()
                            if int(k) in on_paths}
        counted = counterexample_to_dict(build_mipcx(
            step_counting_mdp(), step_counting_property()))
        return {"demo": demo, "slow-exit": sliced, "step-bounded": counted}

    @pytest.mark.parametrize("name", ["demo", "slow-exit", "step-bounded"])
    @pytest.mark.parametrize("faults", [1, 2])
    def test_seeded_corruptions_match_the_reference(self, exports, name,
                                                    faults):
        rng = random.Random(f"{name}-{faults}")
        checked = 0
        for _ in range(300):
            data = json.loads(json.dumps(exports[name]))
            for _ in range(faults):
                corrupt(rng, data)
            message = cx_import_fault(data)
            if message is not None:
                with pytest.raises(ParseError) as err:
                    counterexample_from_dict(data)
                assert str(err.value) == message
                checked += 1
                continue
            # a valid edit: the forest holds the entries, in file order,
            # and verification reports what it finds without raising
            cx = counterexample_from_dict(data)
            assert isinstance(verify_counterexample(cx), list)
            assert [(list(wp.path.states),
                     [cx.action_name(a) for a in wp.path.actions],
                     wp.probability) for wp in cx.paths] == [
                (p["states"], p["actions"], p["probability"])
                for p in data["paths"]]
            assert forest_of(cx.paths) == cx.forest
        assert checked > 200

    def test_round_trip_keeps_the_forest_at_scale(self, slow_exit_cx):
        cx = slow_exit_cx
        again = counterexample_from_json(counterexample_to_json(cx))
        forest, before = again.forest, cx.forest
        for field in ("parents", "states", "leaves", "probabilities"):
            assert getattr(forest, field) == getattr(before, field)
        # the import numbers the actions in sorted order, the model did not
        assert again.action_names == ("back", "done", "go", "stuck")
        assert ([again.action_name(a) if a >= 0 else None
                 for a in forest.actions]
                == [cx.action_name(a) if a >= 0 else None
                    for a in before.actions])
        assert ({s: again.action_name(a)
                 for s, a in again.scheduler.choice.items()}
                == {s: cx.action_name(a)
                    for s, a in cx.scheduler.choice.items()})
        assert counterexample_to_dict(again) == counterexample_to_dict(cx)
        assert forest_of(cx.paths) == before
        assert forest_of(again.paths) == forest
        assert counterexample_from_json(
            counterexample_to_json(again)).forest == forest

    @pytest.mark.parametrize("edit", [
        lambda d: d["labels"].update({"1": "ab"}),
        lambda d: d["labels"].update({"1": ["a", 1]}),
        lambda d: d["labels"].update({" 1": d["labels"].pop("1")}),
        lambda d: d["labels"].update({"+0": d["labels"].pop("0")}),
        lambda d: d["scheduler"].update({" 1": d["scheduler"].pop("1")}),
        lambda d: d["scheduler"].update({"+0": d["scheduler"].pop("0")}),
        lambda d: d["paths"][0].update({"probability": "0.25"}),
        lambda d: d["paths"][0].update({"probability": True}),
        lambda d: d["paths"][0].update({"probability": 10 ** 400}),
        lambda d: d.update({"total_mass": "0.6"}),
        lambda d: d.update({"total_mass": True}),
        lambda d: d.update({"total_mass": 10 ** 400}),
        lambda d: d["paths"][0].update({"actions": [0, 1]}),
        lambda d: d["scheduler"].update({"0": 0}),
        lambda d: d.update({"scheduler": []}),
        lambda d: d.update({"scheduler": 0}),
        lambda d: d.update({"scheduler": False}),
        lambda d: d.update({"scheduler": ""}),
        lambda d: d.update({"scheduler": None}),
        lambda d: d.update({"format_version": True}),
        lambda d: d.update({"format_version": 1.0}),
        lambda d: d["paths"][0].update({"states": [0, -5, 7]}),
        lambda d: d["labels"].update({"-5": ["a"]}),
        lambda d: d.update({"state_names": {"0": "s0", "-5": "s"}}),
        lambda d: d["scheduler"].update({"-5": "alpha0"}),
    ], ids=["labels-string", "labels-number", "label-key-space",
            "label-key-plus", "scheduler-key-space", "scheduler-key-plus",
            "probability-string", "probability-bool", "probability-huge",
            "total-mass-string", "total-mass-bool", "total-mass-huge",
            "actions-numbers", "scheduler-number", "scheduler-list",
            "scheduler-zero", "scheduler-false", "scheduler-empty-string",
            "scheduler-null", "version-true", "version-float",
            "path-state-negative", "label-key-negative",
            "state-name-key-negative", "scheduler-key-negative"])
    def test_ill_typed_fields_rejected(self, edit):
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        edit(data)
        with pytest.raises(ParseError):
            counterexample_from_json(json.dumps(data))

    @pytest.mark.parametrize("field, value", [
        ("threshold", 0.99), ("threshold", "0.5"), ("threshold", True),
        ("comparison", "<"), ("comparison", ">="), ("comparison", None),
    ])
    def test_fields_contradicting_the_property_rejected(self, field, value):
        # the demo trace's property is P<=0.5; the fields once were ignored
        data = json.loads((GOLDEN / "demo.cx.json").read_text())
        data[field] = value
        with pytest.raises(ParseError, match=f"counterexample {field} .* "
                           "disagrees with its property"):
            counterexample_from_json(json.dumps(data))
        del data[field]
        assert counterexample_from_dict(data).spec.threshold == 0.5

    @pytest.mark.parametrize("aid", [-1, 8])
    @pytest.mark.parametrize("owner", ["mdp", "counterexample"])
    def test_action_id_outside_the_table_is_unknown(self, owner, aid):
        # the demo model and its exported trace both name alpha0..alpha7
        named = demo_mdp() if owner == "mdp" else counterexample_from_json(
            (GOLDEN / "demo.cx.json").read_text())
        with pytest.raises(DomainError, match=f"unknown action id {aid}"):
            named.action_name(aid)

    def test_golden_export_still_imports(self):
        cx = counterexample_from_json((GOLDEN / "demo.cx.json").read_text())
        assert cx.paths[0].path.states == (0, 1, 7)
        assert verify_counterexample(cx) == []

    def test_missing_scheduler_tolerated(self):
        data = self.base()
        del data["scheduler"]
        again = counterexample_from_dict(data)
        assert again.scheduler is None


def first_mismatch(a, b) -> int:
    """The length of the common prefix of a and b, item by item."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class TestCommonPrefix:
    """The import's shared-step search against an item-by-item scan."""

    @pytest.mark.parametrize("a, b", [
        ([], []), ([], [1]), (["x"], []),
        ([1, 2, 3], [1, 2, 3]), (["x", "y"], ["x", "y"]),
        ([1, 2], [1, 2, 3, 4]), (["x"], ["x", "y"]),
        ([7, 2, 3, 4], [1, 2, 3, 4]), (["z", "y"], ["x", "y", "w"]),
        ([1, 2, 3, 9, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7]),
        ([1, 2, 3, 9], [1, 2, 3, 4]), ([1, 2, 3, 9], [1, 2, 3, 4, 5, 6]),
        (["x", "y", "z"], ["x", "y", "w", "v"]),
    ], ids=["empty", "one-empty", "other-empty", "equal", "equal-str",
            "proper-prefix", "proper-prefix-str", "mismatch-0",
            "mismatch-0-str", "mismatch-middle", "mismatch-last",
            "mismatch-last-of-shorter", "mismatch-last-str"])
    def test_edge_cases(self, a, b):
        want = first_mismatch(a, b)
        assert counterexample._common_prefix(a, b) == want
        assert counterexample._common_prefix(b, a) == want

    @pytest.mark.parametrize("kind", [int, str])
    def test_seeded_pairs(self, kind):
        rng = random.Random(f"common-prefix/{kind.__name__}")
        lengths = set()
        for _ in range(3000):
            a = [kind(rng.randrange(3)) for _ in range(rng.randrange(60))]
            # b shares a random part of a, then goes its own way
            b = a[:rng.randrange(len(a) + 1)] + [
                kind(rng.randrange(3)) for _ in range(rng.randrange(60))]
            want = first_mismatch(a, b)
            assert counterexample._common_prefix(a, b) == want
            assert counterexample._common_prefix(b, a) == want
            lengths.add((want, min(len(a), len(b)) - want))
        # every distance of the mismatch from the shorter end: 0 (equal
        # or a prefix), 1 (the last item), and the searched ones
        assert {d for _, d in lengths} >= set(range(20))


class TestExportLayout:
    """The export: the fields before the paths indented, then one line per
    path entry, the same JSON value as counterexample_to_dict."""

    @pytest.fixture(scope="class", params=["demo", "csma", "slow-exit"])
    def cx(self, request, slow_exit_cx):
        if request.param == "slow-exit":
            return slow_exit_cx
        return build_mipcx(*bundled_model(request.param))

    @staticmethod
    def empty_cx():
        return Counterexample(PathForest(), 0.0, None, demo_property(), {},
                              (), ap_names=frozenset("abcd"))

    def test_json_value_is_the_dict(self, cx):
        assert json.loads(counterexample_to_json(cx)) == (
            counterexample_to_dict(cx))

    def test_one_line_per_path_entry(self, cx):
        text = counterexample_to_json(cx)
        data = counterexample_to_dict(cx)
        head = {k: v for k, v in data.items() if k != "paths"}
        assert text.startswith(json.dumps(head, indent=2)[:-2] + ",\n")
        lines = text.splitlines()
        start = lines.index('  "paths": [')
        assert lines[-2:] == ["  ]", "}"] and text.endswith("}\n")
        entries = lines[start + 1:-2]
        assert len(entries) == len(cx.forest.leaves)
        assert [json.loads(line.strip().rstrip(",")) for line in entries
                ] == data["paths"]

    def test_zero_paths(self):
        cx = self.empty_cx()
        text = counterexample_to_json(cx)
        assert '  "paths": []' in text.splitlines()
        assert json.loads(text) == counterexample_to_dict(cx)
        again = counterexample_from_json(text)
        assert again.forest == cx.forest and again.spec == cx.spec
        assert verify_counterexample(again) == [
            "counterexample contains no paths",
            "total mass 0.0 does not witness violation of "
            "P<=0.5 [ (a | b) U (c & d) ]"]

    def test_indented_layout_still_reads(self, cx, tmp_path, capsys):
        """A file in the earlier layout, every level indented, imports to
        an equal counterexample and gives the same report."""
        data = counterexample_to_dict(cx)
        reports = []
        for name, text in (("lines", counterexample_to_json(cx)),
                           ("indented", json.dumps(data, indent=2) + "\n")):
            again = counterexample_from_json(text)
            assert again == counterexample_from_dict(data)
            trace = tmp_path / f"{name}.json"
            trace.write_text(text)
            assert main(["diagnose-trace", "--trace", str(trace)]) == 1
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and reports[0].startswith("property:")
