"""Strongly connected components, maximal end components and the exact
solver of small components, against definitions checked by brute force
and against the exhaustive oracle."""

import itertools
import math
import random

import pytest

from mdpdiag import (Atom, BudgetError, Mdp, PathFormula, compute_pmax,
                     parse_property)
from mdpdiag import graph
from mdpdiag.checker import EXACT_SCC_MAX

from oracles import exhaustive_pmax, random_mdp

PQ = PathFormula(Atom("p"), Atom("q"))


def reachable(succ, s):
    seen, stack = {s}, [s]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def random_graph(rng):
    n = rng.randint(1, 30)
    nodes = rng.sample(range(100), n)
    return {v: [rng.choice(nodes) for _ in range(rng.randint(0, 3))]
            for v in nodes}


def is_end_component(part, choices):
    """Every state of part has a choice staying in part, and those choices
    connect part strongly."""
    succ = {s: [t for _, dist in choices[s]
                if all(u in part for u, _ in dist) for t, _ in dist]
            for s in part}
    return (all(succ.values())
            and all(reachable(succ, s) == set(part) for s in part))


def component_mdp(rng, n):
    """n `p` states 0..n-1 in one strongly connected component, with a `q`
    goal n and a sink n + 1. A ring of `next` choices, each leaking to the
    sink, connects them. Other choices stay inside, as self-loops or moves
    to one or both ring neighbours, which make end components of one or
    several states, or leave to the goal or the sink, some in part."""
    goal, sink = n, n + 1
    transitions = {(goal, "done"): [(goal, 1.0)],
                   (sink, "stuck"): [(sink, 1.0)]}
    for s in range(n):
        transitions[(s, "next")] = [((s + 1) % n, 0.9), (sink, 0.1)]
        for a in range(rng.randint(0, 2)):
            kind = rng.choice(("loop", "move", "move", "leave"))
            if kind == "loop":
                succs = [s]
            elif kind == "move":
                near = sorted({(s - 1) % n, (s + 1) % n})
                succs = rng.sample(near, rng.randint(1, len(near)))
            else:
                succs = rng.sample(range(n), min(n, rng.randint(1, 2)))
                succs += rng.sample((goal, sink), rng.randint(1, 2))
            weights = [rng.randint(1, 9) for _ in succs]
            transitions[(s, f"{kind}{a}")] = [
                (t, w / sum(weights)) for t, w in zip(succs, weights)]
    # the goal is reachable: some state can leave to it
    leaver = rng.randrange(n)
    transitions[(leaver, "exit")] = [(goal, 0.5), (rng.randrange(n), 0.5)]
    labels = {s: {"p"} for s in range(n)}
    labels[goal] = {"q"}
    return Mdp(n + 2, rng.randrange(n), transitions, labels)


class TestSccs:
    def test_mutual_reachability_sinks_first(self):
        rng = random.Random(1995)
        for _ in range(300):
            succ = random_graph(rng)
            components = list(graph.sccs(succ))
            assert sorted(v for c in components for v in c) == sorted(succ)
            reach = {v: reachable(succ, v) for v in succ}
            done = set()
            for c in components:
                for v in c:
                    assert {w for w in succ if v in reach[w]
                            and w in reach[v]} == set(c)
                    # every other component it reaches came before it
                    assert reach[v] - set(c) <= done
                done |= set(c)

    def test_long_path_needs_no_recursion(self):
        n = 20_000
        succ = {v: [v + 1] for v in range(n - 1)}
        succ[n - 1] = [0]
        assert list(graph.sccs(succ)) == [list(range(n))]
        succ[n - 1] = []
        assert list(graph.sccs(succ)) == [[v] for v in reversed(range(n))]


class TestEndComponents:
    def test_maximal_end_components_by_brute_force(self):
        rng = random.Random(47)
        for _ in range(150):
            m = component_mdp(rng, rng.randint(1, 6))
            states = range(m.num_states - 2)
            choices = m.choice_table()
            ecs = [frozenset(part) for k in range(1, len(states) + 1)
                   for part in itertools.combinations(states, k)
                   if is_end_component(part, choices)]
            maximal = {p for p in ecs if not any(p < q for q in ecs)}
            assert set(graph.end_components(states, choices)) == maximal

    def test_self_loop_alone_is_an_end_component(self):
        m = Mdp(3, 0, {(0, "go"): [(1, 1.0)], (0, "idle"): [(0, 1.0)],
                       (1, "back"): [(0, 0.5), (2, 0.5)],
                       (2, "done"): [(2, 1.0)]},
                labels={0: {"p"}, 1: {"p"}, 2: {"q"}})
        assert graph.end_components([0, 1], m.choice_table()) == [
            frozenset({0})]


class TestSolveSmall:
    def test_matches_exhaustive_oracle_on_components(self):
        # components of 2 to 8 states, with end components to collapse
        rng = random.Random(7881)
        solved = 0
        while solved < 150:
            n = rng.randint(2, EXACT_SCC_MAX)
            m = component_mdp(rng, n)
            choices = m.choice_table()
            if math.prod(len(choices[s]) for s in range(n)) > 2000:
                continue  # keep the oracle's scheduler count small
            inside = {s: [t for _, d in choices[s] for t, _ in d if t < n]
                      for s in range(n)}
            assert [sorted(c) for c in graph.sccs(inside)] == [
                list(range(n))]
            values = [0.0] * n + [1.0, 0.0]
            graph.solve_small(range(n), choices, values)
            got = compute_pmax(m, PQ).values
            assert got == values
            want = exhaustive_pmax(m, set(range(n)), {n})
            assert got[m.init] == pytest.approx(want, abs=1e-12)
            solved += 1

    def test_values_stay_probabilities(self):
        # elimination rounds some values of 1 past it (1.0000000000000009
        # on one of these models), and the solver clamps them
        rng = random.Random(7)
        paths = [parse_property(f"P<=0.3 [ {text} ]").path for text in (
            "(a | b) U (c & d)", "!c U (a & b)", "(a & !d) U (b | c)",
            "!(a & b) U (c | !d)")]
        for i in range(400):
            m = random_mdp(rng, aps=("a", "b", "c", "d"))
            assert all(0.0 <= v <= 1.0
                       for v in compute_pmax(m, paths[i % 4]).values)

    def test_collapsed_cycle_leaves_at_its_rate(self):
        # the hub idles on a self-loop, an end component; once it is
        # collapsed, go and back leave a cycle whose value is 1/2
        q = 2e-3
        m = Mdp(4, 0, {(0, "go"): [(1, 1.0)], (0, "idle"): [(0, 1.0)],
                       (1, "back"): [(0, 1 - 2 * q), (2, q), (3, q)],
                       (2, "done"): [(2, 1.0)], (3, "stuck"): [(3, 1.0)]},
                labels={0: {"p"}, 1: {"p"}, 2: {"q"}})
        vv = compute_pmax(m, PQ)
        assert vv.values[:2] == [pytest.approx(0.5, abs=1e-15)] * 2
        assert vv.iterations == 0

    def test_policy_budget(self, monkeypatch):
        # the first choice of state 0 loses half its mass; the second
        # policy is the optimal one, so one round is too few
        m = Mdp(4, 0, {(0, "half"): [(1, 0.5), (3, 0.5)],
                       (0, "all"): [(1, 1.0)],
                       (1, "back"): [(0, 0.5), (2, 0.5)],
                       (2, "done"): [(2, 1.0)], (3, "stuck"): [(3, 1.0)]},
                labels={0: {"p"}, 1: {"p"}, 2: {"q"}})
        assert compute_pmax(m, PQ).values[:2] == [1.0, 1.0]
        monkeypatch.setattr(graph, "POLICY_ROUNDS", 1)
        with pytest.raises(BudgetError, match="within 1 policies"):
            compute_pmax(m, PQ, epsilon=1e-7)
