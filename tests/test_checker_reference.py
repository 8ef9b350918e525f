"""The checker against plain versions of its algorithms, bit for bit.

Without a step bound, compute_pmax solves the strongly connected
components of the pending states sinks first: a lone state in closed
form, a small component by graph.solve_small, a larger one by Jacobi
sweeps over its states alone. A step bound k solves the pairs (state,
steps left) that (init, k) reaches: sweep j backs up the pending states
that init reaches in at most k - j steps. A sweep backs up its states by
one generated comprehension per group of states of the same shape.
extract_max_scheduler places states in one backward pass, or, under a
step bound, takes the first maximal action at each pair the witness
reaches. All must give exactly what the references below give:
components found by mutual reachability, the closed form written out,
full Jacobi sweeps state by state over each large component (or over
every guard state, for a step bound, whose vector after j sweeps holds
the value of each pair (s, j)), and the layer-by-layer rescan. A small
component goes through graph.solve_small in both, which test_graph.py
checks against the exhaustive oracle. The references are not
independent oracles (see oracles.py for those) but the definition of the
numbers the faster code must reproduce.
"""

import math
import operator
import random
import re
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from mdpdiag import (DEFAULT_EPSILON, Atom, BudgetError, DomainError, Mdp,
                     PathFormula, PropertySpec, Scheduler, ValueVector,
                     build_mdp, build_mipcx, compute_pmax, eval_state_formula,
                     extract_max_scheduler, parse_explicit_model,
                     parse_program, parse_property, path_probability)
from mdpdiag import checker, graph
from mdpdiag.checker import SCHEDULER_TIE_TOL
from mdpdiag.mdp import content_lines

from fixtures import MODELS, demo_mdp, demo_property, tied_chain
from oracles import label_map

# the benchmark's input generators, read only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

PQ = PathFormula(Atom("p"), Atom("q"))


# -- reference: components, full Jacobi sweeps, the layer-by-layer rescan --


def _sat_sets(m: Mdp, psi: PathFormula):
    labels = label_map(m)
    sat1 = frozenset(s for s in m.states
                     if eval_state_formula(labels, s, psi.left))
    sat2 = frozenset(s for s in m.states
                     if eval_state_formula(labels, s, psi.right))
    return sat1, sat2


def _backward_reach(m: Mdp, sat1, sat2) -> frozenset[int]:
    """States that can reach sat2 while moving through sat1 states only."""
    rev: dict[int, list[int]] = {}
    for (s, aid), dist in m.transition_items():
        if s in sat1 and s not in sat2:
            for t, _ in dist:
                rev.setdefault(t, []).append(s)
    reach = set(sat2)
    stack = list(sat2)
    while stack:
        t = stack.pop()
        for s in rev.get(t, ()):
            if s not in reach:
                reach.add(s)
                stack.append(s)
    return frozenset(reach)


def _backup(m: Mdp, s: int, aid: int, values) -> float:
    # left to right, as sum() adds floats before Python 3.12
    total = 0.0
    for t, p in m.distribution(s, aid):
        total += p * values[t]
    return total


def reference_compute_pmax(m: Mdp, psi: PathFormula,
                           epsilon: float = DEFAULT_EPSILON,
                           max_iterations: int = 1_000_000) -> ValueVector:
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    sat1, sat2 = _sat_sets(m, psi)
    reach = _backward_reach(m, sat1, sat2)
    zero = frozenset(s for s in m.states if s not in reach)
    values = [1.0 if s in sat2 else 0.0 for s in m.states]
    pending = [s for s in m.states if s in reach and s not in sat2]
    iterations = 0
    residuals = [0.0]
    for component in _components_sinks_first(m, pending):
        if len(component) == 1:
            s, = component
            values[s] = min(1.0, max(_closed_form(m, s, aid, values)
                                     for aid in m.enabled_actions(s)
                                     if _self_loop(m, s, aid) < 1.0))
        elif len(component) <= checker.EXACT_SCC_MAX:
            graph.solve_small(component, m.choice_table(), values)
        else:
            residual = math.inf
            while True:
                if iterations >= max_iterations:
                    raise BudgetError(
                        f"value iteration did not reach residual {epsilon} "
                        f"within {max_iterations} sweeps (residual reached: "
                        f"{residual:.6g})", partial=residual)
                iterations += 1
                residual = 0.0
                nxt = list(values)
                for s in component:
                    best = max(_backup(m, s, aid, values)
                               for aid in m.enabled_actions(s))
                    residual = max(residual, abs(best - values[s]))
                    nxt[s] = best
                values = nxt
                if residual < epsilon:
                    break
            residuals.append(residual)
    return ValueVector(values, iterations, max(residuals), psi, sat2, zero)


def reference_bounded_sweeps(m: Mdp, psi: PathFormula) -> list[list[float]]:
    """The values of every state after 0, 1, ... full Jacobi sweeps of the
    guard states, up to psi.bound sweeps or to the last before a sweep
    that changes nothing, which every later sweep would repeat."""
    sat1, sat2 = _sat_sets(m, psi)
    values = [1.0 if s in sat2 else 0.0 for s in m.states]
    out = [values]
    for _ in range(psi.bound):
        nxt = list(values)
        for s in m.states:
            if s not in sat2 and s in sat1:
                nxt[s] = max(_backup(m, s, aid, values)
                             for aid in m.enabled_actions(s))
        if nxt == values:
            break
        out.append(nxt)
        values = nxt
    return out


def reference_depths(m: Mdp, psi: PathFormula) -> dict[int, int]:
    """The fewest steps from init to each state that init reaches within
    psi.bound steps, every state before it a guard state."""
    sat1, sat2 = _sat_sets(m, psi)
    depth = {m.init: 0}
    frontier = [m.init]
    while frontier:
        s = frontier.pop(0)
        if s in sat2 or s not in sat1 or depth[s] >= psi.bound:
            continue
        for aid in m.enabled_actions(s):
            for t, _ in m.distribution(s, aid):
                if t not in depth:
                    depth[t] = depth[s] + 1
                    frontier.append(t)
    return depth


def reference_step_scheduler(m: Mdp, psi: PathFormula,
                             sweeps: list[list[float]]) -> Scheduler:
    """At each pair (s, j) of positive value that the chosen actions reach
    from (init, k), s no target, the first action of maximal backup over
    the vector of j - 1 sweeps."""
    _, sat2 = _sat_sets(m, psi)

    def vector(j):
        return sweeps[min(j, len(sweeps) - 1)]

    choice = {}
    todo = [(m.init, psi.bound)]
    while todo:
        s, j = todo.pop(0)
        if (s, j) in choice or s in sat2 or vector(j)[s] == 0.0:
            continue
        backups = [_backup(m, s, aid, vector(j - 1))
                   for aid in m.enabled_actions(s)]
        aid = m.enabled_actions(s)[backups.index(max(backups))]
        choice[s, j] = aid
        todo += [(t, j - 1) for t, _ in m.distribution(s, aid)]
    return Scheduler(choice, psi.bound)


def _self_loop(m: Mdp, s: int, aid: int) -> float:
    return sum(p for t, p in m.distribution(s, aid) if t == s)


def _closed_form(m: Mdp, s: int, aid: int, values) -> float:
    """The value of s under action aid alone, given the values of its
    other successors: a self-loop p(s, s) < 1 is taken until it is left."""
    total = 0.0
    for t, p in m.distribution(s, aid):
        if t != s:
            total += p * values[t]
    return total / (1.0 - _self_loop(m, s, aid))


def _components_sinks_first(m: Mdp, pending) -> list[list[int]]:
    """The strongly connected components of the steps between pending
    states, by mutual reachability, each after every component it has a
    step into."""
    inside = set(pending)
    succ = {s: {t for aid in m.enabled_actions(s)
                for t, _ in m.distribution(s, aid) if t in inside}
            for s in pending}
    reach = {}
    for s in pending:
        seen, stack = {s}, [s]
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach[s] = seen
    components = []
    for s in pending:
        if not any(s in c for c in components):
            components.append([t for t in pending
                               if t in reach[s] and s in reach[t]])
    ordered = []
    while components:
        done = {s for c in ordered for s in c}
        ready = [c for c in components
                 if all(t in done or t in c for s in c for t in succ[s])]
        ordered += ready
        components = [c for c in components if c not in ready]
    return ordered


def reference_extract_max_scheduler(m: Mdp, vv: ValueVector,
                                    tie_tol: float = SCHEDULER_TIE_TOL
                                    ) -> Scheduler:
    values = vv.values
    choice: dict[int, int] = {}
    for s in vv.target_states | vv.zero_states:
        acts = m.enabled_actions(s)
        if acts:
            choice[s] = acts[0]
    done = set(vv.target_states)
    remaining = [s for s in m.states
                 if s not in done and s not in vv.zero_states]
    while remaining:
        placed = []
        for s in remaining:
            best = max(_backup(m, s, aid, values) for aid in m.enabled_actions(s))
            pick = None
            for aid in m.enabled_actions(s):
                if _backup(m, s, aid, values) < best - tie_tol:
                    continue
                if any(t in done for t, _ in m.distribution(s, aid)):
                    pick = aid
                    break
            if pick is not None:
                choice[s] = pick
                placed.append(s)
        if not placed:
            # No further progress possible; remaining states cannot reach
            # the targets through tied actions, so any maximizer will do.
            for s in remaining:
                ranked = sorted(m.enabled_actions(s),
                                key=lambda aid: (-_backup(m, s, aid, values), aid))
                choice[s] = ranked[0]
            break
        for s in placed:
            done.add(s)
        remaining = [s for s in remaining if s not in done]
    return Scheduler(choice)


# -- models full of value ties ------------------------------------------


def tied_mdp(rng: random.Random, sizes=(2, 10), gaps=False,
             p_without_actions=True) -> Mdp:
    """Random MDP whose states often hold several value-tied actions.

    Besides random actions, a state may get a copy of one of its actions
    (an exact tie, or a near tie when the successors are listed in another
    order) and a value-preserving self-loop. With gaps, some states have
    no action and some actions are left out; a state left without
    actions is labelled `p` alone only if p_without_actions (the bounded
    reference has no value for such a state).
    """
    n = rng.randint(*sizes)
    transitions = {}
    for s in range(n):
        if gaps and rng.random() < 0.1:
            continue
        acts = []
        for a in range(rng.randint(1, 3)):
            if gaps and rng.random() < 0.05:
                continue
            succs = rng.sample(range(n), rng.randint(1, min(4, n)))
            weights = [rng.randint(1, 7) for _ in succs]
            total = sum(weights)
            dist = [(t, w / total) for t, w in zip(succs, weights)]
            transitions[(s, f"a{a}")] = dist
            acts.append(dist)
        if acts and rng.random() < 0.5:
            copy = list(rng.choice(acts))
            if rng.random() < 0.5:
                copy.reverse()
            transitions[(s, "dup")] = copy
        if rng.random() < 0.4:
            transitions[(s, "stay")] = [(s, 1.0)]
    idle = set(range(n)).difference(s for s, _ in transitions)
    labels = {}
    for s in range(n):
        here = set()
        if rng.random() < 0.75:
            here.add("p")
        if rng.random() < 0.25:
            here.add("q")
        if s in idle and here == {"p"} and not p_without_actions:
            here = set()
        if here:
            labels[s] = here
    return Mdp(n, rng.randrange(n), transitions, labels)


def shaped_mdp(rng: random.Random, n: int, layouts) -> Mdp:
    """n `p` states, each with one choice per layout, listing successors
    in the layout's order: `c` a constant one, whose value never changes
    (the `q` goal, an unlabelled dead end, or a `p` trap that reaches no
    goal), `v` a `p` state, `m` a constant one at about half the states
    and a `p` state at the rest. A choice's successors are distinct, so a
    `v` position takes a constant one once the n `p` states are used up
    (at n = 1 and 2). Every state then has the same shape, so each
    position of a choice is one term of one group's kernel."""
    goal, dead, trap = n, n + 1, n + 2
    transitions = {(goal, "done"): [(goal, 1.0)],
                   (dead, "stuck"): [(dead, 1.0)],
                   (trap, "loop"): [(trap, 1.0)]}
    for s in range(n):
        for a, layout in enumerate(layouts):
            consts = rng.sample((goal, dead, trap), 3)
            ps = rng.sample(range(n), min(3, n))
            succs = []
            for kind in layout:
                if kind == "m":
                    kind = rng.choice("cv")
                succs.append(ps.pop() if kind == "v" and ps else consts.pop())
            weights = [rng.randint(1, 7) for _ in succs]
            total = sum(weights)
            transitions[(s, f"a{a}")] = [(t, w / total)
                                         for t, w in zip(succs, weights)]
    labels = {s: {"p"} for s in range(n)}
    labels[goal] = {"q"}
    labels[trap] = {"p"}
    return Mdp(n + 3, 0, transitions, labels)


def wide_then_chain(rng: random.Random, width: int, length: int) -> Mdp:
    """A random region of width `p` states, leaking to a sink, whose only
    way to the `q` goal is a tied chain of length `p` states (see
    tied_chain). Chain state i may also go back to region state i mod
    width, so the chain and most of the region form one strongly
    connected component, which is swept.

    Only one chain state changes per sweep until the values reach the
    region, which then changes at every state; every sweep backs up
    them all."""
    region, chain = list(range(width)), list(range(width, width + length))
    goal, sink = width + length, width + length + 1
    transitions = {(goal, "done"): [(goal, 1.0)],
                   (sink, "stuck"): [(sink, 1.0)]}
    for s in region:
        a, b = rng.sample(region, 2)
        transitions[(s, "a")] = [(a, 0.5), (b, 0.45), (sink, 0.05)]
        if rng.random() < 0.2:
            transitions[(s, "out")] = [(chain[0], 0.3), (a, 0.7)]
    for i, (s, nxt) in enumerate(zip(chain, chain[1:] + [goal])):
        transitions[(s, "stay")] = [(s, 1.0)]
        transitions[(s, "fwd")] = [(nxt, 0.99), (sink, 0.01)]
        transitions[(s, "back")] = [(region[i % width], 1.0)]
    labels = {s: {"p"} for s in region + chain}
    labels[goal] = {"q"}
    return Mdp(width + length + 2, 0, transitions, labels)


@contextmanager
def empty_memo():
    """compute_pmax runs afresh on models it has checked before."""
    with mock.patch.object(checker, "_PMAX_MEMO",
                           weakref.WeakKeyDictionary()):
        yield


def assert_same_pairs(m: Mdp, psi: PathFormula):
    """compute_pmax under a step bound k holds the pairs (s, j) with j at
    most k less the fewest steps to s, each the reference's value at s
    after j sweeps, bit for bit, and its scheduler is the reference's. A
    large bound is checked at the pairs up to the first repeated sweep
    and at the last pair of each state, without the scheduler."""
    k = psi.bound
    sweeps = reference_bounded_sweeps(m, psi)
    depth = reference_depths(m, psi)
    with empty_memo():
        got = compute_pmax(m, psi)
    assert (got.iterations, got.residual) == (k, 0.0)
    assert got.values.bound == k
    if k < 10**4:
        assert set(got.values) == {(s, j) for s, d in depth.items()
                                   for j in range(k - d + 1)}
        assert len(got.values) == sum(k - d + 1 for d in depth.values())
    for s, d in depth.items():
        for j in {*range(min(k - d, len(sweeps)) + 1), k - d}:
            assert got.values[s, j] == sweeps[min(j, len(sweeps) - 1)][s]
        for j in (-1, k - d + 1):
            assert (s, j) not in got.values
    sat1, sat2 = _sat_sets(m, psi)
    swept = {s for s, d in depth.items()
             if s in sat1 - sat2 and m.enabled_actions(s) and d < k}
    assert got.target_states == sat2 & depth.keys()
    assert got.zero_states == depth.keys() - sat2 - swept
    if k < 10**4:
        # a witness counts steps down from k, so a larger bound on a cycle
        # would take about k pairs per state of the cycle
        assert (extract_max_scheduler(m, got)
                == reference_step_scheduler(m, psi, sweeps))


def assert_same(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON):
    if psi.bound is not None:
        return assert_same_pairs(m, psi)
    want = reference_compute_pmax(m, psi, epsilon)
    with empty_memo():
        got = compute_pmax(m, psi, epsilon)
    assert got.values == want.values
    assert got.iterations == want.iterations
    assert got.residual == want.residual
    assert got.target_states == want.target_states
    assert got.zero_states == want.zero_states
    assert (extract_max_scheduler(m, got).choice
            == reference_extract_max_scheduler(m, want).choice)


def assert_same_budget(m: Mdp, cap: int, epsilon: float = 1e-15):
    """compute_pmax runs out of cap sweeps as the reference does, with the
    same message and partial residual."""
    raised = []
    for compute in (reference_compute_pmax, compute_pmax):
        with empty_memo(), pytest.raises(BudgetError) as info:
            compute(m, PQ, epsilon=epsilon, max_iterations=cap)
        raised.append((str(info.value), info.value.partial.hex()))
    assert raised[0] == raised[1]


def shuffled(rng: random.Random, m: Mdp) -> Mdp:
    """m with its state ids permuted at random: the grouped sweeps place
    states by group, so a state's position then differs from its id."""
    perm = list(m.states)
    rng.shuffle(perm)
    transitions = {(perm[s], m.action_names[aid]): [(perm[t], p)
                                                   for t, p in dist]
                   for (s, aid), dist in m.transition_items()}
    labels = {perm[s]: aps for s, aps in label_map(m).items() if aps}
    return Mdp(m.num_states, perm[m.init], transitions, labels)


def sweep_prefixes(m: Mdp, psi: PathFormula,
                   epsilon: float = DEFAULT_EPSILON) -> list[list[float]]:
    """The start values of compute_pmax(m, psi, epsilon) and the values
    after each of its sweeps: _sweep runs again from the start values
    with a budget of 1, 2, ... sweeps until a run stops short of it, and
    a run writes its values back when it ends."""
    prefixes = []
    sweep = checker._sweep

    def recording(choices, values, pending, max_sweeps, epsilon):
        prefixes.append(list(values))
        for k in range(1, max_sweeps + 1):
            after = list(values)
            if sweep(choices, after, pending, k, epsilon)[0] < k:
                break
            prefixes.append(after)
        return sweep(choices, values, pending, max_sweeps, epsilon)

    with empty_memo(), mock.patch.object(checker, "_sweep", recording):
        compute_pmax(m, psi, epsilon)
    return prefixes


def grouped_backups(m: Mdp, psi: PathFormula) -> list[int]:
    """Run compute_pmax(m, psi); return the size of each group that its
    sweeps backed up, in order."""
    sizes = []
    compile_groups = checker._compile_groups

    def counted(kernel):
        # a sweep runs a group's kernel once per backup
        def run(local, rows):
            sizes.append(len(rows))
            return kernel(local, rows)
        return run

    def counting(*args):
        order, local, groups = compile_groups(*args)
        groups = [(counted(kernel), rows) for kernel, rows in groups]
        return order, local, groups

    with empty_memo(), mock.patch.object(checker, "_compile_groups",
                                         counting):
        compute_pmax(m, psi)
    return sizes


class TestMatchesFullSweeps:
    def test_random_tied_models_unbounded(self):
        rng = random.Random(1608)
        for _ in range(300):
            assert_same(tied_mdp(rng), PQ,
                        rng.choice((1e-3, DEFAULT_EPSILON, 1e-9, 1e-12)))

    def test_random_tied_models_bounded(self):
        rng = random.Random(7881)
        for _ in range(200):
            psi = PathFormula(Atom("p"), Atom("q"), bound=rng.randint(0, 12))
            assert_same(tied_mdp(rng), psi)

    def test_long_tied_chain(self):
        m = tied_chain(random.Random(300), 300)
        assert_same(m, PQ)
        vv = compute_pmax(m, PQ)
        sched = extract_max_scheduler(m, vv)
        # every chain state moves on; none settles on its tied self-loop
        assert {sched.action_for(s) for s in m.states
                if s not in vv.target_states | vv.zero_states} == {
                    m.action_id("fwd")}

    def test_tied_chain_bounded(self):
        m = tied_chain(random.Random(301), 60)
        for bound in (0, 1, 30, 59, 60, 61, 200):
            assert_same(m, PathFormula(Atom("p"), Atom("q"), bound=bound))
        # under a step bound, chain state i, i steps from init, is backed
        # up by the n + 1 - i sweeps that leave it steps: one backup per
        # pair (state i, j) with 1 <= j <= n + 1 - i, where whole-model
        # sweeps backed up all n states n + 1 times. Without a bound no
        # sweep runs.
        n = 300
        m = tied_chain(random.Random(303), n)
        psi = PathFormula(Atom("p"), Atom("q"), bound=n + 1)
        assert_same(m, psi)
        assert_same(m, PQ)
        assert compute_pmax(m, psi).iterations == n + 1
        assert compute_pmax(m, PQ).iterations == 0
        assert sum(grouped_backups(m, psi)) == sum(n + 1 - i
                                                   for i in range(n))
        assert grouped_backups(m, PQ) == []

    def test_extraction_on_arbitrary_value_vectors(self):
        # Vectors that no value iteration produces: some states then have
        # no tied path to the targets and take the fallback maximizer.
        rng = random.Random(16087881)
        for _ in range(300):
            m = tied_mdp(rng)
            values = [rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in m.states]
            targets = frozenset(s for s in m.states if values[s] == 1.0)
            zero = frozenset(s for s in m.states
                             if values[s] == 0.0 and rng.random() < 0.5)
            vv = ValueVector(values, 1, 0.0, PQ, targets, zero)
            assert (extract_max_scheduler(m, vv).choice
                    == reference_extract_max_scheduler(m, vv).choice)

    def test_large_models_of_mixed_shapes_unbounded(self):
        rng = random.Random(40200)
        for _ in range(25):
            m = tied_mdp(rng, sizes=(40, 200), gaps=True)
            assert_same(m, PQ, rng.choice((1e-3, DEFAULT_EPSILON, 1e-12)))

    def test_large_models_of_mixed_shapes_bounded(self):
        rng = random.Random(20040)
        for _ in range(25):
            m = tied_mdp(rng, sizes=(40, 200), gaps=True,
                         p_without_actions=False)
            psi = PathFormula(Atom("p"), Atom("q"), bound=rng.randint(0, 12))
            assert_same(m, psi)

    def test_budget_runs_out_at_the_same_sweep(self):
        rng = random.Random(302)
        m = wide_then_chain(rng, 80, 40)
        wide = tied_mdp(rng, sizes=(200, 200), gaps=True)
        for model, caps in ((m, (0, 1, 20, 40)), (wide, (0, 1, 3, 10))):
            for cap in caps:
                assert_same_budget(model, cap)
        # a budget of exactly the sweeps needed suffices, one less not
        need = reference_compute_pmax(m, PQ).iterations
        assert_same_budget(m, need - 1, DEFAULT_EPSILON)
        want = reference_compute_pmax(m, PQ, max_iterations=need)
        with empty_memo():
            got = compute_pmax(m, PQ, max_iterations=need)
        assert got.values == want.values and got.iterations == need


class TestShapedModels:
    """Models whose groups have constant terms (successors that value
    iteration never changes) and mixed ones, and a wide region behind a
    tied chain, whose sweeps change one state at a time before they
    change many."""

    @pytest.mark.parametrize("layouts", [
        ("cvv",), ("vcv",), ("vvc",), ("cvv", "vcv", "vvc"),
        ("vmv",), ("mvv", "vvm"), ("mcm",),
        ("cc", "vvv"), ("c",), ("vv", "c", "cvc")])
    def test_constant_and_mixed_columns(self, layouts):
        rng = random.Random(repr(layouts))
        for n in (1, 2, 5, 45):
            m = shaped_mdp(rng, n, layouts)
            assert_same(m, PQ, rng.choice((1e-3, DEFAULT_EPSILON, 1e-12)))
            for bound in (0, 1, 2, 7):
                assert_same(m, PathFormula(Atom("p"), Atom("q"), bound=bound))

    def test_wide_region_behind_a_tied_chain(self):
        m = wide_then_chain(random.Random(7), 80, 60)
        assert_same(m, PQ)
        assert_same(m, PQ, 1e-12)
        for bound in (1, 59, 61, 75, 200):
            assert_same(m, PathFormula(Atom("p"), Atom("q"), bound=bound))

    def test_budget_runs_out_inside_a_grouped_run(self):
        m = wide_then_chain(random.Random(8), 80, 30)
        # the budget runs out while one chain state changes per sweep, and
        # after the region has moved
        for cap in (1, 33, 40, 60):
            assert_same_budget(m, cap)

    def test_sweep_keeps_every_other_entry(self):
        # a sweep changes only the states of its component: targets stay
        # at 1.0, states that cannot reach one at 0.0, and components
        # solved before at their values; the constant terms are products
        # of these values
        rng = random.Random(4242)
        models = [tied_mdp(rng, sizes=(40, 200), gaps=True)
                  for _ in range(6)]
        models += [shaped_mdp(rng, 45, ("mvc", "cc")),
                   wide_then_chain(rng, 80, 40)]
        sweep = checker._sweep
        seen = []

        def checking(choices, values, pending, max_sweeps, epsilon):
            moving = set(pending)
            fixed = [(s, v.hex()) for s, v in enumerate(values)
                     if s not in moving]
            result = sweep(choices, values, pending, max_sweeps, epsilon)
            assert [(s, values[s].hex()) for s, _ in fixed] == fixed
            seen.append({v for _, v in fixed}
                        - {(0.0).hex(), (1.0).hex()})
            return result

        for m in models:
            with empty_memo(), mock.patch.object(checker, "_sweep", checking):
                compute_pmax(m, PQ)
        # every run sweeps; some sweeps read solved values other than 0, 1.
        # A step bound keeps the values of its pairs instead (see
        # assert_same_pairs) and does not run _sweep
        assert len(seen) >= len(models)
        assert any(seen)


class TestLocalLayout:
    """Sweeps run on a local vector that holds the swept states group
    after group, indexed by position; each sweep reads the vector of the
    sweep before, takes the groups' results in that order as the next one
    and takes its residual from the rises alone."""

    def test_shuffled_state_ids(self):
        rng = random.Random(2705)
        models = [tied_mdp(rng, sizes=(40, 200), gaps=True,
                           p_without_actions=False) for _ in range(8)]
        models += [shaped_mdp(rng, 45, layouts) for layouts in (
            ("mvc", "cc"), ("cvv", "vcv", "vvc"), ("vmv",), ("mcm",))]
        models += [wide_then_chain(rng, 80, 40), tied_chain(rng, 60)]
        for m in models:
            m = shuffled(rng, m)
            assert_same(m, PQ, rng.choice((1e-3, DEFAULT_EPSILON, 1e-12)))
            assert_same(m, PathFormula(Atom("p"), Atom("q"),
                                       bound=rng.randint(1, 12)))

    @pytest.mark.parametrize("bound", [None, 25])
    def test_every_sweep_rises(self, bound):
        # from 0 the sweeps rise toward the least fixed point, as rounded
        # too, which is what lets a sweep take its residual from the rises
        # alone, with no abs; a step bound keeps every sweep's vector
        rng = random.Random(f"rises/{bound}")
        models = [tied_mdp(rng) for _ in range(30)]
        models += [shaped_mdp(rng, n, layouts) for n in (5, 45)
                   for layouts in (("mvc", "cc"), ("vmv",),
                                   ("cvv", "vcv", "vvc"))]
        models += [wide_then_chain(rng, 80, 40)]
        psi = PathFormula(Atom("p"), Atom("q"), bound=bound)
        for m in models:
            if bound is None:
                # sweeps run over large components alone
                prefixes = sweep_prefixes(m, psi)
            else:
                with empty_memo():
                    prefixes = compute_pmax(m, psi).values._sweeps
                # sweep j gives the pairs (s, j), bit for bit
                assert_same_pairs(m, psi)
            for before, after in zip(prefixes, prefixes[1:]):
                assert all(map(operator.ge, after, before))

    def test_bound_past_convergence_stops_at_the_first_still_sweep(self):
        # a run stops at the first sweep that changes nothing, so a bound
        # of 10**18 finishes at once: it keeps the vectors of sweeps 0 to
        # r, for the least r whose reference values at the reached states
        # the next sweep repeats, and a pair of more steps left reads
        # sweep r's
        rng = random.Random(1018)
        path = demo_property().path
        cases = [(demo_mdp(), path.left, path.right),
                 (tied_chain(rng, 60), Atom("p"), Atom("q"))]
        cases += [(tied_mdp(rng, p_without_actions=False), Atom("p"),
                   Atom("q")) for _ in range(20)]
        kept = []
        for m, left, right in cases:
            psi = PathFormula(left, right, bound=10**18)
            assert_same_pairs(m, psi)
            reached = list(reference_depths(m, psi))
            sweeps = reference_bounded_sweeps(m, psi)

            def at(j):
                return [sweeps[min(j, len(sweeps) - 1)][s] for s in reached]

            r = 0
            while at(r) != at(r + 1):
                r += 1
            with empty_memo():
                got = compute_pmax(m, psi)
            assert got.iterations == 10**18 and got.residual == 0.0
            kept.append(len(got.values._sweeps))
            assert kept[-1] == r + 1
        # the chain's values stop changing only after all 60 sweeps
        assert kept[1] == 61


class TestBoundedPairs:
    """A step bound solves the pairs (state, steps left) that init
    reaches, not every state of the model; the benchmark's bounded
    queries keep their values bit for bit."""

    def test_csma_check_solves_45_pairs(self):
        # the check of the csma-elab benchmark: 45 pairs of 21 of the
        # 3,784 states, where whole-model sweeps backed up 3,087 states 4
        # times; one backup per pair of a swept state with steps left
        m, _ = build_mdp(parse_program((MODELS / "csma.pm").read_text()),
                         {"K": 20})
        psi = parse_property('P<=0.7 [ !"gave_up" U<=4 "delivered_all" ]',
                             defined_labels=m.ap_names).path
        with empty_memo():
            vv = compute_pmax(m, psi)
        assert len(vv.values) == 45
        assert len({s for s, _ in vv.values}) == 21
        assert sum(grouped_backups(m, psi)) == 24
        assert vv.values[m.init, 4] == float.fromhex("0x1.47ae147ae147cp-1")
        assert_same_pairs(m, psi)

    @pytest.mark.parametrize("workload, bound", [
        ("random_sparse", 4), ("random_sparse", 40), ("deep_chain", 40),
        ("deep_chain", 301)])
    def test_benchmark_inputs(self, tmp_path, workload, bound):
        tra, lab, _ = getattr(workloads, workload)(str(tmp_path), 4242)
        m = parse_explicit_model(Path(tra).read_text(), Path(lab).read_text())
        assert_same_pairs(m, PathFormula(Atom("ok"), Atom("goal"), bound))


class TestWitnessPathProbabilities:
    """Each path of a counterexample carries, bit for bit, what
    path_probability gives for it on the model: both multiply its step
    probabilities from the first step on, and the witness chain's rows are
    the model's own."""

    def assert_exact(self, m: Mdp, spec: PropertySpec):
        cx = build_mipcx(m, spec)
        assert cx.paths
        for wp in cx.paths:
            assert path_probability(m, wp.path) == wp.probability

    @pytest.mark.parametrize("name, constants", [
        ("csma", {"K": 20}), ("zeroconf", None)])
    def test_bundled_programs(self, name, constants):
        m, _ = build_mdp(parse_program((MODELS / f"{name}.pm").read_text()),
                         constants)
        (_, text), = content_lines((MODELS / f"{name}.props").read_text())
        self.assert_exact(m, parse_property(text, defined_labels=m.ap_names))

    def test_demo(self):
        self.assert_exact(demo_mdp(), demo_property())

    def test_seeded_models(self):
        rng = random.Random(2416)
        models = [tied_mdp(rng) for _ in range(200)]
        models += [shaped_mdp(rng, n, layouts) for n in (1, 2, 5, 45)
                   for layouts in (("cvv", "vcv", "vvc"), ("mcm",),
                                   ("vv", "c", "cvc"))]
        models += [tied_chain(rng, 60), wide_then_chain(rng, 80, 40)]
        built = 0
        for m in models:
            for psi in (PQ, PathFormula(Atom("p"), Atom("q"), bound=7)):
                pmax = compute_pmax(m, psi).values[
                    m.init if psi.bound is None else (m.init, psi.bound)]
                if pmax > 0.0:
                    self.assert_exact(m, PropertySpec(
                        "<=", pmax * rng.choice((0.3, 0.9)), psi))
                    built += 1
        assert built > 200



def kernel_mdp(rng: random.Random, n: int) -> Mdp:
    """n `p` states, each with 1 to 4 choices of 1 to 4 distinct
    successors, drawn from the `p` states and from three whose values
    never change (the `q` goal, an unlabelled dead end and a `p` trap);
    about a fifth of the choices loop back to their state. The shapes of
    the states vary, so the swept states fall into groups of many sizes,
    one state among them."""
    goal, dead, trap = n, n + 1, n + 2
    pool = list(range(n + 3))
    transitions = {(goal, "done"): [(goal, 1.0)],
                   (dead, "stuck"): [(dead, 1.0)],
                   (trap, "loop"): [(trap, 1.0)]}
    for s in range(n):
        for a in range(rng.randint(1, 4)):
            succs = rng.sample(pool, rng.randint(1, 4))
            if s not in succs and rng.random() < 0.2:
                succs[rng.randrange(len(succs))] = s
            weights = [rng.randint(1, 7) for _ in succs]
            total = sum(weights)
            transitions[(s, f"a{a}")] = [(t, w / total)
                                         for t, w in zip(succs, weights)]
    labels = {s: {"p"} for s in range(n)}
    labels[goal] = {"q"}
    labels[trap] = {"p"}
    return Mdp(n + 3, 0, transitions, labels)


def crowded_mdp(rng: random.Random, n: int, choices: int) -> Mdp:
    """A cycle of n `p` states leaking to a `q` goal and a dead end, where
    state 0 has choices more actions of 1 to 4 successors and state 1 one
    more action onto every state of the cycle and the goal."""
    goal, dead = n, n + 1
    transitions = {(goal, "done"): [(goal, 1.0)],
                   (dead, "stuck"): [(dead, 1.0)]}
    for s in range(n):
        transitions[(s, "next")] = [((s + 1) % n, 0.9), (goal, 0.04),
                                    (dead, 0.06)]
    for a in range(choices):
        succs = rng.sample(range(n + 2), rng.randint(1, 4))
        weights = [rng.randint(1, 7) for _ in succs]
        total = sum(weights)
        transitions[(0, f"c{a}")] = [(t, w / total)
                                     for t, w in zip(succs, weights)]
    weights = [rng.randint(1, 7) for _ in range(n + 1)]
    total = sum(weights)
    transitions[(1, "all")] = [(t, w / total)
                               for t, w in enumerate(weights)]
    labels = {s: {"p"} for s in range(n)}
    labels[goal] = {"q"}
    return Mdp(n + 2, 0, transitions, labels)


@contextmanager
def recorded_groups():
    """Yield a list that gets the shapes of the groups compiled inside
    the block, as (choice widths, pending flags, group size)."""
    seen = []
    compile_groups = checker._compile_groups

    def recording(choices, values, pending):
        order, local, groups = compile_groups(choices, values, pending)
        swept = set(pending)
        at = 0
        for _, rows in groups:
            row = choices[order[at]]
            flags = tuple(t in swept for _, dist in row for t, _ in dist)
            seen.append((tuple(len(dist) for _, dist in row), flags,
                         len(rows)))
            at += len(rows)
        return order, local, groups

    with mock.patch.object(checker, "_compile_groups", recording):
        yield seen


def probed_sweeps(m: Mdp, psi: PathFormula, epsilon: float) -> list:
    """Run compute_pmax(m, psi, epsilon); return per run of _sweep the
    sweeps it ran and the set of those that took the residual in full."""
    runs = []
    compile_groups = checker._compile_groups

    def counting(*args):
        order, local, groups = compile_groups(*args)
        kernel, rows = groups[0]
        run = [0, set()]
        runs.append(run)

        def first(local, rows):
            run[0] += 1
            return kernel(local, rows)
        return order, local, [(first, rows), *groups[1:]]

    def counting_map(fn, *iterables):
        if fn is operator.sub:
            runs[-1][1].add(runs[-1][0])
        return map(fn, *iterables)

    with empty_memo(), \
            mock.patch.object(checker, "_compile_groups", counting), \
            mock.patch.object(checker, "map", counting_map, create=True):
        compute_pmax(m, psi, epsilon)
    return [tuple(run) for run in runs]


class TestKernels:
    """Each group of a sweep is backed up by one comprehension generated
    from its shape, and a sweep takes its full residual only when it
    could stop; values, sweep counts, residuals and budget errors stay
    the full Jacobi reference's, bit for bit."""

    def test_seeded_shapes(self):
        rng = random.Random(3311)
        with recorded_groups() as seen:
            for _ in range(40):
                m = kernel_mdp(rng, rng.choice((1, 2, 5, 12, 30, 60)))
                assert_same(m, PQ, rng.choice((1e-3, DEFAULT_EPSILON, 1e-12)))
                for bound in (0, 1, 2, rng.randint(3, 40)):
                    assert_same(m, PathFormula(Atom("p"), Atom("q"),
                                               bound=bound))
        assert {len(widths) for widths, _, _ in seen} == {1, 2, 3, 4}
        assert {w for widths, _, _ in seen for w in widths} == {1, 2, 3, 4}
        assert any(size == 1 for _, _, size in seen)
        assert any(all(flags) for _, flags, _ in seen)
        assert any(not any(flags) for _, flags, _ in seen)
        assert any(len(set(flags)) == 2 for _, flags, _ in seen)

    def test_seeded_shapes_in_short_runs_of_terms(self):
        # a choice's terms are added in runs of SUM_TERMS onto the sum of
        # the runs before, which must add them in the same order
        rng = random.Random(3312)
        for terms in (1, 2, 3):
            with mock.patch.object(checker, "SUM_TERMS", terms):
                for _ in range(10):
                    m = kernel_mdp(rng, rng.choice((12, 30)))
                    assert_same(m, PQ, 1e-12)
                    assert_same(m, PathFormula(Atom("p"), Atom("q"),
                                               bound=rng.randint(1, 20)))

    def test_many_choices_and_wide_choices(self):
        rng = random.Random(3313)
        # 250 choices at state 0, and 301 successors of a choice at
        # state 1, more than SUM_TERMS
        m = crowded_mdp(rng, 300, 250)
        assert len(m.choice_table()[0]) == 251
        assert len(m.choice_table()[1][1][1]) > checker.SUM_TERMS
        assert_same(m, PQ)
        assert_same(m, PQ, 1e-12)
        for bound in (1, 5, 40):
            assert_same(m, PathFormula(Atom("p"), Atom("q"), bound=bound))

    @pytest.mark.parametrize("seed", range(4))
    def test_budget_runs_out_where_the_probe_skips(self, seed):
        rng = random.Random(f"probe/{seed}")
        m = (wide_then_chain(rng, 60, 20) if seed % 2
             else kernel_mdp(rng, 40))
        (swept, full), = probed_sweeps(m, PQ, 1e-9)
        skipped = sorted(set(range(1, swept + 1)) - full)
        # the residual is taken in full on a few sweeps only
        assert len(full) < swept // 2
        caps = {skipped[0], skipped[len(skipped) // 2], skipped[-1]}
        for cap in caps | full - {swept}:
            assert_same_budget(m, cap, 1e-9)
        assert_same(m, PQ, 1e-9)

    def test_step_bound_runs_out_anywhere_in_the_run(self):
        # a step bound ends the run on its last sweep, wherever that falls
        # before the sweeps reach their fixed point
        m = wide_then_chain(random.Random(9), 60, 20)
        psi = PathFormula(Atom("p"), Atom("q"), bound=10**6)
        with empty_memo():
            swept = len(compute_pmax(m, psi).values._sweeps) - 1
        assert swept > 100
        for bound in range(1, swept + 2, swept // 5):
            assert_same(m, PathFormula(Atom("p"), Atom("q"), bound=bound))

    def test_one_source_per_shape_with_no_model_data(self):
        rng = random.Random(3314)
        models = [kernel_mdp(rng, 30) for _ in range(10)]
        models += [shaped_mdp(rng, 45, ("mvc", "cc")) for _ in range(2)]
        models += [crowded_mdp(rng, 150, 30)]
        made = {}
        kernel_source = checker._kernel_source

        def recording(shape):
            made.setdefault(shape, []).append(kernel_source(shape))
            return made[shape][-1]

        with mock.patch.object(checker, "_kernel_source", recording):
            for m in models:
                for psi in (PQ, PathFormula(Atom("p"), Atom("q"), bound=3)):
                    with empty_memo():
                        compute_pmax(m, psi)
        assert any(len(sources) > 1 for sources in made.values())
        words = {"def", "kernel", "L", "R", "return", "for", "in", "if",
                 "else", "x", "y", "s"}
        for sources in made.values():
            assert len(set(sources)) == 1
            tokens = re.findall(r"\w+|\S", sources[0])
            assert {t for t in tokens if t[0].isalnum() or t[0] == "_"
                    if not re.fullmatch(r"v\d+", t)} <= words
            assert set(tokens) - words <= {"(", ")", "[", "]", ":", ",",
                                           "*", "+", ">"} | {
                t for t in tokens if re.fullmatch(r"v\d+", t)}


def summed_extract_max_scheduler(m: Mdp, vv: ValueVector) -> Scheduler:
    """extract_max_scheduler as it was before a state with one enabled
    action skipped its backup: every state's backups are summed."""
    values = vv.values
    choices = m.choice_table()
    choice: dict[int, int] = {}
    for s in vv.target_states | vv.zero_states:
        if choices[s]:
            choice[s] = choices[s][0][0]
    tied_into: dict[int, list[tuple[int, int]]] = {}
    fallback: dict[int, int] = {}
    for s in m.states:
        row = choices[s]
        if not row or s in vv.target_states or s in vv.zero_states:
            continue
        backups = []
        for _, dist in row:
            total = 0.0
            for t, p in dist:
                total += p * values[t]
            backups.append(total)
        best = max(backups)
        fallback[s] = row[backups.index(best)][0]
        for (aid, dist), q in zip(row, backups):
            if q >= best - SCHEDULER_TIE_TOL:
                for t, _ in dist:
                    tied_into.setdefault(t, []).append((s, aid))
    frontier = vv.target_states
    while frontier:
        layer: dict[int, int] = {}
        for t in frontier:
            for s, aid in tied_into.get(t, ()):
                if s not in choice and (s not in layer or aid < layer[s]):
                    layer[s] = aid
        choice.update(layer)
        frontier = layer
    for s, aid in fallback.items():
        choice.setdefault(s, aid)
    return Scheduler(choice)


class TestOneChoiceRows:
    """A state with one enabled action takes it without summing its
    backup; the scheduler is the one that sums every backup."""

    def assert_same_scheduler(self, m: Mdp, vv: ValueVector):
        assert (extract_max_scheduler(m, vv).choice
                == summed_extract_max_scheduler(m, vv).choice)

    @pytest.mark.parametrize("name, constants", [
        ("csma", {"K": 20}), ("zeroconf", None)])
    def test_bundled_programs(self, name, constants):
        m, _ = build_mdp(parse_program((MODELS / f"{name}.pm").read_text()),
                         constants)
        (_, text), = content_lines((MODELS / f"{name}.props").read_text())
        spec = parse_property(text, defined_labels=m.ap_names)
        assert any(len(row) == 1 for row in m.choice_table())
        self.assert_same_scheduler(m, compute_pmax(m, spec.path))

    def test_demo(self):
        m = demo_mdp()
        self.assert_same_scheduler(m, compute_pmax(m, demo_property().path))

    def test_seeded_models(self):
        rng = random.Random(2816)
        models = [tied_mdp(rng, gaps=True) for _ in range(150)]
        models += [kernel_mdp(rng, n) for n in (1, 5, 30, 60)]
        models += [tied_chain(rng, 60), wide_then_chain(rng, 80, 40)]
        for m in models:
            # a step bound sums every backup (see assert_same_pairs)
            self.assert_same_scheduler(m, compute_pmax(m, PQ))
            values = [rng.choice((0.0, 0.5, 1.0)) for _ in m.states]
            vv = ValueVector(values, 1, 0.0, PQ,
                             frozenset(s for s in m.states
                                       if values[s] == 1.0),
                             frozenset())
            self.assert_same_scheduler(m, vv)
