"""The checker against plain versions of its algorithms, bit for bit.

Without a step bound, compute_pmax solves the strongly connected
components of the pending states sinks first: a lone state in closed
form, a small component by graph.solve_small, a larger one by Jacobi
sweeps over its states alone. A step bound sweeps every pending state.
A sweep backs up its states a column at a time, in groups of states of
the same shape. extract_max_scheduler places states in one backward
pass. All must give exactly what the references below give: components
found by mutual reachability, the closed form written out, full Jacobi
sweeps state by state over each large component (or over every pending
state, for a step bound), and the layer-by-layer rescan. A small
component goes through graph.solve_small in both, which test_graph.py
checks against the exhaustive oracle. The references are not independent
oracles (see oracles.py for those) but the definition of the numbers the
faster code must reproduce.
"""

import math
import operator
import random
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest

from mdpdiag import (DEFAULT_EPSILON, Atom, BudgetError, DomainError, Mdp,
                     PathFormula, PropertySpec, Scheduler, ValueVector,
                     build_mdp, build_mipcx, compute_pmax, eval_state_formula,
                     extract_max_scheduler, parse_program, parse_property,
                     path_probability)
from mdpdiag import checker, graph
from mdpdiag.checker import SCHEDULER_TIE_TOL
from mdpdiag.mdp import content_lines

from fixtures import MODELS, demo_mdp, demo_property

PQ = PathFormula(Atom("p"), Atom("q"))


# -- reference: components, full Jacobi sweeps, the layer-by-layer rescan --


def _sat_sets(m: Mdp, psi: PathFormula):
    labels = m.label_map()
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

    if psi.bound is not None:
        values = [1.0 if s in sat2 else 0.0 for s in m.states]
        residual = 0.0
        for _ in range(psi.bound):
            nxt = list(values)
            residual = 0.0
            for s in m.states:
                if s in sat2 or s not in sat1:
                    continue
                best = max(_backup(m, s, aid, values)
                           for aid in m.enabled_actions(s))
                residual = max(residual, abs(best - nxt[s]))
                nxt[s] = best
            values = nxt
        zero = frozenset(s for s in m.states if values[s] == 0.0)
        return ValueVector(values, psi.bound, residual, psi, sat2, zero)

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


def tied_chain(rng: random.Random, n: int) -> Mdp:
    """n `p` states in a shuffled chain to a `q` goal: each moves on with
    0.99 (else to a sink) or stays on a self-loop whose value ties."""
    ids = list(range(n + 2))
    rng.shuffle(ids)
    goal, sink = ids[n], ids[n + 1]
    transitions = {}
    for i in range(n):
        s = ids[i]
        nxt = ids[i + 1] if i + 1 < n else goal
        transitions[(s, "stay")] = [(s, 1.0)]
        transitions[(s, "fwd")] = [(nxt, 0.99), (sink, 0.01)]
    transitions[(goal, "done")] = [(goal, 1.0)]
    transitions[(sink, "stuck")] = [(sink, 1.0)]
    labels = {ids[i]: {"p"} for i in range(n)}
    labels[goal] = {"q"}
    return Mdp(n + 2, ids[0], transitions, labels)


def shaped_mdp(rng: random.Random, n: int, layouts) -> Mdp:
    """n `p` states, each with one choice per layout, listing successors
    in the layout's order: `c` a constant one, whose value never changes
    (the `q` goal, an unlabelled dead end, or a `p` trap that reaches no
    goal), `v` a `p` state, `m` a constant one at about half the states
    and a `p` state at the rest. A choice's successors are distinct, so a
    `v` position takes a constant one once the n `p` states are used up
    (at n = 1 and 2). Every state then has the same shape, so each
    position of a choice is one column of one group."""
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


def assert_same(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON):
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
    labels = {perm[s]: aps for s, aps in m.label_map().items() if aps}
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

    class Table(list):
        # a sweep reads a group's table once per backup
        def __iter__(self):
            sizes.append(self.size)
            return super().__iter__()

    def counting(*args):
        order, local, groups = compile_groups(*args)
        for g, (lo, hi, table) in enumerate(groups):
            table = Table(table)
            table.size = hi - lo
            groups[g] = (lo, hi, table)
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
        # under a step bound the chain is swept whole, and one of its n
        # states changes per sweep, so the values stop changing after n
        # sweeps; sweep n + 1 changes nothing and ends the run. Every
        # sweep backs up all n states. Without a bound no sweep runs.
        n = 300
        m = tied_chain(random.Random(303), n)
        psi = PathFormula(Atom("p"), Atom("q"), bound=n + 1)
        assert_same(m, psi)
        assert_same(m, PQ)
        assert compute_pmax(m, psi).iterations == n + 1
        assert compute_pmax(m, PQ).iterations == 0
        assert sum(grouped_backups(m, psi)) == (n + 1) * n
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
    """Models whose groups have constant columns (successors that value
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
        # a sweep changes only the states of its component, or every
        # pending state under a step bound: targets stay at 1.0, states
        # that cannot reach one at 0.0, and components solved before at
        # their values; the constant columns hold products of these values
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
            for psi in (PQ, PathFormula(Atom("p"), Atom("q"), bound=9)):
                with empty_memo(), \
                        mock.patch.object(checker, "_sweep", checking):
                    compute_pmax(m, psi)
        # every run sweeps; some sweeps read solved values other than 0, 1
        assert len(seen) >= len(models) * 2
        assert any(seen)


class TestLocalLayout:
    """Sweeps run on a local vector that holds the swept states group
    after group, indexed by position; each sweep reads and writes a group
    as a slice and takes its residual from the rises alone."""

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
        # alone, with no abs
        rng = random.Random(f"rises/{bound}")
        models = [tied_mdp(rng) for _ in range(30)]
        models += [shaped_mdp(rng, n, layouts) for n in (5, 45)
                   for layouts in (("mvc", "cc"), ("vmv",),
                                   ("cvv", "vcv", "vvc"))]
        models += [wide_then_chain(rng, 80, 40)]
        psi = PathFormula(Atom("p"), Atom("q"), bound=bound)
        for m in models:
            prefixes = sweep_prefixes(m, psi)
            for before, after in zip(prefixes, prefixes[1:]):
                assert all(map(operator.ge, after, before))
            if bound is None:
                # sweeps run over large components alone
                continue
            # sweep k gives the k-step reference, bit for bit
            last = len(prefixes) - 1
            for k in {0, min(1, last), min(2, last), last // 2, last}:
                want = reference_compute_pmax(
                    m, PathFormula(Atom("p"), Atom("q"), bound=k))
                assert prefixes[k] == want.values

    def test_bound_past_convergence_stops_at_the_first_still_sweep(self):
        # a run stops at the first sweep that changes nothing, so a bound
        # of 10**18 finishes at once, with the values of the least bound k
        # whose k-step reference values the (k + 1)-step one repeats, in
        # k + 1 sweeps with residual 0
        rng = random.Random(1018)
        path = demo_property().path
        cases = [(demo_mdp(), path.left, path.right),
                 (tied_chain(rng, 60), Atom("p"), Atom("q"))]
        cases += [(tied_mdp(rng, p_without_actions=False), Atom("p"),
                   Atom("q")) for _ in range(20)]
        sweep = checker._sweep
        ran = []

        def counting(*args):
            ran.append(sweep(*args))
            return ran[-1]

        for m, left, right in cases:
            def reference(k):
                return reference_compute_pmax(
                    m, PathFormula(left, right, bound=k)).values

            hi = 1
            while reference(hi) != reference(hi + 1):
                hi *= 2
            lo = 0  # the least such k lies in [lo, hi]
            while lo < hi:
                mid = (lo + hi) // 2
                if reference(mid) == reference(mid + 1):
                    hi = mid
                else:
                    lo = mid + 1
            psi = PathFormula(left, right, bound=10**18)
            with empty_memo(), mock.patch.object(checker, "_sweep", counting):
                got = compute_pmax(m, psi)
            assert got.values == reference(lo)
            assert got.iterations == 10**18 and got.residual == 0.0
            assert ran[-1] == (lo + 1, 0.0)
        # the chain's values stop changing only after all 60 sweeps
        assert ran[1] == (61, 0.0)


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
                pmax = compute_pmax(m, psi).values[m.init]
                if pmax > 0.0:
                    self.assert_exact(m, PropertySpec(
                        "<=", pmax * rng.choice((0.3, 0.9)), psi))
                    built += 1
        assert built > 200

