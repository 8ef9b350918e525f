"""The checker against its earlier full-sweep algorithms, bit for bit.

compute_pmax backs up only the states whose successors changed value, and
extract_max_scheduler places states in one backward pass. Both must give
exactly what full Jacobi sweeps and the layer-by-layer rescan give. The
reference copies below are those earlier algorithms, kept unchanged apart
from adding each backup's products left to right; they are not
independent oracles (see oracles.py for those) but the definition of the
numbers the faster code must reproduce. Every value-iteration comparison
runs with every sweep grouped, with the shipped size rule, and with no
sweep grouped.
"""

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
from mdpdiag import checker
from mdpdiag.checker import SCHEDULER_TIE_TOL
from mdpdiag.mdp import content_lines

from fixtures import MODELS, demo_mdp, demo_property

PQ = PathFormula(Atom("p"), Atom("q"))
# checker.GROUPED_SWEEP_MIN values: every sweep grouped, the shipped size
# rule, and no sweep grouped
SWEEP_PATHS = (1, checker.GROUPED_SWEEP_MIN, 10**9)


# -- reference: full Jacobi sweeps and the layer-by-layer rescan ----------


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
    while True:
        if iterations >= max_iterations:
            raise BudgetError(
                f"value iteration did not reach residual {epsilon} "
                f"within {max_iterations} sweeps")
        iterations += 1
        residual = 0.0
        nxt = list(values)
        for s in pending:
            best = max(_backup(m, s, aid, values) for aid in m.enabled_actions(s))
            residual = max(residual, abs(best - values[s]))
            nxt[s] = best
        values = nxt
        if residual < epsilon:
            break
    return ValueVector(values, iterations, residual, psi, sat2, zero)


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
    tied_chain).

    Only one chain state changes per sweep until the values reach the
    region, which then changes at every state: under the shipped size
    rule the first sweep is grouped, the next ones run per state, and
    grouped sweeps take over again once the region moves."""
    region, chain = list(range(width)), list(range(width, width + length))
    goal, sink = width + length, width + length + 1
    transitions = {(goal, "done"): [(goal, 1.0)],
                   (sink, "stuck"): [(sink, 1.0)]}
    for s in region:
        a, b = rng.sample(region, 2)
        transitions[(s, "a")] = [(a, 0.5), (b, 0.45), (sink, 0.05)]
        if rng.random() < 0.2:
            transitions[(s, "out")] = [(chain[0], 0.3), (a, 0.7)]
    for s, nxt in zip(chain, chain[1:] + [goal]):
        transitions[(s, "stay")] = [(s, 1.0)]
        transitions[(s, "fwd")] = [(nxt, 0.99), (sink, 0.01)]
    labels = {s: {"p"} for s in region + chain}
    labels[goal] = {"q"}
    return Mdp(width + length + 2, 0, transitions, labels)


@contextmanager
def sweep_path(grouped_min: int):
    """compute_pmax with another grouped-sweep size rule and an empty memo."""
    with mock.patch.object(checker, "GROUPED_SWEEP_MIN", grouped_min), \
            mock.patch.object(checker, "_PMAX_MEMO",
                              weakref.WeakKeyDictionary()):
        yield


def assert_same(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON):
    want = reference_compute_pmax(m, psi, epsilon)
    for grouped_min in SWEEP_PATHS:
        with sweep_path(grouped_min):
            got = compute_pmax(m, psi, epsilon)
        assert got.values == want.values
        assert got.iterations == want.iterations
        assert got.residual == want.residual
        assert got.target_states == want.target_states
        assert got.zero_states == want.zero_states
        assert (extract_max_scheduler(m, got).choice
                == reference_extract_max_scheduler(m, want).choice)


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
    with a budget of 1, 2, ... sweeps until a run stops short of it, so
    each prefix also ends where a grouped run writes values back."""
    prefixes = []
    sweep = checker._sweep

    def recording(choices, preds, values, pending, max_sweeps, epsilon):
        prefixes.append(list(values))
        for k in range(1, max_sweeps + 1):
            after = list(values)
            if sweep(choices, preds, after, pending, k, epsilon)[0] < k:
                break
            prefixes.append(after)
        return sweep(choices, preds, values, pending, max_sweeps, epsilon)

    with mock.patch.object(checker, "_sweep", recording):
        compute_pmax(m, psi, epsilon)
    return prefixes


def grouped_backups(m: Mdp, psi: PathFormula) -> list[int]:
    """Run compute_pmax(m, psi); return the size of each group that its
    grouped sweeps backed up, in order."""
    sizes = []
    compile_groups = checker._compile_groups

    class Table(list):
        # a grouped sweep reads a group's table once per backup
        def __iter__(self):
            sizes.append(self.size)
            return super().__iter__()

    def counting(*args):
        order, local, groups, group_of, feeds = compile_groups(*args)
        for g, (lo, hi, states, table) in enumerate(groups):
            table = Table(table)
            table.size = hi - lo
            groups[g] = (lo, hi, states, table)
        return order, local, groups, group_of, feeds

    with mock.patch.object(checker, "_compile_groups", counting):
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
        m = tied_chain(rng, 40)
        # each of its first ten sweeps has over 80 dirty states
        wide = tied_mdp(rng, sizes=(200, 200), gaps=True)
        for model, caps in ((m, (0, 1, 20, 40)), (wide, (0, 1, 3, 10))):
            for cap in caps:
                with pytest.raises(BudgetError):
                    reference_compute_pmax(model, PQ, epsilon=1e-15,
                                           max_iterations=cap)
                raised = []
                for grouped_min in SWEEP_PATHS:
                    with sweep_path(grouped_min), \
                            pytest.raises(BudgetError) as info:
                        compute_pmax(model, PQ, epsilon=1e-15,
                                     max_iterations=cap)
                    raised.append((str(info.value), info.value.partial))
                assert raised == [raised[-1]] * len(SWEEP_PATHS)
        want = reference_compute_pmax(m, PQ, max_iterations=41)
        for grouped_min in SWEEP_PATHS:
            with sweep_path(grouped_min):
                got = compute_pmax(m, PQ, max_iterations=41)
            assert got.values == want.values and got.iterations == 41


class TestShapedModels:
    """Models whose groups have constant columns (successors that value
    iteration never changes), mixed ones, and sweeps that switch between
    the grouped and the per-state backups."""

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

    def test_grouped_then_per_state_then_grouped(self):
        m = wide_then_chain(random.Random(7), 80, 60)
        assert_same(m, PQ)
        assert_same(m, PQ, 1e-12)
        for bound in (1, 59, 61, 75, 200):
            assert_same(m, PathFormula(Atom("p"), Atom("q"), bound=bound))

    def test_budget_runs_out_inside_a_grouped_run(self):
        m = wide_then_chain(random.Random(8), 80, 30)
        # under the shipped size rule sweep 1 is grouped, sweeps 2 to 32
        # run per state, and every sweep from 33 on is grouped
        for cap in (1, 33, 40, 60):
            with pytest.raises(BudgetError):
                reference_compute_pmax(m, PQ, epsilon=1e-15,
                                       max_iterations=cap)
            raised = []
            for grouped_min in SWEEP_PATHS:
                with sweep_path(grouped_min), \
                        pytest.raises(BudgetError) as info:
                    compute_pmax(m, PQ, epsilon=1e-15, max_iterations=cap)
                raised.append((str(info.value), info.value.partial))
            assert raised == [raised[-1]] * len(SWEEP_PATHS)

    def test_sweep_keeps_every_other_entry(self):
        # targets stay at 1.0 and states that cannot reach one at 0.0:
        # the constant columns hold products of these values
        rng = random.Random(4242)
        models = [tied_mdp(rng, sizes=(40, 200), gaps=True)
                  for _ in range(6)]
        models += [shaped_mdp(rng, 45, ("mvc", "cc")),
                   wide_then_chain(rng, 80, 40)]
        sweep = checker._sweep
        seen = []

        def checking(choices, preds, values, pending, max_sweeps, epsilon):
            moving = set(pending)
            fixed = [(s, v.hex()) for s, v in enumerate(values)
                     if s not in moving]
            assert {v for _, v in fixed} <= {(0.0).hex(), (1.0).hex()}
            result = sweep(choices, preds, values, pending, max_sweeps,
                           epsilon)
            assert [(s, values[s].hex()) for s, _ in fixed] == fixed
            seen.append(len(fixed))
            return result

        for m in models:
            for grouped_min in SWEEP_PATHS:
                for psi in (PQ, PathFormula(Atom("p"), Atom("q"), bound=9)):
                    with sweep_path(grouped_min), \
                            mock.patch.object(checker, "_sweep", checking):
                        compute_pmax(m, psi)
        assert len(seen) == len(models) * len(SWEEP_PATHS) * 2
        assert min(seen) > 0


class TestLocalLayout:
    """Grouped sweeps run on a local vector that holds the pending states
    group after group, indexed by position, then the outside successors
    that mixed columns read; each sweep reads and writes a group as a
    slice and finds the changed states from one list of rises."""

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
        # too, which is what lets a sweep take its residual and its
        # changed states from the rises alone
        rng = random.Random(f"rises/{bound}")
        models = [tied_mdp(rng) for _ in range(30)]
        models += [shaped_mdp(rng, n, layouts) for n in (5, 45)
                   for layouts in (("mvc", "cc"), ("vmv",),
                                   ("cvv", "vcv", "vvc"))]
        models += [wide_then_chain(rng, 80, 40)]
        psi = PathFormula(Atom("p"), Atom("q"), bound=bound)
        for m in models:
            runs = []
            for grouped_min in SWEEP_PATHS:
                with sweep_path(grouped_min):
                    runs.append(sweep_prefixes(m, psi))
            prefixes = runs[0]
            assert runs == [prefixes] * len(SWEEP_PATHS)
            for before, after in zip(prefixes, prefixes[1:]):
                assert all(map(operator.ge, after, before))
            # sweep k gives the k-step reference, bit for bit
            last = len(prefixes) - 1
            for k in {0, min(1, last), min(2, last), last // 2, last}:
                want = reference_compute_pmax(
                    m, PathFormula(Atom("p"), Atom("q"), bound=k))
                assert prefixes[k] == want.values

    def test_long_chain_runs_per_state_after_the_first_sweep(self):
        # the chain is one group of n states, and one of them changes per
        # sweep: the next mode goes by that count, so only the first of
        # the n + 1 sweeps backs up the group; a rule that kept a run
        # grouped while its group moved would back it up n + 1 times
        n = 300
        m = tied_chain(random.Random(303), n)
        for grouped_min, backups in ((checker.GROUPED_SWEEP_MIN, [n]),
                                     (1, [n] * (n + 1)), (10**9, [])):
            with sweep_path(grouped_min):
                assert grouped_backups(m, PQ) == backups
                assert compute_pmax(m, PQ).iterations == n + 1
        assert_same(m, PQ)


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

