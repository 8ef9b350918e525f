"""Maximal until probabilities and threshold verdicts for MDPs."""

from __future__ import annotations

import math
import weakref
from itertools import chain, islice
from operator import sub

from . import bounded, graph
from .defaults import DEFAULT_EPSILON
from .errors import BudgetError, DomainError
from .mdp import Mdp, Scheduler, live_states
from .pctl import (PathFormula, PropertySpec, fmt_number, mass_exceeds,
                   until_sets)
from .records import record, replace

# Extraction treats one-step backups within this of the best one as tied.
SCHEDULER_TIE_TOL = 1e-9
# An unbounded until solves a strongly connected component of up to this
# many states exactly, and sweeps a larger one (see _value_iteration).
EXACT_SCC_MAX = 8
# A sweep's kernel adds at most this many terms in one expression: Python's
# compiler recurses once per + of a chain and refuses a few thousand.
SUM_TERMS = 100

# model -> {(path formula, epsilon, max_iterations): ValueVector}. An entry
# dies with its model; models are immutable after construction.
_PMAX_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@record
class ValueVector:
    """Maximal until probabilities plus iteration bookkeeping.

    Without a step bound, values[s] is the value of state s, for every
    state. With bound k, values is a bounded.PairValues, keyed by the pairs
    (state, steps left) within reach of (init, k), and Pmax at init is
    values[init, k]; target_states and zero_states are then the reached
    states fixed at 1 and at 0.
    """

    values: list[float] | bounded.PairValues
    iterations: int
    residual: float
    path: PathFormula
    target_states: frozenset[int]
    zero_states: frozenset[int]


@record
class Verdict:
    """Whether a property holds: Pmax against the threshold, with the
    value vector Pmax was read from."""

    holds: bool
    pmax: float
    threshold: float
    comparison: str
    value_vector: ValueVector

    def __str__(self):
        word = "holds" if self.holds else "violated"
        return (f"{word}: Pmax = {self.pmax:.10g} vs "
                f"{self.comparison} {fmt_number(self.threshold)}")


def _sweep(choices, values, pending, max_sweeps: int,
           epsilon: float) -> tuple[int, float]:
    """Jacobi sweeps over the pending states, updating values in place;
    returns (sweeps, residual).

    Each sweep runs the kernel of every group of _compile_groups over its
    rows, reading the values of the sweep before from the local vector,
    and then takes the groups' results, one after another, as the new
    local vector. A choice's value is its terms added left to right, so it
    does not depend on the Python version's sum(), and the first maximal
    choice wins. From 0 at every pending state the values rise
    monotonically toward the least fixed point, as rounded too (float
    rounding is monotone), so the residual, the largest change, is the
    largest rise, new value minus old, with no abs. Stops after max_sweeps
    sweeps, or when the residual is below epsilon, which is positive; it
    is inf when no sweep ran. The residual is taken in full on the first
    and the last allowed sweep, and on a sweep where the rise of the
    probe, the state of the largest rise at the last full pass, is below
    epsilon: on any other sweep the residual is at least that rise, so
    the sweep cannot stop. values is written once, at the end. Pending
    states must have at least one choice; no other entry of values
    changes, which the rows' constant terms rely on.
    """
    order, local, groups = _compile_groups(choices, values, pending)
    sweeps = 0
    residual = math.inf
    probe = 0
    while sweeps < max_sweeps:
        sweeps += 1
        top = list(chain.from_iterable(
            [kernel(local, rows) for kernel, rows in groups]))
        if 1 < sweeps < max_sweeps:
            rise = top[probe] - local[probe]
            if rise >= epsilon:
                local = top
                continue
        rises = list(map(sub, top, local))
        local = top
        residual = max(rises, default=0.0)
        if residual < epsilon:
            break
        probe = rises.index(residual)
    for s, v in zip(order, local):
        values[s] = v
    return sweeps, residual


def _compile_groups(choices, values, pending):
    """Pending states grouped by the successor counts of their choices, in
    action order, and by which successor positions lie outside pending;
    returns (order, local, groups). values maps every state the rows read
    to its value, as a list indexed by state or a dict.

    order lists the pending states one group after another, each group in
    the order of pending, and local holds their values at the same
    positions. A group is (kernel, rows), with one row per state, in
    order: per choice and per successor position, a successor in pending
    gives its probability and its position in local, and one outside
    pending, whose value _sweep never changes, gives the product of its
    probability and its value, taken once. kernel(local, rows) returns
    the states' backups, in order; it is built from the group's shape
    alone (see _kernel_source).
    """
    varies = set(pending)
    by_shape: dict[tuple[int | bool, ...], list[int]] = {}
    for s in pending:
        shape = []  # per choice its width, then per successor if pending
        for _, dist in choices[s]:
            shape.append(len(dist))
            for t, _ in dist:
                shape.append(t in varies)
        by_shape.setdefault(tuple(shape), []).append(s)
    order = list(chain.from_iterable(by_shape.values()))
    local = list(map(values.__getitem__, order))
    slot = dict(zip(order, range(len(order))))  # state -> its position
    groups = []
    for shape, states in by_shape.items():
        rows = []
        for s in states:
            row = []
            for _, dist in choices[s]:
                for t, p in dist:
                    if t in varies:
                        row += (p, slot[t])
                    else:
                        row.append(p * values[t])
            rows.append(tuple(row))
        namespace = {}
        exec(_kernel_source(shape), namespace)
        groups.append((namespace["kernel"], rows))
    return order, local, groups


def _kernel_source(shape) -> str:
    """One list comprehension over the rows of a group of this shape.

    It unpacks each row into v0, v1, ... A choice's value is its terms,
    vK * L[vK+1] for a successor in pending and vK for one outside, joined
    by +, which Python adds left to right; a choice of more than SUM_TERMS
    successors adds them in runs of SUM_TERMS, each run onto the partial
    sum s of those before, in the same order. Clauses `for x in [...]`,
    which Python compiles to a plain assignment, bind the largest value so
    far to x and the next choice's value to y, and the choices fold as
    (y if y > x else x), so the first maximal choice wins. The clauses
    follow one another rather than nest, so any number of choices
    compiles. The source holds no data of the model.
    """
    names = []
    clauses = []
    fold = None
    flags = iter(shape)
    for width in flags:
        terms = []
        for inside in islice(flags, width):
            k = len(names)
            if inside:
                names += (f"v{k}", f"v{k + 1}")
                terms.append(f"v{k} * L[v{k + 1}]")
            else:
                names.append(f"v{k}")
                terms.append(f"v{k}")
        if fold is not None:
            clauses.append(f"for x in [{fold}]")
        value = " + ".join(terms[:SUM_TERMS])
        for i in range(SUM_TERMS, width, SUM_TERMS):
            clauses.append(f"for s in [{value}]")
            value = " + ".join(["s", *terms[i:i + SUM_TERMS]])
        if fold is None:
            fold = value
        else:
            clauses.append(f"for y in [{value}]")
            fold = "(y if y > x else x)"
    return (f"def kernel(L, R):\n"
            f"    return [{fold} for {', '.join(names)}, in R"
            f"{''.join(' ' + c for c in clauses)}]\n")


def compute_pmax(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON,
                 max_iterations: int = 1_000_000) -> ValueVector:
    """Maximal probability of psi from every state, over all schedulers.

    Right-operand states are fixed at one and states that cannot reach one
    through left-operand states at zero. Without a step bound the rest are
    solved one strongly connected component at a time, sinks first (see
    _value_iteration): a lone state and a component of up to
    EXACT_SCC_MAX states exactly, a larger one by value iteration until
    the sup-norm residual drops below epsilon, which must lie strictly
    between 0 and 1. A step bound k solves the k-step recurrence on the
    pairs (state, steps left) within reach of (init, k) instead (see
    bounded.solve), in time linear in those pairs: the result then is the
    optimum over step-dependent choices, and values holds pairs (see
    ValueVector).
    Atoms are evaluated against the labels alone: an atom that labels no
    state is false at every state. Whether a name belongs to the model's
    alphabet (m.ap_names) is checked where properties are read, not here.

    A sweep (see _sweep) backs up every swept state, in groups of states
    whose choices have the same successor counts and the same successor
    positions outside the swept states, each group by one list
    comprehension generated from that shape, with the products of those
    outside successors, whose values are final, multiplied out once. A
    choice's products p * values[t] are added left to right, as sum()
    did before Python 3.12, and the closed
    forms and the Gaussian elimination are plain float operations, so the
    values are the same on every Python version. A left-operand state that
    reaches no right-operand state, one without enabled actions included,
    keeps 0. Without a step bound, max_iterations, a nonnegative int,
    budgets the sweeps over large components, and iterations counts them
    (0 when every component was solved exactly); running out of them
    raises BudgetError, whose message and partial give the residual
    reached (inf for no sweep). With one, iterations is the bound and
    residual is 0: the values are the recurrence's own.

    Results are memoized per model, path formula, epsilon and
    max_iterations, for as long as the model lives, so the model must not
    be mutated after its first check. Every call returns its own copy of
    the values; errors are not memoized.
    """
    if not 0 < epsilon < 1:
        # a residual never exceeds 1, so epsilon >= 1 stops after one sweep
        raise DomainError(f"epsilon must be positive and finite and below 1, "
                          f"got {epsilon}")
    if type(max_iterations) is not int or max_iterations < 0:
        # bool is an int subclass, and 2.5 would run 3 sweeps
        raise DomainError(f"max_iterations must be a nonnegative int, "
                          f"got {max_iterations!r}")
    key = (psi, epsilon, max_iterations)
    vv = _PMAX_MEMO.get(m, {}).get(key)
    if vv is None:
        vv = _value_iteration(m, psi, epsilon, max_iterations)
        _PMAX_MEMO.setdefault(m, {})[key] = vv
    values = vv.values  # a PairValues is read-only
    return replace(vv, values=list(values) if psi.bound is None else values)


def _value_iteration(m: Mdp, psi: PathFormula, epsilon: float,
                     max_iterations: int) -> ValueVector:
    """compute_pmax on a memo miss, with its arguments already checked.

    A step bound goes to bounded.solve. Without one, the pending states
    are solved one strongly connected component at a time, sinks first
    (topological value iteration: Dai, Mausam, Weld & Goldsmith, JAIR
    2011), so a component reads only final values outside itself:
    - a lone state s in closed form, the largest over its choices with
      p(s, s) < 1 of the sum of p * values[t] over t != s, added left to
      right, divided by 1 - p(s, s), and at most 1 (rounding may pass
      it); a choice that only loops back to s is left out, and with no
      self-loop this is _sweep's backup;
    - a component of up to EXACT_SCC_MAX states by graph.solve_small;
    - a larger one by _sweep over its states alone. Only these sweeps are
      counted in iterations and against max_iterations; the residual is
      the largest of their residuals, 0 when no sweep ran.
    """
    if psi.bound is not None:
        values, targets, zero = bounded.solve(m, psi, _compile_groups)
        return ValueVector(values, psi.bound, 0.0, psi, targets, zero)
    targets, guard = until_sets(m.labels, m.states, psi)
    choices = m.choice_table()
    preds, live = live_states(choices, guard, targets)
    # every other state keeps its value: 1 at a target, else 0
    pending = [s for s in m.states if s in guard and s in live]
    values = [1.0 if s in targets else 0.0 for s in m.states]
    zero = frozenset(s for s in m.states if s not in live)
    # every guard state with a step into a pending state is pending, so
    # preds restricted to pending is the reversed graph, whose components
    # graph.sccs yields sources first
    components = list(graph.sccs({t: preds.get(t, ()) for t in pending}))
    sweeps = 0
    residual = 0.0
    for component in reversed(components):
        if len(component) == 1:
            s = component[0]
            top = 0.0
            for _, dist in choices[s]:
                total = 0.0
                stay = 0.0
                for t, p in dist:
                    if t == s:
                        stay = p
                    else:
                        total += p * values[t]
                if stay < 1.0:
                    total /= 1.0 - stay
                    if total > top:
                        top = total
            values[s] = min(top, 1.0)
        elif len(component) <= EXACT_SCC_MAX:
            graph.solve_small(component, choices, values)
        else:
            done, reached = _sweep(choices, values, component,
                                   max_iterations - sweeps, epsilon)
            sweeps += done
            if not reached < epsilon:
                raise BudgetError(
                    f"value iteration did not reach residual {epsilon} "
                    f"within {max_iterations} sweeps (residual reached: "
                    f"{reached:.6g})", partial=reached)
            residual = max(residual, reached)
    return ValueVector(values, sweeps, residual, psi, targets, zero)


def extract_max_scheduler(m: Mdp, vv: ValueVector) -> Scheduler:
    """Pick one value-maximizing action per state.

    Among actions whose one-step backup ties with the best backup at the
    state (within SCHEDULER_TIE_TOL), the choice is made layer by layer
    outward from the target states so that every chosen action makes
    progress toward them; a bare argmax could otherwise settle on a
    value-preserving self-loop and the induced chain would lose the
    promised probability mass. A state in layer k takes the lowest tied
    action id with a successor in layer k-1. States no layer reaches take
    the lowest action id of maximal backup. Target and zero-value states
    take their lowest enabled action id, and a state without enabled
    actions gets none (induce_dtmc rejects it if it is reachable).

    Each backup is computed once, and none at a state with one enabled
    action, which ties by itself; the layers come from one backward
    breadth-first pass over the tied actions, so the work is linear in the
    transitions.

    A step-bounded vector gets a scheduler that counts steps (see
    bounded.witness).
    """
    if vv.path.bound is not None:
        return bounded.witness(m, vv)
    values = vv.values
    choices = m.choice_table()
    choice: dict[int, int] = {}
    for s in vv.target_states | vv.zero_states:
        if choices[s]:
            choice[s] = choices[s][0][0]
    # successor -> (state, action id) of each tied action leading to it
    tied_into: dict[int, list[tuple[int, int]]] = {}
    fallback: dict[int, int] = {}
    for s in m.states:
        row = choices[s]
        if not row or s in vv.target_states or s in vv.zero_states:
            continue
        if len(row) == 1:
            fallback[s] = row[0][0]
            tied = row  # a lone action ties with itself
        else:
            backups = []
            for _, dist in row:
                total = 0.0
                for t, p in dist:
                    total += p * values[t]
                backups.append(total)
            best = max(backups)
            fallback[s] = row[backups.index(best)][0]
            tied = [c for c, q in zip(row, backups)
                    if q >= best - SCHEDULER_TIE_TOL]
        for aid, dist in tied:
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


def check_property(m: Mdp, spec: PropertySpec,
                   epsilon: float = DEFAULT_EPSILON) -> Verdict:
    """Decide an upper-threshold property; extract_max_scheduler takes a
    witness from the verdict's value vector.

    The value vector comes from compute_pmax, memoized per model, path
    formula, epsilon and iteration budget, so build_mipcx on the same model
    and property reuses it; the model must not be mutated in between.
    """
    vv = compute_pmax(m, spec.path, epsilon)
    bound = spec.path.bound
    pmax = vv.values[m.init if bound is None else (m.init, bound)]
    holds = not mass_exceeds(spec, pmax)
    return Verdict(holds, pmax, spec.threshold, spec.comparison, vv)
