"""Maximal until probabilities and threshold verdicts for MDPs."""

from __future__ import annotations

import math
import weakref
from itertools import chain
from operator import add, itemgetter, mul, sub

from . import graph
from .defaults import DEFAULT_EPSILON
from .errors import BudgetError, DomainError
from .mdp import Mdp, Scheduler, live_states
from .pctl import PathFormula, PropertySpec, fmt_number, until_sets
from .records import record, replace

# Extraction treats one-step backups within this of the best one as tied.
SCHEDULER_TIE_TOL = 1e-9
# An unbounded until solves a strongly connected component of up to this
# many states exactly, and sweeps a larger one (see _value_iteration).
EXACT_SCC_MAX = 8

# model -> {(path formula, epsilon, max_iterations): ValueVector}. An entry
# dies with its model; models are immutable after construction.
_PMAX_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@record
class ValueVector:
    """Per-state maximal until probabilities plus iteration bookkeeping."""

    values: list[float]
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

    Each sweep backs up every group of _compile_groups a column at a
    time, reading the values of the sweep before from its local vector,
    and then writes every group back as a slice. A choice's value is its
    products p * values[t] added left to right, so it does not depend on
    the Python version's sum(), and the first maximal choice wins. From 0
    at every pending state the values rise monotonically toward the least
    fixed point, as rounded too (float rounding is monotone), so the
    residual, the largest change, is the largest rise, new value minus
    old, with no abs. Stops after max_sweeps sweeps, or when the residual
    is 0 or below epsilon; it is inf when no sweep ran. values is written
    once, at the end. Pending states must have at least one choice; no other
    entry of values changes, which the constant columns rely on.
    """
    order, local, groups = _compile_groups(choices, values, pending)
    sweeps = 0
    residual = math.inf
    while sweeps < max_sweeps:
        sweeps += 1
        residual = 0.0
        tops = []
        for lo, hi, table in groups:
            top = None
            for columns in table:
                total = None
                for probs, get in columns:
                    prods = (probs if get is None
                             else map(mul, probs, get(local)))
                    total = (prods if total is None
                             else map(add, total, prods))
                top = (list(total) if top is None
                       else [y if y > x else x for x, y in zip(top, total)])
            residual = max(residual, max(map(sub, top, local[lo:hi])))
            tops.append(top)
        for (lo, hi, _), top in zip(groups, tops):
            local[lo:hi] = top
        if not residual or residual < epsilon:
            break
    for s, v in zip(order, local):
        values[s] = v
    return sweeps, residual


def _compile_groups(choices, values, pending):
    """Pending states grouped by the successor counts of their choices, in
    action order, and by which successor positions lie outside pending;
    returns (order, local, groups).

    order lists the pending states one group after another, and local
    holds their values at the same positions. A group is (lo, hi, table):
    its states are order[lo:hi] and its values local[lo:hi], and table
    holds per choice, per successor position, a column (probs, get) with
    that position's probabilities for every state of the group and a
    getter of their successors' values from local. A column whose
    successors lie outside pending, whose values _sweep never changes, is
    stored as (products, None) instead, multiplied out once. Every getter
    returns a tuple: itemgetter of one index would return the item alone,
    so the last index is repeated, and each map or zip over it stops at
    the group's size.
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
    slot = [None] * len(values)  # state -> its position in local
    for i, s in enumerate(order):
        slot[s] = i
    groups = []
    lo = 0
    for states in by_shape.values():
        rows = [choices[s] for s in states]
        table = []
        for c, (_, first) in enumerate(rows[0]):
            columns = []
            for i, (t, _) in enumerate(first):
                ids, probs = zip(*[row[c][1][i] for row in rows])
                if t in varies:  # and so is every successor in the column
                    at = list(map(slot.__getitem__, ids))
                    columns.append((probs, itemgetter(*at, at[-1])))
                else:
                    fixed = map(values.__getitem__, ids)
                    columns.append((list(map(mul, probs, fixed)), None))
            table.append(columns)
        groups.append((lo, lo + len(states), table))
        lo += len(states)
    return order, local, groups


def compute_pmax(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON,
                 max_iterations: int = 1_000_000) -> ValueVector:
    """Maximal probability of psi from every state, over all schedulers.

    Right-operand states are fixed at one and states that cannot reach one
    through left-operand states at zero. Without a step bound the rest are
    solved one strongly connected component at a time, sinks first (see
    _value_iteration): a lone state and a component of up to
    EXACT_SCC_MAX states exactly, a larger one by value iteration until
    the sup-norm residual drops below epsilon, which must lie strictly
    between 0 and 1. A step bound runs exactly that many backward steps
    over every state instead (the result then is the optimum over
    step-dependent choices).
    Atoms are evaluated against the labels alone: an atom that labels no
    state is false at every state. Whether a name belongs to the model's
    alphabet (m.ap_names) is checked where properties are read, not here.

    A sweep (see _sweep) backs up every swept state, in groups of states
    whose choices have the same successor counts and the same successor
    positions outside the swept states, one successor position at a time,
    with the products of those outside successors, whose values are
    final, multiplied out once. A choice's products p * values[t] are
    added left to right, as sum() did before Python 3.12, and the closed
    forms and the Gaussian elimination are plain float operations, so the
    values are the same on every Python version. A left-operand state that
    reaches no right-operand state, one without enabled actions included,
    keeps 0. Without a step bound, max_iterations, a nonnegative int,
    budgets the sweeps over large components, and iterations counts them
    (0 when every component was solved exactly); running out of them
    raises BudgetError, whose message and partial give the residual
    reached (inf for no sweep). With one, iterations is the bound.

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
    return replace(vv, values=list(vv.values))


def _value_iteration(m: Mdp, psi: PathFormula, epsilon: float,
                     max_iterations: int) -> ValueVector:
    """compute_pmax on a memo miss, with its arguments already checked.

    A step bound runs that many Jacobi sweeps over every pending state,
    or fewer when one changes nothing. Without one, the pending states
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
    targets, guard = until_sets(m.label_map(), m.states, psi)
    choices = m.choice_table()
    preds, live = live_states(choices, guard, targets)
    # every other state keeps its value: 1 at a target, else 0
    pending = [s for s in m.states if s in guard and s in live]
    values = [1.0 if s in targets else 0.0 for s in m.states]

    if psi.bound is not None:
        # epsilon 0: run all psi.bound sweeps, or until nothing changes
        sweeps, residual = _sweep(choices, values, pending, psi.bound, 0.0)
        zero = frozenset(s for s in m.states if values[s] == 0.0)
        return ValueVector(values, psi.bound, residual if sweeps else 0.0,
                           psi, targets, zero)

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

    Each backup is computed once, and the layers come from one backward
    breadth-first pass over the tied actions, so the work is linear in the
    transitions.
    """
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


def check_property(m: Mdp, spec: PropertySpec,
                   epsilon: float = DEFAULT_EPSILON) -> Verdict:
    """Decide an upper-threshold property; extract_max_scheduler takes a
    witness from the verdict's value vector.

    The value vector comes from compute_pmax, memoized per model, path
    formula, epsilon and iteration budget, so build_mipcx on the same model
    and property reuses it; the model must not be mutated in between.
    """
    vv = compute_pmax(m, spec.path, epsilon)
    pmax = vv.values[m.init]
    holds = not mass_exceeds(spec, pmax)
    return Verdict(holds, pmax, spec.threshold, spec.comparison, vv)


def mass_exceeds(spec: PropertySpec, mass: float) -> bool:
    """Does this much path probability witness the property's violation?"""
    if spec.comparison == "<=":
        return mass > spec.threshold
    return mass >= spec.threshold
