"""Maximal until probabilities and threshold verdicts for MDPs."""

from __future__ import annotations

import math
import weakref
from itertools import chain, compress, repeat
from operator import add, itemgetter, mul, sub

from .defaults import DEFAULT_EPSILON
from .errors import BudgetError, DomainError
from .mdp import Mdp, Scheduler, live_states
from .pctl import PathFormula, PropertySpec, until_sets
from .records import record, replace

# Extraction treats one-step backups within this of the best one as tied.
SCHEDULER_TIE_TOL = 1e-9
# A sweep backs up whole shape groups from this many dirty states on; below
# it the per-state loop is cheaper (see _sweep).
GROUPED_SWEEP_MIN = 32

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
                f"{self.comparison} {self.threshold:.10g}")


def _sweep(choices, preds, values, pending, max_sweeps: int,
           epsilon: float) -> tuple[int, float]:
    """Jacobi sweeps updating values in place; returns (sweeps, residual).

    The first sweep backs up every pending state, a later one at least the
    predecessors of the states that changed value in the sweep before (the
    dirty states); any other state would reproduce its value exactly, so
    the results are those of full Jacobi sweeps, bit for bit. Stops after
    max_sweeps, when nothing changes, or when the residual (largest
    change) is below epsilon. The residual is inf when no sweep ran.
    Pending states must have at least one choice; no other entry of values
    changes, which the constant columns of _compile_groups rely on.

    Fewer than GROUPED_SWEEP_MIN dirty states are backed up one at a time,
    more a column at a time in every group of _compile_groups holding one.
    After a sweep that changes GROUPED_SWEEP_MIN states or more, the next
    backs up every group that feeds a changed group, with no dirty states
    listed. Either way a choice's value is its products p * values[t]
    added left to right, so it does not depend on the Python version's
    sum(), and the first maximal choice wins.

    Grouped sweeps read and write each group as a slice of the local
    vector of _compile_groups; values is written back from it when a run
    of grouped sweeps ends. From 0 at every pending state the values rise
    monotonically toward the least fixed point, as rounded too (float
    rounding is monotone), so a group's rises, new values minus old, are
    never negative: the largest is its part of the residual, with no abs,
    and the nonzero ones mark exactly the states that changed.
    """
    dirty = pending
    hot = groups = None
    sweeps = 0
    residual = math.inf
    while sweeps < max_sweeps:
        sweeps += 1
        changed = []
        residual = 0.0
        if hot is None and len(dirty) < GROUPED_SWEEP_MIN:
            best = []
            for s in dirty:
                top = -math.inf
                for _, dist in choices[s]:
                    total = 0.0
                    for t, p in dist:
                        total += p * values[t]
                    if total > top:
                        top = total
                if top != values[s]:
                    residual = max(residual, abs(top - values[s]))
                    changed.append(s)
                    best.append(top)
            for s, top in zip(changed, best):
                values[s] = top
        else:
            if groups is None:
                order, local, groups, group_of, feeds = _compile_groups(
                    choices, preds, values, pending)
            elif hot is None:
                # per-state sweeps ran since the last grouped one
                local[:len(order)] = map(values.__getitem__, order)
            if hot is None:
                hot = set(map(group_of.__getitem__, dirty))
            moved = []
            for g in hot:
                lo, hi, states, table = groups[g]
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
                rise = list(map(sub, top, local[lo:hi]))
                delta = max(rise)
                if delta:
                    residual = max(residual, delta)
                    moved.append((g, lo, hi, states, top, rise))
            for g, lo, hi, states, top, rise in moved:
                local[lo:hi] = top
                changed.extend(compress(states, rise))
        if not changed or residual < epsilon:
            break
        if len(changed) >= GROUPED_SWEEP_MIN:
            # only a grouped sweep changes that many states
            hot = set().union(*[feeds[g] for g, *_ in moved])
        else:
            if hot is not None:
                _write_back(values, order, local)
                hot = None
            dirty = set(chain.from_iterable(map(preds.get, changed, repeat(()))))
    if hot is not None:
        _write_back(values, order, local)
    return sweeps, residual


def _write_back(values, order, local):
    """values[order[i]] = local[i] for every pending state."""
    for s, v in zip(order, local):
        values[s] = v


def _compile_groups(choices, preds, values, pending):
    """Pending states grouped by the successor counts of their choices, in
    action order; returns (order, local, groups, group_of, feeds).

    order lists the pending states one group after another, and local
    holds their values at the same positions, then one slot per state
    outside pending that a column below reads. A group is (lo, hi,
    states, table): states is order[lo:hi], its values are local[lo:hi],
    and table holds per choice, per successor position, a column (probs,
    get) with that position's probabilities for every state of the group
    and a getter of their successors' values from local. A column whose
    successors all lie outside pending, whose values _sweep never changes,
    is stored as (products, None) instead, multiplied out once, and reads
    no slot. feeds[g] holds the groups with a predecessor of a state of
    group g. Every getter returns a tuple: itemgetter of one index would
    return the item alone, so the last index is repeated, and each map or
    zip over it stops at the group's size.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for s in pending:
        shape = tuple([len(dist) for _, dist in choices[s]])
        by_shape.setdefault(shape, []).append(s)
    order = list(chain.from_iterable(by_shape.values()))
    local = list(map(values.__getitem__, order))
    slot = [None] * len(values)  # state -> its position in local
    for i, s in enumerate(order):
        slot[s] = i
    varies = set(pending)
    groups = []
    group_of = {}
    lo = 0
    for shape, states in by_shape.items():
        group_of.update(dict.fromkeys(states, len(groups)))
        rows = [choices[s] for s in states]
        table = []
        for c, width in enumerate(shape):
            columns = []
            for i in range(width):
                ids, probs = zip(*[row[c][1][i] for row in rows])
                if varies.isdisjoint(ids):
                    fixed = map(values.__getitem__, ids)
                    columns.append((list(map(mul, probs, fixed)), None))
                    continue
                for t in set(ids).difference(varies):
                    if slot[t] is None:
                        slot[t] = len(local)
                        local.append(values[t])
                at = list(map(slot.__getitem__, ids))
                columns.append((probs, itemgetter(*at, at[-1])))
            table.append(columns)
        groups.append((lo, lo + len(states), states, table))
        lo += len(states)
    feeds = [{group_of[p] for s in states for p in preds.get(s, ())}
             for _, _, states, _ in groups]
    return order, local, groups, group_of, feeds


def compute_pmax(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON,
                 max_iterations: int = 1_000_000) -> ValueVector:
    """Maximal probability of psi from every state, over all schedulers.

    Right-operand states are fixed at one and states that cannot reach one
    through left-operand states at zero; the rest converge by value
    iteration until the sup-norm residual drops below epsilon, which must
    lie strictly between 0 and 1. A step bound runs exactly that many
    backward steps instead (the result then is the optimum over
    step-dependent choices).
    Atoms are evaluated against the labels alone: an atom that labels no
    state is false at every state. Whether a name belongs to the model's
    alphabet (m.ap_names) is checked where properties are read, not here.

    Each sweep after the first backs up the states whose successors
    changed value. From GROUPED_SWEEP_MIN of them on, it backs up whole
    groups of states whose choices have the same successor counts, one
    successor position at a time, with the products of successors fixed
    at 0 or 1 multiplied out once, and picks the next groups from the
    groups that changed. Such grouped sweeps run on a vector that holds
    each group's states in one slice, and read and write a group a slice
    at a time. From 0 the values rise monotonically toward the least fixed
    point, as rounded too, so a group's new values minus its old ones give
    its part of the residual and its changed states with no abs. The
    values, iterations and residual are those of
    full Jacobi sweeps, bit for bit. A choice's products p * values[t] are
    added left to right, as sum() did before Python 3.12, so the values
    are the same on every Python version. A left-operand state that
    reaches no right-operand state, one without enabled actions included,
    keeps 0. max_iterations must be a nonnegative int; running out of
    that many sweeps raises BudgetError, whose message and partial give
    the residual reached (inf for no sweep).

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
    """compute_pmax on a memo miss, with its arguments already checked."""
    targets, guard = until_sets(m.label_map(), m.states, psi)
    choices = m.choice_table()
    preds, live = live_states(choices, guard, targets)
    # every other state keeps its value: 1 at a target, else 0
    pending = [s for s in m.states if s in guard and s in live]
    values = [1.0 if s in targets else 0.0 for s in m.states]

    if psi.bound is not None:
        # epsilon 0: run all psi.bound sweeps, or until nothing changes
        sweeps, residual = _sweep(choices, preds, values, pending,
                                  psi.bound, 0.0)
        zero = frozenset(s for s in m.states if values[s] == 0.0)
        return ValueVector(values, psi.bound, residual if sweeps else 0.0,
                           psi, targets, zero)

    zero = frozenset(s for s in m.states if s not in live)
    sweeps, residual = _sweep(choices, preds, values, pending,
                              max_iterations, epsilon)
    if not residual < epsilon:
        raise BudgetError(
            f"value iteration did not reach residual {epsilon} within "
            f"{max_iterations} sweeps (residual reached: {residual:.6g})",
            partial=residual)
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
