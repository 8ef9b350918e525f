"""Maximal until probabilities and threshold verdicts for MDPs."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from itertools import accumulate, chain, compress, repeat
from operator import add, mul, ne, sub

from .errors import BudgetError, DomainError
from .mdp import Mdp, Scheduler, live_states
from .pctl import PathFormula, PropertySpec, until_sets

DEFAULT_EPSILON = 1e-6
# Extraction treats one-step backups within this of the best one as tied.
SCHEDULER_TIE_TOL = 1e-9
# A sweep backs up whole shape groups from this many dirty states on; below
# it the per-state loop is cheaper (see _sweep).
GROUPED_SWEEP_MIN = 32

# model -> {(path formula, epsilon, max_iterations): ValueVector}. An entry
# dies with its model; models are immutable after construction.
_PMAX_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class ValueVector:
    """Per-state maximal until probabilities plus iteration bookkeeping."""

    values: list[float]
    iterations: int
    residual: float
    path: PathFormula
    target_states: frozenset[int]
    zero_states: frozenset[int]


@dataclass
class Verdict:
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
    dirty states); any other state would reproduce its value exactly.
    Stops after max_sweeps, when nothing changes, or when the residual
    (largest change) is below epsilon. The residual is inf when no sweep
    ran. Pending states must have at least one choice.

    A sweep with fewer than GROUPED_SWEEP_MIN dirty states backs them up
    one at a time. A larger one backs up, with list-level operations, every
    shape group (pending states whose choices have the same successor
    counts, in action order) that holds a dirty state; the groups are
    formed once per call. Either way a choice's value is its products
    p * values[t] added left to right, so it does not depend on the Python
    version's sum().
    """
    dirty = pending
    grouped = None
    sweeps = 0
    residual = math.inf
    while sweeps < max_sweeps:
        sweeps += 1
        if len(dirty) >= GROUPED_SWEEP_MIN:
            if grouped is None:
                grouped = _shape_groups(choices, pending)
            changed, best, residual = _grouped_backups(grouped, values, dirty)
        else:
            changed = []
            best = []
            residual = 0.0
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
        if not changed or residual < epsilon:
            break
        dirty = set(chain.from_iterable(map(preds.get, changed, repeat(()))))
    return sweeps, residual


def _shape_groups(choices, pending):
    """Pending states grouped by the successor counts of their choices.

    Each group is (states, targets, probabilities, stride, columns): the
    successors of every state of the group, flattened state after state
    with stride entries per state, and per choice the (first, end) offsets
    of its successors within one state's entries.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for s in pending:
        shape = tuple([len(dist) for _, dist in choices[s]])
        by_shape.setdefault(shape, []).append(s)
    groups = []
    group_of = {}
    for shape, states in by_shape.items():
        targets = []
        probs = []
        for s in states:
            group_of[s] = len(groups)
            for _, dist in choices[s]:
                for t, p in dist:
                    targets.append(t)
                    probs.append(p)
        ends = list(accumulate(shape))
        columns = list(zip([0] + ends, ends))
        groups.append((states, targets, probs, sum(shape), columns))
    return groups, group_of


def _grouped_backups(grouped, values, dirty):
    """Back up every group holding a dirty state; return the states whose
    value changes, their new values and the largest change."""
    groups, group_of = grouped
    changed = []
    best = []
    residual = 0.0
    for g in set(map(group_of.__getitem__, dirty)):
        states, targets, probs, stride, columns = groups[g]
        prods = list(map(mul, probs, map(values.__getitem__, targets)))
        sums = []
        for first, end in columns:
            total = prods[first::stride]
            for i in range(first + 1, end):
                total = list(map(add, total, prods[i::stride]))
            sums.append(total)
        top = list(map(max, *sums)) if len(sums) > 1 else sums[0]
        old = list(map(values.__getitem__, states))
        residual = max(residual, max(map(abs, map(sub, top, old))))
        moved = list(map(ne, top, old))
        changed.extend(compress(states, moved))
        best.extend(compress(top, moved))
    return changed, best, residual


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
    changed value and, once there are GROUPED_SWEEP_MIN or more of them,
    every other state whose choices have the same successor counts as one
    of them, with the same values, iterations and residual as full Jacobi
    sweeps. A choice's products p * values[t] are added left to right, as
    sum() did before Python 3.12, so the values are the same on every
    Python version. A left-operand state that reaches no right-operand
    state, one without enabled actions included, keeps 0. Running out of
    max_iterations sweeps raises BudgetError; its message and partial give
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
