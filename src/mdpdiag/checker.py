"""Maximal until probabilities and threshold verdicts for MDPs.

Only upper-threshold properties (P<=p, P<p) are checked directly; a lower
threshold on a path formula is the complement of an upper threshold on the
negated formula and callers are expected to rewrite it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetError, DomainError
from .mdp import Mdp, Scheduler, backward_reachable
from .pctl import PathFormula, PropertySpec, eval_state_formula

DEFAULT_EPSILON = 1e-6
# Extraction treats one-step backups within this of the best one as tied.
SCHEDULER_TIE_TOL = 1e-9


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
    witness: Optional[Scheduler]
    value_vector: ValueVector

    def __str__(self):
        word = "holds" if self.holds else "violated"
        return (f"{word}: Pmax = {self.pmax:.10g} vs "
                f"{self.comparison} {self.threshold:.10g}")


def _sat_sets(m: Mdp, psi: PathFormula):
    labels = m.label_map()
    sat1 = frozenset(s for s in m.states
                     if eval_state_formula(labels, s, psi.left))
    sat2 = frozenset(s for s in m.states
                     if eval_state_formula(labels, s, psi.right))
    return sat1, sat2


def _sweep(choices, preds, values, pending, max_sweeps: int,
           epsilon: float) -> tuple[int, float]:
    """Jacobi sweeps updating values in place; returns (sweeps, residual).

    The first sweep backs up every pending state, a later one only the
    predecessors of the states that changed value in the sweep before; any
    other state would reproduce its value exactly. Stops after max_sweeps,
    when nothing changes, or when the residual (largest change) is below
    epsilon. The residual is inf when no sweep ran.
    """
    dirty = pending
    sweeps = 0
    residual = math.inf
    while sweeps < max_sweeps:
        sweeps += 1
        residual = 0.0
        changed = []
        for s in dirty:
            best = max([sum([p * values[t] for t, p in dist])
                        for _, dist in choices[s]])
            if best != values[s]:
                residual = max(residual, abs(best - values[s]))
                changed.append((s, best))
        for s, best in changed:
            values[s] = best
        if not changed or residual < epsilon:
            break
        dirty = {u for s, _ in changed for u in preds.get(s, ())}
    return sweeps, residual


def compute_pmax(m: Mdp, psi: PathFormula, epsilon: float = DEFAULT_EPSILON,
                 max_iterations: int = 1_000_000) -> ValueVector:
    """Maximal probability of psi from every state, over all schedulers.

    Right-operand states are fixed at one and states that cannot reach one
    through left-operand states at zero; the rest converge by value
    iteration until the sup-norm residual drops below epsilon. A step bound
    runs exactly that many backward steps instead (the result then is the
    optimum over step-dependent choices). Weak until is not supported here.
    Atoms are evaluated against the labels alone: an atom that labels no
    state is false at every state. Whether a name belongs to the model's
    alphabet (m.ap_names) is checked where properties are read, not here.

    Each sweep after the first backs up only the states whose successors
    changed value, with the same values, iterations and residual as full
    Jacobi sweeps. Running out of max_iterations sweeps raises BudgetError;
    its message and partial give the residual reached (inf for no sweep).
    A successor outside the states of an interior state, one validate_mdp
    reports, raises DomainError.
    """
    if psi.op != "U":
        raise DomainError("only until path formulas have a checked maximal "
                          "probability; weak until is not supported")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    sat1, sat2 = _sat_sets(m, psi)
    choices = m.choice_table()
    interior = [s for s in m.states if s in sat1 and s not in sat2]
    preds: dict[int, list[int]] = {}
    n = m.num_states
    for s in interior:
        for _, dist in choices[s]:
            for t, _ in dist:
                if not 0 <= t < n:
                    raise DomainError(f"state {s} has successor {t} outside "
                                      f"the states 0..{n - 1}")
                preds.setdefault(t, []).append(s)
    values = [1.0 if s in sat2 else 0.0 for s in m.states]

    if psi.bound is not None:
        # epsilon 0: run all psi.bound sweeps, or until nothing changes
        sweeps, residual = _sweep(choices, preds, values, interior,
                                  psi.bound, 0.0)
        zero = frozenset(s for s in m.states if values[s] == 0.0)
        return ValueVector(values, psi.bound, residual if sweeps else 0.0,
                           psi, sat2, zero)

    reach = backward_reachable(preds, sat2)
    zero = frozenset(s for s in m.states if s not in reach)
    pending = [s for s in interior if s in reach]
    sweeps, residual = _sweep(choices, preds, values, pending,
                              max_iterations, epsilon)
    if not residual < epsilon:
        raise BudgetError(
            f"value iteration did not reach residual {epsilon} within "
            f"{max_iterations} sweeps (residual reached: {residual:.6g})",
            partial=residual)
    return ValueVector(values, sweeps, residual, psi, sat2, zero)


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
    take their lowest enabled action id.

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
        if s in vv.target_states or s in vv.zero_states:
            continue
        row = choices[s]
        backups = [sum([p * values[t] for t, p in dist]) for _, dist in row]
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
    """Decide an upper-threshold property and, when violated, attach a
    probability-maximizing scheduler as witness."""
    if spec.comparison not in ("<=", "<"):
        raise DomainError(
            f"only upper-threshold comparisons are checked, got "
            f"{spec.comparison!r}; rewrite lower thresholds by complementation")
    vv = compute_pmax(m, spec.path, epsilon)
    pmax = vv.values[m.init]
    if spec.comparison == "<=":
        holds = pmax <= spec.threshold
    else:
        holds = pmax < spec.threshold
    witness = None if holds else extract_max_scheduler(m, vv)
    return Verdict(holds, pmax, spec.threshold, spec.comparison, witness, vv)


def mass_exceeds(spec: PropertySpec, mass: float) -> bool:
    """Does this much path probability witness the property's violation?"""
    if spec.comparison == "<=":
        return mass > spec.threshold
    if spec.comparison == "<":
        return mass >= spec.threshold
    raise DomainError(f"not an upper-threshold comparison: {spec.comparison!r}")
