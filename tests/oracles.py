"""Independent reference computations for cross-checking the package.

Everything here deliberately uses different algorithms than the code under
test: exact linear elimination instead of value iteration, exhaustive
scheduler enumeration instead of greedy extraction, depth-first path
listing instead of best-first search, and brute-force label flips instead
of syntactic cause extraction. The flip oracles (is_critical,
responsibility_oracle) and the structural propositions of the diagnosis
(check_prop1, check_prop2) are built on eval_path_formula below and on
the public functions of the package: state formula evaluation, the mass
threshold test and causes.
State mass, transition mass and blame are rescanned here path by path,
as references for the one mass index inside generate_diagnoses, and an
exported counterexample is checked entry by entry, every step of each,
as the reference for the one-pass import into a prefix forest. Keep
this module free of imports from the package internals beyond those
public functions and the mass tolerance of the diagnosis.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Mapping, Optional

import numpy as np

from mdpdiag import (And, Atom, BudgetError, Cause, Counterexample,
                     DomainError, FinitePath, Mdp, Not, Or, PathFormula,
                     WeightedPath, collect_causes, eval_state_formula,
                     mass_exceeds)
from mdpdiag.diagnosis import MASS_EQ_TOL

DEFAULT_ORACLE_VAR_CAP = 20


def dtmc_reach_exact(trans, targets, interior, num_states):
    """Probability of reaching targets through interior, per state.

    trans maps state -> iterable of (successor, probability); exactly one
    distribution per state. Solved as a linear system restricted to the
    states that can actually reach a target, which keeps the matrix
    nonsingular.
    """
    targets = set(targets)
    interior = set(interior) - targets
    rev: dict[int, list[int]] = {}
    for s in interior:
        for t, _ in trans.get(s, ()):
            rev.setdefault(t, []).append(s)
    alive: set[int] = set()
    stack = list(targets)
    while stack:
        t = stack.pop()
        for s in rev.get(t, ()):
            if s not in alive:
                alive.add(s)
                stack.append(s)
    order = sorted(alive)
    idx = {s: i for i, s in enumerate(order)}
    n = len(order)
    mat = np.eye(n)
    rhs = np.zeros(n)
    for s in order:
        for t, p in trans[s]:
            if t in targets:
                rhs[idx[s]] += p
            elif t in idx:
                mat[idx[s], idx[t]] -= p
    sol = np.linalg.solve(mat, rhs) if n else np.zeros(0)
    out = {s: 0.0 for s in range(num_states)}
    for s in targets:
        out[s] = 1.0
    for s in order:
        out[s] = float(sol[idx[s]])
    return out


def exhaustive_pmax(m: Mdp, interior, targets) -> float:
    """Maximal reach probability over every memoryless deterministic
    scheduler; for unbounded until this is the optimum over all schedulers."""
    states = list(m.states)
    enabled = [m.enabled_actions(s) for s in states]
    best = 0.0
    for combo in itertools.product(*enabled):
        trans = {s: m.distribution(s, combo[i]) for i, s in enumerate(states)}
        vals = dtmc_reach_exact(trans, targets, interior, m.num_states)
        best = max(best, vals[m.init])
    return best


def bounded_pmax_exact(m: Mdp, interior, targets, bound: int):
    """Step-indexed dynamic program maximizing per step; the true optimum
    for bounded until, which may beat every memoryless scheduler."""
    prev = [1.0 if s in targets else 0.0 for s in m.states]
    for _ in range(bound):
        cur = list(prev)
        for s in m.states:
            if s in targets or s not in interior:
                continue
            cur[s] = max(sum(p * prev[t] for t, p in m.distribution(s, aid))
                         for aid in m.enabled_actions(s))
        prev = cur
    return prev


def list_satisfying_paths(trans, init, interior, targets, max_len):
    """Every path from init to its first target with interior states
    before, up to max_len transitions, by exhaustive depth-first walk."""
    out = []

    def walk(states, prob):
        s = states[-1]
        if s in targets:
            out.append((tuple(states), prob))
            return
        if s not in interior or len(states) - 1 >= max_len:
            return
        for t, p in trans.get(s, ()):
            walk(states + [t], prob * p)

    if init in targets:
        return [((init,), 1.0)]
    walk([init], 1.0)
    return out


def prefix_paths(stream) -> list[WeightedPath]:
    """The (prefix, probability) pairs of enumerate_satisfying_paths as
    flat paths, each spelled by walking its prefix's parent links back to
    the start (not through PathForest.flatten)."""
    out = []
    for prefix, prob in stream:
        states, actions = [prefix.state], []
        while prefix.parent is not None:
            actions.append(prefix.action)
            prefix = prefix.parent
            states.append(prefix.state)
        out.append(WeightedPath(FinitePath(tuple(reversed(states)),
                                           tuple(reversed(actions))), prob))
    return out


def random_mdp(rng: random.Random, max_states=6, max_actions=2,
               aps=("p", "q")) -> Mdp:
    """Small arbitrary MDP: random branching, cycles allowed, random labels."""
    n = rng.randint(2, max_states)
    transitions = {}
    for s in range(n):
        for a in range(rng.randint(1, max_actions)):
            k = rng.randint(1, min(3, n))
            succs = rng.sample(range(n), k)
            weights = [rng.randint(1, 5) for _ in succs]
            total = sum(weights)
            transitions[(s, f"act{a}")] = [(t, w / total)
                                           for t, w in zip(succs, weights)]
    labels = {}
    for s in range(n):
        here = {ap for ap in aps if rng.random() < 0.5}
        if here:
            labels[s] = here
    return Mdp(n, 0, transitions, labels)


def random_layered_mdp(rng: random.Random, max_layers=3, max_width=2,
                       max_actions=3) -> Mdp:
    """Loop-free MDP: a layered DAG draining into two absorbing sinks.

    Transitions only go one layer forward or to a sink, so no finite path
    revisits a state. Every non-sink state carries the guard label, the
    good sink carries the target label.
    """
    layers = [[0]]
    next_id = 1
    for _ in range(rng.randint(1, max_layers)):
        width = rng.randint(1, max_width)
        layers.append(list(range(next_id, next_id + width)))
        next_id += width
    goal, dead = next_id, next_id + 1
    transitions = {}
    for i, layer in enumerate(layers):
        pool = (layers[i + 1] if i + 1 < len(layers) else []) + [goal, dead]
        for s in layer:
            for a in range(rng.randint(1, max_actions)):
                k = rng.randint(1, len(pool))
                succs = rng.sample(pool, k)
                weights = [rng.randint(1, 4) for _ in succs]
                total = sum(weights)
                transitions[(s, f"act{a}")] = [(t, w / total)
                                               for t, w in zip(succs, weights)]
    transitions[(goal, "stay")] = [(goal, 1.0)]
    transitions[(dead, "stay")] = [(dead, 1.0)]
    labels = {s: {"live"} for layer in layers for s in layer}
    labels[goal] = {"goal"}
    return Mdp(next_id + 2, 0, transitions, labels)


def star_mdp(branches: int) -> Mdp:
    """One fan-out state, `branches` middle states, one goal sink each.

    All satisfying paths have length two and probability 1/branches, so
    counterexample size scales exactly with `branches`.
    """
    transitions = {(0, "split"): [(1 + i, 1.0 / branches)
                                  for i in range(branches)]}
    labels = {}
    for i in range(branches):
        mid = 1 + i
        goal = 1 + branches + i
        transitions[(mid, "go")] = [(goal, 1.0)]
        transitions[(goal, "stay")] = [(goal, 1.0)]
        labels[goal] = {"goal"}
    return Mdp(1 + 2 * branches, 0, transitions, labels)


# -- label-flip oracles ------------------------------------------------------


def atoms_of(phi) -> frozenset[str]:
    """The atoms a state formula names."""
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    if isinstance(phi, Not):
        return atoms_of(phi.child)
    if isinstance(phi, (And, Or)):
        return atoms_of(phi.left) | atoms_of(phi.right)
    return frozenset()


def path_atoms(psi: PathFormula) -> frozenset[str]:
    """The atoms an until formula names."""
    return atoms_of(psi.left) | atoms_of(psi.right)


def eval_path_formula(labels: Mapping[int, frozenset[str]],
                      states: tuple[int, ...], psi: PathFormula) -> bool:
    """Does psi hold on a finite state sequence? Until holds iff some
    position within the bound satisfies the right operand with all
    earlier positions satisfying the left one."""
    limit = len(states) - 1
    if psi.bound is not None:
        limit = min(limit, psi.bound)
    for j in range(limit + 1):
        if eval_state_formula(labels, states[j], psi.right):
            return True
        if not eval_state_formula(labels, states[j], psi.left):
            return False
    return False


def _flip_labels(labels: Mapping[int, frozenset[str]], s: int,
                 aps: set[str]) -> dict[int, frozenset[str]]:
    out = dict(labels)
    out[s] = frozenset(set(out.get(s, frozenset())) ^ aps)
    return out


def _satisfying_mass(cx: Counterexample,
                     labels: Mapping[int, frozenset[str]]) -> float:
    return sum(wp.probability for wp in cx.paths
               if eval_path_formula(labels, wp.path.states, cx.spec.path))


def _check_literal(cx: Counterexample, s: int, literal: tuple[str, bool]):
    ap, value = literal
    actual = ap in cx.labels.get(s, frozenset())
    if actual != value:
        raise DomainError(f"literal {ap if value else '!' + ap} does not "
                          f"describe state {s}")


def is_critical(cx: Counterexample, s: int, literal: tuple[str, bool]) -> bool:
    """Does flipping the literal at every occurrence of s invalidate cx?

    The flip is applied to the state's labelling, every path is re-judged
    under full finite until semantics (a flip may create an earlier target
    state, which still counts as satisfaction), and the counterexample is
    invalid once the still-satisfying mass no longer witnesses the
    violation.
    """
    _check_literal(cx, s, literal)
    flipped = _flip_labels(cx.labels, s, {literal[0]})
    return not mass_exceeds(cx.spec, _satisfying_mass(cx, flipped))


def responsibility_oracle(cx: Counterexample, s: int,
                          literal: tuple[str, bool],
                          var_cap: int = DEFAULT_ORACLE_VAR_CAP
                          ) -> Optional[float]:
    """Semantic degree of responsibility of the literal at s, or None.

    Searches subsets W of the property's other propositions in increasing
    size; the degree is 1/(|W|+1) for the smallest W whose flip at s leaves
    the counterexample valid while the additional flip of the literal
    invalidates it. Exponential in the alphabet, hence the var_cap guard.
    """
    _check_literal(cx, s, literal)
    ap = literal[0]
    alphabet = sorted(path_atoms(cx.spec.path))
    if len(alphabet) > var_cap:
        raise BudgetError(f"oracle alphabet has {len(alphabet)} propositions, "
                          f"cap is {var_cap}")
    others = [a for a in alphabet if a != ap]
    for size in range(len(others) + 1):
        for group in itertools.combinations(others, size):
            world = _flip_labels(cx.labels, s, set(group))
            if not mass_exceeds(cx.spec, _satisfying_mass(cx, world)):
                continue  # these flips alone already invalidate
            beyond = _flip_labels(world, s, {ap})
            if not mass_exceeds(cx.spec, _satisfying_mass(cx, beyond)):
                return 1.0 / (size + 1)
    return None

# -- masses and blame by rescanning the paths ---------------------------------


def state_mass(cx: Counterexample, s: int) -> float:
    """Probability mass of the counterexample paths that visit s."""
    return sum(wp.probability for wp in cx.paths if s in wp.path.states)


def transition_mass(cx: Counterexample, s: int, aid: int, t: int) -> float:
    """Mass of the paths taking the step s -aid-> t at least once."""
    total = 0.0
    for wp in cx.paths:
        for _, u, a, v in wp.path.steps():
            if u == s and a == aid and v == t:
                total += wp.probability
                break
    return total


def blame(cx: Counterexample, s: int, aid: int,
          causes: Mapping[tuple[int, str, bool], Cause]) -> float:
    """Degree of blame of action aid at state s within cx.

    Sums, over the action's successors inside the counterexample, the
    highest cause responsibility at the successor times the mass of the
    paths crossing that transition. Successors without causes contribute
    nothing.
    """
    best: dict[int, float] = {}
    for (state, _, _), cause in causes.items():
        if cause.dr > best.get(state, 0.0):
            best[state] = cause.dr
    total = 0.0
    for t in sorted({v for wp in cx.paths for _, u, a, v in wp.path.steps()
                     if u == s and a == aid}):
        total += best.get(t, 0.0) * transition_mass(cx, s, aid, t)
    return total


# -- structural propositions -------------------------------------------------


def check_prop1(cx: Counterexample, s: int, aid: int, t: int) -> bool:
    """Transition mass equals state mass exactly when t is the only
    successor of s inside the counterexample. Returns whether that
    biconditional holds on this instance."""
    tm = transition_mass(cx, s, aid, t)
    sm = state_mass(cx, s)
    equal = abs(tm - sm) <= MASS_EQ_TOL
    successors = {v for wp in cx.paths for _, u, a, v in wp.path.steps()
                  if u == s and a == aid}
    unique = successors == {t}
    return equal == unique


def check_prop2(cx: Counterexample, s: int, aid: int) -> bool:
    """Blame equals the total counterexample mass exactly when every path
    crosses this action into a state holding a full-responsibility cause.
    Returns whether that biconditional holds on this instance."""
    causes = collect_causes(cx)
    best: dict[int, float] = {}
    for (state, _, _), cause in causes.items():
        if cause.dr > best.get(state, 0.0):
            best[state] = cause.dr
    db = blame(cx, s, aid, causes)
    equal = abs(db - cx.total_mass) <= MASS_EQ_TOL
    covered = all(
        any(u == s and a == aid and best.get(v, 0.0) == 1.0
            for _, u, a, v in wp.path.steps())
        for wp in cx.paths)
    return equal == covered


def _is_number(x) -> bool:
    """A JSON number that converts to a float (10 ** 400 does not)."""
    if type(x) not in (int, float):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def cx_import_fault(data: dict) -> Optional[str]:
    """The error text that importing an exported counterexample must give
    for its first fault past the fields before "paths", which are taken to
    be valid; None for no fault. Each path entry is checked in full, in
    file order, sharing nothing with the entries before it: its fields and
    types, its length, then every step. Then the scheduler's shape and
    ids, total_mass, and labels or state_names off the paths."""
    on_paths: set[int] = set()
    for i, entry in enumerate(data["paths"]):
        if not (isinstance(entry, dict)
                and {"states", "actions", "probability"} <= entry.keys()):
            return f"malformed path entry {i}"
        states, actions = entry["states"], entry["actions"]
        if not (isinstance(states, list) and isinstance(actions, list)
                and all(type(s) is int for s in states)
                and _is_number(entry["probability"])):
            return f"malformed path entry {i}"
        if not states:
            return f"path entry {i}: a path needs at least one state"
        if len(actions) != len(states) - 1:
            return (f"path entry {i}: {len(states)} states need "
                    f"{len(states) - 1} actions, got {len(actions)}")
        if (any(type(a) is not str for a in actions)
                or any(s < 0 for s in states)):
            return f"malformed path entry {i}"
        on_paths.update(states)
    sched = data.get("scheduler", {})
    if not (isinstance(sched, dict)
            and all(type(a) is str for a in sched.values())):
        return "counterexample scheduler must map states to labels"
    if not all(re.fullmatch("0|[1-9][0-9]*", k) for k in sched):
        return "malformed scheduler mapping"
    if "total_mass" not in data:
        return "counterexample JSON is missing 'total_mass'"
    if not _is_number(data["total_mass"]):
        return "total_mass must be a number"
    for key in ("labels", "state_names"):
        off = sorted(int(k) for k in data.get(key, ())
                     if int(k) not in on_paths)
        if off:
            return (f"counterexample {key} name state {off[0]}, which lies "
                    "on no path")
    return None
