"""Answers the benchmark checks `mdpdiag` against, computed without it.

Nothing here imports `mdpdiag.checker` or `mdpdiag.path_probability`:
maximal until probabilities come from a linear program (or a closed
form, kept with the workload that has one), and counterexample paths
are re-scored from the model itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# A reported path probability may differ from the re-scored product by
# this relative amount (the two multiply the same factors, maybe in
# another order).
PATH_PROB_RTOL = 1e-9
# Gathered mass may exceed the reference Pmax by this much; value
# iteration can stop a little short, never a lot above.
MASS_ABOVE_PMAX_TOL = 1e-6


@dataclass
class Model:
    """An explicit MDP: (state, action name) -> [(successor, probability)]."""

    num_states: int
    init: int
    trans: dict[tuple[int, str], list[tuple[int, float]]]
    labels: dict[int, frozenset[str]]

    def labels_of(self, s: int) -> frozenset[str]:
        return self.labels.get(s, frozenset())


@dataclass(frozen=True)
class Until:
    """`phi1 U phi2` with its operands as predicates on label sets."""

    phi1: Callable[[frozenset[str]], bool]
    phi2: Callable[[frozenset[str]], bool]


def _lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_explicit(tra_text: str, lab_text: str) -> Model:
    """Read the `.tra`/`.lab` text the benchmark generates."""
    lines = list(_lines(tra_text))
    num_states = int(lines[0].split()[1])
    init = int(lines[1].split()[1])
    trans: dict[tuple[int, str], list[tuple[int, float]]] = {}
    for line in lines[2:]:
        s, act, t, p = line.split()
        trans.setdefault((int(s), act), []).append((int(t), float(p)))
    labels = {}
    for line in _lines(lab_text):
        head, _, rest = line.partition(":")
        labels[int(head)] = frozenset(rest.split())
    return Model(num_states, init, trans, labels)


def _sat(m: Model, until: Until):
    sat1 = [until.phi1(m.labels_of(s)) for s in range(m.num_states)]
    sat2 = [until.phi2(m.labels_of(s)) for s in range(m.num_states)]
    return sat1, sat2


def prob0(m: Model, until: Until) -> list[bool]:
    """States from which no scheduler reaches phi2 through phi1 states."""
    sat1, sat2 = _sat(m, until)
    rev: dict[int, set[int]] = {}
    for (s, _), dist in m.trans.items():
        if sat1[s] and not sat2[s]:
            for t, _ in dist:
                rev.setdefault(t, set()).add(s)
    reach = [bool(x) for x in sat2]
    stack = [s for s in range(m.num_states) if sat2[s]]
    while stack:
        for s in rev.get(stack.pop(), ()):
            if not reach[s]:
                reach[s] = True
                stack.append(s)
    return [not r for r in reach]


def pmax_lp(m: Model, until: Until) -> float:
    """Maximal probability of an unbounded until, as the least fixed point
    of the Bellman inequalities: minimise sum(x) subject to
    x[s] >= sum_t P(s, a, t) x[t] for every action a of every undecided
    state s (Baier & Katoen, Principles of Model Checking, Thm. 10.100).
    Prob0 states are fixed at 0 first, which makes the solution unique.
    """
    # imported here: run.py must stay small until it has started its
    # spawner (see spawner.py)
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    sat1, sat2 = _sat(m, until)
    zero = prob0(m, until)
    if sat2[m.init]:
        return 1.0
    if zero[m.init]:
        return 0.0
    maybe = [s for s in range(m.num_states) if not zero[s] and not sat2[s]]
    col = {s: i for i, s in enumerate(maybe)}
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for (s, _), dist in m.trans.items():
        if s not in col:
            continue
        # -x[s] + sum_maybe p x[t] <= -sum_goal p
        coef = {col[s]: -1.0}
        b = 0.0
        for t, p in dist:
            if sat2[t]:
                b += p
            elif t in col:
                coef[col[t]] = coef.get(col[t], 0.0) + p
        for c, v in coef.items():
            rows.append(r)
            cols.append(c)
            vals.append(v)
        rhs.append(-b)
        r += 1
    a_ub = csr_matrix((vals, (rows, cols)), shape=(r, len(maybe)))
    res = linprog(np.ones(len(maybe)), A_ub=a_ub, b_ub=np.array(rhs),
                  bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[col[m.init]])


def check_counterexample(m: Model, until: Until, cx_json: str,
                         threshold: float, pmax_ref: float) -> list[str]:
    """Check an exported counterexample against the model it came from.

    Returns the problems found; an empty list means it is sound: paths
    are distinct, start at init, stay in phi1 and stop at their first
    phi2 state, their probabilities re-score from the
    model, and their mass exceeds the threshold without exceeding the
    reference Pmax.
    """
    data = json.loads(cx_json)
    out: list[str] = []
    seen = set()
    mass = 0.0
    for i, entry in enumerate(data["paths"]):
        states, actions = entry["states"], entry["actions"]
        key = (tuple(states), tuple(actions))
        if key in seen:
            out.append(f"path {i} is listed twice")
        seen.add(key)
        if states[0] != m.init:
            out.append(f"path {i} does not start at the initial state")
        if len(actions) != len(states) - 1:
            out.append(f"path {i} has {len(actions)} actions for "
                       f"{len(states)} states")
            continue
        if not until.phi2(m.labels_of(states[-1])):
            out.append(f"path {i} does not end in a target state")
        if any(until.phi2(m.labels_of(s)) or not until.phi1(m.labels_of(s))
               for s in states[:-1]):
            out.append(f"path {i} is not cut at its first target state")
        prob = 1.0
        for s, act, t in zip(states, actions, states[1:]):
            step = [p for u, p in m.trans.get((s, act), ()) if u == t]
            if not step:
                out.append(f"path {i} takes a step {s} -{act}-> {t} "
                           "the model does not have")
                prob = 0.0
                break
            prob *= sum(step)
        if not math.isclose(prob, entry["probability"],
                            rel_tol=PATH_PROB_RTOL):
            out.append(f"path {i} has probability {entry['probability']!r}, "
                       f"the model gives {prob!r}")
        mass += prob
    if not mass > threshold:
        out.append(f"mass {mass!r} does not exceed the threshold {threshold}")
    if mass > pmax_ref + MASS_ABOVE_PMAX_TOL:
        out.append(f"mass {mass!r} exceeds the reference Pmax {pmax_ref!r}")
    return out
