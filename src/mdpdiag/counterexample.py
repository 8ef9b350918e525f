"""Most-probable path sets witnessing until-property violations.

A counterexample here is a finite set of finite paths of the chain induced
by a probability-maximizing scheduler, each path cut at its first state
satisfying the until target, whose probabilities together exceed the
property threshold. Paths are gathered greedily in descending probability
order, so the set is as small as such a set can be.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .checker import DEFAULT_EPSILON, check_property, mass_exceeds
from .errors import BudgetError, DomainError, ParseError
from .mdp import (Dtmc, FinitePath, Mdp, Scheduler, WeightedPath,
                  backward_reachable, induce_dtmc)
from .pctl import (PathFormula, PropertySpec, eval_state_formula,
                   parse_property)

DEFAULT_MAX_PATHS = 10_000
DEFAULT_MIN_PROB = 1e-15

CX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Counterexample:
    """Paths plus the context needed to diagnose them without the model.

    labels carries the labelling of every state that occurs on some path;
    action_names maps the action ids appearing in paths and scheduler back
    to their labels.
    """

    paths: tuple[WeightedPath, ...]
    total_mass: float
    scheduler: Optional[Scheduler]
    spec: PropertySpec
    labels: Mapping[int, frozenset[str]]
    action_names: tuple[str, ...]
    state_names: Optional[tuple[str, ...]] = None

    def action_name(self, aid: int) -> str:
        if not 0 <= aid < len(self.action_names):
            raise DomainError(f"unknown action id {aid}")
        return self.action_names[aid]

    def states_on_paths(self) -> set[int]:
        out: set[int] = set()
        for wp in self.paths:
            out.update(wp.path.states)
        return out

    def state_name(self, s: int) -> str:
        if self.state_names is not None and 0 <= s < len(self.state_names):
            return self.state_names[s]
        return str(s)


class _Prefix:
    """A path prefix as a linked list: its last state, the action taken
    into it, and the prefix before it, which all its extensions share.

    Prefixes order as their state sequences do, which is how enumeration
    breaks probability ties. Siblings end in distinct states (a chain lists
    each successor once), so two sequences first differ just below their
    nearest common ancestor. A prefix is popped before its extensions
    exist, so the queue never compares a prefix with its own extension.
    """

    __slots__ = ("state", "action", "parent", "length")

    def __init__(self, state, action, parent):
        self.state = state
        self.action = action
        self.parent = parent
        self.length = 0 if parent is None else parent.length + 1

    def path(self) -> FinitePath:
        states, actions = [], []
        node = self
        while node.parent is not None:
            states.append(node.state)
            actions.append(node.action)
            node = node.parent
        states.append(node.state)
        return FinitePath(tuple(reversed(states)), tuple(reversed(actions)))

    def __lt__(self, other):
        a, b = self, other
        while a.length > b.length:
            a = a.parent
        while b.length > a.length:
            b = b.parent
        while a.parent is not b.parent:
            a, b = a.parent, b.parent
        return a.state < b.state


def enumerate_satisfying_paths(d: Dtmc, psi: PathFormula,
                               max_paths: Optional[int] = None,
                               min_prob: float = 0.0) -> Iterator[WeightedPath]:
    """Yield the satisfying paths of d in nonincreasing probability order.

    Every yielded path ends at its first right-operand state; earlier
    states satisfy the left operand. Best-first search over negative log
    probabilities drives the order; equal probabilities are resolved by
    the lexicographic order of the state sequences. The stream stops after
    max_paths paths (none at all for a cap of zero or less) or once the
    next candidate's probability drops below min_prob; without both bounds
    it can be infinite on cyclic chains.
    An atom that labels no state of d is false everywhere, so a target
    named by such an atom yields no path.
    """
    if psi.op != "U":
        raise DomainError("path enumeration handles until formulas only")
    if max_paths is not None and max_paths <= 0:
        return
    sat1 = {s for s in d.states if eval_state_formula(d.labels, s, psi.left)}
    sat2 = {s for s in d.states if eval_state_formula(d.labels, s, psi.right)}

    if d.init in sat2:
        # The only path cut at its first target state is the empty one.
        if 1.0 >= min_prob:
            yield WeightedPath(FinitePath((d.init,), ()), 1.0)
        return
    if d.init not in sat1:
        return

    preds: dict[int, list[int]] = {}
    for s in sat1 - sat2:
        for t, _ in d.transitions.get(s, ()):
            preds.setdefault(t, []).append(s)
    alive = backward_reachable(preds, sat2)
    if d.init not in alive:
        return

    bound = psi.bound
    # Heap entries: (cost, prefix, probability, complete). A prefix shares
    # its ancestors with every other path through them; states and actions
    # are materialised only for emitted paths.
    heap = [(0.0, _Prefix(d.init, None, None), 1.0, False)]
    emitted = 0
    while heap:
        cost, prefix, prob, complete = heapq.heappop(heap)
        if prob < min_prob:
            return
        if complete:
            yield WeightedPath(prefix.path(), prob)
            emitted += 1
            if max_paths is not None and emitted >= max_paths:
                return
            continue
        if bound is not None and prefix.length >= bound:
            continue
        u = prefix.state
        aid = d.action[u]
        for t, p in sorted(d.transitions.get(u, ())):
            if t in sat2:
                done = True
            elif t in alive:
                done = False
            else:
                continue
            heapq.heappush(heap, (cost - math.log(p), _Prefix(t, aid, prefix),
                                  prob * p, done))


def build_mipcx(m: Mdp, spec: PropertySpec, epsilon: float = DEFAULT_EPSILON,
                max_paths: int = DEFAULT_MAX_PATHS,
                min_prob: float = DEFAULT_MIN_PROB) -> Counterexample:
    """Smallest greedy set of most-probable violating paths for spec on m.

    Checks the property first (DomainError if it holds), induces the chain
    of the witness scheduler, and keeps accumulating the most probable
    satisfying paths until their mass witnesses the violation. If the path
    budget or probability floor cuts the stream off first, a BudgetError
    carrying the gathered mass is raised.
    """
    verdict = check_property(m, spec, epsilon)
    if verdict.holds:
        raise DomainError(f"property {spec} holds; "
                          "there is no counterexample to build")
    dtmc = induce_dtmc(m, verdict.witness)
    gathered: list[WeightedPath] = []
    total = 0.0
    for wp in enumerate_satisfying_paths(dtmc, spec.path,
                                         max_paths=max_paths, min_prob=min_prob):
        gathered.append(wp)
        total += wp.probability
        if mass_exceeds(spec, total):
            states: set[int] = set()
            for g in gathered:
                states.update(g.path.states)
            labels = {s: m.labels_of(s) for s in sorted(states)}
            return Counterexample(tuple(gathered), total, verdict.witness,
                                  spec, labels, tuple(m.action_names),
                                  m.state_names)
    raise BudgetError(
        f"counterexample incomplete: gathered mass {total!r} from "
        f"{len(gathered)} paths does not witness violation of "
        f"{spec}", partial=total)


def verify_counterexample(cx: Counterexample) -> list[str]:
    """Check every structural claim a counterexample makes; return the
    failures as human-readable strings (empty list: all good).

    The until guard and target are evaluated once per distinct state on
    the paths; only a path with an interior state outside the guard-only
    set is walked position by position to name its first bad state.
    """
    if cx.spec.path.op != "U":
        raise DomainError("counterexamples are defined for until formulas only")
    phi1, phi2 = cx.spec.path.left, cx.spec.path.right
    bound = cx.spec.path.bound
    out: list[str] = []
    if not cx.paths:
        out.append("counterexample contains no paths")
    on_paths = cx.states_on_paths()
    sat2 = {s for s in on_paths if eval_state_formula(cx.labels, s, phi2)}
    guard_only = {s for s in on_paths - sat2
                  if eval_state_formula(cx.labels, s, phi1)}
    seen: dict[tuple, int] = {}
    mass = 0.0
    for i, wp in enumerate(cx.paths):
        tag = f"path {i}"
        key = (wp.path.states, wp.path.actions)
        if key in seen:
            out.append(f"{tag} duplicates path {seen[key]}")
        else:
            seen[key] = i
        if not 0.0 < wp.probability <= 1.0:
            out.append(f"{tag}: probability {wp.probability!r} outside (0, 1]")
        mass += wp.probability
        states = wp.path.states
        if bound is not None and len(wp.path) > bound:
            out.append(f"{tag}: {len(wp.path)} steps exceed the bound {bound}")
        if states[-1] not in sat2:
            out.append(f"{tag}: final state {states[-1]} does not satisfy "
                       "the until target")
        if guard_only.issuperset(states[:-1]):
            continue
        for j, s in enumerate(states[:-1]):
            if s in sat2:
                out.append(f"{tag}: state {s} at position {j} already "
                           "satisfies the until target; paths must stop at "
                           "their first such state")
                break
            if s not in guard_only:
                out.append(f"{tag}: state {s} at position {j} fails the "
                           "until guard")
                break
    if abs(mass - cx.total_mass) > 1e-9:
        out.append(f"total_mass {cx.total_mass!r} disagrees with the path "
                   f"probability sum {mass!r}")
    if not mass_exceeds(cx.spec, cx.total_mass):
        out.append(f"total mass {cx.total_mass!r} does not witness violation "
                   f"of {cx.spec}")
    return out


# -- JSON interchange -------------------------------------------------------


def counterexample_to_dict(cx: Counterexample) -> dict:
    sched = {}
    if cx.scheduler is not None:
        for s in sorted(cx.scheduler.choice):
            sched[str(s)] = cx.action_name(cx.scheduler.choice[s])
    return {
        "format_version": CX_FORMAT_VERSION,
        "property": str(cx.spec),
        "comparison": cx.spec.comparison,
        "threshold": cx.spec.threshold,
        "total_mass": cx.total_mass,
        "scheduler": sched,
        "labels": {str(s): sorted(cx.labels[s]) for s in sorted(cx.labels)},
        "paths": [
            {
                "states": list(wp.path.states),
                "actions": [cx.action_name(a) for a in wp.path.actions],
                "probability": wp.probability,
            }
            for wp in cx.paths
        ],
    }


def counterexample_to_json(cx: Counterexample) -> str:
    return json.dumps(counterexample_to_dict(cx), indent=2) + "\n"


def _require(data: dict, key: str):
    if key not in data:
        raise ParseError(f"counterexample JSON is missing {key!r}")
    return data[key]


def _state_id(key: str) -> int:
    """The state id a JSON object key spells; ValueError unless the key is
    its canonical decimal form (int() alone also takes " 1" and "+0")."""
    s = int(key)
    if str(s) != key:
        raise ValueError(f"non-canonical state key {key!r}")
    return s


def _number(x) -> float:
    """A JSON number as a float; TypeError for a bool, string or other
    value (float() alone also takes "0.25" and true)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a number: {x!r}")
    return float(x)


def counterexample_from_dict(data: dict) -> Counterexample:
    """Rebuild a counterexample from its JSON form.

    Action labels are re-interned in sorted order, so ids are deterministic
    regardless of the original model's interning order.
    """
    if not isinstance(data, dict):
        raise ParseError("counterexample JSON must be an object")
    version = _require(data, "format_version")
    if version != CX_FORMAT_VERSION:
        raise ParseError(f"unsupported counterexample format_version {version!r}")

    raw_labels = _require(data, "labels")
    labels: dict[int, frozenset[str]] = {}
    try:
        for k, v in raw_labels.items():
            if not isinstance(v, list) or not set(map(type, v)) <= {str}:
                raise TypeError(f"labels of {k!r} are not a list of names")
            labels[_state_id(k)] = frozenset(v)
    except (ValueError, TypeError, AttributeError):
        raise ParseError("counterexample labels must map state ids to "
                         "lists of names") from None

    spec = parse_property(str(_require(data, "property")),
                          defined_labels=set().union(*labels.values(), set()))

    names: set[str] = set()
    raw_paths = _require(data, "paths")
    if not isinstance(raw_paths, list):
        raise ParseError("counterexample paths must form a list")
    for i, entry in enumerate(raw_paths):
        actions = entry.get("actions", []) if isinstance(entry, dict) else None
        # JSON strings only: str() would also accept 1 and true
        if not (isinstance(actions, list)
                and set(map(type, actions)) <= {str}):
            raise ParseError(f"malformed path entry {i}")
        names.update(actions)
    raw_sched = data.get("scheduler") or {}
    if not (isinstance(raw_sched, dict)
            and set(map(type, raw_sched.values())) <= {str}):
        raise ParseError("counterexample scheduler must map states to labels")
    names.update(raw_sched.values())
    action_names = tuple(sorted(names))
    action_ids = {name: i for i, name in enumerate(action_names)}

    paths = []
    for i, entry in enumerate(raw_paths):
        try:
            states = entry["states"]
            actions = tuple(map(action_ids.__getitem__, entry["actions"]))
            prob = _number(entry["probability"])
        except (KeyError, ValueError, TypeError, OverflowError):
            raise ParseError(f"malformed path entry {i}") from None
        # JSON integers only: int() would also accept "7", 7.9 and true
        if not isinstance(states, list) or not set(map(type, states)) <= {int}:
            raise ParseError(f"malformed path entry {i}")
        try:
            paths.append(WeightedPath(FinitePath(tuple(states), actions),
                                      prob))
        except DomainError as exc:
            raise ParseError(f"path entry {i}: {exc}") from None

    scheduler = None
    if raw_sched:
        try:
            scheduler = Scheduler({_state_id(s): action_ids[a]
                                   for s, a in raw_sched.items()})
        except (ValueError, TypeError, KeyError):
            raise ParseError("malformed scheduler mapping") from None

    try:
        total = _number(_require(data, "total_mass"))
    except (ValueError, TypeError, OverflowError):
        raise ParseError("total_mass must be a number") from None
    return Counterexample(tuple(paths), total, scheduler, spec, labels,
                          action_names)


def counterexample_from_json(text: str) -> Counterexample:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return counterexample_from_dict(data)
