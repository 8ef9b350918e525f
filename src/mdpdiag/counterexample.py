"""Most-probable path sets witnessing until-property violations.

A counterexample here is a finite set of finite paths of the chain induced
by a probability-maximizing scheduler, each path cut at its first state
satisfying the until target, whose probabilities together exceed the
property threshold. Paths are gathered greedily in descending probability
order, so the set is as small as such a set can be.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property

# checker through its lazily loaded module: only build_mipcx runs it, so
# verifying and ranking an imported counterexample does not load it
from . import checker
from .defaults import DEFAULT_EPSILON, DEFAULT_MAX_PATHS, DEFAULT_MIN_PROB
from .errors import BudgetError, DomainError, ParseError
from .mdp import (PROB_SUM_TOL, Dtmc, FinitePath, Mdp, Scheduler,
                  WeightedPath, induce_dtmc, live_states)
from .pctl import (PathFormula, PropertySpec, atoms, mass_exceeds,
                   parse_property, until_sets)
from .records import record

CX_FORMAT_VERSION = 1


@record
class PathForest:
    """Paths stored as the forest of their distinct prefixes.

    Node n is one prefix: its last state states[n], the action id
    actions[n] of its last step and the node parents[n] of the prefix one
    step shorter; a root is a one-state prefix, with parent and action -1.
    A parent is numbered before its children, and no two nodes agree in
    parent, action and state. Path i is the prefix of node leaves[i] and
    has probability probabilities[i]; a node may end several paths and
    lie inside others. Two loops build forests, with add_node and
    add_path: the search of build_mipcx (_Prefix.add_to) and the JSON
    import (_intern). A forest keeps nothing derived from its nodes and
    paths. It is walked one way only, along its paths in path order
    (_chain_moves): along_paths hands each path on, and masses sums the
    path masses in one such walk.
    """

    # record gives each instance a copy of a list default
    parents: list[int] = []
    actions: list[int] = []
    states: list[int] = []
    leaves: list[int] = []
    probabilities: list[float] = []

    def add_node(self, parent: int, action: int, state: int) -> int:
        self.parents.append(parent)
        self.actions.append(action)
        self.states.append(state)
        return len(self.states) - 1

    def add_path(self, leaf: int, probability: float) -> None:
        self.leaves.append(leaf)
        self.probabilities.append(probability)

    def _chain_moves(self) -> Iterator[tuple[list[int], list[int]]]:
        """For each path in path order, how the chain of nodes from a root
        down to its leaf comes from the chain of the path before: the nodes
        cut from its end, then the nodes appended, each list root first. A
        path costs the nodes it and the path before do not share: at worst,
        when the two part at their roots, both lengths."""
        parents = self.parents
        depth: dict[int, int] = {}  # node on the chain -> its depth
        chain: list[int] = []
        for leaf in self.leaves:
            added, n = [], leaf
            while n >= 0 and n not in depth:
                added.append(n)
                n = parents[n]
            k = depth[n] + 1 if n >= 0 else 0
            cut = chain[k:]
            for m in cut:
                del depth[m]
            del chain[k:]
            added.reverse()
            for m in added:
                depth[m] = len(chain)
                chain.append(m)
            yield cut, added

    def along_paths(self, values: Sequence, collect: Callable) -> Iterator:
        """collect(list of the values[m] of the nodes m from a root down to
        the leaf; the walk reuses it), for each path in path order, one at a
        time, along one chain of nodes (_chain_moves)."""
        picked: list = []
        for cut, added in self._chain_moves():
            del picked[len(picked) - len(cut):]
            picked.extend(map(values.__getitem__, added))
            yield collect(picked)

    def masses(self, _counter: list[int] | None = None
               ) -> tuple[dict[int, float], dict[tuple[int, int, int], float]]:
        """State and step masses: the probability of the paths that visit a
        state, or take a (state, action id, successor) step, at least once.
        One walk (_chain_moves) counts the visits of the states and steps on
        the chain; at each path's end its probability goes to its distinct
        states, then to its distinct steps, each in ascending order, so a
        mass is summed path by path in path order. _counter, if given,
        counts those (path, state) and (path, step) pairs."""
        states = self.states
        # a root has no step: None stands for it, once on every chain
        steps = [None if p < 0 else (states[p], a, s)
                 for p, a, s in zip(self.parents, self.actions, states)]
        seen: dict = {}  # visit counts on the chain
        taken: dict = {}
        smass: dict[int, float] = {}
        tmass: dict[tuple[int, int, int], float] = {}
        for prob, (cut, added) in zip(self.probabilities, self._chain_moves()):
            for m in cut:
                for counts, key in ((seen, states[m]), (taken, steps[m])):
                    counts[key] -= 1
                    if not counts[key]:
                        del counts[key]
            for m in added:
                seen[states[m]] = seen.get(states[m], 0) + 1
                taken[steps[m]] = taken.get(steps[m], 0) + 1
            for s in sorted(seen):
                smass[s] = smass.get(s, 0.0) + prob
            for key in sorted(taken.keys() - {None}):
                tmass[key] = tmass.get(key, 0.0) + prob
            if _counter is not None:
                _counter[0] += len(seen) + len(taken) - 1
        return smass, tmass


def _intern(forest: PathForest,
            entries: Iterable[tuple[list, list, float]]) -> None:
    """Add the path entries of a JSON import, each (states, action names,
    probability), in their order to the empty forest, keyed by action
    name. The steps an entry shares with the entry before it are found by
    walking up from that entry's leaf; only its later steps are checked
    (actions are strings, states not negative) and looked up, and added
    when new. A shared step equals one checked before, so every step is
    checked. Repeated entries keep their own paths."""
    parents = forest.parents
    index: dict[tuple, int] = {}
    node = -1
    last_states: Sequence = ()
    last_actions: Sequence = ()
    for states, actions, probability in entries:
        k = min(_common_prefix(states, last_states),
                _common_prefix(actions, last_actions) + 1)
        for _ in range(len(last_states) - k):
            node = parents[node]
        new_states, new_actions = states[k:], actions[k - 1:] if k else actions
        if not (set(map(type, new_actions)) <= {str}
                and min(new_states, default=0) >= 0):
            # the entry being added is the next path of the forest
            raise ParseError(f"malformed path entry {len(forest.leaves)}")
        for action, state in zip(new_actions if k else (-1, *new_actions),
                                 new_states):
            key = (node, action, state)
            node = index.get(key, -1)
            if node < 0:
                node = index[key] = forest.add_node(*key)
        forest.add_path(node, probability)
        last_states, last_actions = states, actions


def _common_prefix(a: Sequence, b: Sequence) -> int:
    """The length of the longest common prefix of a and b. A path mostly
    shares all of the shorter sequence, or all but its last item, with
    the path before it: one comparison of all but that item, and one of
    the item, settle both. Only when they miss is the length searched
    for, down from there."""
    n = min(len(a), len(b))
    if n == 0:
        return 0
    if a[:n - 1] == b[:n - 1]:
        return n if a[n - 1] == b[n - 1] else n - 1
    lo, hi, step = n - 2, n - 1, 2
    while lo > 0 and a[:lo] != b[:lo]:
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    # a[:lo] == b[:lo] and a[:hi] != b[:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo


@record(frozen=True)
class Counterexample:
    """Paths plus the context needed to diagnose them without the model.

    The paths are a prefix forest (see PathForest): the most probable
    paths around a slow cycle are long and share almost all their steps,
    so the forest has far fewer nodes than the paths have steps.
    verify_counterexample runs once over the nodes, and collect_causes
    reads the roles of the states off them. Everything else follows the
    paths one by one along one chain of nodes, the forest's only walk:
    the masses of generate_diagnoses come from one such walk
    (PathForest.masses), and the path lines of render_text_report and the
    JSON export take each path itself (PathForest.along_paths); the report
    yields each path's line before it makes the next. paths is a
    read-only flat view, a tuple of WeightedPath, built on first use in
    time proportional to the steps and kept; the package itself does not
    read it.

    labels carries the labelling of every state that occurs on some path,
    and state_names, when the model has names, the name of each such
    state; action_names maps the action ids appearing in paths and
    scheduler back to their labels. ap_names is the model's alphabet,
    which may hold atoms that label no state on the paths; alphabet()
    adds the atoms that do and those the property names.
    """

    forest: PathForest
    total_mass: float
    scheduler: Scheduler | None
    spec: PropertySpec
    labels: Mapping[int, frozenset[str]]
    action_names: tuple[str, ...]
    state_names: Mapping[int, str] | None = None
    ap_names: frozenset[str] = frozenset()

    @cached_property
    def paths(self) -> tuple[WeightedPath, ...]:
        """The paths, each as its own WeightedPath: a read-only view."""
        forest = self.forest
        actions = forest.along_paths(forest.actions, lambda c: tuple(c[1:]))
        return tuple(WeightedPath(FinitePath(s, a), p) for s, a, p in zip(
            forest.along_paths(forest.states, tuple), actions,
            forest.probabilities))

    def action_name(self, aid: int) -> str:
        if not 0 <= aid < len(self.action_names):
            raise DomainError(f"unknown action id {aid}")
        return self.action_names[aid]

    def alphabet(self) -> set[str]:
        """The atoms a property of this counterexample may name. Its own
        property may name atoms outside the model's alphabet (false
        everywhere), so the export lists them and imports again."""
        return set(self.ap_names).union(*self.labels.values(),
                                        atoms(self.spec.path))

    def state_name(self, s: int) -> str:
        if self.state_names is not None and s in self.state_names:
            return self.state_names[s]
        return str(s)


class _Prefix:
    """A path prefix as a linked list: its last state, the action taken
    into it (-1 at the start), the prefix before it, which all its
    extensions share, and its node once it is in a PathForest (-1 until
    then).

    Prefixes order as their state sequences do, which is how enumeration
    breaks probability ties. Siblings end in distinct states (a chain lists
    each successor once), so two sequences first differ just below their
    nearest common ancestor. A prefix is popped before its extensions
    exist, so the queue never compares a prefix with its own extension.
    """

    __slots__ = ("state", "action", "parent", "length", "node")

    def __init__(self, state, action, parent):
        self.state = state
        self.action = action
        self.parent = parent
        self.length = 0 if parent is None else parent.length + 1
        self.node = -1

    def add_to(self, forest: PathForest) -> int:
        """This prefix's node in forest, adding it and the ancestors
        missing there."""
        missing = []
        prefix = self
        while prefix is not None and prefix.node < 0:
            missing.append(prefix)
            prefix = prefix.parent
        node = -1 if prefix is None else prefix.node
        for prefix in reversed(missing):
            node = prefix.node = forest.add_node(node, prefix.action,
                                                 prefix.state)
        return node

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
                               max_paths: int | None = None,
                               min_prob: float = 0.0
                               ) -> Iterator[tuple[_Prefix, float]]:
    """Yield the satisfying paths of d in nonincreasing probability order,
    each as (prefix, probability): the prefix's state, action and parent
    links spell the path backwards, and prefix.add_to(forest) adds the
    path to a PathForest.

    Every yielded path ends at its first right-operand state; earlier
    states satisfy the left operand. Best-first search over negative log
    probabilities drives the order; equal probabilities are resolved by
    the lexicographic order of the state sequences. The stream stops after
    max_paths paths (none at all for a cap of zero or less) or once the
    next candidate's probability drops below min_prob; without both bounds
    it can be infinite on cyclic chains. A NaN min_prob raises DomainError
    (it would switch the floor off).
    An atom that labels no state of d is false everywhere, so a target
    named by such an atom yields no path. d is not checked: a step of
    probability zero or less that the search reaches raises DomainError.
    The states of d may be pairs (state, steps left), as the chain of a
    scheduler that counts steps has them (see induce_dtmc).
    """
    if math.isnan(min_prob):
        raise DomainError("min_prob must be a number, got nan")
    if max_paths is not None and max_paths <= 0:
        return
    targets, guard = until_sets(d.labels, d.states, psi)
    _, live = live_states(d.choices, guard, targets)
    if d.init not in live:
        return

    bound = psi.bound
    # Heap entries: (cost, prefix, probability, complete). A prefix shares
    # its ancestors with every other path through them. (cost, prefix)
    # orders the entries totally, so the order of pushes never shows in
    # the pops. A target initial state is the one complete path.
    heap = [(0.0, _Prefix(d.init, -1, None), 1.0, d.init in targets)]
    emitted = 0
    while heap:
        cost, prefix, prob, complete = heapq.heappop(heap)
        if prob < min_prob:
            return
        if complete:
            yield prefix, prob
            emitted += 1
            if max_paths is not None and emitted >= max_paths:
                return
            continue
        if bound is not None and prefix.length >= bound:
            continue
        try:
            for aid, dist in d.choices[prefix.state]:
                for t, p in dist:
                    if t in targets:
                        done = True
                    elif t in live:
                        done = False
                    else:
                        continue
                    heapq.heappush(heap, (cost - math.log(p),
                                          _Prefix(t, aid, prefix), prob * p,
                                          done))
        except ValueError:
            # only math.log raises it: a hand-built Dtmc is not checked
            raise DomainError(f"nonpositive probability {p!r} to successor "
                              f"{t} for state {prefix.state}") from None


def build_mipcx(m: Mdp, spec: PropertySpec, epsilon: float = DEFAULT_EPSILON,
                max_paths: int = DEFAULT_MAX_PATHS,
                min_prob: float = DEFAULT_MIN_PROB) -> Counterexample:
    """Smallest greedy set of most-probable violating paths for spec on m.

    Checks the property first (DomainError if it holds; the value vector
    of an earlier check of the same m, formula and epsilon is reused, see
    compute_pmax), extracts the witness scheduler from the verdict's
    value vector, and keeps accumulating the most probable satisfying
    paths of its chain until their mass witnesses the violation. The
    search's prefixes go straight into the counterexample's forest. If the
    path budget or probability floor cuts the stream off first, a
    BudgetError carrying the gathered mass is raised.

    Under a step bound the witness counts steps, so the search runs on the
    chain of pairs (state, steps left) it induces, and each path maps back
    to the model by dropping the counter.
    """
    verdict = checker.check_property(m, spec, epsilon)
    if verdict.holds:
        raise DomainError(f"property {spec} holds; "
                          "there is no counterexample to build")
    witness = checker.extract_max_scheduler(m, verdict.value_vector)
    dtmc = induce_dtmc(m, witness)
    forest = PathForest()
    total = 0.0
    for prefix, prob in enumerate_satisfying_paths(dtmc, spec.path, max_paths,
                                                   min_prob):
        forest.add_path(prefix.add_to(forest), prob)
        total += prob
        if mass_exceeds(spec, total):
            if witness.bound is not None:
                forest.states = [s for s, _ in forest.states]
            on_paths = sorted(set(forest.states))
            labels = {s: m.labels_of(s) for s in on_paths}
            return Counterexample(forest, total, witness, spec, labels,
                                  tuple(m.action_names), m.names_of(on_paths),
                                  frozenset(m.ap_names))
    raise BudgetError(
        f"counterexample incomplete: gathered mass {total!r} from "
        f"{len(forest.leaves)} paths does not witness violation of "
        f"{spec}", partial=total)


def verify_counterexample(cx: Counterexample) -> list[str]:
    """Check every structural claim a counterexample makes; return the
    failures as human-readable strings (empty list: all good).

    Every step must take the choice of the scheduler, if there is one; a
    path is reported once, at its first step that does not. A scheduler
    that counts steps is read at the pair (state, steps left) of each
    step, counting down from its bound at the first state, and its bound
    must be the property's.

    The until guard and target are evaluated once per distinct state on
    the paths, and one pass over the forest finds for every node its
    depth, the first node from its root on whose state is outside the
    guard-only set and the first whose step leaves the scheduler; a path
    is then checked in constant time.
    """
    bound = cx.spec.path.bound
    forest = cx.forest
    parents, actions, states = forest.parents, forest.actions, forest.states
    choice = {} if cx.scheduler is None else cx.scheduler.choice
    counted = None if cx.scheduler is None else cx.scheduler.bound
    out: list[str] = []
    if not forest.leaves:
        out.append("counterexample contains no paths")
    if counted is not None and counted != bound:
        out.append(f"the scheduler counts {counted} steps, but the "
                   f"property {cx.spec} " + ("has no step bound"
                                             if bound is None else
                                             f"bounds {bound}"))
    targets, guard_only = until_sets(cx.labels, set(forest.states),
                                     cx.spec.path)
    depth: list[int] = []
    first_bad: list[int] = []
    first_off: list[int] = []  # the first step off the scheduler
    for n, (p, a, s) in enumerate(zip(parents, actions, states)):
        d, bad, off = ((0, -1, -1) if p < 0 else
                       (depth[p] + 1, first_bad[p], first_off[p]))
        if off < 0 <= p and cx.scheduler:
            key = (states[p] if counted is None
                   else (states[p], counted - d + 1))
            if choice.get(key) != a:
                off = n
        depth.append(d)
        first_bad.append(n if bad < 0 and s not in guard_only else bad)
        first_off.append(off)
    seen: dict[int, int] = {}
    mass = 0.0
    for i, (leaf, prob) in enumerate(zip(forest.leaves,
                                         forest.probabilities)):
        tag = f"path {i}"
        if leaf in seen:
            out.append(f"{tag} duplicates path {seen[leaf]}")
        else:
            seen[leaf] = i
        if not 0.0 < prob <= 1.0:
            out.append(f"{tag}: probability {prob!r} outside (0, 1]")
        mass += prob
        if bound is not None and depth[leaf] > bound:
            out.append(f"{tag}: {depth[leaf]} steps exceed the bound {bound}")
        if states[leaf] not in targets:
            out.append(f"{tag}: final state {states[leaf]} does not satisfy "
                       "the until target")
        off = first_off[leaf]
        if off >= 0:
            s, j = states[parents[off]], depth[off] - 1
            key = s if counted is None else (s, counted - j)
            out.append(f"{tag}: at state {s}, position {j}, the path takes "
                       f"action {cx.action_name(actions[off])}, where the "
                       "scheduler " + (f"chooses {cx.action_name(choice[key])}"
                                       if key in choice else
                                       "makes no choice"))
        bad = first_bad[parents[leaf]] if parents[leaf] >= 0 else -1
        if bad < 0:
            continue
        s, j = states[bad], depth[bad]
        if s in targets:
            out.append(f"{tag}: state {s} at position {j} already "
                       "satisfies the until target; paths must stop at "
                       "their first such state")
        else:
            out.append(f"{tag}: state {s} at position {j} fails the "
                       "until guard")
    if abs(mass - cx.total_mass) > PROB_SUM_TOL:
        out.append(f"total_mass {cx.total_mass!r} disagrees with the path "
                   f"probability sum {mass!r}")
    if not mass_exceeds(cx.spec, cx.total_mass):
        out.append(f"total mass {cx.total_mass!r} does not witness violation "
                   f"of {cx.spec}")
    return out


# -- JSON interchange -------------------------------------------------------


def counterexample_to_dict(cx: Counterexample) -> dict:
    """The JSON form. A scheduler that counts steps goes into
    step_scheduler, state -> steps left -> action, and scheduler stays
    empty."""
    sched: dict = {}
    steps: dict = {}
    if cx.scheduler is not None:
        for key in sorted(cx.scheduler.choice):
            name = cx.action_name(cx.scheduler.choice[key])
            if cx.scheduler.bound is None:
                sched[str(key)] = name
            else:
                steps.setdefault(str(key[0]), {})[str(key[1])] = name
    out = {
        "format_version": CX_FORMAT_VERSION,
        "property": str(cx.spec),
        "comparison": cx.spec.comparison,
        "threshold": cx.spec.threshold,
        "total_mass": cx.total_mass,
        "scheduler": sched,
    }
    if cx.scheduler is not None and cx.scheduler.bound is not None:
        out["step_scheduler"] = steps
    out["labels"] = {str(s): sorted(cx.labels[s]) for s in sorted(cx.labels)}
    alphabet = cx.alphabet()
    if alphabet != set().union(*cx.labels.values()):
        out["ap_names"] = sorted(alphabet)
    if cx.state_names is not None:
        out["state_names"] = {str(s): cx.state_names[s]
                              for s in sorted(cx.state_names)}
    forest = cx.forest
    # one name per node but a root (DomainError for an unknown id)
    named = [cx.action_name(a) if p >= 0 else None
             for p, a in zip(forest.parents, forest.actions)]
    out["paths"] = [{"states": states, "actions": actions, "probability": p}
                    for states, actions, p in zip(
                        forest.along_paths(forest.states, list),
                        forest.along_paths(named, lambda c: c[1:]),
                        forest.probabilities)]
    return out


def counterexample_to_json(cx: Counterexample) -> str:
    """The text of counterexample_to_dict(cx): the fields before paths
    indented by two, then one line per path entry.

    Any indent puts json.dumps on its pure-Python encoder, so only the
    small head takes one; each entry goes through the C encoder alone.
    """
    import json
    data = counterexample_to_dict(cx)
    entries = [json.dumps(entry) for entry in data.pop("paths")]
    paths = "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
    head = json.dumps(data, indent=2)
    # head ends with the object's closing "\n}"
    return f'{head[:-2]},\n  "paths": {paths}\n}}\n'


def _require(data: dict, key: str):
    if key not in data:
        raise ParseError(f"counterexample JSON is missing {key!r}")
    return data[key]


def _state_id(key: str) -> int:
    """The state id a JSON object key spells; ValueError unless the key is
    the canonical decimal form of a state id (int() alone also takes " 1",
    "+0" and "-5")."""
    s = int(key)
    if str(s) != key or s < 0:
        raise ValueError(f"non-canonical state key {key!r}")
    return s


def _number(x) -> float:
    """A JSON number as a float; TypeError for a bool, string or other
    value (float() alone also takes "0.25" and true)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a number: {x!r}")
    return float(x)


def _name(x) -> str:
    if not isinstance(x, str):
        raise TypeError(f"not a name: {x!r}")
    return x


def _name_set(x) -> frozenset[str]:
    if not isinstance(x, list):
        raise TypeError(f"not a list of names: {x!r}")
    names = frozenset(map(_name, x))
    for name in names:
        if '"' in name:  # a property quotes a label as "a-b", not "a"b"
            raise ParseError(f"counterexample label {name!r} holds '\"', "
                             "which no property can name")
    return names


def _state_keyed(raw, value, field: str, what: str) -> dict:
    """A JSON object keyed by canonical state ids, each value converted
    by value (TypeError when malformed); ParseError for anything else."""
    try:
        return {_state_id(k): value(v) for k, v in raw.items()}
    except (ValueError, TypeError, AttributeError):
        raise ParseError(f"counterexample {field} must map state ids to "
                         f"{what}") from None


def _is_scheduler(raw) -> bool:
    # JSON strings only: str() would also accept 1 and true
    return isinstance(raw, dict) and set(map(type, raw.values())) <= {str}


def _path_entries(raw_paths: list) -> Iterator[tuple[list, list, float]]:
    """(states, action names, probability) of each path entry, for _intern,
    each checked before it is yielded: an object with a list of JSON
    integers, a list of actions and a number, then a list of actions one
    shorter than the states (FinitePath's text). ParseError at the first
    fault. The states are checked in full, as 1.0 and true equal 1."""
    for i, entry in enumerate(raw_paths):
        try:
            states, actions = entry["states"], entry["actions"]
            probability = _number(entry["probability"])
        except (KeyError, TypeError, OverflowError):
            raise ParseError(f"malformed path entry {i}") from None
        # JSON integers only: int() would also accept "7", 7.9 and true
        if not (isinstance(states, list) and isinstance(actions, list)
                and set(map(type, states)) <= {int}):
            raise ParseError(f"malformed path entry {i}")
        if len(states) != len(actions) + 1:
            try:
                FinitePath(states, actions)
            except DomainError as exc:
                raise ParseError(f"path entry {i}: {exc}") from None
        yield states, actions, probability


def _step_scheduler(raw: dict, action_ids: dict, bound: int) -> Scheduler:
    """The scheduler of a step_scheduler field whose shape is checked;
    ParseError unless every key is a canonical state id and every steps
    left one from 1 to the bound, the only ones at which a step is
    taken."""
    choice = {}
    try:
        for s, row in raw.items():
            for j, a in row.items():
                j = _state_id(j)
                if not 0 < j <= bound:
                    raise ValueError(f"steps left {j} outside 1..{bound}")
                choice[_state_id(s), j] = action_ids[a]
    except (ValueError, TypeError):
        raise ParseError("malformed step_scheduler mapping") from None
    return Scheduler(choice, bound)


def counterexample_from_dict(data: dict) -> Counterexample:
    """Rebuild a counterexample from its JSON form.

    Action labels are re-interned in sorted order, so ids are deterministic
    regardless of the original model's interning order. labels and
    state_names may name only the states on the paths; the scheduler may
    cover others, as the export writes the whole witness.

    The path entries are read in one pass straight into one forest
    (_intern), keyed by action name: only the steps an entry does not
    share with the entry before it are looked up. The names are mapped to
    ids over the nodes once the pass ends. So the import costs about
    json.loads plus the new steps.

    Each check runs once, and the first fault met is reported. The order
    is: the top-level fields; then the path entries in file order, each
    entry's fields and types (its states in full, as 1.0 and true equal
    1), then its length, then its steps; the scheduler's shape, then
    step_scheduler's; the scheduler's ids, then whether step_scheduler
    goes with a step-bounded property and an empty scheduler, then its
    ids (see _step_scheduler); total_mass; labels or state_names off the paths.
    That the actions are strings and the states not negative is checked
    on the steps an entry does not share with the entry before it, which
    covers every step: a shared step equals one checked before. A label
    or an ap_names entry holding '"' is refused where it is read, as no
    property can name it.
    """
    if not isinstance(data, dict):
        raise ParseError("counterexample JSON must be an object")
    version = _require(data, "format_version")
    if type(version) is not int or version != CX_FORMAT_VERSION:
        raise ParseError(f"unsupported counterexample format_version {version!r}")

    labels = _state_keyed(_require(data, "labels"), _name_set,
                          "labels", "lists of names")
    state_names = None
    if "state_names" in data:
        state_names = _state_keyed(data["state_names"], _name, "state_names",
                                   "names")

    ap_names: frozenset[str] = frozenset()
    if "ap_names" in data:
        try:
            ap_names = _name_set(data["ap_names"])
        except TypeError:
            raise ParseError("counterexample ap_names must be a list of "
                             "names") from None

    prop = str(_require(data, "property"))
    try:
        spec = parse_property(prop, set(ap_names).union(*labels.values()))
    except ParseError as exc:
        raise ParseError(f"property field, {exc}") from None
    for key in ("comparison", "threshold"):
        given = data.get(key, getattr(spec, key))
        if isinstance(given, bool) or given != getattr(spec, key):
            raise ParseError(f"counterexample {key} {given!r} disagrees with "
                             f"its property {str(spec)!r}")

    raw_paths = _require(data, "paths")
    if not isinstance(raw_paths, list):
        raise ParseError("counterexample paths must form a list")
    forest = PathForest()
    _intern(forest, _path_entries(raw_paths))
    raw_sched = data.get("scheduler", {})
    if not _is_scheduler(raw_sched):
        raise ParseError("counterexample scheduler must map states to "
                         "labels")
    raw_steps = data.get("step_scheduler", {})
    if not (isinstance(raw_steps, dict)
            and all(map(_is_scheduler, raw_steps.values()))):
        raise ParseError("counterexample step_scheduler must map states to "
                         "objects that map steps left to labels")
    names = {a for p, a in zip(forest.parents, forest.actions) if p >= 0}
    names.update(raw_sched.values(),
                 *(row.values() for row in raw_steps.values()))
    action_names = tuple(sorted(names))
    action_ids = {name: i for i, name in enumerate(action_names)}
    forest.actions = [action_ids[a] if p >= 0 else -1
                      for p, a in zip(forest.parents, forest.actions)]

    scheduler = None
    if raw_sched:
        try:
            scheduler = Scheduler({_state_id(s): action_ids[a]
                                   for s, a in raw_sched.items()})
        except (ValueError, TypeError, KeyError):
            raise ParseError("malformed scheduler mapping") from None
    if "step_scheduler" in data:
        if spec.path.bound is None or raw_sched:
            raise ParseError("counterexample step_scheduler needs a "
                             "step-bounded property and an empty scheduler")
        scheduler = _step_scheduler(raw_steps, action_ids, spec.path.bound)

    try:
        total = _number(_require(data, "total_mass"))
    except (ValueError, TypeError, OverflowError):
        raise ParseError("total_mass must be a number") from None
    on_paths = set(forest.states)
    for key, table in (("labels", labels), ("state_names", state_names)):
        off = sorted(set(table or ()) - on_paths)
        if off:
            raise ParseError(f"counterexample {key} name state {off[0]}, "
                             "which lies on no path")
    return Counterexample(forest, total, scheduler, spec, labels,
                          action_names, state_names, ap_names)


def counterexample_from_json(text: str) -> Counterexample:
    import json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return counterexample_from_dict(data)
