"""Explicit-state Markov decision processes, schedulers, and induced chains.

States are dense integers 0..n-1. Action labels are interned into a dense
id table at construction; instances are treated as immutable afterwards.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from .defaults import DEFAULT_STATE_CAP
from .errors import BudgetError, DomainError, ParseError
from .records import record

# Tolerance for "successor probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

# (successor, probability) pairs of one action at one state.
Distribution = tuple[tuple[int, float], ...]


def _state_id(s, role: str) -> int:
    # int() would take 1.7 and "1", operator.index True as 1
    if not isinstance(s, bool):
        try:
            return operator.index(s)
        except TypeError:
            pass
    raise DomainError(f"{role} {s!r}, not an integer")


def _names(aps, where: str) -> frozenset[str]:
    names = frozenset(map(str, aps))
    for name in names:
        if '"' in name:  # a property quotes a label as "a-b", not "a"b"
            raise DomainError(f"label {name!r} {where} holds '\"', which no "
                              "property can name")
    return names


def _fault(what: str, s: int, act) -> DomainError:
    return DomainError(f"{what} for state {s} action {act!r}")


class Mdp:
    """A finite MDP with labelled actions and labelled states.

    Mdp(...) compiles the choice table from a (state, action label)-keyed
    map, as the explicit reader builds one; program.build_mdp builds the
    table as it elaborates and hands it to Mdp.from_choice_table. Both
    hold every distribution to the same rule.
    """

    def __init__(self, num_states, init, transitions, labels=None, state_names=None,
                 ap_names=None):
        """Build an MDP from plain dictionaries.

        transitions maps (state, action label) to an iterable of
        (successor, probability) pairs. labels maps a state to an iterable
        of atomic proposition names; unlisted states carry no labels.
        state_names is an optional iterable of display names, used only for
        reports; it is read into the tuple state_names on first use, so a
        query that names no state never builds them. A sequence is also
        read one state at a time (state_name, names_of), so a lazy one
        formats only the names asked for.

        The transitions are compiled once into the choice table (see
        choice_table). DomainError is raised for a num_states, or an
        initial, source, successor or labelled state, that is not an
        integer (a bool is none), for a num_states below 1 and for a state
        outside 0..num_states-1. Every action carries a probability
        distribution, so DomainError naming the state and the action is
        also raised for an empty distribution, for a probability that is
        not a real number (a str or a bool is none), past the range of a
        float or not positive (NaN is not), for a successor listed twice
        and for probabilities whose sum, taken left to right, is off 1 by
        more than PROB_SUM_TOL. The first fault in the order of transitions
        and of its pairs is raised.

        ap_names declares the alphabet of atomic propositions; it defaults
        to the atoms occurring in labels. The attribute ap_names lists the
        labelled atoms first, in first-seen order, then the declared ones
        not yet listed. It is the set of names a property may mention (the
        CLI rejects others); an atom that labels no state is false at every
        state. A label or declared atom holding '"' raises DomainError: no
        property can name it. States that share one label-set object share
        its frozenset, built and checked once.
        """
        n = self._set_states(num_states, init)
        ids: dict[str, int] = {}  # action label -> id, in first-seen order
        rows: list[dict[int, Distribution]] = [{} for _ in self.states]
        for (s, act), dist in transitions.items():
            aid = ids.setdefault(str(act), len(ids))
            # a plain int in range needs no check, nor the role text
            if not (type(s) is int and 0 <= s < n):
                s = self._check_state(s, "source state")
            row = rows[s]
            if aid in row:
                raise _fault("transitions listed twice", s, act)
            row[aid] = self._distribution(tuple(dist), s, act)
        self._choices = [tuple(sorted(row.items())) for row in rows]
        self._name(list(ids), labels, state_names, ap_names)

    @classmethod
    def from_choice_table(cls, num_states, init, choices, action_names,
                          labels=None, state_names=None, ap_names=None) -> Mdp:
        """Build an MDP from a finished choice table, without compiling it.

        choices holds a row per state 0..num_states-1, the row a tuple of
        (action id, distribution) pairs with ids ascending, and the
        distribution a tuple of (int successor, float probability) pairs;
        action_names names the ids 0, 1, .... The table's tuples are kept,
        not copied. Each row is checked once, in state order: DomainError
        is raised for an id out of order or range, and for the first pair
        that breaks the distribution rule of Mdp(...), with the same text,
        or that is not an (int, float) tuple. labels, state_names and
        ap_names are read as by Mdp(...).
        """
        self = cls.__new__(cls)
        n = self._set_states(num_states, init)
        self._choices = table = list(choices)
        if len(table) != n:
            raise DomainError(f"{len(table)} rows of choices for {n} states")
        names = list(map(str, action_names))
        for s, row in enumerate(table):
            last = -1
            for aid, dist in row:
                if not (type(aid) is int and last < aid < len(names)):
                    raise DomainError(f"state {s} lists action id {aid!r} out "
                                      f"of ascending order in 0..{len(names) - 1}")
                last = aid
                if self._distribution(dist, s, names[aid]) is not dist:
                    raise _fault("not a tuple of (int, float) pairs", s,
                                 names[aid])
        self._name(names, labels, state_names, ap_names)
        return self

    def _set_states(self, num_states, init) -> int:
        n = self.num_states = _state_id(num_states, "state count")
        if n < 1:
            raise DomainError(f"state count must be positive, got {n}")
        self.init = self._check_state(init, "initial state")
        return n

    def _distribution(self, dist, s: int, act) -> Distribution:
        """dist held to the distribution rule, as a tuple of (int successor,
        float probability) pairs: dist itself when it is one already.

        Raises DomainError naming state s and action act for the first fault
        in pair order, then for an empty distribution and a sum off 1 (see
        __init__). Both constructors check every distribution with it.
        """
        n = self.num_states
        succ: dict[int, float] = {}
        total = 0.0
        same = type(dist) is tuple
        for pair in dist:
            t, p = pair
            if not (type(t) is int and 0 <= t < n):
                t, same = self._check_state(t, f"state {s} has successor"), False
            if type(p) is not float:
                # float() would read "0.5", and True as 1.0
                if isinstance(p, bool) or not hasattr(type(p), "__float__"):
                    raise _fault(f"non-numeric probability {p!r} to successor "
                                 f"{t}", s, act)
                try:
                    p, same = float(p), False
                except OverflowError:
                    raise _fault(f"probability to successor {t} out of float "
                                 "range", s, act) from None
            if not p > 0.0:
                raise _fault(f"nonpositive probability {p!r} to successor {t}",
                             s, act)
            if t in succ:
                raise _fault(f"successor {t} listed twice", s, act)
            succ[t] = p
            total += p
            if type(pair) is not tuple:
                same = False
        if not succ:
            raise _fault("empty distribution", s, act)
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise _fault(f"probabilities sum to {total!r}", s, act)
        return dist if same else tuple(succ.items())

    def _name(self, action_names: list[str], labels, state_names, ap_names):
        """Name the action ids 0, 1, ... after action_names, and read
        labels, state_names and ap_names (see __init__)."""
        self.action_names = action_names
        self._action_ids = {a: aid for aid, a in enumerate(action_names)}
        if len(self._action_ids) < len(action_names):
            raise DomainError("an action name is listed twice")
        n = self.num_states
        atoms: dict[str, None] = {}
        self._labels: dict[int, frozenset[str]] = {}
        # id of a label-set object -> (the object, kept alive, its names)
        frozen: dict[int, tuple[object, frozenset[str]]] = {}
        for s, aps in (labels or {}).items():
            if not (type(s) is int and 0 <= s < n):
                s = self._check_state(s, "labelled state")
            seen = frozen.get(id(aps))
            if seen is None:
                names = _names(aps, f"of state {s}")
                frozen[id(aps)] = aps, names
                unseen = names.difference(atoms)
                if unseen:
                    atoms.update(dict.fromkeys(sorted(unseen)))
            else:
                names = seen[1]
            if names:
                self._labels[s] = names
        atoms.update(dict.fromkeys(_names(ap_names or (), "in ap_names")))
        self.ap_names: list[str] = list(atoms)
        self._state_names = state_names

    # -- queries ---------------------------------------------------------

    @property
    def states(self) -> range:
        return range(self.num_states)

    @cached_property
    def state_names(self) -> tuple[str, ...] | None:
        """The display name of each state, or None; built on first use."""
        if self._state_names is None:
            return None
        return tuple(self._state_names)

    def _check_state(self, s, role: str = "state") -> int:
        s = _state_id(s, role)
        if not 0 <= s < self.num_states:
            raise DomainError(f"{role} {s} outside the states "
                              f"0..{self.num_states - 1}")
        return s

    def action_id(self, name: str) -> int:
        try:
            return self._action_ids[name]
        except KeyError:
            raise DomainError(f"unknown action label {name!r}") from None

    def action_name(self, aid: int) -> str:
        if not 0 <= aid < len(self.action_names):
            raise DomainError(f"unknown action id {aid}")
        return self.action_names[aid]

    def choice_table(self) -> Sequence[tuple[tuple[int, Distribution], ...]]:
        """The compiled choices: state -> ((action id, distribution), ...).

        Every state 0..n-1 has an entry, empty when no action is enabled;
        action ids ascend within an entry. The engines iterate this table
        directly; it is shared, not copied, so callers must not mutate it.
        """
        return self._choices

    def enabled_actions(self, s: int) -> tuple[int, ...]:
        """Action ids listed at s, ascending."""
        self._check_state(s)
        return tuple(aid for aid, _ in self._choices[s])

    def distribution(self, s: int, aid: int) -> Distribution:
        self._check_state(s)
        for a, dist in self._choices[s]:
            if a == aid:
                return dist
        name = self.action_names[aid] if 0 <= aid < len(self.action_names) else aid
        raise DomainError(f"action {name!r} not enabled at state {s}")

    def labels_of(self, s: int) -> frozenset[str]:
        self._check_state(s)
        return self._labels.get(s, frozenset())

    @property
    def labels(self) -> Mapping[int, frozenset[str]]:
        """The labels of the labelled states; a state not in it carries
        none. Shared, not copied, so callers must not mutate it."""
        return self._labels

    def transition_items(self):
        """Iterate ((state, action id), distribution) in ascending order."""
        return (((s, aid), dist) for s, row in enumerate(self._choices)
                for aid, dist in row)

    def state_name(self, s: int) -> str:
        names = self._state_names
        if not isinstance(names, Sequence):  # None, or read once
            names = self.state_names
        if names is not None and 0 <= s < len(names):
            return names[s]
        return str(s)

    def names_of(self, states: Iterable[int]) -> dict[int, str] | None:
        """The display name of each of states, or None when the model has
        no names."""
        if self._state_names is None:
            return None
        return {s: self.state_name(s) for s in states}


def validate_mdp(m: Mdp) -> list[int]:
    """The states without an enabled action, ascending; an empty list
    means valid.

    The Mdp constructor already holds every action to a probability
    distribution. A state without actions is left to this check, which the
    CLI runs, since a library model may keep such sink states.
    """
    table = m.choice_table()
    return [s for s in m.states if not table[s]]


# -- paths ---------------------------------------------------------------


@record(frozen=True)
class FinitePath:
    """Alternating state/action sequence s0 -a0-> s1 ... -a(n-1)-> sn."""

    states: tuple[int, ...]
    actions: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) == 0:
            raise DomainError("a path needs at least one state")
        if len(self.actions) != len(self.states) - 1:
            raise DomainError(
                f"{len(self.states)} states need {len(self.states) - 1} actions, "
                f"got {len(self.actions)}")

    def __len__(self):
        return len(self.actions)

    def steps(self):
        """Yield (index, state, action id, successor) per transition taken."""
        for i, aid in enumerate(self.actions):
            yield i, self.states[i], aid, self.states[i + 1]


@record(frozen=True)
class WeightedPath:
    """A path with its probability."""

    path: FinitePath
    probability: float


def path_probability(m: Mdp, path: FinitePath) -> float:
    """Product of the step probabilities of path through m.

    The empty product (single-state path) is 1.0. A step that does not
    exist in m raises DomainError naming the step index.
    """
    prob = 1.0
    for i, s, aid, t in path.steps():
        try:
            dist = m.distribution(s, aid)
        except DomainError:
            raise DomainError(
                f"step {i}: action id {aid} not enabled at state {s}") from None
        for u, p in dist:
            if u == t:
                prob *= p
                break
        else:
            raise DomainError(
                f"step {i}: no transition from state {s} to {t} under action id {aid}")
    return prob


# -- schedulers and induced chains ---------------------------------------


@record(frozen=True)
class Scheduler:
    """Deterministic scheduler. Without a bound it is memoryless: choice
    maps a state to its action id. With bound k it counts steps, for a
    step-bounded until: choice maps a pair (state, steps left) to the
    action id taken there, counting down from (init, k)."""

    choice: Mapping
    bound: int | None = None

    def action_for(self, s) -> int:
        """The action id at s: a state, or a pair when the scheduler counts
        steps."""
        try:
            return self.choice[s]
        except KeyError:
            raise DomainError(f"scheduler undefined at state {s}") from None


@record(frozen=True)
class Dtmc:
    """Chain induced by fixing one action per state of an MDP: its choice
    table with one entry per state.

    Keeps the original MDP state ids so that paths and diagnoses refer back
    to the source model; states lists the states reachable from init in
    ascending order, and only they have entries. choices[s] is a row of
    Mdp.choice_table() cut to the one (action id, distribution) pair the
    scheduler picks at s. labels[s] is the labelling of s. The chain of a
    scheduler that counts steps has the pairs (state, steps left) for
    states, and labels a pair as its state.
    """

    states: tuple
    init: object
    choices: Mapping
    labels: Mapping[object, frozenset[str]]


def induce_dtmc(m: Mdp, sched: Scheduler) -> Dtmc:
    """Fix sched's action in every state reachable from m.init.

    Each picked distribution is m's own, shared, not copied: the Mdp
    constructor already lists every successor once with a positive
    probability. Raises DomainError if sched misses a reachable state or picks a
    disabled action there.

    A scheduler that counts steps, with bound k, induces the chain over the
    pairs (state, steps left) reachable from (init, k): a step from (s, j)
    leads to (t, j - 1), with its probability. A pair without a choice,
    such as a target, one of no steps left or one that reaches no target,
    ends the chain with an empty row.
    """
    table = m.choice_table()
    bound = sched.bound
    init = m.init if bound is None else (m.init, bound)
    reachable = []
    seen = {init}
    queue = deque([init])
    choices: dict = {}
    while queue:
        s = queue.popleft()
        reachable.append(s)
        if bound is None:
            state, aid = s, sched.action_for(s)
        elif s[1] > 0 and s in sched.choice:
            state, aid = s[0], sched.choice[s]
        else:
            choices[s] = ()
            continue
        for a, dist in table[state]:
            if a == aid:
                break
        else:
            raise DomainError(
                f"scheduler picks disabled action id {aid} at state {s}")
        if bound is not None:
            dist = tuple(((t, s[1] - 1), p) for t, p in dist)
        choices[s] = ((aid, dist),)
        for t, _ in dist:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    labels = {s: m.labels_of(s if bound is None else s[0])
              for s in reachable}
    return Dtmc(tuple(sorted(reachable)), init, choices, labels)


def live_states(choices, guard: Iterable[int], targets: Iterable[int]
                ) -> tuple[dict[int, list[int]], set[int]]:
    """The guard-only predecessor map and the live states of an until.

    choices is a choice table indexed by state, Mdp.choice_table() or
    Dtmc.choices. preds maps a state to the guard states with a step into
    it; live holds the targets and every state that reaches one through
    guard states alone.
    """
    preds: dict[int, list[int]] = {}
    for s in guard:
        for _, dist in choices[s]:
            for t, _ in dist:
                preds.setdefault(t, []).append(s)
    live = set(targets)
    stack = list(live)
    while stack:
        for s in preds.get(stack.pop(), ()):
            if s not in live:
                live.add(s)
                stack.append(s)
    return preds, live


# -- external text format --------------------------------------------------


def content_lines(text):
    """Yield (line number, stripped content) skipping blanks and # comments."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_explicit_model(text: str, labels_text: str | None = None,
                         filename: str | None = None,
                         labels_filename: str | None = None,
                         state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    """Parse the plain-text transition format.

    Layout: a STATES <n> line, an INIT <s> line, then one
    "<state> <action label> <successor> <probability>" line per transition.
    '#' starts a comment; blank lines are ignored. The optional labels text
    holds "<state>: <ap> <ap> ..." lines. A state count above state_cap
    raises BudgetError as soon as it is read, before the model takes a
    row per state.
    """
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty model file", filename=filename)

    def fail(no, msg):
        raise ParseError(msg, line=no, filename=filename)

    no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "STATES":
        fail(no, f"expected 'STATES <n>', got {head!r}")
    try:
        num_states = int(parts[1])
    except ValueError:
        fail(no, f"state count must be an integer, got {parts[1]!r}")
    if num_states <= 0:
        fail(no, f"state count must be positive, got {num_states}")
    if num_states > state_cap:
        raise BudgetError(f"state count {num_states} exceeds the cap of "
                          f"{state_cap} states")

    if len(lines) < 2:
        raise ParseError("missing INIT line", filename=filename)
    no, head = lines[1]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "INIT":
        fail(no, f"expected 'INIT <s>', got {head!r}")
    try:
        init = int(parts[1])
    except ValueError:
        fail(no, f"initial state must be an integer, got {parts[1]!r}")
    if not 0 <= init < num_states:
        fail(no, f"initial state {init} out of range 0..{num_states - 1}")

    transitions: dict[tuple[int, str], list[tuple[int, float]]] = {}
    for no, line in lines[2:]:
        parts = line.split()
        if len(parts) != 4:
            fail(no, f"expected '<s> <action> <s'> <prob>', got {line!r}")
        try:
            s = int(parts[0])
            t = int(parts[2])
        except ValueError:
            fail(no, f"state ids must be integers in {line!r}")
        try:
            p = float(parts[3])
        except ValueError:
            fail(no, f"probability must be a number, got {parts[3]!r}")
        for v in (s, t):
            if not 0 <= v < num_states:
                fail(no, f"state {v} out of range 0..{num_states - 1}")
        transitions.setdefault((s, parts[1]), []).append((t, p))

    labels: dict[int, set[str]] = {}
    if labels_text is not None:
        labels = parse_labels_text(labels_text, num_states, filename=labels_filename)
    return Mdp(num_states, init, transitions, labels)


def parse_labels_text(text: str, num_states: int,
                      filename: str | None = None) -> dict[int, set[str]]:
    labels: dict[int, set[str]] = {}
    for no, line in content_lines(text):
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"expected '<state>: <ap> ...', got {line!r}",
                             line=no, filename=filename)
        try:
            s = int(head.strip())
        except ValueError:
            raise ParseError(f"state id must be an integer, got {head.strip()!r}",
                             line=no, filename=filename) from None
        if not 0 <= s < num_states:
            raise ParseError(f"state {s} out of range 0..{num_states - 1}",
                             line=no, filename=filename)
        if '"' in rest:  # a property quotes a label as "a-b", not "a"b"
            name = next(name for name in rest.split() if '"' in name)
            raise ParseError(f"label {name!r} holds '\"', which no property "
                             "can name", line=no, filename=filename)
        labels.setdefault(s, set()).update(rest.split())
    return labels
