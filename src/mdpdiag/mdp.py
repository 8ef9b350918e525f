"""Explicit-state Markov decision processes, schedulers, and induced chains.

States are dense integers 0..n-1. Action labels are interned into a dense
id table at construction; instances are treated as immutable afterwards.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from .errors import DomainError, ParseError
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


class Mdp:
    """A finite MDP with labelled actions and labelled states."""

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
        state.
        """
        n = self.num_states = _state_id(num_states, "state count")
        if n < 1:
            raise DomainError(f"state count must be positive, got {n}")
        self.init = self._check_state(init, "initial state")
        self.action_names: list[str] = []
        self._action_ids: dict[str, int] = {}

        def fault(what: str) -> DomainError:
            return DomainError(f"{what} for state {s} action {act!r}")

        rows: list[dict[int, Distribution]] = [{} for _ in self.states]
        for (s, act), dist in transitions.items():
            aid = self._intern_action(str(act))
            # a plain int in range needs no check, nor the role text
            if not (type(s) is int and 0 <= s < n):
                s = self._check_state(s, "source state")
            row = rows[s]
            if aid in row:
                raise fault("transitions listed twice")
            succ: dict[int, float] = {}
            total = 0.0
            for t, p in dist:
                if not (type(t) is int and 0 <= t < n):
                    t = self._check_state(t, f"state {s} has successor")
                if type(p) is not float:
                    # float() would read "0.5", and True as 1.0
                    if isinstance(p, bool) or not hasattr(type(p), "__float__"):
                        raise fault(f"non-numeric probability {p!r} to "
                                    f"successor {t}")
                    try:
                        p = float(p)
                    except OverflowError:
                        raise fault(f"probability to successor {t} out of "
                                    f"float range") from None
                if not p > 0.0:
                    raise fault(f"nonpositive probability {p!r} to successor {t}")
                if t in succ:
                    raise fault(f"successor {t} listed twice")
                succ[t] = p
                total += p
            if not succ:
                raise fault("empty distribution")
            if not abs(total - 1.0) <= PROB_SUM_TOL:
                raise fault(f"probabilities sum to {total!r}")
            row[aid] = tuple(succ.items())
        self._choices = [tuple(sorted(row.items())) for row in rows]

        atoms: dict[str, None] = {}
        self._labels: dict[int, frozenset[str]] = {}
        for s, aps in (labels or {}).items():
            s = self._check_state(s, "labelled state")
            names = frozenset(str(a) for a in aps)
            unseen = names.difference(atoms)
            if unseen:
                atoms.update(dict.fromkeys(sorted(unseen)))
            if names:
                self._labels[s] = names
        atoms.update(dict.fromkeys(str(a) for a in ap_names or ()))
        self.ap_names: list[str] = list(atoms)

        self._state_names = state_names

    def _intern_action(self, name: str) -> int:
        aid = self._action_ids.get(name)
        if aid is None:
            aid = len(self.action_names)
            self._action_ids[name] = aid
            self.action_names.append(name)
        return aid

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

    def label_map(self) -> dict[int, frozenset[str]]:
        """Labels of every state, including empty sets."""
        return {s: self._labels.get(s, frozenset()) for s in self.states}

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


@record(frozen=True)
class Violation:
    """One structural defect found by validate_mdp."""

    kind: str
    detail: str
    state: int

    def __str__(self):
        return f"[{self.kind}] state {self.state}: {self.detail}"


def validate_mdp(m: Mdp) -> list[Violation]:
    """Report every state without an enabled action; an empty list means
    valid.

    The Mdp constructor already holds every action to a probability
    distribution. A state without actions is left to this check, which the
    CLI runs, since a library model may keep such sink states.
    """
    table = m.choice_table()
    return [Violation("no-enabled-action", "state has no enabled action",
                      state=s) for s in m.states if not table[s]]


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
    """Memoryless deterministic scheduler: state -> chosen action id."""

    choice: Mapping[int, int]

    def action_for(self, s: int) -> int:
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
    scheduler picks at s. labels[s] is the labelling of s.
    """

    states: tuple[int, ...]
    init: int
    choices: Mapping[int, tuple[tuple[int, Distribution], ...]]
    labels: Mapping[int, frozenset[str]]


def induce_dtmc(m: Mdp, sched: Scheduler) -> Dtmc:
    """Fix sched's action in every state reachable from m.init.

    Each picked distribution is m's own, shared, not copied: the Mdp
    constructor already lists every successor once with a positive
    probability. Raises DomainError if sched misses a reachable state or picks a
    disabled action there.
    """
    table = m.choice_table()
    reachable = []
    seen = {m.init}
    queue = deque([m.init])
    choices: dict[int, tuple[tuple[int, Distribution], ...]] = {}
    while queue:
        s = queue.popleft()
        reachable.append(s)
        aid = sched.action_for(s)
        for a, dist in table[s]:
            if a == aid:
                break
        else:
            raise DomainError(
                f"scheduler picks disabled action id {aid} at state {s}")
        choices[s] = ((aid, dist),)
        for t, _ in dist:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    labels = {s: m.labels_of(s) for s in reachable}
    return Dtmc(tuple(sorted(reachable)), m.init, choices, labels)


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
                         labels_filename: str | None = None) -> Mdp:
    """Parse the plain-text transition format.

    Layout: a STATES <n> line, an INIT <s> line, then one
    "<state> <action label> <successor> <probability>" line per transition.
    '#' starts a comment; blank lines are ignored. The optional labels text
    holds "<state>: <ap> <ap> ..." lines.
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
        labels.setdefault(s, set()).update(rest.split())
    return labels
