"""Cause and blame diagnosis of probabilistic counterexamples.

Guided by structural-equation notions of causality: a literal of the
property holding at a counterexample state is a cause when flipping it
(possibly together with a few other propositions at that state) would
invalidate the counterexample. Its degree of responsibility is 1/(k+1)
where k is the number of helper flips needed; the degree of blame of an
action aggregates, over its transitions inside the counterexample, the
best responsibility found at each successor weighted by the probability
mass crossing that transition.

Cause extraction itself is syntactic and cheap: it walks the guard and
target formulas as written once per state, granting full responsibility
through conjunctions and splitting it at disjunctions whose two sides both
hold; below a negation the two connectives trade roles. Every cause it
finds is a semantic cause of the same degree, but it keeps each state in
its role (guard, target or neither), so it misses causes whose smallest
contingency changes that role. On 268 counterexamples of seeded random
models over four atoms it missed 39 of 574 semantic causes, 30 of degree
1/3 and 9 of degree 1/4, all of this kind
(tests/test_diagnosis.py::TestAgainstOracle). Finding them would take a
search over subsets of the alphabet, exponential in its size.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .counterexample import Counterexample, counterexample_to_dict
from .errors import DomainError
from .pctl import (And, Atom, FalseFormula, Not, Or, PropertySpec, StateFormula,
                   TrueFormula, eval_state_formula, fmt_number)
from .records import record

# Absolute tolerance for "these two probability masses coincide" tests,
# such as ties for the top rank; masses are sums of path probabilities, so
# genuinely different sums differ by at least one path's probability.
MASS_EQ_TOL = 1e-12


# -- cause extraction --------------------------------------------------------


@record(frozen=True)
class Cause:
    """A property literal holding at a counterexample state, with its
    degree of responsibility and the mass of the paths through the state."""

    state: int
    ap: str
    value: bool
    dr: float
    origin: str  # "guard", "target", or "both"
    mass: float = 0.0
    normalized_mass: float = 0.0

    @property
    def literal(self) -> str:
        return self.ap if self.value else f"!{self.ap}"

    @property
    def score(self) -> float:
        """Ranking weight: responsibility times absolute mass."""
        return self.dr * self.mass


def find_causes(s: int, labels: Mapping[int, frozenset[str]],
                phi: StateFormula, w: int = 0,
                _counter: list[int] | None = None
                ) -> dict[tuple[str, bool], float]:
    """Literals of phi that support its truth at s, with responsibilities.

    phi must hold at s (DomainError otherwise). The walk reads phi as
    written: a negation flips the truth value sought below it, so under
    it a conjunction is split as a disjunction is, and the reverse.
    w counts the disjunctions already split on the way down: every literal
    reached at depth w gets degree 1/(w+1), conjunctions pass w through,
    and a disjunction whose both sides hold recurses into both at w+1.
    A constant that holds contributes no causes. Duplicate literals keep
    their largest degree. _counter counts the nodes visited, negations
    excepted, so !(a & b) costs what !a | !b does. Each subformula is
    evaluated at s at most once, and the causes are gathered into one
    dict, so the work is linear in the formula.
    """
    walk = _CauseWalk(s, labels, _counter)
    walk.walk(phi, True, w)
    return walk.out


class _CauseWalk:
    """One find_causes walk at state s: the value of each subformula met,
    by id, and the causes found. Its methods recurse by name rather than
    as closures over each other, so a walk leaves no reference cycle."""

    def __init__(self, s, labels, counter):
        self.s = s
        self.labels = labels
        self.counter = counter
        self.truth: dict[int, bool] = {}  # id(subformula) -> its value at s
        self.out: dict[tuple[str, bool], float] = {}

    def holds(self, phi) -> bool:
        truth = self.truth
        key = id(phi)
        if key not in truth:
            if isinstance(phi, Not):
                truth[key] = not self.holds(phi.child)
            elif isinstance(phi, And):
                truth[key] = self.holds(phi.left) and self.holds(phi.right)
            elif isinstance(phi, Or):
                truth[key] = self.holds(phi.left) or self.holds(phi.right)
            else:
                truth[key] = eval_state_formula(self.labels, self.s, phi)
        return truth[key]

    def walk(self, phi, want: bool, w: int):
        """Add the causes of phi sought to evaluate to want at s."""
        while isinstance(phi, Not):
            phi, want = phi.child, not want
        if self.counter is not None:
            self.counter[0] += 1
        s = self.s
        if isinstance(phi, (TrueFormula, FalseFormula)):
            if isinstance(phi, TrueFormula) == want:
                return
            raise DomainError(f"formula does not hold at state {s}")
        if isinstance(phi, Atom):
            if (phi.name in self.labels.get(s, frozenset())) != want:
                raise DomainError(
                    f"formula does not hold at state {s}: {phi.name} "
                    f"is {'false' if want else 'true'} there")
            lit = phi.name, want
            out = self.out
            out[lit] = max(out.get(lit, 0.0), 1.0 / (w + 1))
            return
        if not isinstance(phi, (And, Or)):
            raise DomainError(f"not a state formula: {phi!r}")
        if isinstance(phi, Or) == want:  # an | sought true, an & sought false
            left_holds = self.holds(phi.left) == want
            right_holds = self.holds(phi.right) == want
            if not (left_holds or right_holds):
                raise DomainError(f"formula does not hold at state {s}")
            if not (left_holds and right_holds):
                self.walk(phi.left if left_holds else phi.right, want, w)
                return
            w += 1  # both sides hold: they split the responsibility
        self.walk(phi.left, want, w)
        self.walk(phi.right, want, w)


def collect_causes(cx: Counterexample,
                   _counter: list[int] | None = None
                   ) -> dict[tuple[int, str, bool], Cause]:
    """All causes of the counterexample, deduplicated per (state, literal).

    Final path states contribute causes of the until target, interior
    states of the until guard. A literal reached from both roles keeps the
    larger degree and origin "both". Masses are left at zero; the report
    generator fills them in.

    The roles are read off the nodes: walking up from each leaf, in path
    order, to the first node met before, each node passed is a guard visit
    of its state, root first, then the leaf a target visit. Each distinct
    (state, role) pair is evaluated once, in order of first visit.
    """
    until = cx.spec.path
    forest = cx.forest
    parents, states = forest.parents, forest.states
    marked: set[int] = set()  # the nodes above some leaf met so far
    visits: dict[tuple[int, str], None] = {}  # in order of first visit
    for leaf in forest.leaves:
        fresh, n = [], parents[leaf]
        while n >= 0 and n not in marked:
            marked.add(n)
            fresh.append(n)
            n = parents[n]
        for n in reversed(fresh):
            visits.setdefault((states[n], "guard"))
        visits.setdefault((states[leaf], "target"))
    out: dict[tuple[int, str, bool], Cause] = {}
    for s, role in visits:
        phi = until.right if role == "target" else until.left
        for (ap, value), dr in find_causes(s, cx.labels, phi, 0,
                                           _counter).items():
            key = (s, ap, value)
            prev = out.get(key)
            if prev is None:
                out[key] = Cause(s, ap, value, dr, role)
            elif prev.origin != role or dr > prev.dr:
                origin = prev.origin if prev.origin == role else "both"
                out[key] = Cause(s, ap, value, max(prev.dr, dr), origin)
    return out


# -- report generation -------------------------------------------------------


@record(frozen=True)
class TransitionDiagnosis:
    """A step source -action-> target of the counterexample paths: the mass
    of the paths taking it, the causes at target and, for a program, the
    (module, line) commands of the action."""

    source: int
    action: int
    target: int
    mass: float
    causes: tuple[Cause, ...]
    commands: tuple[tuple[str, int], ...] = ()


@record(frozen=True)
class BlameEntry:
    """An action at a state with its degree of blame db and its
    transitions, in report order."""

    state: int
    action: int
    action_label: str
    db: float
    transitions: tuple[TransitionDiagnosis, ...]


@record
class DiagnosisReport:
    """The ranked causes and blamed actions of a counterexample, as
    generate_diagnoses returns them."""

    spec: PropertySpec
    counterexample: Counterexample
    causes: tuple[Cause, ...]
    entries: tuple[BlameEntry, ...]
    most_responsible: tuple[Cause, ...]
    most_blamed: tuple[BlameEntry, ...]
    pmax: float | None = None
    operation_count: int = 0

    def to_dict(self) -> dict:
        cx_dict = counterexample_to_dict(self.counterexample)
        return {
            "format_version": 1,
            "property": str(self.spec),
            "comparison": self.spec.comparison,
            "threshold": self.spec.threshold,
            "pmax": self.pmax,
            "counterexample": {
                "total_mass": cx_dict["total_mass"],
                "paths": cx_dict["paths"],
            },
            "actions": [
                {
                    "state": e.state,
                    "action": e.action_label,
                    "dB": e.db,
                    "transitions": [
                        {
                            "to": t.target,
                            "mass": t.mass,
                            "causes": [_cause_dict(c) for c in t.causes],
                            "source": [{"module": mod, "line": line}
                                       for mod, line in t.commands],
                        }
                        for t in e.transitions
                    ],
                }
                for e in self.entries
            ],
            "most_responsible": [_cause_dict(c) for c in self.most_responsible],
            "most_blamed": [
                {"state": e.state, "action": e.action_label, "dB": e.db}
                for e in self.most_blamed
            ],
        }

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self, normalize: bool = False) -> str:
        return "".join(render_text_report(self, normalize=normalize))


def _cause_dict(c: Cause) -> dict:
    return {
        "state": c.state,
        "literal": c.literal,
        "dR": c.dr,
        "mass": c.mass,
        "normalized_mass": c.normalized_mass,
        "origin": c.origin,
    }


def generate_diagnoses(cx: Counterexample, source_map=None,
                       pmax: float | None = None) -> DiagnosisReport:
    """Rank the counterexample's actions by blame and its causes by
    responsibility times mass.

    Actions are ordered by descending blame, their transitions by the best
    cause score at the target, and causes within a transition by score;
    all remaining ties fall back to state id, action label, then
    proposition name, so reports are deterministic. When a source map is
    given (the {action id: commands} mapping build_mdp returns for a
    guarded-command program), each transition carries the (module, line)
    commands of its action.

    Ranking by responsibility times absolute mass orders causes exactly as
    the normalized variant would: normalization divides every score by the
    same total. To rank under another property, pass
    mdpdiag.records.replace(cx, spec=...).
    """
    counter = [0]
    causes = collect_causes(cx, _counter=counter)
    smass, tmass = cx.forest.masses(counter)
    total = cx.total_mass

    sized: dict[tuple[int, str, bool], Cause] = {}
    for key, c in causes.items():
        m = smass.get(c.state, 0.0)
        sized[key] = Cause(c.state, c.ap, c.value, c.dr, c.origin, m,
                           m / total if total else 0.0)

    best_dr: dict[int, float] = {}
    by_state: dict[int, list[Cause]] = {}
    for c in sized.values():
        if c.dr > best_dr.get(c.state, 0.0):
            best_dr[c.state] = c.dr
        by_state.setdefault(c.state, []).append(c)
    for cs in by_state.values():
        cs.sort(key=lambda c: (-c.score, c.ap))

    grouped: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for (u, a, v), m in sorted(tmass.items()):
        grouped.setdefault((u, a), []).append((v, m))

    entries = []
    for (u, a), succs in grouped.items():
        db = 0.0
        trans = []
        commands = () if source_map is None else source_map.get(a, ())
        for v, m in succs:
            counter[0] += 1
            db += best_dr.get(v, 0.0) * m
            trans.append(TransitionDiagnosis(u, a, v, m,
                                             tuple(by_state.get(v, ())),
                                             commands))
        trans.sort(key=lambda t: (-max((c.score for c in t.causes), default=0.0),
                                  t.target))
        entries.append(BlameEntry(u, a, cx.action_name(a), db,
                                  tuple(trans)))
    entries.sort(key=lambda e: (-e.db, e.state, e.action_label))

    ranked = sorted(sized.values(), key=lambda c: (-c.score, c.state, c.ap))
    top_score = ranked[0].score if ranked else 0.0
    most_responsible = tuple(c for c in ranked
                             if abs(c.score - top_score) <= MASS_EQ_TOL)
    top_blame = entries[0].db if entries else 0.0
    most_blamed = tuple(e for e in entries
                        if abs(e.db - top_blame) <= MASS_EQ_TOL)

    return DiagnosisReport(cx.spec, cx, tuple(ranked), tuple(entries),
                           most_responsible, most_blamed, pmax=pmax,
                           operation_count=counter[0])


# -- text rendering ----------------------------------------------------------


def _path_texts(cx: Counterexample) -> Iterator[str]:
    """Each path as text, "s0 -a0-> s1 ...", one at a time in path order;
    the text of a step is made once per distinct (action id, successor)."""
    forest = cx.forest
    pieces: dict[tuple[int, int], str] = {}
    node_text = []
    for p, a, s in zip(forest.parents, forest.actions, forest.states):
        if p < 0:
            node_text.append(cx.state_name(s))
            continue
        piece = pieces.get((a, s))
        if piece is None:
            piece = pieces[a, s] = f"-{cx.action_name(a)}-> {cx.state_name(s)}"
        node_text.append(piece)
    return forest.along_paths(node_text, " ".join)


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


def render_text_report(report: DiagnosisReport,
                       normalize: bool = False) -> Iterator[str]:
    """The report's text lines, each ending in a newline. A path line is
    made as it is yielded: one path text is alive at a time."""
    cx = report.counterexample
    yield f"property: {report.spec}\n"
    if report.pmax is not None:
        yield (f"verdict: VIOLATED (Pmax = {report.pmax:.6g}, "
               f"threshold {fmt_number(report.spec.threshold)})\n")
    yield (f"counterexample: {len(cx.forest.leaves)} paths, "
           f"total probability {cx.total_mass:.6g}\n")
    for i, (text, prob) in enumerate(zip(_path_texts(cx),
                                         cx.forest.probabilities), start=1):
        yield f"  {i}) {text}   p={prob:.6g}\n"
    yield "ranked actions by blame:\n"
    for rank, e in enumerate(report.entries, start=1):
        yield (f"  {rank}. action {e.action_label} at state "
               f"{cx.state_name(e.state)}: dB = {e.db:.6g}\n")
        for t in e.transitions:
            yield (f"       -> {cx.state_name(t.target)}  "
                   f"(mass {t.mass:.6g})\n")
            for c in t.causes:
                if normalize:
                    shown = (f"normalized mass {c.normalized_mass:.6g}, "
                             f"share {_pct(c.dr * c.normalized_mass)}")
                else:
                    shown = f"mass {c.mass:.6g}, score {c.score:.6g}"
                yield (f"          cause ({cx.state_name(c.state)}, "
                       f"{c.literal}): dR = {c.dr:g}, {shown}\n")
            for mod, line_no in t.commands:
                yield f"          command: module {mod} line {line_no}\n"
    if report.most_responsible:
        best = ", ".join(f"({cx.state_name(c.state)}, {c.literal})"
                         for c in report.most_responsible)
        yield f"most responsible cause: {best}\n"
    if report.most_blamed:
        best = ", ".join(f"{e.action_label} at {cx.state_name(e.state)}"
                         for e in report.most_blamed)
        yield f"most blamed action: {best}\n"
