"""The counterexample layers against their earlier per-position loops.

verify_counterexample runs once over the nodes of the counterexample's
prefix forest, and collect_causes reads the roles of the states off
them. PathForest.masses, the path text of the report and the paths of
the export and of the flat view follow the paths in path order along
one chain of nodes. The loops below are the earlier versions, which
did the same work at every position of every path of the flat view;
they are the reference. The check that the paths follow the
counterexample's scheduler came later and is written in the same
per-position style.
Every problem list, cause (with its degree, origin and insertion order),
mass index, operation count and rendered report must come out exactly
equal, on counterexamples enumerated from seeded random cyclic chains,
on corrupted copies of them, and on forests of hand-picked shapes:
repeated paths, paths running on through another's end, paths from
several start states, paths whose order is not the forest's depth-first
order, a 20,000-state simple path and a slow cycle of a few hundred
paths. The export and the flat view are compared with the paths the
forest was built from.
"""

import random

import pytest

from mdpdiag import (Counterexample, DomainError, FinitePath, Mdp,
                     PathForest, PathFormula, PropertySpec, Scheduler,
                     WeightedPath, collect_causes, counterexample_to_dict,
                     diagnosis, enumerate_satisfying_paths,
                     eval_state_formula, find_causes, generate_diagnoses,
                     induce_dtmc, mass_exceeds, verify_counterexample)
from mdpdiag.records import replace

from fixtures import parse_state_formula
from oracles import forest_of, prefix_paths

# -- the reference: earlier per-position versions ----------------------------


def reference_verify_counterexample(cx, labels=None):
    labels = cx.labels if labels is None else labels
    phi1, phi2 = cx.spec.path.left, cx.spec.path.right
    bound = cx.spec.path.bound
    out: list[str] = []
    if not cx.paths:
        out.append("counterexample contains no paths")
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
        if not eval_state_formula(labels, states[-1], phi2):
            out.append(f"{tag}: final state {states[-1]} does not satisfy "
                       "the until target")
        choice = {} if cx.scheduler is None else cx.scheduler.choice
        for j, (s, a) in enumerate(zip(states, wp.path.actions)):
            if cx.scheduler is None or choice.get(s) == a:
                continue
            took = (f"{tag}: at state {s}, position {j}, the path takes "
                    f"action {cx.action_name(a)}, where the scheduler ")
            if s in choice:
                out.append(took + f"chooses {cx.action_name(choice[s])}")
            else:
                out.append(took + "makes no choice")
            break
        for j, s in enumerate(states[:-1]):
            if eval_state_formula(labels, s, phi2):
                out.append(f"{tag}: state {s} at position {j} already "
                           "satisfies the until target; paths must stop at "
                           "their first such state")
                break
            if not eval_state_formula(labels, s, phi1):
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


def reference_collect_causes(cx, _counter=None):
    counter = _counter if _counter is not None else [0]
    phi1 = cx.spec.path.left
    phi2 = cx.spec.path.right
    per_state: dict[tuple[int, str], dict] = {}
    out: dict[tuple[int, str, bool], diagnosis.Cause] = {}
    for wp in cx.paths:
        states = wp.path.states
        for pos, s in enumerate(states):
            role = "target" if pos == len(states) - 1 else "guard"
            cache_key = (s, role)
            found = per_state.get(cache_key)
            if found is None:
                phi = phi2 if role == "target" else phi1
                found = find_causes(s, cx.labels, phi, 0, counter)
                per_state[cache_key] = found
            for (ap, value), dr in found.items():
                key = (s, ap, value)
                prev = out.get(key)
                if prev is None:
                    out[key] = diagnosis.Cause(s, ap, value, dr, role)
                elif prev.origin != role or dr > prev.dr:
                    origin = prev.origin if prev.origin == role else "both"
                    out[key] = diagnosis.Cause(s, ap, value, max(prev.dr, dr),
                                               origin)
    return out


def reference_all_masses(cx, counter):
    smass: dict[int, float] = {}
    tmass: dict[tuple[int, int, int], float] = {}
    for wp in cx.paths:
        for s in sorted(set(wp.path.states)):
            smass[s] = smass.get(s, 0.0) + wp.probability
            counter[0] += 1
        steps = sorted({(u, a, v) for _, u, a, v in wp.path.steps()})
        for key in steps:
            tmass[key] = tmass.get(key, 0.0) + wp.probability
            counter[0] += 1
    return smass, tmass


def reference_format_path(cx, wp):
    bits = [cx.state_name(wp.path.states[0])]
    for _, _, a, v in wp.path.steps():
        bits.append(f"-{cx.action_name(a)}-> {cx.state_name(v)}")
    return " ".join(bits)


# -- seeded counterexamples --------------------------------------------------

APS = ("g", "h", "t")
GUARDS = ("g", "g | h", "!t", "true", "g & !h", "!(t & h)")
TARGETS = ("t", "t & h", "t | (h & !g)", "!g & !h", "t & !g")
ACTIONS = ("go", "loop", "back", "exit")


def random_chain_cx(rng: random.Random):
    """A counterexample of a random cyclic chain: enumerated paths cut at
    their first target state, with a threshold they exceed.

    Successor weights of 1, 2 or 40 let single transitions dominate, so
    many paths circle and revisit states before they leave."""
    n = rng.randint(3, 8)
    labels = {s: {ap for ap in APS if rng.random() < 0.45} for s in range(n)}
    transitions = {}
    for s in range(n):
        for a in rng.sample(ACTIONS, rng.randint(1, 2)):
            succs = rng.sample(range(n), rng.randint(1, min(3, n)))
            weights = [rng.choice((1, 2, 40)) for _ in succs]
            total = sum(weights)
            transitions[(s, a)] = [(t, w / total)
                                   for t, w in zip(succs, weights)]
    m = Mdp(n, 0, transitions, labels)
    sched = Scheduler({s: rng.choice(m.enabled_actions(s)) for s in m.states})
    psi = PathFormula(parse_state_formula(rng.choice(GUARDS)),
                      parse_state_formula(rng.choice(TARGETS)))
    paths = tuple(prefix_paths(enumerate_satisfying_paths(
        induce_dtmc(m, sched), psi, max_paths=rng.randint(1, 40),
        min_prob=1e-12)))
    if not paths:
        return None
    total = sum(wp.probability for wp in paths)
    spec = PropertySpec("<=", total * rng.choice((0.5, 0.9, 0.999)), psi)
    on_paths = {s for wp in paths for s in wp.path.states}
    return Counterexample(forest_of(paths), total, sched, spec,
                          {s: m.labels_of(s) for s in sorted(on_paths)},
                          tuple(m.action_names))


SLOW_EXIT = Mdp(3, 0, {(0, "go"): [(1, 1.0)],
                       (1, "back"): [(0, 0.99), (2, 0.01)],
                       (2, "stay"): [(2, 1.0)]},
                {0: {"g"}, 1: {"g", "h"}, 2: {"t"}})
SLOW_EXIT_SCHEDULER = Scheduler({0: 0, 1: 1, 2: 2})


def slow_exit_paths(passes: int):
    """Two guard states in a cycle that leaves to the target with 1/100
    per pass: paths of up to 2*passes steps over three states."""
    psi = PathFormula(parse_state_formula("g"), parse_state_formula("t"))
    return tuple(prefix_paths(enumerate_satisfying_paths(
        induce_dtmc(SLOW_EXIT, SLOW_EXIT_SCHEDULER), psi, max_paths=passes)))


def slow_exit_cx(passes: int = 60):
    m, sched = SLOW_EXIT, SLOW_EXIT_SCHEDULER
    psi = PathFormula(parse_state_formula("g"), parse_state_formula("t"))
    paths = slow_exit_paths(passes)
    total = sum(wp.probability for wp in paths)
    return Counterexample(forest_of(paths), total, sched,
                          PropertySpec("<=", 0.1, psi),
                          {s: m.labels_of(s) for s in m.states},
                          tuple(m.action_names))


def seeded_cxs(count=200):
    rng = random.Random(20160826)
    out = [slow_exit_cx()]
    while len(out) < count:
        cx = random_chain_cx(rng)
        if cx is not None:
            out.append(cx)
    return out


CXS = seeded_cxs()


# -- corruptions -------------------------------------------------------------


def _with_paths(cx, paths):
    paths = tuple(paths)
    return replace(cx, forest=forest_of(paths),
                   total_mass=sum(wp.probability for wp in paths))


def _wp(states, actions, prob):
    return WeightedPath(FinitePath(tuple(states), tuple(actions)), prob)


def _state_with(cx, want_guard, want_target):
    """A fresh state id labelled so that the guard and target hold as asked,
    with the labelling extended by it; None when no labelling fits."""
    s = max(cx.labels) + 1
    for bits in range(2 ** len(APS)):
        aps = frozenset(ap for i, ap in enumerate(APS) if bits >> i & 1)
        labels = {**cx.labels, s: aps}
        if (eval_state_formula(labels, s, cx.spec.path.left) == want_guard
                and eval_state_formula(labels, s, cx.spec.path.right)
                == want_target):
            return s, labels
    return None


def corruptions(cx, rng):
    """Corrupted copies of cx, each breaking one structural claim."""
    paths = list(cx.paths)
    i = rng.randrange(len(paths))
    wp = paths[i]
    states, actions = list(wp.path.states), list(wp.path.actions)
    out = {"duplicate": _with_paths(cx, paths + [wp])}
    longest = max(len(p.path) for p in paths)
    if longest:
        out["bound"] = replace(cx, spec=replace(
            cx.spec, path=replace(cx.spec.path, bound=longest - 1)))
    out["mass_sum"] = replace(cx, total_mass=cx.total_mass + 0.25)
    out["unwitnessed"] = replace(cx, spec=replace(cx.spec, threshold=1.0))
    if len(states) > 1:
        out["bad_final"] = _with_paths(
            cx, paths[:i] + [_wp(states[:-1], actions[:-1], wp.probability)]
            + paths[i + 1:])
    if longest:
        # run on past the target into another path's states
        other = rng.choice([p.path for p in paths if len(p.path)])
        out["past_target"] = _with_paths(
            cx, paths[:i] + [_wp(states + list(other.states[1:]),
                                 actions + list(other.actions),
                                 wp.probability)] + paths[i + 1:])
    if actions and cx.scheduler is not None:
        # the scheduler picks another action, or none, where a path steps
        choice = dict(cx.scheduler.choice)
        choice[states[0]] = (actions[0] + 1) % len(cx.action_names)
        if choice[states[0]] != actions[0]:
            out["off_scheduler"] = replace(cx, scheduler=Scheduler(choice))
        del choice[states[0]]
        out["no_choice"] = replace(cx, scheduler=Scheduler(choice))
    for name, guard, target in (("early_target", True, True),
                                ("early_target_only", False, True),
                                ("guard_failure", False, False)):
        found = _state_with(cx, guard, target)
        if found is None:
            continue
        s, labels = found
        j = rng.randrange(len(states))
        bad = [_wp(states[:j] + [s] + states[j:],
                   actions[:j] + [rng.randrange(len(cx.action_names))]
                   + actions[j:], wp.probability / 2)]
        if target:
            # s also ends a path, so its literals meet in both roles
            bad.append(_wp(states[:j] + [s], actions[:j], wp.probability / 4))
        out[name] = replace(_with_paths(cx, paths + bad), labels=labels)
    return out


def corrupted_cxs():
    """(label, counterexample) pairs; the label names the seeded
    counterexample and the corruption."""
    rng = random.Random(1608)
    return [(f"{k}-{name}", bad) for k, cx in enumerate(CXS)
            for name, bad in corruptions(cx, rng).items()]


CORRUPTED = corrupted_cxs()


# -- forest shapes -----------------------------------------------------------


def _shaped(paths, labels):
    """A counterexample of `g U t` over paths, labelled by labels."""
    psi = PathFormula(parse_state_formula("g"), parse_state_formula("t"))
    total = sum(wp.probability for wp in paths)
    return Counterexample(forest_of(paths), total, None,
                          PropertySpec("<=", total / 2, psi),
                          {s: frozenset(aps) for s, aps in labels.items()},
                          ACTIONS)


def forest_shapes():
    """(label, flat paths, counterexample) of hand-picked forest shapes."""
    small = {0: {"g"}, 1: {"g", "h"}, 2: {"t"}, 3: {"g", "t"}}
    n = 20_000
    steps = [s % 2 for s in range(n - 1)]
    line = {s: {"g"} for s in range(n)}
    line.update({n - 1: {"t"}, n: {"t", "h"}})
    shapes = {
        "repeated": [_wp((0, 1, 2), (0, 1), 0.25),
                     _wp((0, 1, 2), (0, 2), 0.25), _wp((0, 2), (1,), 0.125),
                     _wp((0, 1, 2), (0, 1), 0.25)],
        "runs-on": [_wp((0, 1), (0,), 0.25), _wp((0, 1, 2), (0, 1), 0.125),
                    _wp((0, 1, 2, 1, 0, 2), (0, 1, 2, 2, 0), 0.0625),
                    _wp((0,), (), 0.5)],
        "many-starts": [_wp((0, 1, 2), (0, 1), 0.25),
                        _wp((1, 0, 2), (1, 0), 0.25), _wp((3, 2), (2,), 0.125),
                        _wp((1, 0, 1, 2), (1, 0, 1), 0.0625)],
        # a depth-first walk reaches 0 -> 1 -> 3 before 0 -> 3, which
        # comes first in path order; the last path repeats the first
        "not-depth-first": [_wp((0, 1, 2), (0, 1), 0.25),
                            _wp((0, 3), (1,), 0.125),
                            _wp((0, 1, 3), (0, 1), 0.0625),
                            _wp((0, 1, 2), (0, 1), 0.25)],
        "long-line": [_wp(range(n), steps, 0.25),
                      _wp([*range(n // 2), n], steps[:n // 2 - 1] + [0],
                          0.125)],
    }
    out = [(label, tuple(paths), _shaped(paths, line if label == "long-line"
                                         else small))
           for label, paths in shapes.items()]
    out.append(("slow-cycle", slow_exit_paths(300), slow_exit_cx(300)))
    return out


SHAPES = forest_shapes()


# -- comparisons -------------------------------------------------------------


def causes_or_error(collect, cx):
    """The causes in insertion order with degree and origin, or the text
    of the DomainError that collecting them raises."""
    try:
        causes = collect(cx, [0])
    except DomainError as exc:
        return str(exc)
    return [(key, c.dr, c.origin) for key, c in causes.items()]


def reference_report(monkeypatch, cx):
    with monkeypatch.context() as mp:
        mp.setattr(diagnosis, "collect_causes", reference_collect_causes)
        mp.setattr(PathForest, "masses",
                   lambda forest, counter: reference_all_masses(cx, counter))
        mp.setattr(diagnosis, "_path_texts",
                   lambda cx: [reference_format_path(cx, wp)
                               for wp in cx.paths])
        report = generate_diagnoses(cx)
        return (report.to_json(), report.render_text(),
                report.render_text(normalize=True), report.operation_count)


def assert_layers_match(monkeypatch, label, cx):
    assert (verify_counterexample(cx)
            == reference_verify_counterexample(cx)), label
    assert (causes_or_error(collect_causes, cx)
            == causes_or_error(reference_collect_causes, cx)), label
    got_counter, ref_counter = [0], [0]
    got = cx.forest.masses(got_counter)
    ref = reference_all_masses(cx, ref_counter)
    assert ([list(m.items()) for m in got]
            == [list(m.items()) for m in ref]), label
    assert got_counter == ref_counter, label
    try:
        report = generate_diagnoses(cx)
    except DomainError as exc:
        with pytest.raises(DomainError) as ref_exc:
            reference_report(monkeypatch, cx)
        assert str(ref_exc.value) == str(exc), label
        return
    assert (report.to_json(), report.render_text(),
            report.render_text(normalize=True),
            report.operation_count) == reference_report(monkeypatch, cx), label


def test_seeded_counterexamples(monkeypatch):
    for k, cx in enumerate(CXS):
        assert verify_counterexample(cx) == [], k
        assert_layers_match(monkeypatch, str(k), cx)


def test_corrupted_counterexamples(monkeypatch):
    for label, cx in CORRUPTED:
        assert verify_counterexample(cx) != [], label
        assert_layers_match(monkeypatch, label, cx)


def test_forest_shapes(monkeypatch):
    for label, paths, cx in SHAPES:
        assert cx.paths == paths, label
        assert counterexample_to_dict(cx)["paths"] == [
            {"states": list(wp.path.states),
             "actions": [cx.action_name(a) for a in wp.path.actions],
             "probability": wp.probability} for wp in paths], label
        assert_layers_match(monkeypatch, label, cx)


def test_forest_shapes_share_prefixes():
    forests = {label: cx.forest for label, _, cx in SHAPES}
    repeated = forests["repeated"]
    assert repeated.leaves[0] == repeated.leaves[3] != repeated.leaves[1]
    # node order: 0, 0-1, 0-1-2, 0-3, 0-1-3; the leaves out of depth-first
    # order, so the path-order walk cuts back to the root twice and
    # appends 0-1 and 0-1-2 again
    assert forests["not-depth-first"].leaves == [2, 3, 4, 2]
    assert list(forests["not-depth-first"]._chain_moves()) == [
        ([], [0, 1, 2]), ([1, 2], [3]), ([3], [1, 4]), ([4], [2])]
    assert len(forests["long-line"].states) == 20_001
    assert sum(p < 0 for p in forests["many-starts"].parents) == 3
    cycle = forests["slow-cycle"]
    assert len(cycle.leaves) == 300
    assert len(cycle.states) < sum(len(wp.path) for wp in SHAPES[-1][1]) / 50
    # each path runs on from the one before: the walk appends every node
    # once and never rebuilds the chain of a path from its root
    appended = [n for _, added in cycle._chain_moves() for n in added]
    assert sorted(appended) == list(range(len(cycle.states)))


def test_seeded_paths_are_long_and_revisit_states():
    lengths = [len(wp.path) for cx in CXS for wp in cx.paths]
    revisiting = [wp for cx in CXS for wp in cx.paths
                  if len(set(wp.path.states)) < len(wp.path.states)]
    assert max(lengths) >= 100
    assert len(revisiting) >= len(lengths) // 2


def test_corruptions_cover_every_complaint():
    complaints = " ".join(p for _, cx in CORRUPTED
                          for p in verify_counterexample(cx))
    for needle in ("duplicates path", "exceed the bound", "disagrees",
                   "does not witness", "does not satisfy the until target",
                   "already satisfies the until target",
                   "fails the until guard"):
        assert needle in complaints


def test_external_labelling_matches_reference():
    rng = random.Random(7881)
    for cx in CXS[:50]:
        labels = {s: frozenset(ap for ap in APS if rng.random() < 0.5)
                  for s in cx.labels}
        assert (verify_counterexample(replace(cx, labels=labels))
                == reference_verify_counterexample(cx, labels))


def test_corruptions_reach_both_roles_and_domain_errors():
    found = [causes_or_error(collect_causes, cx) for _, cx in CORRUPTED]
    assert sum(isinstance(f, str) for f in found) >= 50
    assert any(origin == "both" for f in found if not isinstance(f, str)
               for _, _, origin in f)


def test_operation_count_is_unchanged_on_slow_exit():
    cx = CXS[0]
    counter = [0]
    reference_collect_causes(cx, counter)
    _, tmass = reference_all_masses(cx, counter)
    assert generate_diagnoses(cx).operation_count == counter[0] + len(tmass)
