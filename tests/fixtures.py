"""Small models shared by the tests, each tiny enough to verify by hand.

demo_mdp and demo_property read the bundled models/demo.* files, the same
inputs the command-line examples use: an eight-state model whose single
maximizing scheduler admits six paths into the bad region. blame_gap_mdp
separates "action reaching the most responsible cause" from "action
carrying the most blame". slow_exit_mdp is the shape of the slow-exit
benchmark workload: a cycle left rarely, whose counterexample is hundreds
of long paths sharing almost all their prefixes. The remaining helpers
parse a lone state formula and write a model back to the explicit text
format.
"""

from pathlib import Path

from mdpdiag import Mdp, PropertySpec, parse_explicit_model, parse_property
from mdpdiag.mdp import content_lines
from mdpdiag.pctl import StateFormula

MODELS = Path(__file__).resolve().parent.parent / "models"


def demo_mdp() -> Mdp:
    """Eight states, one action each, four probabilistic branch points.

    With demo_property, the reachable bad region is the three
    c&d-labelled sinks; satisfying path masses are 0.25, 0.2, 0.15, 0.12,
    0.09 and 0.072, so the maximal violation probability is 0.882.
    """
    return parse_explicit_model((MODELS / "demo.tra").read_text(),
                                (MODELS / "demo.lab").read_text())


def demo_property() -> PropertySpec:
    (_, text), = content_lines((MODELS / "demo.props").read_text())
    return parse_property(text)


def blame_gap_mdp() -> Mdp:
    """Fan-out model where blame and responsibility disagree.

    The initial split sends 0.4 towards a single bad sink and 0.6 towards
    two bad sinks of 0.3 each. The heaviest single cause sits behind the
    0.4 branch, yet the 0.6 branch's action accumulates more blame.
    """
    transitions = {
        (0, "choose"): [(1, 0.4), (2, 0.6)],
        (1, "narrow"): [(3, 1.0)],
        (2, "wide"): [(4, 0.5), (5, 0.5)],
        (3, "stay"): [(3, 1.0)],
        (4, "stay"): [(4, 1.0)],
        (5, "stay"): [(5, 1.0)],
    }
    labels = {3: {"bad"}, 4: {"bad"}, 5: {"bad"}}
    return Mdp(6, 0, transitions, labels)


def blame_gap_property() -> PropertySpec:
    return parse_property("P<=0.9 [ true U bad ]")


def slow_exit_mdp(q: float = 2e-3) -> Mdp:
    """The hub 0 moves to the loop state 1 or idles; the loop state
    returns to the hub, or exits to the goal 2 or to the sink 3 with q
    each. Pmax of `ok U goal` is 1/2, so at q = 2e-3 the counterexample
    of slow_exit_property takes 575 paths of up to 1,150 steps.
    """
    transitions = {
        (0, "go"): [(1, 1.0)],
        (0, "idle"): [(0, 1.0)],
        (1, "back"): [(0, 1.0 - 2 * q), (2, q), (3, q)],
        (2, "done"): [(2, 1.0)],
        (3, "stuck"): [(3, 1.0)],
    }
    return Mdp(4, 0, transitions, {0: {"ok"}, 1: {"ok"}, 2: {"goal"}})


def slow_exit_property() -> PropertySpec:
    return parse_property("P<=0.45 [ ok U goal ]")


def parse_state_formula(text: str, defined_labels=None) -> StateFormula:
    """The state formula text, parsed as the target of a property."""
    return parse_property(f"P<=1 [ false U ({text}) ]",
                          defined_labels).path.right


def serialize_explicit_model(m: Mdp) -> str:
    """Canonical text for m; parsing it back reproduces the same structure."""
    out = [f"STATES {m.num_states}", f"INIT {m.init}"]
    for (s, aid), dist in m.transition_items():
        name = m.action_names[aid]
        for t, p in dist:
            out.append(f"{s} {name} {t} {p!r}")
    return "\n".join(out) + "\n"


def serialize_labels(m: Mdp) -> str:
    out = []
    for s in m.states:
        aps = m.labels_of(s)
        if aps:
            out.append(f"{s}: " + " ".join(sorted(aps)))
    return "\n".join(out) + "\n"
