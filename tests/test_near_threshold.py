"""Verdicts right next to the threshold.

For inputs whose Pmax is known exactly, from a closed form or from the
exhaustive oracle, P<=Pmax*(1-delta) must be violated and P<=Pmax*(1+delta)
must hold, for delta down to 1e-7; a threshold above 1 does not parse and
is skipped. A checker that stops value iteration at a small residual
short of Pmax fails the violated side.
"""

import sys
from pathlib import Path

import pytest

from mdpdiag import (Mdp, PropertySpec, build_mdp, check_property,
                     eval_state_formula, parse_explicit_model, parse_program,
                     parse_property)
from mdpdiag.mdp import content_lines

from fixtures import MODELS, demo_mdp, demo_property
from oracles import exhaustive_pmax, label_map

# the benchmark's input generators, read only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

DELTAS = (1e-3, 1e-5, 1e-7)


def oracle_pmax(m, spec):
    labels = label_map(m)
    interior = {s for s in m.states
                if eval_state_formula(labels, s, spec.path.left)}
    targets = {s for s in m.states
               if eval_state_formula(labels, s, spec.path.right)}
    return exhaustive_pmax(m, interior, targets)


def program_case(name, constants=None):
    m, _ = build_mdp(parse_program((MODELS / f"{name}.pm").read_text()),
                     constants)
    (_, text), = content_lines((MODELS / f"{name}.props").read_text())
    return m, parse_property(text, defined_labels=m.ap_names)


def generated_case(tmp_path, generator, seed):
    tra, lab, pmax = generator(str(tmp_path), seed)
    m = parse_explicit_model(Path(tra).read_text(), Path(lab).read_text())
    return m, parse_property("P<=0.5 [ ok U goal ]"), pmax


def slow_self_loop():
    """(i): a self-loop left with 1e-4, half of it to the goal."""
    m = Mdp(3, 0, {(0, "a"): [(0, 1 - 1e-4), (1, 5e-5), (2, 5e-5)],
                   (1, "s"): [(1, 1.0)], (2, "s"): [(2, 1.0)]},
            labels={1: {"goal"}})
    return m, parse_property("P<=0.5 [ true U goal ]"), 0.5


def two_state_cycle():
    """(ii): a cycle that leaves to the goal with 0.05 on each pass."""
    m = Mdp(3, 0, {(0, "a"): [(1, 0.95), (2, 0.05)],
                   (1, "b"): [(0, 1.0)], (2, "s"): [(2, 1.0)]},
            labels={0: {"ok"}, 1: {"ok"}, 2: {"goal"}})
    return m, parse_property("P<=0.5 [ ok U goal ]"), 1.0


def demo_case(_):
    m, spec = demo_mdp(), demo_property()
    return m, spec, oracle_pmax(m, spec)


def zeroconf_case(_):
    m, spec = program_case("zeroconf")
    return m, spec, oracle_pmax(m, spec)


def csma_case(_):
    # both stations deliver unless one gives up after K + 1 collisions
    m, spec = program_case("csma", {"K": 20})
    return m, spec, (1 - 0.2 ** 21) ** 2


CASES = {
    "demo": demo_case,
    "zeroconf": zeroconf_case,
    "csma-K20": csma_case,
    "deep-chain": lambda d: generated_case(d, workloads.deep_chain, 1019),
    "deep-chain-7": lambda d: generated_case(d, workloads.deep_chain, 7),
    "slow-exit": lambda d: generated_case(d, workloads.slow_exit, 1019),
    "slow-self-loop": lambda _: slow_self_loop(),
    "two-state-cycle": lambda _: two_state_cycle(),
}


@pytest.mark.parametrize("name", CASES)
def test_verdict_flips_at_pmax(name, tmp_path):
    m, spec, exact = CASES[name](tmp_path)
    assert 0.0 < exact <= 1.0
    for delta in DELTAS:
        below = PropertySpec("<=", exact * (1 - delta), spec.path)
        assert not check_property(m, below).holds, (delta, "below")
        if exact * (1 + delta) <= 1.0:
            above = PropertySpec("<=", exact * (1 + delta), spec.path)
            assert check_property(m, above).holds, (delta, "above")
