"""Seeded inputs for the benchmark workloads.

Each generator takes the seed as an argument and writes explicit model
(`.tra`) and label (`.lab`) files; `mdpdiag` only ever sees those files.
The same seed gives byte-identical files. Where the closed form of the
maximal probability is known it is returned alongside, so the reference
never has to ask `mdpdiag` for it.

Seeds vary the inputs without changing their cost much: `random-sparse`
draws a fresh graph of fixed size, while `deep-chain` and `slow-exit`
renumber the states of one fixed shape. (Action names stay fixed: their
length changes the size of the reports, and so the time and memory.)
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

# random-sparse: `ok` states, absorbing goal and failure states, and the
# share of every `ok` choice that leaks into one of those absorbing states.
SPARSE_STATES = 800
SPARSE_ABSORBING = 40
SPARSE_LEAK = 0.04
# init reaches a goal state directly with this much, so the first path
# enumerated already violates P<=0.1 whatever the random graph.
SPARSE_INIT_GOAL = 0.2

CHAIN_LENGTH = 300
CHAIN_FWD = 0.99

SLOW_EXIT_Q = 2e-3
# Filler states keep every id a single digit, so reports keep their size.
SLOW_EXIT_PAD = 6

CSMA_K = 20
CSMA_HOLDING = 'P<=0.7 [ !"gave_up" U<=4 "delivered_all" ]'
# Exact: both stations deliver on their first attempt, 0.8 * 0.8.
CSMA_HOLDING_PMAX = 0.64


@dataclass
class Inputs:
    """Files and properties of one workload instance."""

    model: str                      # path of the model file
    labels: Optional[str]           # label file of an explicit model
    const: tuple[str, ...]          # NAME=VALUE overrides of a program
    violated: str                   # property text that must be VIOLATED
    holding: str                    # property text that must HOLD

    def model_args(self) -> list[str]:
        args = ["--model", self.model]
        if self.labels:
            args += ["--labels", self.labels]
        for c in self.const:
            args += ["--const", c]
        return args


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_explicit(directory: str, name: str, num_states: int, init: int,
                    rows: list[tuple[int, str, int, float]],
                    labels: dict[int, list[str]]) -> tuple[str, str]:
    tra = os.path.join(directory, name + ".tra")
    lab = os.path.join(directory, name + ".lab")
    _write(tra, [f"STATES {num_states}", f"INIT {init}"]
           + [f"{s} {a} {t} {p!r}" for s, a, t, p in rows])
    _write(lab, [f"{s}: " + " ".join(sorted(labels[s]))
                 for s in sorted(labels)])
    return tra, lab


def random_sparse(directory: str, seed: int) -> tuple[str, str, None]:
    """A random explicit MDP: one big strongly connected `ok` region
    draining into a few absorbing `goal` and failure states.

    Each `ok` state has one or two actions with three successors: two
    random `ok` states and one random absorbing state, which takes exactly
    SPARSE_LEAK. Every `ok` row of the chain thus sums to 1 - SPARSE_LEAK,
    so value iteration contracts at that rate on every seed and the sweep
    count hardly depends on the graph drawn. Pmax has no closed form.
    """
    rng = random.Random(f"random-sparse/{seed}")
    n_ok = SPARSE_STATES
    n = n_ok + SPARSE_ABSORBING
    goals = range(n_ok, n_ok + SPARSE_ABSORBING // 2)
    rows = [(0, "start", n_ok, SPARSE_INIT_GOAL)]
    for t in sorted(rng.sample(range(1, n_ok), 2)):
        rows.append((0, "start", t, (1.0 - SPARSE_INIT_GOAL) / 2))
    for s in range(1, n_ok):
        for a in range(rng.choice((1, 2))):
            succ = rng.sample(range(n_ok), 2)
            w = rng.randint(1, 9) / 10
            weights = [(1.0 - SPARSE_LEAK) * w, (1.0 - SPARSE_LEAK) * (1 - w)]
            dist = dict(zip(succ, weights))
            dist[rng.randrange(n_ok, n)] = SPARSE_LEAK
            for t in sorted(dist):
                rows.append((s, f"a{a}", t, dist[t]))
    for s in range(n_ok, n):
        rows.append((s, "stop", s, 1.0))
    labels = {s: ["ok"] for s in range(n_ok)}
    labels.update({s: ["goal"] for s in goals})
    tra, lab = _write_explicit(directory, "random-sparse", n, 0, rows, labels)
    return tra, lab, None


def deep_chain(directory: str, seed: int) -> tuple[str, str, float]:
    """A chain of CHAIN_LENGTH `ok` states ending in `goal`.

    Each chain state has `fwd` (CHAIN_FWD onward, the rest to a sink) and
    a `stay` self-loop whose value ties with `fwd`. Returns the files and
    the exact Pmax, CHAIN_FWD ** CHAIN_LENGTH.
    """
    rng = random.Random(f"deep-chain/{seed}")
    n = CHAIN_LENGTH
    ids = list(range(n + 2))
    rng.shuffle(ids)
    goal, sink = ids[n], ids[n + 1]
    rows = []
    for i in range(n):
        s = ids[i]
        rows.append((s, "fwd", ids[i + 1] if i + 1 < n else goal, CHAIN_FWD))
        rows.append((s, "fwd", sink, 1.0 - CHAIN_FWD))
        rows.append((s, "stay", s, 1.0))
    rows.append((goal, "done", goal, 1.0))
    rows.append((sink, "stuck", sink, 1.0))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    labels = {ids[i]: ["ok"] for i in range(n)}
    labels[goal] = ["goal"]
    pmax = 1.0
    for _ in range(n):
        pmax *= CHAIN_FWD
    tra, lab = _write_explicit(directory, "deep-chain", n + 2, ids[0],
                               rows, labels)
    return tra, lab, pmax


def slow_exit(directory: str, seed: int) -> tuple[str, str, float]:
    """A two-state cycle that leaves slowly: the hub moves to the loop
    state or idles on a self-loop; the loop state returns to the hub, or
    exits to `goal` or to a sink with SLOW_EXIT_Q each. Pmax is 1/2.

    The seed decides how many of SLOW_EXIT_PAD unreachable filler states
    come before the four live ones. Their order stays hub, loop, goal,
    sink: the order of the ids changes how much memory `mdpdiag` takes
    here (by a third), which would make the seed a lever of its own.
    """
    rng = random.Random(f"slow-exit/{seed}")
    first = rng.randrange(SLOW_EXIT_PAD + 1)
    hub, loop, goal, sink = range(first, first + 4)
    rows = [
        (hub, "go", loop, 1.0),
        (hub, "idle", hub, 1.0),
        (loop, "back", hub, 1.0 - 2 * SLOW_EXIT_Q),
        (loop, "back", goal, SLOW_EXIT_Q),
        (loop, "back", sink, SLOW_EXIT_Q),
        (goal, "done", goal, 1.0),
        (sink, "stuck", sink, 1.0),
    ]
    n = SLOW_EXIT_PAD + 4
    rows += [(s, "stuck", s, 1.0) for s in range(n)
             if not first <= s < first + 4]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    labels = {hub: ["ok"], loop: ["ok"], goal: ["goal"]}
    tra, lab = _write_explicit(directory, "slow-exit", n, hub, rows, labels)
    return tra, lab, 0.5
