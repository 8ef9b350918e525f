"""Step-bounded untils on the pairs (state, steps left) within reach of
the initial state: their values, and a witness that counts steps.

Only a step-bounded query runs this module: checker.compute_pmax and
checker.extract_max_scheduler hand such a path formula here.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping

from .errors import BudgetError
from .mdp import Mdp, Scheduler
from .pctl import PathFormula, until_sets

# A step-counting witness chooses at no more than this many pairs (state,
# steps left): a bound far past the values' fixed point on a cycle would
# take one pair per step and state.
STEP_WITNESS_CAP = 1_000_000


class PairValues(Mapping):
    """The values of a step-bounded until at bound k, keyed by the pairs
    (state, steps left) within reach of (init, k): (s, j) for every state
    s that init reaches within k steps through guard states, d(s) of them
    at the fewest, and every j from 0 to k - d(s). Every pair on a path
    from (init, k) is one. Read-only, and read off the vectors of
    solve's sweeps, which it keeps as they are: the value at (s, j) is
    sweep j's at s, or the last sweep's when the sweeps reached their
    fixed point first; a reached state that is not swept is fixed at 1 (a
    target) or at 0.
    """

    def __init__(self, bound, depth, slot, sweeps, targets):
        self.bound = bound
        self._depth = depth  # reached state -> d(s)
        self._slot = slot  # swept state -> its position in a sweep vector
        self._sweeps = sweeps
        self._targets = targets

    def __getitem__(self, pair):
        s, j = pair
        d = self._depth.get(s)
        if d is None or not 0 <= j <= self.bound - d:
            raise KeyError(pair)
        i = self._slot.get(s)
        if i is None:
            return 1.0 if s in self._targets else 0.0
        return self._sweeps[min(j, len(self._sweeps) - 1)][i]

    def __iter__(self):
        return ((s, j) for s, d in self._depth.items()
                for j in range(self.bound - d + 1))

    def __len__(self):
        return sum(self.bound - d + 1 for d in self._depth.values())


def solve(m: Mdp, psi: PathFormula, compile_groups
          ) -> tuple[PairValues, frozenset[int], frozenset[int]]:
    """The values of psi, with step bound k, at the pairs (state, steps
    left) within reach of (init, k), and the reached states fixed at 1
    and at 0. compile_groups is the checker's grouping of states into
    generated kernels (checker._compile_groups).

    One breadth-first pass from init through guard states finds the
    states init reaches within k steps, each at its depth d(s), the fewest
    steps to it; the pairs (s, j) with j <= k - d(s) are within reach
    (see PairValues). A guard state with a choice and depth below k is
    pending, so every successor of one has been reached, and pending
    lists them in nondecreasing depth. The state formulas are evaluated
    once per distinct label set.

    Sweep j (1 to k) backs up, by compile_groups' kernels over the
    pending states, those with d(s) <= k - j: a group lists its states in
    depth order, so a sweep runs a prefix of its rows and copies the rest
    of the vector before. Their successors t have d(t) <= k - (j - 1), so
    a reached pair reads reached pairs alone: the value at (s, j) is sweep
    j's at s, what k whole-model Jacobi sweeps give at s after j, bit for
    bit. The work is one backup per reached pair of a pending state. The
    sweeps stop early at the first that changes nothing, as every later
    one would repeat it, and every sweep's vector is kept (see
    PairValues).
    """
    k = psi.bound
    choices = m.choice_table()
    labels = m.labels
    no_labels = frozenset()
    # the operands read labels alone: each distinct label set stands in
    # for its states, labelled by itself
    kinds = {no_labels, *labels.values()}
    right, left = until_sets(dict(zip(kinds, kinds)), kinds, psi)
    depth = {m.init: 0}
    reached = [m.init]  # breadth-first, read as it grows
    pending = []
    targets = set()
    for s in reached:
        names = labels.get(s, no_labels)
        if names in right:
            targets.add(s)
        elif depth[s] < k and names in left and choices[s]:
            pending.append(s)
            for _, dist in choices[s]:
                for t, _ in dist:
                    if t not in depth:
                        depth[t] = depth[s] + 1
                        reached.append(t)
    order, local, groups = compile_groups(
        choices, dict.fromkeys(depth, 0.0) | dict.fromkeys(targets, 1.0),
        pending)
    spans = []  # per group: kernel, rows, first position, depths
    start = 0
    for kernel, rows in groups:
        spans.append((kernel, rows, start,
                      [depth[s] for s in order[start:start + len(rows)]]))
        start += len(rows)
    kept = [local]
    for j in range(1, k + 1):
        top = []
        for kernel, rows, start, depths in spans:
            c = bisect_right(depths, k - j)
            if c:
                top += kernel(local, rows if c == len(rows) else rows[:c])
            top += local[start + c:start + len(rows)]
        if top == local:
            break
        kept.append(top)
        local = top
    slot = dict(zip(order, range(len(order))))
    return (PairValues(k, depth, slot, kept, targets), frozenset(targets),
            frozenset(depth).difference(targets, order))


def witness(m: Mdp, vv) -> Scheduler:
    """The choices at the pairs (state, steps left) that the witness
    reaches from (init, k), for a step-bounded value vector vv, as a
    Scheduler that counts steps.

    At each such pair (s, j) of positive value, s no target, the first
    action of maximal backup wins, the backup added left to right from the
    values at (t, j - 1), as the kernels' fold picks it: the product is
    acyclic, so every maximal action makes progress and the chain carries
    the value of (init, k). A pair of value 0 has no path to a target and
    gets no choice. More than STEP_WITNESS_CAP pairs raise BudgetError.
    """
    values = vv.values
    choices = m.choice_table()
    choice: dict[tuple[int, int], int] = {}
    todo = [(m.init, vv.path.bound)]
    seen = set(todo)
    while todo:
        s, j = pair = todo.pop()
        if s in vv.target_states or not values[pair]:
            continue
        best = -1.0
        for aid, dist in choices[s]:
            total = 0.0
            for t, p in dist:
                total += p * values[t, j - 1]
            if total > best:
                best, pick = total, (aid, dist)
        choice[pair] = pick[0]
        if len(choice) > STEP_WITNESS_CAP:
            raise BudgetError(f"the step-counting witness of {vv.path} "
                              f"chooses at more than {STEP_WITNESS_CAP} "
                              "pairs (state, steps left)")
        for t, _ in pick[1]:
            if (t, j - 1) not in seen:
                seen.add((t, j - 1))
                todo.append((t, j - 1))
    return Scheduler(choice, vv.path.bound)
