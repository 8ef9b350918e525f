"""Graph algorithms over a choice table, for the unbounded until.

sccs yields the strongly connected components of a successor map, sinks
first (Tarjan's algorithm, without recursion). end_components finds the
maximal end components among a set of states (Baier & Katoen,
Principles of Model Checking, Alg. 47). solve_small gives the maximal
reach probabilities of one small strongly connected component: its end
components collapsed, by Howard's policy iteration, each policy evaluated
by Gaussian elimination. Every float operation here is a plain add,
multiply, subtract or divide, taken in a fixed order, so the results are
the same on every Python version.
"""

from __future__ import annotations

from .errors import BudgetError

# policy iteration gives up after evaluating this many policies
POLICY_ROUNDS = 100


def sccs(succ):
    """Strongly connected components of the graph whose nodes are the keys
    of succ, with an edge from each node to every node succ lists for it
    (each of them a key). Yields each component as a list, before any
    component with an edge into it: sinks first.

    low[v] is v's index while v is open and the least index it reaches on
    the stack once its successors are done; a component, when emitted,
    sets its nodes' low past every index, so that no later node reads it.
    """
    low = {}
    stack = []
    emitted = len(succ)
    for root in succ:
        if root in low:
            continue
        low[root] = index = len(low)
        work = [(root, index, len(stack), iter(succ[root]))]
        stack.append(root)
        while work:
            v, index, at, successors = work[-1]
            least = low[v]
            for w in successors:
                reached = low.get(w)
                if reached is None:
                    low[v] = least
                    low[w] = len(low)
                    work.append((w, low[w], len(stack), iter(succ[w])))
                    stack.append(w)
                    break
                if reached < least:
                    least = reached
            else:
                work.pop()
                if least < index:
                    low[v] = least
                    if least < low[work[-1][0]]:
                        low[work[-1][0]] = least
                    continue
                if at == len(stack) - 1:  # a lone node, the common case
                    low[stack.pop()] = emitted
                    yield [v]
                    continue
                component = stack[at:]
                del stack[at:]
                low.update(dict.fromkeys(component, emitted))
                yield component


def end_components(states, choices) -> list[frozenset[int]]:
    """The maximal end components among states: the largest sets T that
    the choices of T with every successor in T connect strongly, each
    state of T having at least one such choice.

    A set is split into the strongly connected components of the steps
    of its staying choices, again and again, until a set is one component
    in which every state has a staying choice; a lone state needs a
    choice that only loops back to it.
    """
    found = []
    work = [frozenset(states)]
    while work:
        part = work.pop()
        # the steps of the choices staying in part
        succ = {s: [t for _, dist in choices[s]
                    if all(u in part for u, _ in dist) for t, _ in dist]
                for s in part}
        parts = list(sccs(succ))
        if len(parts) == 1 and all(succ.values()):
            found.append(part)
        else:
            work += [frozenset(c) for c in parts if len(c) > 1 or succ[c[0]]]
    return found


def solve_small(component, choices, values) -> None:
    """Set values[s] for every state s of component to its maximal
    probability of reaching the targets.

    component is strongly connected, every state of it can reach a
    target, and values already holds the final value of every successor
    outside it. Each maximal end component is one node, with the choices
    of its states that leave it; every other state is a node of its own.
    No end component is left among the nodes, so every policy leaves
    them surely and its values solve a nonsingular linear system. From
    the first choice of each node, policy iteration evaluates the policy
    and moves a node to the first choice of largest backup, if that is
    larger than its current choice's, until no node moves or a policy
    comes back (a tie that rounding breaks both ways). Raises BudgetError
    after POLICY_ROUNDS policies. The values are clamped to [0, 1].
    """
    states = sorted(component)
    ec_of = {s: ec for ec in end_components(states, choices) for s in ec}
    node = {}  # state -> node number
    exits = []  # per node: the distributions of its choices that leave it
    for s in states:
        if s in node:
            continue
        part = ec_of.get(s, (s,))
        for u in part:
            node[u] = len(exits)
        exits.append([dist for u in sorted(part) for _, dist in choices[u]
                      if not all(t in part for t, _ in dist)])

    def backup(dist, x):
        total = 0.0
        for t, p in dist:
            total += p * (x[node[t]] if t in node else values[t])
        return total

    policy = [0] * len(exits)
    seen = set()
    for _ in range(POLICY_ROUNDS):
        x = _evaluate([acts[a] for acts, a in zip(exits, policy)], node,
                      values)
        moved = list(policy)
        for n, acts in enumerate(exits):
            q = [backup(dist, x) for dist in acts]
            best = max(q)
            if q[policy[n]] < best:
                moved[n] = q.index(best)
        seen.add(tuple(policy))
        if tuple(moved) in seen:
            break
        policy = moved
    else:
        raise BudgetError(
            f"policy iteration on a component of {len(states)} states did "
            f"not settle within {POLICY_ROUNDS} policies")
    for s in states:
        # rounding may take a value of 1 just past it
        values[s] = min(max(x[node[s]], 0.0), 1.0)


def _evaluate(rows, node, values) -> list[float]:
    """Solve x[n] = sum of p * x(t) over rows[n], where x(t) is x[node[t]]
    for a state of a node and values[t] for any other, by Gaussian
    elimination. The policy leaves the nodes surely, so the matrix, I
    minus its steps between nodes, is a nonsingular M-matrix: every pivot
    is positive, and none needs to be exchanged."""
    k = len(rows)
    a = []
    b = []
    for n, dist in enumerate(rows):
        row = [0.0] * k
        row[n] = 1.0
        rhs = 0.0
        for t, p in dist:
            if t in node:
                row[node[t]] -= p
            else:
                rhs += p * values[t]
        a.append(row)
        b.append(rhs)
    for c in range(k):
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, k):
                    a[r][j] -= f * a[c][j]
                b[r] -= f * b[c]
    x = [0.0] * k
    for r in reversed(range(k)):
        total = b[r]
        for j in range(r + 1, k):
            total -= a[r][j] * x[j]
        x[r] = total / a[r][r]
    return x
