"""A fixed amount of pure-Python work, timed as a fresh process.

The benchmark runs this once per round, like a query, to measure how fast
the machine is at that moment; on a shared machine the same query can
take 1.5 times as long in one minute as in the next. It imports nothing
of `mdpdiag`, so no change to the program under test changes its time.
The work mixes what `mdpdiag` spends its time on: dict and set lookups,
tuple building, float arithmetic and a heap.
"""

import heapq


def work(n: int = 30_000) -> float:
    succ = {s: ((s * 7 + 1) % n, (s * 13 + 5) % n, (s * 31 + 11) % n)
            for s in range(n)}
    value = [0.0] * n
    for _ in range(4):
        nxt = list(value)
        for s, ts in succ.items():
            nxt[s] = 0.5 + 0.25 * max(value[t] for t in ts)
        value = nxt
    heap = [(0.0, (0,))]
    seen = set()
    while heap and len(seen) < n // 4:
        cost, path = heapq.heappop(heap)
        u = path[-1]
        if u in seen:
            continue
        seen.add(u)
        for t in succ[u]:
            heapq.heappush(heap, (cost + value[t], path[-8:] + (t,)))
    return sum(value) + len(seen)


if __name__ == "__main__":
    work()
