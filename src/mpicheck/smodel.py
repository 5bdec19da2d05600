"""Deadlock detection for loop-free programs.

The linear multi-queue matching algorithm decides, and its stuck fronts
name a deadlock's witness.  Matching is FIFO: the k-th send instance of a
symbol pairs with its k-th receive instance.  The contracted
message-dependence graph and its cycle test are a second, independent
method, off the check path: they draw `mpicheck mdg`'s graph and serve the
tests as a reference.
"""
from collections import deque
from functools import cached_property

from .record import Frozen
from .verdicts import (DEADLOCK_FREE, Deadlock, UnmatchedTotals, Verdict,
                       WaitCycle)


def check_by_queues(queues: dict) -> dict | None:
    """Remove matching front pairs until none is left.  Returns None when
    every queue drains, else each node's final front index, in queue
    order.

    Each event is touched a constant number of times: a node re-enters the
    worklist only when its front advances, so total work is linear in the
    event count.  Matching is confluent, so the order of the worklist does
    not change where the queues get stuck.
    """
    nodes = list(queues)
    rank = {n: i for i, n in enumerate(nodes)}
    qs = list(queues.values())
    ends = [len(q) for q in qs]
    idx = [0] * len(qs)
    pending = deque(range(len(qs)))
    while pending:
        i = pending.popleft()
        k = idx[i]
        if k >= ends[i]:
            continue
        s = qs[i][k]
        _, src, dst = s
        j = rank[dst if nodes[i] == src else src]
        kj = idx[j]
        if kj < ends[j] and qs[j][kj] == s:
            idx[i] = k + 1
            idx[j] = kj + 1
            pending.append(i)
            pending.append(j)
    if idx == ends:
        return None
    return dict(zip(nodes, idx))


class Mdg(Frozen):
    """Contracted pair graph: one node per matched send/recv pair, a directed
    edge between consecutive pairs in each process's program order.

    ``succ[u]`` holds the positions in ``pairs`` of the successors of pair
    ``u``, in (symbol name, k) order.
    """

    # ((symbol, k), ...) and ((position in pairs, ...), ...)
    _fields = ("pairs", "succ")

    def __init__(self, pairs, succ):
        self.__dict__.update(pairs=pairs, succ=succ)

    @cached_property
    def edges(self) -> tuple:
        """(((symbol, k), (symbol, k)), ...): tails in (symbol name, k)
        order, then each tail's successors in ``succ`` order.  Derived on
        first use; only the DOT export needs it."""
        pairs, succ = self.pairs, self.succ
        tails = sorted(range(len(pairs)),
                       key=lambda u: (str(pairs[u][0]), pairs[u][1]))
        return tuple((pairs[u], pairs[v]) for u in tails for v in succ[u])


def build_mdg(queues: dict) -> Mdg:
    """The contracted MDG of the queues of a validated program, in which a
    symbol sits only in its two endpoints' queues.  Pairs are numbered in
    order of their symbols' first appearance, so the cycle found does not
    depend on the hash seed.  Each node links its consecutive pairs."""
    sends, recvs = {}, {}
    for n, q in queues.items():
        for s in q:
            tally = sends if n == s.src else recvs
            tally[s] = tally.get(s, 0) + 1
    pairs = []
    first = {}          # symbol -> (position of its pair 0, end)
    for s in dict.fromkeys([*sends, *recvs]):
        k = min(sends.get(s, 0), recvs.get(s, 0))
        first[s] = (len(pairs), len(pairs) + k)
        pairs.extend((s, j) for j in range(k))
    succ = [()] * len(pairs)
    for q in queues.values():
        seen = {}            # within one node a symbol has a single role
        prev = None
        for s in q:
            base, end = first[s]
            cur = seen.get(s, base)
            seen[s] = cur + 1
            if cur >= end:
                continue
            if prev is not None and cur not in succ[prev]:
                succ[prev] += (cur,)
            prev = cur
    succ = [sorted(out, key=lambda u: (str(pairs[u][0]), pairs[u][1]))
            for out in succ]
    return Mdg(tuple(pairs), tuple(map(tuple, succ)))


_WHITE, _GREY, _BLACK = 0, 1, 2


def find_deadlock_cycle(mdg: Mdg):
    """A directed cycle in the contracted graph, or None.

    A contracted cycle corresponds exactly to a raw-MDG circle of length
    greater than 2, since matched-pair 2-circles are contracted away.

    Iterative white/grey/black depth-first search (Tarjan 1972): roots in
    `mdg.pairs` order, successors in `mdg.succ` order, and the cycle is the
    search path from the grey pair hit by the first back edge.  Every pair
    and edge is visited once, so the time is O(pairs + edges).
    """
    succ = mdg.succ
    colour = [_WHITE] * len(succ)
    for root, c in enumerate(colour):
        if c != _WHITE:
            continue
        colour[root] = _GREY
        path = [root]
        todo = [iter(succ[root])]
        while todo:
            for v in todo[-1]:
                if colour[v] == _WHITE:
                    colour[v] = _GREY
                    path.append(v)
                    todo.append(iter(succ[v]))
                    break
                if colour[v] == _GREY:
                    return tuple(mdg.pairs[i]
                                 for i in path[path.index(v):])
            else:
                colour[path.pop()] = _BLACK
                todo.pop()
    return None


def check_smodel(queues: dict) -> Verdict:
    """Queue verdict.  A stuck model's witness comes from its stuck fronts:
    from the first unfinished node in queue order, follow each blocked
    front to its symbol's other endpoint.  With fixed endpoints a front
    waits for exactly one partner, so the walk either reaches a partner
    that has terminated, whose totals of that symbol then fall short, or
    closes a cycle of blocked fronts, each waiting for the next.  The walk
    visits each node at most once, and never leaves `queues`: an unrolled
    model, a slice or an ``l2`` round holds both endpoints of each message."""
    at = check_by_queues(queues)
    if at is None:
        return DEADLOCK_FREE
    n = next(n for n, q in queues.items() if at[n] < len(q))
    path = {}               # node -> its blocked front, in walk order
    while n not in path:
        s = path[n] = queues[n][at[n]]
        n = s.dst if n == s.src else s.src
        if at[n] == len(queues[n]):
            return Deadlock(UnmatchedTotals(
                s, queues[s.src].count(s), queues[s.dst].count(s)))
    walked = list(path)
    return Deadlock(WaitCycle(tuple(
        (m, path[m], queues[m][:at[m]].count(path[m]))
        for m in walked[walked.index(n):])))


def mdg_to_dot(mdg: Mdg) -> str:
    """DOT rendering; edges on a deadlock cycle are highlighted."""
    cyc = find_deadlock_cycle(mdg)
    cyc_edges = set()
    if cyc:
        ring = list(cyc) + [cyc[0]]
        cyc_edges = {(ring[i], ring[i + 1]) for i in range(len(cyc))}

    def nid(pair):
        s, k = pair
        return f"\"{s.name}_{s.src}_{s.dst}_{k}\""

    lines = ["digraph mdg {"]
    for s, k in mdg.pairs:
        lines.append(
            f"  {nid((s, k))} [label=\"{s.name}: {s.src}->{s.dst}#{k}\"];")
    for u, v in mdg.edges:
        attr = " [color=red, penwidth=2]" if (u, v) in cyc_edges else ""
        lines.append(f"  {nid(u)} -> {nid(v)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
