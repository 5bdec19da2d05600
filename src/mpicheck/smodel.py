"""Deadlock detection for loop-free programs.

Two independent methods: the linear multi-queue matching algorithm (the
workhorse) and the contracted message-dependence-graph cycle test (used for
witnesses and cross-checking).  Matching is FIFO: the k-th send instance of a
symbol pairs with its k-th receive instance.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .verdicts import (DEADLOCK_FREE, Deadlock, MdgCycle, StuckQueues,
                       UnmatchedTotals, Verdict)


class InternalDisagreement(Exception):
    """The queue algorithm and the MDG cycle test disagreed — a bug."""


def check_by_queues(queues: dict, rng=None) -> Verdict:
    """Repeatedly remove matching front pairs until done or stuck.

    Each event is touched a constant number of times: a node re-enters the
    worklist only when its front advances, so total work is linear in the
    event count.  `rng` randomizes the processing order (verdict must not
    depend on it).
    """
    nodes = list(queues)
    rank = {n: i for i, n in enumerate(nodes)}
    qs = list(queues.values())
    ends = [len(q) for q in qs]
    idx = [0] * len(qs)
    pending = deque(range(len(qs))) if rng is None else list(range(len(qs)))
    while pending:
        if rng is None:
            i = pending.popleft()
        else:
            i = pending.pop(rng.randrange(len(pending)))
        k = idx[i]
        if k >= ends[i]:
            continue
        s = qs[i][k]
        _, src, dst = s
        j = rank.get(dst if nodes[i] == src else src)
        if j is None or j == i:
            continue
        kj = idx[j]
        if kj < ends[j] and qs[j][kj] == s:
            idx[i] = k + 1
            idx[j] = kj + 1
            pending.append(i)
            pending.append(j)
    remaining = tuple((nodes[i], tuple(q[idx[i]:]))
                      for i, q in enumerate(qs) if idx[i] < ends[i])
    return Deadlock(StuckQueues(remaining)) if remaining else DEADLOCK_FREE


@dataclass(frozen=True)
class Mdg:
    """Contracted pair graph: one node per matched send/recv pair, a directed
    edge between consecutive pairs in each process's program order."""

    pairs: tuple           # ((symbol, k), ...)
    edges: tuple           # (((symbol, k), (symbol, k)), ...)
    unpaired: tuple        # ((node, symbol, role, k), ...)


def _totals(queues: dict):
    sends = Counter()
    recvs = Counter()
    for n, q in queues.items():
        for s in q:
            if n == s.src:
                sends[s] += 1
            else:
                recvs[s] += 1
    return sends, recvs


def build_mdg(queues: dict) -> Mdg:
    """The contracted MDG in time linear in the events, apart from sorting
    the distinct symbols.  Edges are ordered by (tail symbol name, tail k,
    head symbol name, head k): tails in symbol-name order, then each pair's
    successors, at most two (one per endpoint).  Edge ends are the very
    tuples of `pairs`, so lookups by pair hit on identity."""
    sends, recvs = _totals(queues)
    # Pairs in order of the symbols' first appearance, so the cycle found
    # does not depend on the hash seed.
    paired_n = {s: min(sends[s], recvs[s])
                for s in dict.fromkeys([*sends, *recvs])}
    pairs = []
    first = {}      # symbol -> (its number, index of its pair 0, its pairs)
    for i, (s, k) in enumerate(paired_n.items()):
        first[s] = (i, len(pairs), k)
        pairs.extend((s, j) for j in range(k))
    succ = [[] for _ in pairs]
    unpaired = []
    for n, q in queues.items():
        seen = {}            # within one node a symbol has a single role
        prev = -1
        for s in q:
            i, base, n_pairs = first[s]
            k = seen.get(i, 0)
            seen[i] = k + 1
            if k >= n_pairs:
                unpaired.append((n, s, "send" if n == s.src else "recv", k))
                continue
            cur = base + k
            if prev >= 0 and cur not in succ[prev]:
                succ[prev].append(cur)
            prev = cur
    edges = []
    for s in sorted(paired_n, key=str):
        _, base, n_pairs = first[s]
        for u in range(base, base + n_pairs):
            out = succ[u]
            if len(out) > 1:
                out.sort(key=lambda v: (str(pairs[v][0]), pairs[v][1]))
            edges.extend((pairs[u], pairs[v]) for v in out)
    return Mdg(tuple(pairs), tuple(edges), tuple(unpaired))


_WHITE, _GREY, _BLACK = 0, 1, 2


def find_deadlock_cycle(mdg: Mdg):
    """A directed cycle in the contracted graph, or None.

    A contracted cycle corresponds exactly to a raw-MDG circle of length
    greater than 2, since matched-pair 2-circles are contracted away.

    Iterative white/grey/black depth-first search (Tarjan 1972): roots in
    `mdg.pairs` order, successors in `mdg.edges` order, and the cycle is the
    search path from the grey pair hit by the first back edge.  Every pair
    and edge is visited once, so the time is O(pairs + edges).
    """
    index = {p: i for i, p in enumerate(mdg.pairs)}
    succ = [[] for _ in mdg.pairs]
    for u, v in mdg.edges:
        succ[index[u]].append(index[v])
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


def mdg_says_deadlock(mdg: Mdg) -> bool:
    return bool(mdg.unpaired) or find_deadlock_cycle(mdg) is not None


def check_smodel(queues: dict) -> Verdict:
    """Queue verdict, cross-checked against the MDG test, which runs once per
    call; a deadlock's witness is the pair cycle, else the totals of the
    first unpaired message."""
    verdict = check_by_queues(queues)
    mdg = build_mdg(queues)
    cyc = find_deadlock_cycle(mdg)
    if (bool(mdg.unpaired) or cyc is not None) != isinstance(verdict, Deadlock):
        raise InternalDisagreement(
            "queue matching and MDG cycle test disagree on this model")
    if not isinstance(verdict, Deadlock):
        return verdict
    if cyc is not None:
        return Deadlock(MdgCycle(cyc))
    _, s, _, _ = mdg.unpaired[0]
    sends, recvs = _totals(queues)
    return Deadlock(UnmatchedTotals(s, sends.get(s, 0), recvs.get(s, 0)))


def mdg_to_dot(mdg: Mdg, program=None) -> str:
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
