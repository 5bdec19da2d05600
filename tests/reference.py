"""The oracle's reference semantics, written apart from its run so
that a step bug in the run cannot cancel out against the reference.

One node's state is its stack of loop frames (statement index, remaining
iterations, None for an infinite loop), the outermost a count-1 frame over
the node's body, or TERMINATED.  ``product_search`` searches every
interleaving of the whole program breadth-first; ``greedy_run`` takes the
one run ``explore`` takes through a one-part program, and ``partition``
gives the parts ``explore`` runs.  ``mdg_stuck`` is the contracted
message-dependence graph's verdict on an event-queue model, the method the
queue matcher is held to.
"""
from collections import Counter, deque

from mpicheck.model import INFINITE, For, Program
from mpicheck.oracle import (DeadlockFreeOracle, DeadlockReachable,
                             Inconclusive, TERMINATED)
from mpicheck.smodel import build_mdg, find_deadlock_cycle


def _seq_at(body, stack):
    """The statement sequence the innermost frame of ``stack`` indexes."""
    seq = body
    for idx, _ in stack[:-1]:
        seq = seq[idx].body
    return seq


def _settle(body, stack):
    """Advance the frames of ``stack`` (a list, changed in place) until the
    innermost index points at an event, or the node is terminated."""
    while True:
        seq = _seq_at(body, stack)
        idx, rem = stack[-1]
        if idx < len(seq):
            st = seq[idx]
            if not isinstance(st, For):
                return tuple(stack)
            stack.append((0, None if st.count is INFINITE else st.count))
        elif len(stack) == 1:
            return TERMINATED
        elif rem is None:
            stack[-1] = (0, None)
        elif rem > 1:
            stack[-1] = (0, rem - 1)
        else:
            stack.pop()
            pidx, prem = stack[-1]
            stack[-1] = (pidx + 1, prem)


def _front(body, state):
    """The event at the front of a node's state, None when terminated."""
    if state is TERMINATED:
        return None
    return _seq_at(body, state)[state[-1][0]]


def initial_state(program: Program) -> tuple:
    return tuple(_settle(body, [(0, 1)]) for _, body in program.nodes)


def enabled(program: Program, gstate: tuple) -> set:
    """Symbols at the front of both their source and their destination."""
    fronts = {nid: _front(body, st)
              for (nid, body), st in zip(program.nodes, gstate)}
    return {sym for nid, sym in fronts.items()
            if sym is not None and sym.src == nid != sym.dst
            and fronts.get(sym.dst) == sym}


def step(program: Program, gstate: tuple, sym) -> tuple:
    """The global state after rendezvous ``sym`` fires at both ends."""
    out = list(gstate)
    for k, (nid, body) in enumerate(program.nodes):
        if nid in (sym.src, sym.dst):
            idx, rem = out[k][-1]
            out[k] = _settle(body, [*out[k][:-1], (idx + 1, rem)])
    return tuple(out)


def replay(program: Program, trace) -> tuple:
    """Apply a rendezvous sequence from the initial state; raises when a
    step is not enabled."""
    state = initial_state(program)
    for sym in trace:
        if sym not in enabled(program, state):
            raise ValueError(f"trace step {sym} is not enabled")
        state = step(program, state, sym)
    return state


def product_search(prog, max_states):
    """Breadth-first search of every interleaving of the whole program, its
    moves in symbol order.  Returns the verdict and the states stored, each
    mapped to (parent, symbol)."""
    init = initial_state(prog)
    seen = {init: None}
    q = deque([init])
    explored = 0
    while q:
        state = q.popleft()
        explored += 1
        moves = enabled(prog, state)
        if not moves:
            if any(s != TERMINATED for s in state):
                trace, cur = [], state
                while seen[cur] is not None:
                    cur, sym = seen[cur]
                    trace.append(sym)
                return DeadlockReachable(tuple(reversed(trace)), state), seen
            continue
        for sym in sorted(moves):
            nxt = step(prog, state, sym)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return Inconclusive(explored), seen
                seen[nxt] = (state, sym)
                q.append(nxt)
    return DeadlockFreeOracle(explored), seen


def greedy_run(prog):
    """Fire the least enabled symbol until none is enabled or a state
    repeats.  Returns the symbols fired, the states visited in order (the
    repeated one not again) and whether the run ended on a repeat."""
    state = initial_state(prog)
    visited = [state]
    seen = {state}
    trace = []
    while True:
        moves = enabled(prog, state)
        if not moves:
            return trace, visited, False
        trace.append(min(moves))
        state = step(prog, state, trace[-1])
        if state in seen:
            return trace, visited, True
        visited.append(state)
        seen.add(state)


def partition(program: Program):
    """``explore``'s parts and looping nodes, from a full walk of every
    body: the node positions connected by the messages that name two
    nodes, each group sorted and the groups ordered by their first
    position, with the positions no message names joining the first group;
    and the positions whose body holds an infinite loop at any depth."""
    rank = program.rank
    links = [set() for _ in program.nodes]
    looping = set()

    def walk(k, body):
        for st in body:
            if isinstance(st, For):
                if st.count is INFINITE:
                    looping.add(k)
                walk(k, st.body)
            else:
                a, b = rank[st.src], rank[st.dst]
                links[a].add(b)
                links[b].add(a)

    for k, (_, body) in enumerate(program.nodes):
        walk(k, body)
    parts, placed = [], set()
    for k, linked in enumerate(links):
        if k in placed or not linked:
            continue
        group, todo = set(), [k]
        while todo:
            j = todo.pop()
            if j not in group:
                group.add(j)
                todo += links[j]
        placed |= group
        parts.append(sorted(group))
    parts = parts or [[]]
    parts[0] = sorted(parts[0] + [k for k, linked in enumerate(links)
                                  if not linked])
    return parts, looping


def mdg_stuck(queues) -> bool:
    """Whether the graph calls the model stuck: some symbol's send and
    receive totals differ, or the contracted graph has a cycle."""
    sends, recvs = Counter(), Counter()
    for n, q in queues.items():
        for s in q:
            (sends if n == s.src else recvs)[s] += 1
    return sends != recvs or find_deadlock_cycle(build_mdg(queues)) is not None
