"""Ground-truth deadlock decision by exhaustive state-space exploration.

Rendezvous semantics: a send and its matching receive fire together, each
blocks until the other is ready.  Infinite loops cycle through their body
with no counter, so every node's control space is finite and exploration is
exact on everything the DSL admits.

Meaning of deadlock: a reachable global state with no enabled rendezvous in
which at least one node has not terminated.  A node blocked forever on a
terminated peer therefore counts only once every other node is blocked or
terminated too; while an unrelated pair can still exchange, the state is not
stuck.

The search runs per part.  A part is a group of nodes linked by the two
endpoints of a message; nodes that no message links to another node can
never move, and join the first part.  Parts share no rendezvous, so their
moves commute and the global states reachable are exactly the products of
the parts' reachable states.  The program is therefore deadlocked when every
part can reach a state with no enabled rendezvous and at least one part can
reach such a state with an unterminated node.  Each part is explored on its
own, so the cost is the sum of the parts' state spaces, not their product;
``states`` counts the states explored summed over the parts, and
``max_states`` bounds the states stored summed over the parts.
"""
from __future__ import annotations

from collections import deque
from operator import itemgetter

from .model import DuplicateNode, For, Program, is_infinite
from .record import Frozen

TERMINATED = "terminated"   # a terminated node's state; compared by identity


class OracleVerdict(Frozen):
    pass


class DeadlockReachable(OracleVerdict):
    # the rendezvous symbols from the initial state; the stuck global state
    _fields = ("trace", "state")

    def __init__(self, trace, state):
        self.__dict__.update(trace=trace, state=state)

    def __bool__(self):
        return False


class DeadlockFreeOracle(OracleVerdict):
    _fields = ("states",)

    def __init__(self, states):
        self.__dict__.update(states=states)

    def __bool__(self):
        return True


class Inconclusive(OracleVerdict):
    _fields = ("states",)

    def __init__(self, states):
        self.__dict__.update(states=states)


def _seq_at(body, stack):
    """The statement sequence addressed by all but the innermost frame."""
    seq = body
    for idx, _ in stack[:-1]:
        seq = seq[idx].body
    return seq


def _settle(body, stack):
    """Advance the frames of ``stack`` (a list, changed in place) until the
    innermost index points at an event, or the node is terminated.  Loop
    frames carry remaining iterations (None for infinite loops)."""
    seq = _seq_at(body, stack)
    while True:
        idx, rem = stack[-1]
        if idx < len(seq):
            st = seq[idx]
            if not isinstance(st, For):
                return tuple(stack)
            stack.append((0, None if is_infinite(st.count) else st.count))
            seq = st.body
        elif len(stack) == 1:
            return TERMINATED
        elif rem is None:        # infinite loop: next iteration
            stack[-1] = (0, None)
        elif rem > 1:
            stack[-1] = (0, rem - 1)
        else:
            stack.pop()
            pidx, prem = stack[-1]
            stack[-1] = (pidx + 1, prem)
            seq = _seq_at(body, stack)


def initial_state(program: Program) -> tuple:
    return tuple(_settle(body, [(0, 1)]) for _, body in program.nodes)


def enabled(program: Program, gstate: tuple) -> set:
    """Symbols whose send and receive are both at their nodes' fronts.  A
    symbol at node n's front is a send when n is its source."""
    nodes = program.nodes
    rank = program.rank
    out = set()
    for (nid, body), st in zip(nodes, gstate):
        if st is TERMINATED:
            continue
        s = body[st[0][0]]
        for idx, _ in st[1:]:
            s = s.body[idx]
        if s.src != nid or s.dst == nid:
            continue
        k = rank.get(s.dst)
        if k is None:
            continue
        pst = gstate[k]
        if pst is TERMINATED:
            continue
        r = nodes[k][1][pst[0][0]]
        for idx, _ in pst[1:]:
            r = r.body[idx]
        if r == s:
            out.add(s)
    return out


def step(program: Program, gstate: tuple, sym) -> tuple:
    nodes = program.nodes
    rank = program.rank
    out = list(gstate)
    for node in (sym.src, sym.dst):
        k = rank[node]
        stack = list(out[k])
        idx, rem = stack[-1]
        stack[-1] = (idx + 1, rem)
        out[k] = _settle(nodes[k][1], stack)
    return tuple(out)


def _parts(program: Program) -> list:
    """Node positions grouped into parts, each in ``program.nodes`` order,
    the parts ordered by their first node.  Two nodes share a part when a
    message names both as its endpoints, and positions that share a node id
    share a part.  Nodes that no message links to another node can never
    move; they join the first part, so a program with no link is one part."""
    rank = program.rank
    syms = set()
    bodies = [body for _, body in program.nodes]
    while bodies:
        for st in bodies.pop():
            if isinstance(st, For):
                bodies.append(st.body)
            else:
                syms.add(st)
    group = {}      # linked node id -> the ids of its group, one shared list
    for a, b in set(map(itemgetter(1, 2), syms)):
        if a == b or a not in rank or b not in rank:
            continue
        ga = group.setdefault(a, [a])
        gb = group.setdefault(b, [b])
        if ga is not gb:
            if len(ga) < len(gb):
                ga, gb = gb, ga
            ga += gb
            for n in gb:
                group[n] = ga
    parts = {}
    inert = []
    for k, (n, _) in enumerate(program.nodes):
        g = group.get(n)
        if g is None:
            inert.append(k)
        else:
            parts.setdefault(g[0], []).append(k)
    parts = list(parts.values()) or [[]]
    if inert:
        parts[0] = sorted(parts[0] + inert)
    return parts


def _search(program: Program, max_states: int):
    """Breadth-first reachability over ``program``'s states.  Returns
    ``(dead, explored, seen)``: ``dead`` is the first stuck state, else the
    first state with every node terminated, else None (some rendezvous is
    enabled in every reachable state); ``seen`` maps each stored state to
    its (parent, symbol), and is None when more than ``max_states`` states
    would be stored."""
    init = initial_state(program)
    seen = {init: None}
    q = deque([init])
    explored = 0
    done = None
    while q:
        state = q.popleft()
        explored += 1
        moves = enabled(program, state)
        if not moves:
            if any(s is not TERMINATED for s in state):
                return state, explored, seen
            if done is None:
                done = state
            continue
        for sym in sorted(moves):
            nxt = step(program, state, sym)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return None, explored, None
                seen[nxt] = (state, sym)
                q.append(nxt)
    return done, explored, seen


def explore(program: Program, max_states: int = 10**6) -> OracleVerdict:
    """Breadth-first reachability, part by part.  Returns the parts' traces
    to a stuck global state, freedom, or Inconclusive at the state bound.
    Raises DuplicateNode on a node id declared twice, which ``validate``
    rejects too: the search steps a node by its id."""
    nodes = program.nodes
    if len(program.rank) != len(nodes):
        dup = next(n for k, (n, _) in enumerate(nodes)
                   if program.rank[n] != k)
        raise DuplicateNode(f"node {dup} declared twice")
    explored = stored = 0
    dead = []       # (positions, dead state, seen) per part
    parts = _parts(program)
    for positions in parts:
        # the first part's initial state is stored whatever the bound, as
        # in a search of the whole program; a later part's counts against it
        if stored and stored >= max_states:
            return Inconclusive(explored)
        part = program if len(parts) == 1 else Program(
            tuple(nodes[k] for k in positions))
        state, n, seen = _search(part, max_states - stored)
        explored += n
        if seen is None:
            return Inconclusive(explored)
        if state is None:
            return DeadlockFreeOracle(explored)
        stored += len(seen)
        dead.append((positions, state, seen))
    if all(s is TERMINATED for _, state, _ in dead for s in state):
        return DeadlockFreeOracle(explored)
    trace = []
    merged = [None] * len(nodes)
    for positions, state, seen in dead:
        trace += _trace(seen, state)
        for k, s in zip(positions, state):
            merged[k] = s
    return DeadlockReachable(tuple(trace), tuple(merged))


def _trace(seen, state) -> list:
    out = []
    cur = state
    while seen[cur] is not None:
        cur, sym = seen[cur]
        out.append(sym)
    out.reverse()
    return out

