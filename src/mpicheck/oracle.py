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

A node's local state is its stack of loop frames, or TERMINATED.  Within a
part's search each local state is numbered when first reached, together
with the event at its front and, once needed, the number its firing leads
to, so a global state is a tuple of small ints and each local transition is
settled once however many global states reach it.  ``initial_state``,
``enabled`` and ``step`` give the same semantics on stacks, through the
same helpers; a deadlock's state is reported as stacks.
"""
from __future__ import annotations

from collections import deque

from .model import INFINITE, DuplicateNode, For, Program
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


def _settle(stack: list, seqs: list) -> tuple:
    """Advance the frames of ``stack`` until the innermost index points at
    an event, or the node is terminated; ``seqs`` holds the statement
    sequence each frame indexes.  Both lists are changed in place.  Loop
    frames carry remaining iterations (None for infinite loops).  Returns
    the local state and the event at its front, ``(TERMINATED, None)`` for
    a terminated node."""
    seq = seqs[-1]
    while True:
        idx, rem = stack[-1]
        if idx < len(seq):
            st = seq[idx]
            if type(st) is not For:
                return tuple(stack), st
            stack.append((0, None if st.count is INFINITE else st.count))
            seq = st.body
            seqs.append(seq)
        elif len(stack) == 1:
            return TERMINATED, None
        elif rem is None:        # infinite loop: next iteration
            stack[-1] = (0, None)
        elif rem > 1:
            stack[-1] = (0, rem - 1)
        else:
            stack.pop()
            seqs.pop()
            seq = seqs[-1]
            pidx, prem = stack[-1]
            stack[-1] = (pidx + 1, prem)


def _advance(body, stack) -> tuple:
    """``(local state, event at its front)`` after the event at the front
    of the settled local state ``stack`` fires: the innermost frame moves
    past it and the frames settle."""
    *outer, (idx, rem) = stack
    seqs = [body]
    for k, _ in outer:
        seqs.append(seqs[-1][k].body)
    outer.append((idx + 1, rem))
    return _settle(outer, seqs)


def _front(nid, rank: dict, event):
    """The receiver's position when ``event``, at node ``nid``'s front, is
    a send to another node of ``rank`` (node id -> position); None for a
    receive, a dangling peer or a terminated node (``event`` None)."""
    if event is None or event.src != nid or event.dst == nid:
        return None
    return rank.get(event.dst)


def _event(body, stack):
    """The event at the front of the settled local state ``stack``, None
    for a terminated node."""
    if stack is TERMINATED:
        return None
    s = body[stack[0][0]]
    for idx, _ in stack[1:]:
        s = s.body[idx]
    return s


def initial_state(program: Program) -> tuple:
    return tuple(_settle([(0, 1)], [body])[0] for _, body in program.nodes)


def enabled(program: Program, gstate: tuple) -> set:
    """Symbols whose send and receive are both at their nodes' fronts.  A
    symbol at node n's front is a send when n is its source."""
    nodes = program.nodes
    rank = program.rank
    events = [_event(body, st) for (_, body), st in zip(nodes, gstate)]
    out = set()
    for (nid, _), sym in zip(nodes, events):
        j = _front(nid, rank, sym)
        if j is not None and events[j] == sym:
            out.add(sym)
    return out


def step(program: Program, gstate: tuple, sym) -> tuple:
    nodes = program.nodes
    rank = program.rank
    out = list(gstate)
    for node in (sym.src, sym.dst):
        k = rank[node]
        out[k] = _advance(nodes[k][1], out[k])[0]
    return tuple(out)


def _parts(program: Program) -> list:
    """Node positions grouped into parts, each in ``program.nodes`` order,
    the parts ordered by their first node.  Two nodes share a part when a
    message names both as its endpoints.  Nodes that no message links to
    another node can never move; they join the first part, so a program
    with no link is one part."""
    rank = program.rank
    syms = set()
    bodies = [body for _, body in program.nodes]
    for body in bodies:
        for st in body:
            if type(st) is For:
                bodies.append(st.body)
            else:
                syms.add(st)
    group = [None] * len(program.nodes)  # position -> its part, shared
    for _, a, b in syms:
        ka, kb = rank.get(a), rank.get(b)
        if ka is None or kb is None or ka == kb:
            continue
        ga, gb = group[ka], group[kb]
        if ga is None and gb is None:
            group[ka] = group[kb] = [ka, kb]
        elif ga is None:
            gb.append(ka)
            group[ka] = gb
        elif gb is None:
            ga.append(kb)
            group[kb] = ga
        elif ga is not gb:
            if len(ga) < len(gb):
                ga, gb = gb, ga
            ga += gb
            for k in gb:
                group[k] = ga
    parts = {}
    inert = []
    for k, g in enumerate(group):
        if g is None:
            inert.append(k)
        else:
            parts.setdefault(id(g), []).append(k)
    parts = list(parts.values()) or [[]]
    if inert:
        parts[0] = sorted(parts[0] + inert)
    return parts


def _search(program: Program, positions: list, max_states: int):
    """Breadth-first reachability over the states of the nodes of
    ``program`` at ``positions``.  Each local state of a node gets a number
    when the search first reaches it, and a global state is the tuple of
    its nodes' numbers.  Per number, ``table`` holds a row ``[event, node,
    partner, next, local state]``: the event at the node's front and the
    receiver when it is a send (``_front``; node and partner are indexes
    into ``positions``), the number reached when that event fires
    (``_advance``, filled in when first needed) and the local state, for
    decoding.  So expanding a global state reads two rows per node.

    Returns ``(explored, seen, dead)``: ``seen`` maps each stored state to
    its (parent, symbol), and is None when more than ``max_states`` states
    would be stored; ``dead`` is None when some rendezvous is enabled in
    every reachable state, else ``(state, local states)`` for the first
    stuck state, else for the first state with every node terminated."""
    nodes = [program.nodes[k] for k in positions]
    rank = {nid: i for i, (nid, _) in enumerate(nodes)}
    numbers = [{} for _ in nodes]       # local state -> number, per node
    table = []

    def number(i, local, event):
        n = numbers[i].get(local)
        if n is None:
            n = numbers[i][local] = len(table)
            table.append([event, i, _front(nodes[i][0], rank, event), None,
                          local])
        return n

    init = tuple([number(i, *_settle([(0, 1)], [body]))
                  for i, (_, body) in enumerate(nodes)])
    seen = {init: None}
    q = deque([init])
    explored = 0
    done = None
    while q:
        state = q.popleft()
        explored += 1
        rows = list(map(table.__getitem__, state))
        moves = []
        for row in rows:
            j = row[2]
            if j is not None and rows[j][0] == row[0]:
                moves.append(row)
        if not moves:
            local = [row[4] for row in rows]
            if local.count(TERMINATED) < len(local):
                return explored, seen, (state, local)
            if done is None:
                done = state, local
            continue
        moves.sort()    # by event, which no two moves share
        for row in moves:
            peer = rows[row[2]]
            nxt = list(state)
            n = row[3]
            if n is None:
                i = row[1]
                n = row[3] = number(i, *_advance(nodes[i][1], row[4]))
            nxt[row[1]] = n
            n = peer[3]
            if n is None:
                i = peer[1]
                n = peer[3] = number(i, *_advance(nodes[i][1], peer[4]))
            nxt[peer[1]] = n
            nxt = tuple(nxt)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return explored, None, None
                seen[nxt] = (state, row[0])
                q.append(nxt)
    return explored, seen, done


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
    dead = []       # (positions, seen, dead state, its local states) per part
    for positions in _parts(program):
        # the first part's initial state is stored whatever the bound, as
        # in a search of the whole program; a later part's counts against it
        if stored and stored >= max_states:
            return Inconclusive(explored)
        n, seen, found = _search(program, positions, max_states - stored)
        explored += n
        if seen is None:
            return Inconclusive(explored)
        if found is None:
            return DeadlockFreeOracle(explored)
        stored += len(seen)
        dead.append((positions, seen, *found))
    if all(s is TERMINATED for *_, local in dead for s in local):
        return DeadlockFreeOracle(explored)
    trace = []
    merged = [None] * len(nodes)
    for positions, seen, state, local in dead:
        trace += _trace(seen, state)
        for k, s in zip(positions, local):
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
