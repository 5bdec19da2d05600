"""Ground-truth deadlock decision by one run of the program per part.

Rendezvous semantics: a send and its matching receive fire together, each
blocks until the other is ready.  Infinite loops cycle through their body
with no counter, so every node's control space is finite and a run either
stops or repeats a state.

Meaning of deadlock: a reachable global state with no enabled rendezvous in
which at least one node has not terminated.  A node blocked forever on a
terminated peer therefore counts only once every other node is blocked or
terminated too; while an unrelated pair can still exchange, the state is not
stuck.

Why one run decides: each node has exactly one event at its front, so two
enabled rendezvous never share a node.  Firing one leaves the others
enabled, and any two commute.  A single enabled rendezvous is therefore a
persistent set (Godefroid, 1996), and every maximal run reaches the same
stuck state when one exists, in the same number of steps (Keller, 1975).
The run fires the least enabled rendezvous in ``Symbol`` order and stops
when none is enabled (a stuck or terminated state) or when a state repeats
(the part is live).  The exhaustive search over every interleaving that it
replaces is kept in ``tests/reference.py``, which the tests hold the run
to.

The run goes part by part.  A part is a group of nodes linked by the two
endpoints of a message; nodes that no message links to another node can
never move, and join the first part.  Parts share no rendezvous, so the
program is deadlocked when every part stops and at least one stops with an
unterminated node.  ``states`` counts the states visited summed over the
parts, and ``max_states`` bounds them.

A node's local state is its stack of loop frames, or TERMINATED.  A part
with no infinite loop never repeats a state, as each step moves two nodes
past an event of their unrolled bodies, each passed once: its run steps
each node's frames in place and stores nothing.  A part with an infinite
loop stores every state it visits and numbers each local state when first
reached, with the event at its front and, once needed, the number its
firing leads to, so a global state is a tuple of small ints and each local
transition is settled once however often the run takes it.  A deadlock's
state is reported as stacks.
"""
from __future__ import annotations

from .model import INFINITE, DuplicateNode, For, InvalidLoopCount, Program
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
    frames carry remaining iterations (None for infinite loops).  Entering
    a loop with an empty body raises InvalidLoopCount, as ``validate``
    does.  Returns the local state and the event at its front,
    ``(TERMINATED, None)`` for a terminated node."""
    seq = seqs[-1]
    while True:
        idx, rem = stack[-1]
        if idx < len(seq):
            st = seq[idx]
            if type(st) is not For:
                return tuple(stack), st
            if not st.body:
                # an infinite loop over no event would never settle
                raise InvalidLoopCount("empty loop body")
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


def _step(stack: list, seqs: list) -> tuple:
    """``_settle`` after the event at the front of the settled ``stack``
    fires: the innermost frame moves past it, in place."""
    idx, rem = stack[-1]
    stack[-1] = (idx + 1, rem)
    return _settle(stack, seqs)


def _advance(body, stack) -> tuple:
    """``_step`` on a copy of the settled local state ``stack``."""
    seqs = [body]
    for k, _ in stack[:-1]:
        seqs.append(seqs[-1][k].body)
    return _step(list(stack), seqs)


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


# bench/tracing.py counts oracle states through this name (ROADMAP item 5)
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


def _parts(program: Program, looping: set = None) -> list:
    """Node positions grouped into parts, each in ``program.nodes`` order,
    the parts ordered by their first node.  Two nodes share a part when a
    message names both as its endpoints.  Nodes that no message links to
    another node can never move; they join the first part, so a program
    with no link is one part.  The positions of nodes that hold an
    infinite loop are added to ``looping`` when it is given."""
    rank = program.rank
    syms = set()
    for k, (_, top) in enumerate(program.nodes):
        bodies = [top]
        for body in bodies:
            for st in body:
                if type(st) is not For:
                    syms.add(st)
                    continue
                bodies.append(st.body)
                if st.count is INFINITE and looping is not None:
                    looping.add(k)
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


def _run_in_place(program: Program, positions: list, max_states: int):
    """``_run`` over a part with no infinite loop, which repeats no state:
    each node's frames are stepped in place, and nothing is stored."""
    nodes = [program.nodes[k] for k in positions]
    rank = {nid: i for i, (nid, _) in enumerate(nodes)}
    frames = [([(0, 1)], [body]) for _, body in nodes]
    events = [_settle(*f)[1] for f in frames]
    partner = [_front(nid, rank, e) for (nid, _), e in zip(nodes, events)]
    trace = []
    while True:
        move = None
        for i, j in enumerate(partner):
            if j is not None and events[j] == events[i] and (
                    move is None or events[i] < move):
                move, m = events[i], i
        if move is None:
            # settling a settled stack decodes it
            return len(trace) + 1, trace, [_settle(*f)[0] for f in frames]
        trace.append(move)
        if len(trace) >= max_states:
            return len(trace), None, None
        for i in (m, partner[m]):
            events[i] = e = _step(*frames[i])[1]
            partner[i] = _front(nodes[i][0], rank, e)


def _run(program: Program, positions: list, max_states: int):
    """One run over the states of the nodes of ``program`` at
    ``positions``, firing at each state the least enabled rendezvous in
    ``Symbol`` order.  Each local state of a node gets a number when the
    run first reaches it, and a global state is the tuple of its nodes'
    numbers.  Per number, ``table`` holds a row ``[event, node, partner,
    next, local state]``: the event at the node's front and the receiver
    when it is a send (``_front``; node and partner are indexes into
    ``positions``), the number reached when that event fires (``_advance``,
    filled in when first needed) and the local state, for decoding.  So a
    step reads two rows per node, and each local transition is settled
    once however often the run takes it.

    Returns ``(visited, trace, local)``: the states visited, all of them
    stored; the symbols fired, None when more than ``max_states`` states
    would be stored; and the local states of the state where no rendezvous
    is enabled, None when the run repeats a state first."""
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

    state = tuple([number(i, *_settle([(0, 1)], [body]))
                   for i, (_, body) in enumerate(nodes)])
    seen = {state}
    trace = []
    while True:
        rows = list(map(table.__getitem__, state))
        move = None
        for row in rows:
            j = row[2]
            if j is not None and rows[j][0] == row[0] and (
                    move is None or row[0] < move[0]):
                move = row
        if move is None:
            return len(seen), trace, [row[4] for row in rows]
        nxt = list(state)
        for row in (move, rows[move[2]]):
            n = row[3]
            if n is None:
                i = row[1]
                n = row[3] = number(i, *_advance(nodes[i][1], row[4]))
            nxt[row[1]] = n
        trace.append(move[0])
        state = tuple(nxt)
        if state in seen:
            return len(seen), trace, None
        if len(seen) >= max_states:
            return len(seen), None, None
        seen.add(state)


def explore(program: Program, max_states: int = 10**6) -> OracleVerdict:
    """One run per part.  Returns the parts' traces to a stuck global
    state, freedom, or Inconclusive at the state bound.  Raises
    DuplicateNode on a node id declared twice, as the run steps a node by
    its id, and InvalidLoopCount on an empty loop body it reaches, which
    would never settle; ``validate`` rejects both."""
    nodes = program.nodes
    if len(program.rank) != len(nodes):
        dup = next(n for k, (n, _) in enumerate(nodes)
                   if program.rank[n] != k)
        raise DuplicateNode(f"node {dup} declared twice")
    visited = 0
    trace = []
    merged = [None] * len(nodes)
    looping = set()
    for positions in _parts(program, looping):
        # the first part's initial state is counted whatever the bound, as
        # in a run of the whole program; a later part's counts against it
        if visited and visited >= max_states:
            return Inconclusive(visited)
        run = _run if looping.intersection(positions) else _run_in_place
        n, steps, local = run(program, positions, max_states - visited)
        visited += n
        if steps is None:
            return Inconclusive(visited)
        if local is None:
            return DeadlockFreeOracle(visited)
        trace += steps
        for k, s in zip(positions, local):
            merged[k] = s
    if all(s is TERMINATED for s in merged):
        return DeadlockFreeOracle(visited)
    return DeadlockReachable(tuple(trace), tuple(merged))
