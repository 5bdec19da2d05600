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

``explore`` takes a program ``validate`` accepts: it calls ``validate``
first, so an invalid one raises the ModelError ``analyze`` raises before a
run starts, and a run meets no dangling or self partner, no duplicate node
and no empty loop body.  The run goes part by part.  A part is a group of
nodes linked by the two endpoints of a message; the empty nodes, exactly
the ones no message links to another node, join the first part.  The parts
come from the program's table of distinct symbols (``Program.symbols``,
which the parser hands over as it builds it), and a node holds an infinite
loop only at its top level, so grouping the nodes walks no loop tree.
Parts share no rendezvous, so the program is deadlocked when every part
stops and at least one stops with an unterminated node.  ``states`` counts
the states visited summed over the parts, and ``max_states`` bounds them.

A node's local state is its stack of loop frames, or TERMINATED.  The run
steps each node's frames in place, one ``_step`` call per node move, and
keeps the event at each front.  A node starts at index -1 of its body, so
its first step settles it on its first event.  The run keeps the enabled
rendezvous in a heap ordered by symbol, as none is disabled before it
fires: each step pops the least, and pushes a rendezvous when one of the
two nodes it moved reaches it second.  A step therefore costs O(log n) in
a part of n nodes.  A part with no infinite loop never repeats a state, as
each step moves two nodes past an event of their unrolled bodies, each
passed once, so its run stores nothing.

In a part with an infinite loop the run names a node's local state by the
number of events the node has fired.  A node is one deterministic
sequence of events, so its stack after k events is a function of k
(Keller, 1975).  Only a top-level loop can be infinite, and the node never
leaves the first one: with p events before it and L in one iteration, the
stacks after k and k + L events coincide from k = p on, while the counts
below p + L name distinct stacks.  A count that wraps from p + L back to p
therefore names each local state exactly once, and a finite node's count
runs from 0 to its total, its terminated state.  The part's state is the
nodes' counts as one integer in mixed radix, each node's place value the
product of the earlier nodes' ranges.  A range is capped just above the
most steps the run may take, which no count passes, so the integer has
O(n log max_states) bits in a part of n nodes.  Moving a node adds its
place value, or on a wrap subtracts L - 1 times it, and the run stores
these integers to stop at the first repeat, which falls on the step where
the stacks first repeat.  A step in such a part therefore adds two
additions and a set lookup to the work of any other step, whatever the
part's width; only the integer's addition and hash, done in C, grow with
its bits.  A local transition the run takes again is settled again.  A
deadlock's state is reported as stacks.
"""
from heapq import heapify, heappop, heappush

from .model import INFINITE, For, Program, validate
from .record import Frozen

TERMINATED = "terminated"   # a terminated node's state; compared by identity


class OracleVerdict(Frozen):
    def __bool__(self):
        raise TypeError(f"{type(self).__name__} has no truth value: an "
                        "Inconclusive run is neither free nor deadlocked; "
                        "test the verdict's class")


class DeadlockReachable(OracleVerdict):
    # the rendezvous symbols from the initial state; the stuck global state
    _fields = ("trace", "state")

    def __init__(self, trace, state):
        self.__dict__.update(trace=trace, state=state)


class DeadlockFreeOracle(OracleVerdict):
    _fields = ("states",)

    def __init__(self, states):
        self.__dict__.update(states=states)


class Inconclusive(OracleVerdict):
    _fields = ("states",)

    def __init__(self, states):
        self.__dict__.update(states=states)


def _step(stack: list, seqs: list):
    """Move the innermost frame of ``stack`` past its index, then advance
    the frames until the innermost index points at an event, or the node is
    terminated; ``seqs`` holds the statement sequence each frame indexes.
    Both lists are changed in place.  Loop frames carry remaining
    iterations (None for infinite loops).  A node starts at index -1 of its
    body, so its first step settles it; each later one follows the firing
    of its front event.  Returns the new front event, None for a terminated
    node."""
    seq = seqs[-1]
    idx, rem = stack.pop()
    idx += 1
    while True:
        if idx < len(seq):
            st = seq[idx]
            stack.append((idx, rem))
            if type(st) is not For:
                return st
            idx, rem = 0, None if st.count is INFINITE else st.count
            seq = st.body
            seqs.append(seq)
        elif not stack:          # the end of the node's body
            stack.append((idx, rem))
            return None
        elif rem is None:        # infinite loop: next iteration
            idx = 0
        elif rem > 1:
            idx, rem = 0, rem - 1
        else:
            seqs.pop()
            seq = seqs[-1]
            idx, rem = stack.pop()
            idx += 1


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
    return {sym for (nid, _), sym in zip(nodes, events) if sym is not None
            and sym.src == nid and events[rank[sym.dst]] == sym}


def _parts(program: Program, looping: set) -> list:
    """Node positions grouped into parts, each in ``program.nodes`` order,
    the parts ordered by their first node.  Two nodes share a part when a
    message names both as its endpoints, so the endpoints of the program's
    distinct symbols are united.  The empty nodes, which no message links,
    join the first part, so a program with no link is one part.  The
    positions of nodes that hold an infinite loop, found at the top level
    of the valid ``program`` as no other level holds one, are added to
    ``looping``."""
    rank = program.rank
    group = [None] * len(program.nodes)  # position -> its part, shared
    for _, a, b in program.symbols:
        ka, kb = rank[a], rank[b]
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
    for k, (_, body) in enumerate(program.nodes):
        for st in body:
            if type(st) is For and st.count is INFINITE:
                looping.add(k)
                break
    return parts


def _events(body, cap: int) -> int:
    """The events a finite ``body`` unrolls to, at most ``cap``."""
    total = len(body)
    for st in body:
        if type(st) is For:
            total += st.count * _events(st.body, cap) - 1
    return min(total, cap)


def _span(body, cap: int):
    """``(start, end)`` of a node's count of fired events: the count stays
    below ``end``, and on reaching it wraps back to ``start``.  In a node
    with a top-level infinite loop, ``start`` is the events before the
    first one and ``end - start`` the events of one iteration; a finite
    node's count ends at its total, below ``end``.  ``end`` is capped at
    ``cap``, which no count reaches within the bound."""
    start = 0
    for st in body:
        if type(st) is not For:
            start += 1
        elif st.count is INFINITE:
            start = min(start, cap)
            return start, min(start + _events(st.body, cap), cap)
        else:
            start += st.count * _events(st.body, cap)
    return 0, min(start + 1, cap)


def _run(program: Program, positions: list, max_states: int, looping: bool):
    """One run over the states of the nodes of ``program`` at
    ``positions``, firing at each state the least enabled rendezvous in
    ``Symbol`` order.  Each node's frames are stepped in place, with the
    event at its front.  A heap holds the symbol of every enabled
    rendezvous, which names its two nodes.  An enabled rendezvous stays
    enabled until it fires, so no entry goes stale, and only the new fronts
    of the two nodes a step moves can enable another: each step pops one
    entry and pushes at most two.  In a ``looping`` part the run also keeps
    each node's count of fired events, which names its stack exactly
    (wrapped at the end of an infinite loop's iteration, see the module
    docstring), and stores every global state as the counts in mixed radix,
    one integer it updates by one addition per moved node, to stop at the
    first repeat; any other part repeats no state and stores none.

    Returns ``(visited, trace, local)``: the states visited; the symbols
    fired, None when more than ``max_states`` states would be stored; and
    the local states of the state where no rendezvous is enabled, None
    when the run repeats a state first."""
    nodes = [program.nodes[k] for k in positions]
    rank = {nid: i for i, (nid, _) in enumerate(nodes)}
    frames = [([(-1, 1)], [body]) for _, body in nodes]
    events = [_step(*f) for f in frames]
    ready = [e for i, e in enumerate(events) if e is not None
             and rank[e.src] == i and events[rank[e.dst]] == e]
    heapify(ready)

    if looping:
        # no count passes the steps taken, at most max(max_states, 1)
        cap = max(max_states, 1) + 1
        counts = [0] * len(nodes)
        starts, ends, places, backs = [], [], [], []
        place = 1
        for _, body in nodes:
            start, end = _span(body, cap)
            starts.append(start)
            ends.append(end)
            places.append(place)
            backs.append((end - start - 1) * place)
            place *= end
        key = 0
        seen = {key}
    trace = []
    while ready:
        move = heappop(ready)
        trace.append(move)
        m, n = rank[move.src], rank[move.dst]
        events[m] = e = _step(*frames[m])
        events[n] = f = _step(*frames[n])
        # a new front is enabled when its other node's front is the same
        # symbol; when the two moved nodes meet again, it is pushed once
        if e is not None and events[rank[e.src]] == events[rank[e.dst]]:
            heappush(ready, e)
        if f is not None and f != e and \
                events[rank[f.src]] == events[rank[f.dst]]:
            heappush(ready, f)
        if looping:
            for i in (m, n):
                c = counts[i] + 1
                if c == ends[i]:
                    counts[i] = starts[i]
                    key -= backs[i]
                else:
                    counts[i] = c
                    key += places[i]
            if key in seen:
                return len(trace), trace, None
            seen.add(key)
        if len(trace) >= max_states:
            return len(trace), None, None
    return len(trace) + 1, trace, [
        TERMINATED if e is None else tuple(stack)
        for e, (stack, _) in zip(events, frames)]


def explore(program: Program, max_states: int = 10**6) -> OracleVerdict:
    """One run per part.  Returns the parts' traces to a stuck global
    state, freedom, or Inconclusive at the state bound.  Takes a program
    ``validate`` accepts; ``validate``'s ModelError on any other is raised
    before a run starts."""
    nodes = validate(program).nodes
    visited = 0
    trace = []
    merged = [None] * len(nodes)
    looping = set()
    for positions in _parts(program, looping):
        # the first part's initial state is counted whatever the bound, as
        # in a run of the whole program; a later part's counts against it
        if visited and visited >= max_states:
            return Inconclusive(visited)
        n, steps, local = _run(program, positions, max_states - visited,
                               bool(looping.intersection(positions)))
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
