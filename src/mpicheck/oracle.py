"""Ground-truth deadlock decision by exhaustive state-space exploration.

Rendezvous semantics: a send and its matching receive fire together, each
blocks until the other is ready.  Infinite loops cycle through their body
with no counter, so every node's control space is finite and exploration is
exact on everything the DSL admits.  A state with no enabled rendezvous and
at least one unterminated node is a deadlock; a process blocked forever on a
terminated peer counts.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import For, Program, is_infinite

TERMINATED = "terminated"


@dataclass(frozen=True)
class OracleVerdict:
    pass


@dataclass(frozen=True)
class DeadlockReachable(OracleVerdict):
    trace: tuple        # rendezvous symbols from the initial state
    state: tuple        # the stuck global state

    def __bool__(self):
        return False


@dataclass(frozen=True)
class DeadlockFreeOracle(OracleVerdict):
    states: int

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Inconclusive(OracleVerdict):
    states: int


def _seq_at(body, stack):
    """The statement sequence addressed by all but the innermost frame."""
    seq = body
    for idx, _ in stack[:-1]:
        seq = seq[idx].body
    return seq


def _settle(body, stack):
    """Advance frames until the innermost index points at an event, or the
    node is terminated.  Loop frames carry remaining iterations (None for
    infinite loops)."""
    stack = list(stack)
    while True:
        seq = _seq_at(body, stack)
        idx, rem = stack[-1]
        if idx < len(seq):
            st = seq[idx]
            if isinstance(st, For):
                stack.append((0, None if is_infinite(st.count) else st.count))
                continue
            return tuple(stack)
        if len(stack) == 1:
            return TERMINATED
        if rem is None:          # infinite loop: next iteration
            stack[-1] = (0, None)
        elif rem > 1:
            stack[-1] = (0, rem - 1)
        else:
            stack.pop()
            pidx, prem = stack[-1]
            stack[-1] = (pidx + 1, prem)


def _current(body, state):
    seq = _seq_at(body, state)
    return seq[state[-1][0]]


def _advance(body, state):
    stack = list(state)
    idx, rem = stack[-1]
    stack[-1] = (idx + 1, rem)
    return _settle(body, stack)


def initial_state(program: Program) -> tuple:
    return tuple(_settle(body, [(0, 1)]) for _, body in program.nodes)


def enabled(program: Program, gstate: tuple) -> set:
    """Symbols whose send and receive are both at their nodes' fronts.  A
    symbol at node n's front is a send when n is its source."""
    nodes = program.nodes
    rank = program.rank
    out = set()
    for (nid, body), st in zip(nodes, gstate):
        if st == TERMINATED:
            continue
        s = _current(body, st)
        if s.src != nid or s.dst == nid:
            continue
        k = rank.get(s.dst)
        if k is None or gstate[k] == TERMINATED:
            continue
        if _current(nodes[k][1], gstate[k]) == s:
            out.add(s)
    return out


def step(program: Program, gstate: tuple, sym) -> tuple:
    nodes = program.nodes
    rank = program.rank
    out = list(gstate)
    for node in (sym.src, sym.dst):
        k = rank[node]
        out[k] = _advance(nodes[k][1], out[k])
    return tuple(out)


def explore(program: Program, max_states: int = 10**6) -> OracleVerdict:
    """Breadth-first reachability; returns the first stuck state's trace,
    full-exploration freedom, or Inconclusive at the state bound."""
    init = initial_state(program)
    seen = {init: None}   # state -> (parent, symbol)
    q = deque([init])
    explored = 0
    while q:
        state = q.popleft()
        explored += 1
        moves = enabled(program, state)
        if not moves:
            if any(s != TERMINATED for s in state):
                return DeadlockReachable(_trace(seen, state), state)
            continue
        for sym in sorted(moves, key=lambda s: (s.name, s.src, s.dst)):
            nxt = step(program, state, sym)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return Inconclusive(explored)
                seen[nxt] = (state, sym)
                q.append(nxt)
    return DeadlockFreeOracle(explored)


def _trace(seen, state) -> tuple:
    out = []
    cur = state
    while seen[cur] is not None:
        cur, sym = seen[cur]
        out.append(sym)
    out.reverse()
    return tuple(out)


def replay(program: Program, trace) -> tuple:
    """Apply a rendezvous sequence from the initial state; used to validate
    deadlock traces."""
    state = initial_state(program)
    for sym in trace:
        if sym not in enabled(program, state):
            raise ValueError(f"trace step {sym} is not enabled")
        state = step(program, state, sym)
    return state
