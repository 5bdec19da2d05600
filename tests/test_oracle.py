"""Exhaustive interleaving explorer: verdicts, traces, determinism."""
import os
import random
import subprocess
import sys
from collections import deque

import pytest

from corpus import generate
from mpicheck import oracle
from mpicheck.model import (INFINITE, DuplicateNode, For, Program, Symbol,
                            make_program)
from mpicheck.oracle import (DeadlockFreeOracle, DeadlockReachable,
                             Inconclusive, TERMINATED, explore)

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
C = Symbol("c", 2, 3)
D = Symbol("d", 3, 2)
E = Symbol("e", 4, 5)
F = Symbol("f", 5, 4)


# The reference semantics: one node's state is its stack of loop frames
# (statement index, remaining iterations, None for an infinite loop), the
# outermost a count-1 frame over the node's body, or TERMINATED.  The walk
# is written here, apart from the oracle's numbered search, so a step bug
# in the search cannot cancel out against the reference.

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


def test_empty_program_is_free():
    verdict = explore(make_program({0: [], 1: []}))
    assert isinstance(verdict, DeadlockFreeOracle)
    assert verdict.states == 1


def test_simple_exchange():
    prog = make_program({0: [A, B], 1: [A, B]})
    assert isinstance(explore(prog), DeadlockFreeOracle)


def test_crossed_sends_deadlock_immediately():
    prog = make_program({0: [A, B], 1: [B, A]})
    verdict = explore(prog)
    assert isinstance(verdict, DeadlockReachable)
    assert verdict.trace == ()


def test_node_id_declared_twice_is_rejected():
    # validate rejects this program; explore, which a library caller may
    # reach without it, must reject it too rather than step the wrong node
    prog = Program(((0, (A,)), (1, (A,)), (0, ())))
    with pytest.raises(DuplicateNode, match="node 0 declared twice"):
        explore(prog)


EMPTY_LOOPS = (
    "Program(((0, (For(INFINITE, ()),)),))",
    "Program(((0, (For(INFINITE, (For(2, ()),)),)),))",
    "Program(((0, (A, For(INFINITE, ()))), (1, (A,))))",
)


@pytest.mark.parametrize("program", EMPTY_LOOPS)
def test_empty_loop_body_is_rejected_not_explored_forever(program):
    # validate rejects these programs; an infinite loop over no event never
    # settles, so explore must reject them too.  The call runs in a child
    # process, so a search that never ends fails the test by its timeout
    code = ("import sys\n"
            "from mpicheck.model import INFINITE, For, InvalidLoopCount, "
            "Program, Symbol\n"
            "from mpicheck.oracle import explore\n"
            "A = Symbol('a', 0, 1)\n"
            "try:\n"
            f"    explore({program})\n"
            "except InvalidLoopCount as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=20,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "empty loop body\n"


def test_blocked_on_terminated_peer_is_deadlock():
    prog = make_program({0: [A, A], 1: [A]})
    verdict = explore(prog)
    assert isinstance(verdict, DeadlockReachable)
    assert verdict.trace == (A,)


def test_infinite_loops_have_finite_state_space():
    prog = make_program({
        0: [For(INFINITE, (A, B))],
        1: [For(INFINITE, (A, B))],
    })
    verdict = explore(prog)
    assert isinstance(verdict, DeadlockFreeOracle)
    assert verdict.states <= 4


def test_state_bound_gives_inconclusive():
    prog = make_program({
        0: [For(4, (A,)), For(4, (B,))],
        1: [For(4, (A,)), For(4, (B,))],
    })
    assert isinstance(explore(prog, max_states=2), Inconclusive)
    assert isinstance(explore(prog), DeadlockFreeOracle)


def test_enabled_and_step_agree_with_semantics():
    prog = make_program({0: [A], 1: [A, A]})
    state = initial_state(prog)
    assert enabled(prog, state) == {A}
    state = step(prog, state, A)
    assert state[0] == TERMINATED
    assert enabled(prog, state) == set()


def test_deadlock_traces_replay_to_stuck_state():
    rng = random.Random(5)
    found = 0
    while found < 25:
        prog = generate(rng)
        verdict = explore(prog)
        if not isinstance(verdict, DeadlockReachable):
            continue
        found += 1
        state = replay(prog, verdict.trace)
        assert state == verdict.state
        assert enabled(prog, state) == set()
        assert any(s != TERMINATED for s in state)


def test_exploration_is_deterministic():
    rng = random.Random(11)
    for _ in range(25):
        prog = generate(rng)
        assert explore(prog) == explore(prog)


def test_sparse_unordered_node_ids():
    a, b = Symbol("a", 7, 3), Symbol("b", 3, 7)
    free = make_program({7: [a, b], 3: [a, b]})
    assert free.rank == {7: 0, 3: 1}
    assert explore(free) == DeadlockFreeOracle(3)
    stuck = explore(make_program({7: [b, a], 3: [a, b]}))
    assert isinstance(stuck, DeadlockReachable) and stuck.trace == ()


def test_each_state_expanded_once_and_each_local_step_settled_once(
        monkeypatch):
    # the search keeps no call per state to count, so the reference's
    # explored count stands for "each state expanded once"; each local
    # transition is settled by one _advance call, however many global
    # states fire it
    g = Symbol("g", 1, 2)    # joins the two pairs into one part
    prog = make_program({0: [For(3, (A, B))], 1: [For(3, (A, B)), g],
                         2: [For(2, (C, D)), g], 3: [For(2, (C, D))]})
    assert oracle._parts(prog) == [[0, 1, 2, 3]]
    # the pairs interleave freely (7 * 5 states), then g fires
    ref = _product_search(prog, 10**6)[0]
    assert ref == DeadlockFreeOracle(7 * 5 + 1)
    calls = []
    original = oracle._advance

    def counting(body, stack):
        calls.append((body, stack))
        return original(body, stack)

    monkeypatch.setattr(oracle, "_advance", counting)
    assert explore(prog) == ref
    assert len(calls) == len(set(calls)) == 6 + 7 + 5 + 4


def _union(progs, rng):
    """Disjoint union: each program's messages renamed and node ids shifted,
    and the nodes shuffled so one part's positions interleave another's."""
    nodes = []
    for j, prog in enumerate(progs):
        def shift(body):
            return tuple(
                For(st.count, shift(st.body)) if isinstance(st, For)
                else Symbol(f"{st.name}{j}", st.src + 10 * j, st.dst + 10 * j)
                for st in body)
        nodes += [(n + 10 * j, shift(body)) for n, body in prog.nodes]
    rng.shuffle(nodes)
    return make_program(dict(nodes))


def _product_search(prog, max_states):
    """Breadth-first search of the whole program's state space, from the
    reference initial_state/enabled/step above: the reference for explore.
    Returns the verdict and the states stored, each mapped to (parent,
    symbol)."""
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
        for sym in sorted(moves, key=lambda s: (s.name, s.src, s.dst)):
            nxt = step(prog, state, sym)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return Inconclusive(explored), seen
                seen[nxt] = (state, sym)
                q.append(nxt)
    return DeadlockFreeOracle(explored), seen


def test_per_part_search_matches_product_search():
    rng = random.Random(3)
    decided = multi = 0
    for _ in range(500):
        prog = _union([generate(rng) for _ in range(rng.randint(1, 3))], rng)
        ref = _product_search(prog, 10**5)[0]
        got = explore(prog)
        if isinstance(got, DeadlockReachable):
            state = replay(prog, got.trace)
            assert state == got.state
            assert enabled(prog, state) == set()
            assert any(s != TERMINATED for s in state)
        if isinstance(ref, Inconclusive):
            continue
        decided += 1
        if len(oracle._parts(prog)) == 1:
            assert got == ref, prog
        else:
            multi += 1
            assert type(got) is type(ref), prog
    assert decided >= 450 and multi >= 200


def test_oracle_enabled_equals_reference_on_every_visited_state():
    # oracle.enabled has no caller in the search; this keeps it checked
    rng = random.Random(23)
    states = moving = 0
    for k in range(120):
        prog = (_concurrent_pairs(rng) if k % 3 == 0 else
                _union([generate(rng) for _ in range(rng.randint(1, 2))], rng))
        for state in _product_search(prog, 10**4)[1]:
            want = enabled(prog, state)
            assert oracle.enabled(prog, state) == want, (prog, state)
            states += 1
            moving += bool(want)
    assert moving >= 2000 and states - moving >= 50


def _concurrent_pairs(rng):
    """One part of 2-3 pairs of nodes.  Pair k, nodes 2k and 2k+1, exchanges
    x_k and y_k in a finite loop, nested or not, while the other pairs do
    the same, so the pairs interleave and each local state is reached from
    many global states.  A message l_k from node 2k+1 to node 2k+2 after
    their loops joins the pairs into one part.  All, none or some of the
    nodes wrap their body in for inf, and one pair may cross its
    exchange."""
    n_pairs = rng.randint(2, 3)
    bodies = {}
    for k in range(n_pairs):
        u, v = 2 * k, 2 * k + 1
        x, y = Symbol(f"x{k}", u, v), Symbol(f"y{k}", v, u)
        a, b = rng.randint(1, 3), rng.randint(1, 2)
        for n, pair in ((u, (x, y)), (v, (x, y))):
            loop = (For(a, (For(b, pair),)) if rng.random() < 0.5
                    else For(a * b, pair))
            bodies[n] = [loop]
        if k:
            bodies[u].append(Symbol(f"l{k - 1}", u - 1, u))
            bodies[u - 1].append(Symbol(f"l{k - 1}", u - 1, u))
    if rng.random() < 0.3:
        k = rng.randrange(n_pairs)
        bodies[2 * k + 1][0] = For(2, (Symbol(f"y{k}", 2 * k + 1, 2 * k),
                                       Symbol(f"x{k}", 2 * k, 2 * k + 1)))
    wrap = rng.choice(["all", "none", "some"])
    for n in bodies:
        if wrap == "all" or wrap == "some" and rng.random() < 0.5:
            bodies[n] = [For(INFINITE, tuple(bodies[n]))]
    return make_program(bodies)


def test_numbered_search_equals_single_state_reference():
    rng = random.Random(19)
    kinds = {DeadlockFreeOracle: 0, DeadlockReachable: 0}
    global_states = local_states = 0
    for _ in range(80):
        prog = _concurrent_pairs(rng)
        assert oracle._parts(prog) == [list(range(len(prog.nodes)))]
        ref, seen = _product_search(prog, 10**6)
        kinds[type(ref)] += 1
        got = explore(prog)
        assert got == ref, prog
        stored = len(seen)
        global_states += stored
        local_states += sum(len({s[k] for s in seen})
                            for k in range(len(prog.nodes)))
        for bound in (stored - 1, stored, stored + 1):
            assert explore(prog, max_states=bound) == \
                _product_search(prog, bound)[0], (prog, bound)
        if isinstance(got, DeadlockReachable):
            # stacks of (index, remaining) frames, not the search's numbers
            assert all(s is TERMINATED or all(
                type(f) is tuple and len(f) == 2 for f in s)
                for s in got.state)
            assert replay(prog, got.trace) == got.state
    assert kinds[DeadlockFreeOracle] >= 20 and kinds[DeadlockReachable] >= 20
    assert global_states >= 4 * local_states


def test_parts_cost_their_sum_not_their_product():
    part = [For(3, (A, B))]          # 7 states alone
    prog = make_program({0: part, 1: part, 2: [For(3, (C, D))],
                         3: [For(3, (C, D))], 4: [For(3, (E, F))],
                         5: [For(3, (E, F))]})
    assert explore(make_program({0: part, 1: part})) == DeadlockFreeOracle(7)
    assert explore(prog, max_states=50) == DeadlockFreeOracle(21)
    assert isinstance(_product_search(prog, 50)[0], Inconclusive)
    # the bound caps the states stored summed over the parts
    assert explore(prog, max_states=21) == DeadlockFreeOracle(21)
    assert isinstance(explore(prog, max_states=20), Inconclusive)
    assert explore(prog, max_states=14) == Inconclusive(14)


def test_live_part_beside_stuck_part_is_free():
    prog = make_program({0: [For(INFINITE, (A, B))],
                         1: [For(INFINITE, (A, B))],
                         2: [C, D], 3: [D, C]})
    assert isinstance(explore(prog), DeadlockFreeOracle)


def test_deadlock_trace_joins_the_parts_in_node_order():
    # nodes 2 and 3 form the first part: it sticks after c, d with node 2
    # waiting on its terminated peer; nodes 0 and 1 finish after a, b
    prog = make_program({2: [C, D, D], 0: [A, B], 3: [C, D], 1: [A, B]})
    verdict = explore(prog)
    assert verdict == DeadlockReachable(
        (C, D, A, B), (((2, 1),), TERMINATED, TERMINATED, TERMINATED))
    assert replay(prog, verdict.trace) == verdict.state


def test_unlinked_nodes_join_the_first_part():
    prog = make_program({0: [A, B], 1: [A, B], 2: []})
    assert oracle._parts(prog) == [[0, 1, 2]]
    assert explore(prog) == DeadlockFreeOracle(3)
    dangling = make_program({0: [Symbol("a", 0, 9)], 1: []})
    assert oracle._parts(dangling) == [[0, 1]]
    assert explore(dangling) == DeadlockReachable(
        (), initial_state(dangling))


def test_one_explore_call_and_each_part_state_expanded_once(monkeypatch):
    explores = []
    original_explore = oracle.explore

    def spy_explore(*args, **kwargs):
        explores.append(args)
        return original_explore(*args, **kwargs)

    monkeypatch.setattr(oracle, "explore", spy_explore)
    bodies = {0: [For(3, (A, B))], 1: [For(3, (A, B))],
              2: [For(2, (C, D))], 3: [For(2, (C, D))], 4: [E], 5: [E]}
    prog = make_program(bodies)
    parts = oracle._parts(prog)
    assert parts == [[0, 1], [2, 3], [4, 5]]
    verdict = oracle.explore(prog)
    assert len(explores) == 1
    # each part's states expanded once: the parts' reference counts, summed
    per_part = [_product_search(make_program({k: bodies[k] for k in ks}),
                                10**6)[0].states for ks in parts]
    assert per_part == [7, 5, 2]
    assert verdict == DeadlockFreeOracle(sum(per_part))
