"""Exhaustive interleaving explorer: verdicts, traces, determinism."""
import random
from collections import deque

from corpus import generate
from mpicheck import oracle
from mpicheck.model import (INFINITE, For, Symbol, make_program)
from mpicheck.oracle import (DeadlockFreeOracle, DeadlockReachable,
                             Inconclusive, TERMINATED, enabled, explore,
                             initial_state, replay, step)

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)


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


def test_one_enabled_call_per_explored_state(monkeypatch):
    calls = []
    original = oracle.enabled

    def counting(program, state):
        calls.append(state)
        return original(program, state)

    monkeypatch.setattr(oracle, "enabled", counting)
    verdict = explore(make_program({
        0: [For(3, (A, B))], 1: [For(3, (A, B))]}))
    assert isinstance(verdict, DeadlockFreeOracle)
    assert len(calls) == verdict.states == 7


C = Symbol("c", 2, 3)
D = Symbol("d", 3, 2)
E = Symbol("e", 4, 5)
F = Symbol("f", 5, 4)


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
    public initial_state/enabled/step: the reference for explore."""
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
                return DeadlockReachable(tuple(reversed(trace)), state)
            continue
        for sym in sorted(moves, key=lambda s: (s.name, s.src, s.dst)):
            nxt = step(prog, state, sym)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return Inconclusive(explored)
                seen[nxt] = (state, sym)
                q.append(nxt)
    return DeadlockFreeOracle(explored)


def test_per_part_search_matches_product_search():
    rng = random.Random(3)
    decided = multi = 0
    for _ in range(500):
        prog = _union([generate(rng) for _ in range(rng.randint(1, 3))], rng)
        ref = _product_search(prog, 10**5)
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


def test_parts_cost_their_sum_not_their_product():
    part = [For(3, (A, B))]          # 7 states alone
    prog = make_program({0: part, 1: part, 2: [For(3, (C, D))],
                         3: [For(3, (C, D))], 4: [For(3, (E, F))],
                         5: [For(3, (E, F))]})
    assert explore(make_program({0: part, 1: part})) == DeadlockFreeOracle(7)
    assert explore(prog, max_states=50) == DeadlockFreeOracle(21)
    assert isinstance(_product_search(prog, 50), Inconclusive)
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


def test_one_explore_call_and_one_enabled_call_per_state(monkeypatch):
    explores, states = [], []
    original_explore, original_enabled = oracle.explore, oracle.enabled

    def spy_explore(*args, **kwargs):
        explores.append(args)
        return original_explore(*args, **kwargs)

    def spy_enabled(program, state):
        states.append(state)
        return original_enabled(program, state)

    monkeypatch.setattr(oracle, "explore", spy_explore)
    monkeypatch.setattr(oracle, "enabled", spy_enabled)
    prog = make_program({0: [For(3, (A, B))], 1: [For(3, (A, B))],
                         2: [For(2, (C, D))], 3: [For(2, (C, D))],
                         4: [E], 5: [E]})
    assert len(oracle._parts(prog)) == 3
    verdict = oracle.explore(prog)
    assert len(explores) == 1
    assert verdict == DeadlockFreeOracle(7 + 5 + 2)
    assert len(states) == verdict.states
