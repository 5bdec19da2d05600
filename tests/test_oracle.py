"""The one-run oracle: verdicts, traces, determinism, and agreement with the
exhaustive reference search of ``reference.py``."""
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import fuzz
from corpus import corpus, generate
from mpicheck import oracle
from mpicheck.model import (INFINITE, DanglingEndpoint, DuplicateNode, For,
                            InvalidLoopCount, MisplacedOperation, ModelError,
                            Program, Symbol, make_program, validate)
from mpicheck.oracle import (DeadlockFreeOracle, DeadlockReachable,
                             Inconclusive, TERMINATED, explore)
from mpicheck.parser import parse, render
from reference import (enabled, greedy_run, initial_state, partition,
                       product_search, replay, step)
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, PROGRAMS, load
from test_parser import UNCERTIFIED

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
C = Symbol("c", 2, 3)
D = Symbol("d", 3, 2)
E = Symbol("e", 4, 5)
F = Symbol("f", 5, 4)


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


# (program, class, message): programs validate rejects, with its class and
# message.  A library caller may reach explore without validate, so explore
# must raise the same error rather than run, say, the wrong node of a
# duplicate id.  The parser's texts reach validate uncertified
INVALID = [pytest.param(parse(p.values[0]), *p.values[1:], id=p.id)
           for p in UNCERTIFIED] + [
    pytest.param(Program(((0, (A,)), (1, (A,)), (0, ()))), DuplicateNode,
                 "node 0 declared twice", id="library duplicate node"),
    pytest.param(make_program({0: [Symbol("a", 0, 9)], 1: []}),
                 DanglingEndpoint, "a:0->9 references an undeclared node",
                 id="library dangling peer"),
    pytest.param(make_program({0: [A], 1: [A], 2: [A]}), MisplacedOperation,
                 "a:0->1 found in node 2, which is neither its source nor "
                 "its destination", id="library misplaced symbol"),
    pytest.param(make_program({0: [For(3, ())], 1: []}), InvalidLoopCount,
                 "empty loop body in node 0", id="library empty body"),
]


@pytest.mark.parametrize("program, cls, msg", INVALID)
def test_invalid_program_raises_validates_error_before_any_run(
        monkeypatch, program, cls, msg):
    def no_run(*args):
        raise AssertionError("a run started on an invalid program")

    monkeypatch.setattr(oracle, "_parts", no_run)
    monkeypatch.setattr(oracle, "_run", no_run)
    with pytest.raises(ModelError) as got:
        explore(program)
    assert type(got.value) is cls and str(got.value) == msg
    with pytest.raises(ModelError) as want:
        validate(program)
    assert type(want.value) is cls and str(want.value) == msg


EMPTY_LOOPS = (
    "Program(((0, (For(INFINITE, ()),)),))",
    "Program(((0, (For(INFINITE, (For(2, ()),)),)),))",
    "Program(((0, (A, For(INFINITE, ()))), (1, (A,))))",
)


@pytest.mark.parametrize("program", EMPTY_LOOPS)
def test_empty_loop_body_is_rejected_not_explored_forever(program):
    # validate rejects these programs; an infinite loop over no event never
    # settles, so explore must raise validate's error before it runs.  The
    # call runs in a child process, so a run that never ends fails the test
    # by its timeout
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
    assert done.stdout == "empty loop body in node 0\n"


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


@pytest.mark.parametrize("bodies, max_states, kind", [
    ({0: [A, B], 1: [B, A]}, 10**6, DeadlockReachable),
    ({0: [A, B], 1: [A, B]}, 10**6, DeadlockFreeOracle),
    ({0: [For(4, (A,))], 1: [For(4, (A,))]}, 2, Inconclusive),
], ids=["deadlock", "free", "inconclusive"])
def test_oracle_verdict_has_no_truth_value(bodies, max_states, kind):
    # `if explore(p):` would take a run stopped at its bound for freedom
    verdict = explore(make_program(bodies), max_states=max_states)
    assert type(verdict) is kind
    with pytest.raises(TypeError, match="test the verdict's class"):
        bool(verdict)


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


@pytest.fixture
def advance_calls(monkeypatch):
    """Every local step the oracle settles, as ``(body, local state before
    the step)``: one ``_step`` call per node of a part when its run starts,
    from index -1 of the node's body, and one per node moved by each fired
    rendezvous, a transition taken again settled again."""
    calls = []
    original = oracle._step

    def counting(stack, seqs):
        calls.append((seqs[0], tuple(stack)))
        return original(stack, seqs)

    monkeypatch.setattr(oracle, "_step", counting)
    return calls


def _part_programs(prog):
    """``(positions, program of those nodes)`` per part of ``prog``."""
    return [(part, Program(tuple(prog.nodes[k] for k in part)))
            for part in oracle._parts(prog, set())]


def _reference_run(prog):
    """``explore``'s run from the reference stepper: ``greedy_run`` on each
    part in turn, up to the first part that repeats a state.  Returns the
    verdict, the states visited, and the local transitions fired: one per
    node of each part run, from index -1 of its body, and one per node
    moved by each step, counted with multiplicity by (body, local state
    before the step)."""
    visited = 0
    trace, merged = [], [None] * len(prog.nodes)
    fired = Counter()
    for part, sub in _part_programs(prog):
        fired.update((prog.nodes[k][1], ((-1, 1),)) for k in part)
        steps, states, live = greedy_run(sub)
        visited += len(states)
        for sym, state in zip(steps, states):
            fired.update((prog.nodes[k][1], local)
                         for k, local in zip(part, state)
                         if prog.nodes[k][0] in (sym.src, sym.dst))
        if live:
            return DeadlockFreeOracle(visited), visited, fired
        trace += steps
        for k, local in zip(part, states[-1]):
            merged[k] = local
    if all(s is TERMINATED for s in merged):
        return DeadlockFreeOracle(visited), visited, fired
    return DeadlockReachable(tuple(trace), tuple(merged)), visited, fired


def _projection(trace, nid):
    return [sym for sym in trace if nid in (sym.src, sym.dst)]


def _check_reference_run(prog, calls):
    """``explore`` on ``prog`` against the reference run: the same verdict,
    one ``_step`` call per node of each part run and one per node moved by
    each fired rendezvous, and the states the run visits exactly its bound.
    Returns the verdict and the states visited."""
    calls.clear()
    got = explore(prog)
    want, visited, fired = _reference_run(prog)
    assert got == want, prog
    assert Counter(calls) == fired, prog
    assert explore(prog, max_states=visited) == got, prog
    if visited > 1:
        assert explore(prog, max_states=visited - 1) == \
            Inconclusive(visited - 1), prog
    return got, visited


def _check_run(prog, ref, stored, calls):
    """``explore`` on ``prog`` against the reference run
    (``_check_reference_run``) and the exhaustive reference ``ref``, which
    stored ``stored`` states.  The verdict class and stuck state equal
    ``ref``'s; a deadlock's trace replays to that state and takes each node
    through the reference trace's events; the run visits at most
    ``stored`` states.  Against an inconclusive ``ref`` only the reference
    run is checked.  Returns the verdict and the states visited."""
    got, visited = _check_reference_run(prog, calls)
    if isinstance(ref, Inconclusive):
        return got, visited
    assert type(got) is type(ref), prog
    if isinstance(ref, DeadlockReachable):
        assert got.state == ref.state, prog
        assert replay(prog, got.trace) == got.state
        for nid, _ in prog.nodes:
            assert _projection(got.trace, nid) == \
                _projection(ref.trace, nid), (prog, nid)
    assert visited <= stored, prog
    return got, visited


def test_each_state_expanded_once_and_each_local_step_settled_once(
        advance_calls):
    # the run visits each state once, so it stops at its first repeat;
    # each node is settled once at the start, each fired rendezvous
    # settles its two nodes' steps once each, and a local transition the
    # run takes again is settled again
    g = Symbol("g", 1, 2)    # joins the two pairs into one part
    prog = make_program({0: [For(3, (A, B))], 1: [For(3, (A, B)), g],
                         2: [For(2, (C, D)), g], 3: [For(2, (C, D))]})
    assert oracle._parts(prog, set()) == [[0, 1, 2, 3]]
    # the pairs interleave freely (7 * 5 states), then g fires
    ref, seen = product_search(prog, 10**6)
    assert ref == DeadlockFreeOracle(7 * 5 + 1) and len(seen) == 36
    # the run: a, b three times, then c, d twice, then g
    assert _check_run(prog, ref, len(seen), advance_calls) == \
        (DeadlockFreeOracle(12), 12)
    advance_calls.clear()
    explore(prog)
    assert len(advance_calls) == len(set(advance_calls)) == \
        4 + 6 + 7 + 5 + 4
    # a small lasso: node 0 sends a, a, c per round, node 1 takes a three
    # at a time, so the run fires 9 rendezvous before the initial state
    # repeats, each node's local transitions taken 3, 2 and 3 times
    c = Symbol("c", 0, 2)
    prog = make_program({0: [For(INFINITE, (For(2, (A,)), c))],
                         1: [For(INFINITE, (For(3, (A,)),))],
                         2: [For(INFINITE, (c,))]})
    advance_calls.clear()
    assert explore(prog) == DeadlockFreeOracle(9)
    assert len(advance_calls) == 3 + 2 * 9
    assert len(set(advance_calls)) == 3 + 3 + 3 + 1


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


def _unions(n):
    rng = random.Random(3)
    return [_union([generate(rng) for _ in range(rng.randint(1, 3))], rng)
            for _ in range(n)]


def test_per_part_search_matches_product_search(advance_calls):
    decided = multi = 0
    for prog in _unions(500):
        ref, seen = product_search(prog, 10**5)
        # explore's count is summed over the parts, so it is held to the
        # parts' exhaustive counts, summed
        stored = sum(len(product_search(sub, 10**5)[1])
                     for _, sub in _part_programs(prog))
        got = _check_run(prog, ref, stored, advance_calls)[0]
        if isinstance(got, DeadlockReachable):
            state = replay(prog, got.trace)
            assert state == got.state
            assert enabled(prog, state) == set()
            assert any(s != TERMINATED for s in state)
        if isinstance(ref, Inconclusive):
            continue
        decided += 1
        multi += len(oracle._parts(prog, set())) > 1
    assert decided >= 450 and multi >= 200


def _peeled(prog):
    """``prog`` with one iteration of each top-level infinite loop peeled
    off before it, so the loop is not its node's first statement."""
    return make_program({n: [x for st in body for x in (
        (For(1, st.body), st) if isinstance(st, For) and st.count is INFINITE
        else (st,))] for n, body in prog.nodes})


def test_parts_equal_the_reference_partition():
    # the parts come from the program's symbol table and the looping nodes
    # from the top level alone; a full walk of every body gives the same,
    # on library-built programs (a walked table) and on parsed copies (the
    # parser's table), each also rebuilt with make_program
    progs = corpus(CORPUS_SEED, CORPUS_SIZE) + _unions(500) + \
        list(fuzz.programs(1, 3000))
    progs += [_peeled(prog) for prog in progs if partition(prog)[1]]
    multi = 0
    for prog in progs:
        parsed = parse(render(prog))
        assert "symbols" in parsed.__dict__, prog     # handed over
        for copy in (prog, parsed, make_program(dict(parsed.nodes))):
            looping = set()
            parts = oracle._parts(copy, looping)
            assert (parts, looping) == partition(copy), copy
        multi += len(parts) > 1
    assert multi >= 1000


def _holds_infinite_loop(body):
    return any(isinstance(st, For) and (
        st.count is INFINITE or _holds_infinite_loop(st.body)) for st in body)


def _wide_pairs(rng, pairs, looping=False, stuck=False):
    """One part of ``pairs`` pairs, each exchanging two messages 1-3 times
    in a loop and chained after their loops by a third, as in
    ``_pair_exchanges``, so up to ``pairs`` rendezvous are enabled at once.
    The message names, the node ids and the node order are shuffled, so
    the least enabled symbol hops from pair to pair and a pair's two
    positions lie apart.  With ``looping`` every node's body is wrapped in
    for inf; with ``stuck`` one pair crosses its exchange and deadlocks."""
    names = [f"m{j}" for j in range(3 * pairs)]
    ids = list(range(2 * pairs))
    rng.shuffle(names)
    rng.shuffle(ids)
    crossed = rng.randrange(pairs) if stuck else None
    bodies = {}
    for k in range(pairs):
        u, v = ids[2 * k], ids[2 * k + 1]
        a, b = Symbol(names[3 * k], u, v), Symbol(names[3 * k + 1], v, u)
        rounds = rng.randint(1, 3)
        bodies[u] = [For(rounds, (a, b))]
        bodies[v] = [For(rounds, (b, a) if k == crossed else (a, b))]
        if k:
            z = Symbol(names[3 * k - 1], ids[2 * k - 1], u)
            bodies[ids[2 * k - 1]].append(z)
            bodies[u].append(z)
    if looping:
        bodies = {n: [For(INFINITE, tuple(body))]
                  for n, body in bodies.items()}
    order = list(bodies)
    rng.shuffle(order)
    return make_program({n: bodies[n] for n in order})


def test_run_equals_reference_run_at_and_below_its_bound(advance_calls):
    # explore's one run on every part, with or without an infinite loop,
    # gives the reference run's verdict and steps, at the default bound
    # and at the bounds that just fit the run and just miss it.  The wide
    # parts hold many enabled rendezvous at once, the least in a
    # different pair from step to step
    rng = random.Random(29)
    wide = [_wide_pairs(rng, 32), _wide_pairs(rng, 64),
            _wide_pairs(rng, 128), _wide_pairs(rng, 64, looping=True),
            _wide_pairs(rng, 48, stuck=True)]
    progs = corpus(CORPUS_SEED, CORPUS_SIZE) + _unions(500) + [
        load(f) for f in sorted(os.listdir(PROGRAMS))
        if f.endswith(".mdl")] + wide
    acyclic = cyclic = 0
    for prog in progs:
        looping = set()
        parts = oracle._parts(prog, looping)
        assert (parts, looping) == partition(prog), prog
        cyclic += sum(bool(looping.intersection(part)) for part in parts)
        acyclic += sum(not looping.intersection(part) for part in parts)
        _check_reference_run(prog, advance_calls)
    assert acyclic >= 1800 and cyclic >= 400


def test_finite_exchange_runs_without_a_state_store():
    # 2 * 10^5 rounds of a and b: a stored state per step would take
    # hundreds of MB, the in-place run keeps little more than its trace
    loop = [For(200000, (A, B))]
    prog = make_program({0: loop, 1: loop})
    tracemalloc.start()
    try:
        verdict = explore(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == DeadlockFreeOracle(400001)
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _looping_pairs(pairs):
    """``_pair_exchanges`` with each pair's loop of 10^6 rounds under for
    inf, so the run never repeats a state, and the nodes in reverse
    order.  Pair 0's exchange is the least enabled rendezvous at every
    state, so it fires throughout, and its nodes come last: their counts
    take the highest place values of the part's state."""
    out = []
    for k in reversed(range(pairs)):
        u, v = f"P{2 * k}", f"P{2 * k + 1}"
        head = f"  recv z{k - 1} from P{2 * k - 1}\n" if k else ""
        tail = f"  send z{k} to P{2 * k + 2}\n" if k < pairs - 1 else ""
        out.append(f"node {v} {{\n  for inf {{ for 1000000 {{ recv a{k} "
                   f"from {u}, send b{k} to {u} }} }}\n{tail}}}\n")
        out.append(f"node {u} {{\n  for inf {{ for 1000000 {{ send a{k} "
                   f"to {v}, recv b{k} from {v} }} }}\n{head}}}\n")
    return "".join(out)


def test_looping_part_stores_a_state_in_a_few_bytes_per_node():
    # a stored state is the nodes' counts packed into one integer: on 64
    # nodes at a bound of 20,000 it takes about 3.2 bytes per node, the
    # integer and its set entry.  The bound of 6 is half of what a tuple
    # of per-node numbers per state takes, about 12
    prog = validate(parse(_looping_pairs(32)))
    assert len(oracle._parts(prog, set())) == 1
    bound = 20000
    tracemalloc.start()
    try:
        verdict = explore(prog, max_states=bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Inconclusive(bound)
    per = peak / bound / len(prog.nodes)
    assert per < 6, f"{per:.2f} bytes per stored state per node"


def test_enabled_rendezvous_are_node_disjoint_and_stay_enabled():
    # the premise of the one run: each node has one front event, so two
    # enabled rendezvous share no node, and firing one leaves the others
    # enabled.  A single enabled move is then a persistent set, and one
    # run reaches every stuck state the full search reaches
    states = concurrent = 0
    for prog in corpus(CORPUS_SEED, CORPUS_SIZE) + _unions(500):
        for state in product_search(prog, 10**5)[1]:
            moves = enabled(prog, state)
            ends = [n for sym in moves for n in (sym.src, sym.dst)]
            assert len(ends) == len(set(ends)), (prog, state)
            for sym in moves:
                assert moves - {sym} <= enabled(prog, step(prog, state, sym))
            states += 1
            concurrent += len(moves) > 1
    assert concurrent >= 10000 and states - concurrent >= 5000


def test_oracle_enabled_equals_reference_on_every_visited_state():
    # oracle.enabled has no caller in the search; this keeps it checked
    rng = random.Random(23)
    states = moving = 0
    for k in range(120):
        prog = (_concurrent_pairs(rng) if k % 3 == 0 else
                _union([generate(rng) for _ in range(rng.randint(1, 2))], rng))
        for state in product_search(prog, 10**4)[1]:
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


def test_numbered_search_equals_single_state_reference(advance_calls):
    rng = random.Random(19)
    kinds = {DeadlockFreeOracle: 0, DeadlockReachable: 0}
    global_states = local_states = run_states = 0
    for _ in range(80):
        prog = _concurrent_pairs(rng)
        assert oracle._parts(prog, set()) == [list(range(len(prog.nodes)))]
        ref, seen = product_search(prog, 10**6)
        kinds[type(ref)] += 1
        got, visited = _check_run(prog, ref, len(seen), advance_calls)
        global_states += len(seen)
        local_states += sum(len({s[k] for s in seen})
                            for k in range(len(prog.nodes)))
        run_states += visited
        if isinstance(got, DeadlockReachable):
            # stacks of (index, remaining) frames, not the run's counts
            assert all(s is TERMINATED or all(
                type(f) is tuple and len(f) == 2 for f in s)
                for s in got.state)
    assert kinds[DeadlockFreeOracle] >= 20 and kinds[DeadlockReachable] >= 20
    assert global_states >= 4 * local_states
    assert global_states >= 4 * run_states


def _pair_exchanges(pairs, rounds):
    """``pairs`` pairs P2k/P2k+1, each exchanging ak and bk ``rounds``
    times; after its loop P2k+1 sends zk to P2k+2, which takes it after its
    own loop."""
    out = []
    for k in range(pairs):
        u, v = f"P{2 * k}", f"P{2 * k + 1}"
        head = f"  recv z{k - 1} from P{2 * k - 1}\n" if k else ""
        tail = f"  send z{k} to P{2 * k + 2}\n" if k < pairs - 1 else ""
        out.append(f"node {u} {{\n  for {rounds} {{ send a{k} to {v}, "
                   f"recv b{k} from {v} }}\n{head}}}\n")
        out.append(f"node {v} {{\n  for {rounds} {{ recv a{k} from {u}, "
                   f"send b{k} to {u} }}\n{tail}}}\n")
    return "".join(out)


def test_concurrent_pair_exchanges_decide_in_one_run():
    # the pairs interleave in about 101^6 global states, far past the
    # default bound of an exhaustive search; the run fires 6 * 100
    # exchanges and the 5 chain messages
    prog = validate(parse(_pair_exchanges(6, 50)))
    assert len(oracle._parts(prog, set())) == 1
    assert explore(prog) == DeadlockFreeOracle(606)
    assert explore(prog, max_states=605) == Inconclusive(605)


def test_wide_part_pushes_and_pops_one_heap_entry_per_fired_rendezvous(
        monkeypatch, advance_calls):
    # 1,024 pairs in one part of 2,048 nodes, up to 1,024 rendezvous
    # enabled at once: each step pops the rendezvous it fires and pushes
    # only what its two moved nodes enable, whatever the part's width;
    # each node is settled once at the start and once per move
    prog = validate(parse(_pair_exchanges(1024, 3)))
    assert len(oracle._parts(prog, set())) == 1
    counts = Counter()

    def counting(name):
        original = getattr(oracle, name)

        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    for name in ("heappush", "heappop"):
        monkeypatch.setattr(oracle, name, counting(name))
    fired = 1024 * 2 * 3 + 1023
    assert explore(prog) == DeadlockFreeOracle(fired + 1)
    assert counts["heappop"] == fired
    assert counts["heappush"] <= counts["heappop"]
    assert len(advance_calls) == 2048 + 2 * fired


def test_parts_cost_their_sum_not_their_product():
    part = [For(3, (A, B))]          # 7 states alone
    prog = make_program({0: part, 1: part, 2: [For(3, (C, D))],
                         3: [For(3, (C, D))], 4: [For(3, (E, F))],
                         5: [For(3, (E, F))]})
    assert explore(make_program({0: part, 1: part})) == DeadlockFreeOracle(7)
    assert explore(prog, max_states=50) == DeadlockFreeOracle(21)
    assert isinstance(product_search(prog, 50)[0], Inconclusive)
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
    assert oracle._parts(prog, set()) == [[0, 1, 2]]
    assert explore(prog) == DeadlockFreeOracle(3)
    dangling = make_program({0: [Symbol("a", 0, 9)], 1: []})
    with pytest.raises(DanglingEndpoint):
        explore(dangling)


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
    parts = oracle._parts(prog, set())
    assert parts == [[0, 1], [2, 3], [4, 5]]
    verdict = oracle.explore(prog)
    assert len(explores) == 1
    # each part's states expanded once: the parts' reference counts, summed
    per_part = [product_search(make_program({k: bodies[k] for k in ks}),
                                10**6)[0].states for ks in parts]
    assert per_part == [7, 5, 2]
    assert verdict == DeadlockFreeOracle(sum(per_part))


LASSO = """node P0 {
  for inf {
    for %d { send a to P1 }
    send c to P2
  }
}
node P1 {
  for inf {
    for %d { recv a from P0 }
  }
}
node P2 {
  for inf { recv c from P0 }
}
"""


def test_long_lasso_takes_its_local_transitions_again(advance_calls):
    # P0's rounds of 104 events and P1's of 107 realign only after about a
    # hundred rounds, so the run takes each local transition about a
    # hundred times before the first repeated state, and settles it each
    # time, after settling each node once at the start
    prog = validate(parse(LASSO % (103, 107)))
    trace, states, live = greedy_run(prog)
    assert live and len(trace) == len(states) == 11128
    advance_calls.clear()
    assert explore(prog) == DeadlockFreeOracle(11128)
    assert len(advance_calls) == 3 + 2 * 11128
    assert len(set(advance_calls)) == 3 + 104 + 107 + 1


def test_lasso_longer_than_the_bound_is_inconclusive():
    # rounds of 1004 and 1033 events first repeat a state after about 10^6
    # steps; the bound stops the run first
    prog = validate(parse(LASSO % (1003, 1033)))
    assert explore(prog, max_states=10**5) == Inconclusive(10**5)


def _local_stacks(body, events):
    """The local states of a node with ``body`` stepped alone by the
    reference stepper, as far as its first ``events`` events go: entry k
    is the state after k events."""
    prog = Program(((0, body),))
    move = Symbol("x", 0, 1)    # names node 0; any event of it would do
    states = [initial_state(prog)]
    while len(states) <= events and states[-1][0] is not TERMINATED:
        states.append(step(prog, states[-1], move))
    return [s for (s,) in states]


def test_count_of_fired_events_names_each_local_state_once():
    # a looping part names a node's stack by its count of fired events,
    # which wraps from end back to start: the counts below end name
    # distinct stacks, a looping node's stack after end events is its
    # stack after start events, and a finite node's count ends at its
    # total, its terminated state, just below end
    bodies = {body for prog in corpus(CORPUS_SEED, CORPUS_SIZE) +
              fuzz.programs(1, 1000) +
              [parse(text) for text, _ in COUNTED.values()]
              for _, body in prog.nodes}
    # each looping body also behind a finite one and before another, which
    # it never reaches
    rng = random.Random(31)
    finite, cyclic = [], []
    for body in sorted(bodies, key=repr):
        (cyclic if _holds_infinite_loop(body) else finite).append(body)
    bodies |= {rng.choice(finite) + b + rng.choice(finite) for b in cyclic}
    looping = prefixed = 0
    for body in bodies:
        start, end = oracle._span(body, 10**5)
        if end == 10**5:
            continue
        stacks = _local_stacks(body, end)
        assert len(set(stacks[:end])) == end, body
        if _holds_infinite_loop(body):
            assert stacks[end] == stacks[start], body
            looping += 1
            prefixed += start > 0
        else:
            assert len(stacks) == end and stacks[-1] is TERMINATED, body
        # a capped count leaves every count within the cap as it was
        for cap in range(1, end + 2):
            assert oracle._span(body, cap) == (min(start, cap),
                                               min(end, cap)), (body, cap)
    assert looping >= 1000 and prefixed >= 500


# looping parts and their verdicts, each also held to the reference run
# and the exhaustive search
COUNTED = {
    # counts start after a prefix, which differs between the nodes, and
    # the nodes' iterations differ in length
    "prefix": ("""node P0 {
  send x to P1
  send y to P2
  for inf { send a to P1, send b to P1, send c to P2 }
}
node P1 {
  recv x from P0
  for inf { recv a from P0, recv b from P0, recv a from P0, recv b from P0 }
}
node P2 {
  recv y from P0
  for inf { recv c from P0 }
}
""", DeadlockFreeOracle(8)),
    # statements after the infinite loop are never reached
    "after": ("""node P0 {
  send x to P1
  for inf { send a to P1, send a to P1 }
  send z to P1
  for 3 { send a to P1 }
}
node P1 {
  recv x from P0
  for inf { for 3 { recv a from P0 } }
  recv z from P0
}
""", DeadlockFreeOracle(7)),
    # nested finite loops inside the infinite one
    "nested": ("""node P0 {
  for inf {
    for 2 {
      send a to P1
      for 3 { send b to P1 }
    }
    send c to P2
  }
}
node P1 {
  for inf { recv a from P0, for 3 { recv b from P0 } }
}
node P2 {
  recv c from P0
  for inf { for 2 { recv c from P0 } }
}
""", DeadlockFreeOracle(27)),
    # a finite node and an empty one in a looping part: P3 terminates
    "finite": ("""node P0 {
  send x to P3
  for 2 { send x to P3 }
  for inf { send a to P1 }
}
node P1 {
  for inf { recv a from P0 }
}
node P2 {
}
node P3 {
  for 3 { recv x from P0 }
}
""", DeadlockFreeOracle(4)),
    # the same with P3 blocked forever beside a live pair: free
    "blocked": ("""node P0 {
  send x to P3
  for inf { send a to P1 }
}
node P1 {
  for inf { recv a from P0 }
}
node P2 {
}
node P3 {
  for 2 { recv x from P0 }
}
""", DeadlockFreeOracle(2)),
    # loop counts far above the bound: P0 deadlocks after three events of
    # its first iteration, P2 never moves
    "above-bound": ("""node P0 {
  for inf { for 1000000000 { for 3000000 { send a to P1 } } }
}
node P1 {
  for 3 { recv a from P0 }
}
node P2 {
  for inf { for 1000000000 { recv c from P1 } }
}
""", DeadlockReachable(
        (Symbol("a", 0, 1),) * 3,
        (((0, 1), (0, None), (0, 1000000000), (0, 2999997)), TERMINATED,
         ((0, 1), (0, None), (0, 1000000000))))),
    # a live pair beside a node whose iteration is longer than the bound
    "above-bound-live": ("""node P0 {
  for inf { send a to P1, send b to P1 }
}
node P1 {
  for inf { recv a from P0, recv b from P0 }
}
node P2 {
  for inf { for 1000000000 { for 1000000000 { send c to P1 } } }
}
""", DeadlockFreeOracle(2)),
}


@pytest.mark.parametrize("name", COUNTED)
def test_count_named_states_match_reference_runs(name, advance_calls):
    text, want = COUNTED[name]
    prog = validate(parse(text))
    looping = set()
    parts = oracle._parts(prog, looping)
    assert len(parts) == 1 and looping
    ref, seen = product_search(prog, 10**6)
    got, visited = _check_run(prog, ref, len(seen), advance_calls)
    assert got == want
    # every bound from 0 to just past the run's length gives the reference
    # run's verdict at that bound, each capping the counts differently
    for bound in range(1, visited + 2):
        at = got if bound >= visited else Inconclusive(bound)
        assert explore(prog, max_states=bound) == at, (name, bound)
    assert explore(prog, max_states=0) == (
        got if visited == 1 else Inconclusive(1))
