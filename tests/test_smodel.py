"""Loop-free checking: queue matching, MDG construction, cross-checks."""
import os
import random
import subprocess
import sys

import pytest

import mpicheck
from corpus import corpus, gen_smodel_balanced, gen_smodel_random
from reference import mdg_stuck
from mpicheck import smodel
from mpicheck.model import InfiniteLoop, Symbol, unroll
from mpicheck.oracle import DeadlockFreeOracle, explore
from mpicheck.smodel import (Mdg, build_mdg, check_by_queues, check_smodel,
                             find_deadlock_cycle, mdg_to_dot)
from mpicheck.verdicts import Deadlock, UnmatchedTotals, WaitCycle

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
C = Symbol("c", 0, 1)


def match_in_random_order(queues, rng):
    """Reference matcher: remove a pair of matching fronts drawn at random
    from all such pairs until none is left.  A front pairs with the front
    of the symbol's other endpoint, as in ``check_by_queues``.  Returns the
    stuck queues, ((node, (symbol, ...)), ...) in queue order, or () when
    every queue drains."""
    qs = {n: list(q) for n, q in queues.items()}
    while True:
        moves = []
        for n, q in qs.items():
            if q:
                s = q[0]
                p = s.dst if n == s.src else s.src
                if p != n and qs.get(p, [None])[0:1] == [s]:
                    moves.append((n, p))
        if not moves:
            return tuple((n, tuple(q)) for n, q in qs.items() if q)
        n, p = rng.choice(moves)
        del qs[n][0], qs[p][0]


def test_empty_is_free():
    assert check_by_queues({0: (), 1: ()}) is None


def test_simple_exchange_is_free():
    queues = {0: (A, B), 1: (A, B)}
    assert check_by_queues(queues) is None
    assert bool(check_smodel(queues))


def test_crossed_sends_deadlock():
    # both nodes lead with their own send; neither front matches
    queues = {0: (A, B), 1: (B, A)}
    assert check_by_queues(queues) == {0: 0, 1: 0}
    assert match_in_random_order(queues, random.Random(0)) == (
        (0, (A, B)), (1, (B, A)))


def test_stuck_queues_witness_keeps_queue_order():
    x = Symbol("x", 2, 0)
    queues = {1: (B, A), 0: (x, A, B), 2: (x,)}
    want = ((1, (B, A)), (0, (A, B)))
    assert list(check_by_queues(queues).items()) == [(1, 0), (0, 1), (2, 1)]
    for k in range(5):
        assert match_in_random_order(queues, random.Random(k)) == want


def test_unmatched_send_deadlocks_with_totals_witness():
    queues = {0: (A, A), 1: (A,)}
    verdict = check_smodel(queues)
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, UnmatchedTotals)
    assert (verdict.witness.sends, verdict.witness.recvs) == (2, 1)


def test_cycle_witness_preferred():
    # a-then-c in node 0, c-then-a in node 1: each front waits for the other
    queues = {0: (A, C), 1: (C, A)}
    verdict = check_smodel(queues)
    assert verdict.witness == WaitCycle(((0, A, 0), (1, C, 0)))


def test_mdg_fifo_pairing():
    queues = {0: (A, A), 1: (A, A)}
    mdg = build_mdg(queues)
    assert set(mdg.pairs) == {(A, 0), (A, 1)}
    assert ((A, 0), (A, 1)) in mdg.edges
    assert find_deadlock_cycle(mdg) is None
    assert not mdg_stuck(queues)


def test_mdg_unpaired_event_gets_no_pair():
    # node 0's second send of a has no receive; its pairs still chain
    queues = {0: (A, A, B), 1: (A, B)}
    mdg = build_mdg(queues)
    assert mdg.pairs == ((A, 0), (B, 0)) and mdg.succ == ((1,), ())
    assert find_deadlock_cycle(mdg) is None
    assert mdg_stuck(queues)


def test_successors_follow_symbol_names_not_tuples():
    # str order and tuple order disagree: "a1:..." < "a:..." by name, and
    # "a:10->..." < "a:2->..." by node id; a pair's successors, the derived
    # edges and so the cycle the search enters follow str order
    r, a, a1 = Symbol("r", 0, 1), Symbol("a", 0, 1), Symbol("a1", 0, 1)
    mdg = build_mdg({0: (r, a, a1), 1: (r, a1, a)})
    assert mdg.pairs == ((r, 0), (a, 0), (a1, 0))
    assert mdg.succ == ((2, 1), (2,), (1,))
    assert mdg.edges == (((a1, 0), (a, 0)), ((a, 0), (a1, 0)),
                         ((r, 0), (a1, 0)), ((r, 0), (a, 0)))
    assert find_deadlock_cycle(mdg) == ((a1, 0), (a, 0))

    r, a2, a10 = Symbol("r", 2, 10), Symbol("a", 2, 10), Symbol("a", 10, 2)
    mdg = build_mdg({2: (r, a2, a10), 10: (r, a10, a2)})
    assert mdg.pairs == ((r, 0), (a2, 0), (a10, 0))
    assert mdg.edges == (((a10, 0), (a2, 0)), ((a2, 0), (a10, 0)),
                         ((r, 0), (a10, 0)), ((r, 0), (a2, 0)))
    assert find_deadlock_cycle(mdg) == ((a10, 0), (a2, 0))


def test_mdg_dot_output():
    queues = {0: (A, C), 1: (C, A)}
    dot = mdg_to_dot(build_mdg(queues))
    assert dot.startswith("digraph")
    assert "color=red" in dot  # the cycle is highlighted


def test_queue_verdict_independent_of_order():
    rng = random.Random(7)
    for _ in range(50):
        prog = (gen_smodel_random if rng.random() < 0.5
                else gen_smodel_balanced)(rng)
        queues = unroll(prog)
        stuck = match_in_random_order(queues, random.Random(0))
        assert (check_by_queues(queues) is None) == (stuck == ())
        for k in range(1, 10):
            assert match_in_random_order(queues, random.Random(k)) == stuck


@pytest.mark.parametrize("balanced", [False, True])
@pytest.mark.parametrize("seed", range(100))
def test_queue_and_mdg_match_oracle(seed, balanced):
    rng = random.Random(seed)
    prog = gen_smodel_balanced(rng) if balanced else gen_smodel_random(rng)
    queues = unroll(prog)
    queue_dead = check_by_queues(queues) is not None
    assert mdg_stuck(queues) == queue_dead
    assert isinstance(explore(prog), DeadlockFreeOracle) != queue_dead


def schedule_queues(rng, n_nodes, n_events, names="abcd"):
    """Per-node projections of a random global rendezvous sequence: a
    deadlock-free loop-free model of about `n_events` queue entries."""
    queues = {n: [] for n in range(n_nodes)}
    for _ in range(n_events // 2):
        src, dst = rng.sample(range(n_nodes), 2)
        s = Symbol(rng.choice(names), src, dst)
        queues[src].append(s)
        queues[dst].append(s)
    return {n: tuple(q) for n, q in queues.items()}


def _mutated(rng, queues):
    """The model with one random edit: crossed receives between two nodes
    (a pair cycle), a dropped event, or two neighbouring events swapped."""
    qs = {n: list(q) for n, q in queues.items()}
    kind = rng.randrange(3)
    if kind == 0 or all(len(q) < 2 for q in qs.values()):
        a, b = rng.sample(sorted(qs), 2)
        xp, xq = Symbol("xp", a, b), Symbol("xq", b, a)
        pa, pb = rng.randint(0, len(qs[a])), rng.randint(0, len(qs[b]))
        qs[a][pa:pa] = [xq, xp]
        qs[b][pb:pb] = [xp, xq]
    else:
        n = rng.choice([n for n, q in qs.items() if len(q) >= 2])
        i = rng.randrange(len(qs[n]) - 1)
        if kind == 1:
            del qs[n][i]
        else:
            qs[n][i], qs[n][i + 1] = qs[n][i + 1], qs[n][i]
    return {n: tuple(q) for n, q in qs.items()}


def _random_graph(rng):
    """An arbitrary digraph over pairs, successors in random order."""
    pairs = tuple((Symbol("a", 0, 1), k) for k in range(rng.randint(1, 24)))
    density = rng.choice((0.03, 0.08, 0.2))
    edges = [(u, v) for u in range(len(pairs)) for v in range(len(pairs))
             if u != v and rng.random() < density]
    rng.shuffle(edges)
    succ = [[] for _ in pairs]
    for u, v in edges:
        succ[u].append(v)
    return Mdg(pairs, tuple(map(tuple, succ)))


@pytest.fixture(scope="module")
def equivalence_models():
    """(queue models, digraphs): the models of the loop-free and
    finite-loop corpus programs and of random 64-node schedules (three in
    four mutated), over 2,000 together, then arbitrary digraphs drawn from
    the same generator."""
    rng = random.Random(20261018)
    models = []
    for prog in corpus(4242, 1200):
        try:
            models.append(unroll(prog))
        except InfiniteLoop:
            continue
    for _ in range(1100):
        queues = schedule_queues(rng, 64, rng.randint(32, 160))
        if rng.random() < 0.75:
            queues = _mutated(rng, queues)
        models.append(queues)
    return models, [_random_graph(rng) for _ in range(600)]


@pytest.fixture(scope="module")
def equivalence_graphs(equivalence_models):
    """MDGs of the queue models, plus the arbitrary digraphs."""
    models, digraphs = equivalence_models
    return [build_mdg(queues) for queues in models] + digraphs


def test_cycle_search_matches_networkx(equivalence_graphs):
    nx = pytest.importorskip("networkx")
    cyclic = 0
    for mdg in equivalence_graphs:
        g = nx.DiGraph()
        g.add_nodes_from(mdg.pairs)
        g.add_edges_from(mdg.edges)
        try:
            expected = tuple(u for u, _ in nx.find_cycle(g))
        except nx.NetworkXNoCycle:
            expected = None
        assert find_deadlock_cycle(mdg) == expected
        cyclic += expected is not None
    assert len(equivalence_graphs) >= 2600
    assert 400 <= cyclic <= len(equivalence_graphs) - 400


def test_cycle_is_closed_walk_over_mdg_edges(equivalence_graphs):
    found = 0
    for mdg in equivalence_graphs:
        cyc = find_deadlock_cycle(mdg)
        if cyc is None:
            continue
        found += 1
        edges = set(mdg.edges)
        assert len(cyc) >= 2 and len(set(cyc)) == len(cyc)
        ring = cyc + cyc[:1]
        assert all((ring[i], ring[i + 1]) in edges for i in range(len(cyc)))
    assert found >= 400


def test_deep_chain_needs_no_recursion():
    # the MDG of a ping-pong of 10^5 pairs is one chain; a recursive search
    # would overflow the interpreter stack
    half = 10**5 // 2
    chain = tuple((s, k) for k in range(half) for s in (A, B))
    succ = tuple((u + 1,) for u in range(len(chain) - 1))
    assert find_deadlock_cycle(Mdg(chain, succ + ((),))) is None
    # a back edge at the far end of the chain closes the only cycle
    back = (len(chain) - 2,)
    assert find_deadlock_cycle(Mdg(chain, succ + (back,))) == (
        (A, half - 1), (B, half - 1))


def test_check_smodel_never_derives_edges(monkeypatch):
    # matching decides and its stuck fronts name the witness: no model,
    # free or deadlocked, builds a graph inside the check
    built = []

    def spy(queues):
        built.append(build_mdg(queues))
        return built[-1]

    monkeypatch.setattr(smodel, "build_mdg", spy)
    verdicts = [check_smodel(queues)
                for queues in ({0: (A, B), 1: (A, B)}, {0: (A, C), 1: (C, A)},
                               {0: (A, A), 1: (A,)})]
    assert built == []
    assert verdicts[0] and not isinstance(verdicts[0], Deadlock)
    assert verdicts[1] == Deadlock(WaitCycle(((0, A, 0), (1, C, 0))))
    assert verdicts[2] == Deadlock(UnmatchedTotals(A, 2, 1))


def test_one_cycle_search_per_check(monkeypatch):
    # the matcher is the check's one search; the MDG and its cycle test are
    # left to `mpicheck mdg` and the tests
    def refuse(*args):
        raise AssertionError("check_smodel used the MDG")

    calls = []

    def counted(queues):
        calls.append(queues)
        return check_by_queues(queues)

    monkeypatch.setattr(smodel, "build_mdg", refuse)
    monkeypatch.setattr(smodel, "find_deadlock_cycle", refuse)
    monkeypatch.setattr(smodel, "check_by_queues", counted)
    rng = random.Random(5)
    deadlocks = 0
    for _ in range(300):
        queues = schedule_queues(rng, 6, rng.randint(4, 40))
        if rng.random() < 0.7:
            queues = _mutated(rng, queues)
        del calls[:]
        verdict = check_smodel(queues)
        assert len(calls) == 1
        assert bool(verdict) == (check_by_queues(queues) is None)
        if isinstance(verdict, Deadlock):
            deadlocks += 1
            assert isinstance(verdict.witness, (WaitCycle, UnmatchedTotals))
    assert 100 <= deadlocks <= 200     # 156 deadlocked, 144 free


def test_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpicheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, mpicheck, mpicheck.cli; "
            "sys.exit('networkx' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0
