"""Random program generation shared by the agreement and property tests.

Programs stay small (at most 4 nodes, 12 events per node, loop counts up to
4, nesting depth up to 2) so the exhaustive reference search is cheap.
Several styles are mixed so both verdicts occur and every engine path gets
exercised:

* loop-free programs, both arbitrary and built along a global rendezvous
  schedule (the latter are balanced and usually deadlock-free)
* single-loop programs with per-node counts chosen so the loop totals agree
* nested-loop programs: factored repeat counts, and prefix-compressed bodies
  where part of the repetition is unrolled in front of the loop
* infinite-loop variants of the balanced shapes
* mutants of balanced programs with one event dropped or duplicated
"""
from __future__ import annotations

import random

from mpicheck.model import (INFINITE, For, Program, Symbol,
                            make_program, validate, weighted_size)

MSG_NAMES = "abcdefgh"
MAX_NODES = 4
MAX_EVENTS_PER_NODE = 12
MAX_COUNT = 4


def _schedule(rng: random.Random, n_nodes: int, length: int):
    """A global sequence of rendezvous (symbol per step)."""
    out = []
    for _ in range(length):
        src, dst = rng.sample(range(n_nodes), 2)
        out.append(Symbol(rng.choice(MSG_NAMES), src, dst))
    return out


def _bodies_from_schedule(schedule, n_nodes):
    bodies = {n: [] for n in range(n_nodes)}
    for sym in schedule:
        bodies[sym.src].append(sym)
        bodies[sym.dst].append(sym)
    return bodies


def _fits(bodies) -> bool:
    return all(len(b) <= MAX_EVENTS_PER_NODE for b in bodies.values())


def gen_smodel_random(rng: random.Random) -> Program:
    n_nodes = rng.randint(2, MAX_NODES)
    bodies = {}
    for n in range(n_nodes):
        body = []
        for _ in range(rng.randint(0, 6)):
            peer = rng.choice([p for p in range(n_nodes) if p != n])
            name = rng.choice(MSG_NAMES[:3])
            if rng.random() < 0.5:
                body.append(Symbol(name, n, peer))
            else:
                body.append(Symbol(name, peer, n))
        bodies[n] = body
    return make_program(bodies)


def gen_smodel_balanced(rng: random.Random) -> Program:
    n_nodes = rng.randint(2, MAX_NODES)
    sched = _schedule(rng, n_nodes, rng.randint(1, 8))
    bodies = _bodies_from_schedule(sched, n_nodes)
    if not _fits(bodies):
        return gen_smodel_balanced(rng)
    return make_program(bodies)


def gen_l0(rng: random.Random, infinite=False) -> Program:
    """Every node is one loop; counts follow a common total so the ratio
    system has the all-ones solution scaled per node."""
    n_nodes = rng.randint(2, MAX_NODES)
    sched = _schedule(rng, n_nodes, rng.randint(1, 3))
    base = _bodies_from_schedule(sched, n_nodes)
    total = rng.choice([2, 3, 4])
    bodies = {}
    for n in range(n_nodes):
        if not base[n]:
            bodies[n] = []
            continue
        reps = rng.choice([d for d in (1, 2, total) if total % d == 0])
        unit = base[n] * reps
        count = INFINITE if infinite else total // reps
        if len(unit) * (1 if infinite else total // reps) > MAX_EVENTS_PER_NODE:
            return gen_l0(rng, infinite)
        if infinite and reps > 1:
            bodies[n] = [For(INFINITE, (For(reps, tuple(base[n])),))]
        elif count == 1:
            bodies[n] = unit
        else:
            bodies[n] = [For(count, tuple(unit))]
    return make_program(bodies)


def gen_l0_random(rng: random.Random) -> Program:
    n_nodes = rng.randint(2, 3)
    bodies = {}
    for n in range(n_nodes):
        body = []
        for _ in range(rng.randint(1, 3)):
            peer = rng.choice([p for p in range(n_nodes) if p != n])
            name = rng.choice(MSG_NAMES[:2])
            if rng.random() < 0.5:
                body.append(Symbol(name, n, peer))
            else:
                body.append(Symbol(name, peer, n))
        bodies[n] = [For(rng.randint(1, MAX_COUNT), tuple(body))]
    return make_program(bodies)


def _factor_pairs(k):
    return [(a, k // a) for a in range(1, k + 1) if k % a == 0]


def gen_l2_factored(rng: random.Random) -> Program:
    """Balanced base bodies repeated k times, with k split into nested loop
    counts differently per node."""
    n_nodes = rng.randint(2, MAX_NODES)
    sched = _schedule(rng, n_nodes, rng.randint(1, 3))
    base = _bodies_from_schedule(sched, n_nodes)
    k = rng.choice([2, 3, 4])
    bodies = {}
    for n in range(n_nodes):
        if not base[n]:
            bodies[n] = []
            continue
        if len(base[n]) * k > MAX_EVENTS_PER_NODE:
            return gen_l2_factored(rng)
        outer, inner = rng.choice(_factor_pairs(k))
        stmts = base[n] if inner == 1 else [For(inner, tuple(base[n]))]
        bodies[n] = stmts if outer == 1 else [For(outer, tuple(stmts))]
    return make_program(bodies)


def gen_l2_prefix(rng: random.Random, infinite=False) -> Program:
    """Repetitions partially unrolled in front of a loop, so the leading
    powers of different nodes are misaligned."""
    n_nodes = rng.randint(2, 3)
    sched = _schedule(rng, n_nodes, rng.randint(1, 2))
    base = _bodies_from_schedule(sched, n_nodes)
    m = rng.choice([3, 4])
    bodies = {}
    for n in range(n_nodes):
        if not base[n]:
            bodies[n] = []
            continue
        if len(base[n]) * m > MAX_EVENTS_PER_NODE:
            return gen_l2_prefix(rng, infinite)
        split = rng.randint(0, m - 2)
        stmts = base[n] * split
        rest = m - split
        if rest == 1:
            stmts = stmts + base[n]
        else:
            stmts = stmts + [For(rest, tuple(base[n]))]
        bodies[n] = [For(INFINITE, tuple(stmts))] if infinite else stmts
    return make_program(bodies)


def gen_mutant(rng: random.Random) -> Program:
    """A balanced program with one event dropped or duplicated; usually a
    deadlock, occasionally still free."""
    prog = gen_smodel_balanced(rng)
    bodies = {n: list(b) for n, b in prog.nodes}
    victims = [n for n, b in bodies.items() if b]
    if not victims:
        return gen_mutant(rng)
    n = rng.choice(victims)
    i = rng.randrange(len(bodies[n]))
    if rng.random() < 0.5:
        del bodies[n][i]
    else:
        bodies[n].insert(i, bodies[n][i])
    if not _fits(bodies):
        return gen_mutant(rng)
    return make_program(bodies)


_STYLES = (
    (gen_smodel_random, 3),
    (gen_smodel_balanced, 3),
    (lambda r: gen_l0(r, infinite=False), 3),
    (lambda r: gen_l0(r, infinite=True), 2),
    (gen_l0_random, 2),
    (gen_l2_factored, 3),
    (lambda r: gen_l2_prefix(r, infinite=False), 2),
    (lambda r: gen_l2_prefix(r, infinite=True), 2),
    (gen_mutant, 2),
)


def generate(rng: random.Random) -> Program:
    styles = [g for g, w in _STYLES for _ in range(w)]
    while True:
        prog = rng.choice(styles)(rng)
        try:
            validate(prog)
        except Exception:
            continue
        ok = True
        for _, body in prog.nodes:
            try:
                if weighted_size(body) > MAX_EVENTS_PER_NODE:
                    ok = False
            except Exception:
                inner = body[0].body
                if weighted_size(inner) > MAX_EVENTS_PER_NODE:
                    ok = False
        if ok:
            return prog


def corpus(seed: int, size: int):
    rng = random.Random(seed)
    return [generate(rng) for _ in range(size)]
