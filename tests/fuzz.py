"""Random programs of repeated rendezvous patterns, and criterion 9's gate:
every program the static check calls free, and the oracle decides, is free
in the oracle.

A program draws one global pattern of 1-3 rendezvous over 2-5 nodes,
repeated 2-5 times.  Each node's share of it (its events of the pattern,
``k`` times over) is reshaped: shifted (``u (vu)^(k-1) v``), partly
unrolled, or factored into two nested loops, and in some nodes wrapped in a
count-1 loop; or every node's share goes under ``for inf``.  One event is
dropped in 30% of the programs, and a quarter of them are the disjoint
union of two such programs, the second's nodes and messages renamed.

The gate is one direction of the paper's claim that the static method
finds every deadlock.  The other direction, a static deadlock on a program
the oracle calls free, is counted by witness kind and not gated.  Every
model the checks hand ``check_smodel`` is also decided by the MDG, and a
disagreement with the queues fails the run.

Run as ``PYTHONPATH=src python tests/fuzz.py --seed 1 --count 3000``; the
exit code is 1 when the gate fails, and each failing program is printed.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from contextlib import contextmanager

from reference import mdg_stuck
from mpicheck import l0, l2, smodel
from mpicheck.analyze import analyze
from mpicheck.model import INFINITE, For, Symbol, make_program
from mpicheck.oracle import DeadlockFreeOracle, Inconclusive, explore
from mpicheck.parser import render
from mpicheck.smodel import check_by_queues
from mpicheck.verdicts import Deadlock

MAX_STATES = 10**5


def _share(rng, unit, k):
    """``unit`` repeated ``k`` times (k >= 2), reshaped."""
    shape = rng.choice(("shifted", "unrolled", "factored"))
    if shape == "shifted" and len(unit) > 1:
        cut = rng.randint(1, len(unit) - 1)
        u, v = unit[:cut], unit[cut:]
        body = u + [For(k - 1, tuple(v + u))] + v
    elif shape == "unrolled":
        j = rng.randint(1, k - 1)
        body = unit * j + [For(k - j, tuple(unit))]
    else:
        outer = rng.choice([a for a in range(1, k + 1) if k % a == 0])
        body = [For(outer, (For(k // outer, tuple(unit)),))]
    return [For(1, tuple(body))] if rng.random() < 0.2 else body


def _drop_one(body, index):
    """``body`` without its ``index``-th event in program order (counted
    from 0), and without the loops that leaves empty; returns the new body
    and what is left of ``index``, negative once the event is dropped."""
    out = []
    for st in body:
        if isinstance(st, For):
            inner, index = _drop_one(st.body, index)
            if inner:
                out.append(For(st.count, tuple(inner)))
        elif index:
            out.append(st)
            index -= 1
        else:
            index = -1           # dropped; no later event matches
    return out, index


def _events(body):
    return sum(_events(st.body) if isinstance(st, For) else 1 for st in body)


def single(rng):
    """{node: statements} of one pattern program."""
    n = rng.randint(2, 5)
    pattern = [Symbol(name, *rng.sample(range(n), 2))
               for name in "abc"[:rng.randint(1, 3)]]
    k = rng.randint(2, 5)
    infinite = rng.random() < 0.3
    bodies = {}
    for node in range(n):
        unit = [s for s in pattern if node in (s.src, s.dst)]
        body = _share(rng, unit, k) if unit else []
        bodies[node] = [For(INFINITE, tuple(body))] if infinite and body \
            else body
    if rng.random() < 0.3:
        node = rng.choice([m for m, b in bodies.items() if b])
        bodies[node] = _drop_one(bodies[node],
                                 rng.randrange(_events(bodies[node])))[0]
    return bodies


def _renamed(body, shift):
    return tuple(For(st.count, _renamed(st.body, shift))
                 if isinstance(st, For) else
                 Symbol(st.name + "2", st.src + shift, st.dst + shift)
                 for st in body)


def program(rng):
    bodies = single(rng)
    if rng.random() < 0.25:
        shift = len(bodies)
        bodies.update((node + shift, list(_renamed(body, shift)))
                      for node, body in single(rng).items())
    return make_program(bodies)


def programs(seed: int, count: int):
    """The first ``count`` programs of ``seed``."""
    rng = random.Random(seed)
    return [program(rng) for _ in range(count)]


@contextmanager
def mdg_cross_checked(seen: Counter, wrap=lambda check: check):
    """Within the block, each model a check hands ``check_smodel``, on its
    ``smodel``, ``l0`` or ``l2`` route, is also decided by the MDG, and an
    AssertionError is raised when the MDG and the queues disagree.  The
    verdict comes from ``wrap(check_smodel)``.  ``seen`` counts the models
    by route, and the deadlocks under "<route> deadlocks"."""
    routes = {"smodel": smodel, "l0": l0, "l2": l2}
    saved = {route: m.check_smodel for route, m in routes.items()}

    def checked(route, check):
        def check_both(queues):
            assert (check_by_queues(queues) is not None) == \
                mdg_stuck(queues), f"queues and MDG disagree on {queues}"
            verdict = check(queues)
            seen[route] += 1
            if isinstance(verdict, Deadlock):
                seen[f"{route} deadlocks"] += 1
            return verdict
        return check_both

    try:
        for route, m in routes.items():
            m.check_smodel = checked(route, wrap(saved[route]))
        yield seen
    finally:
        for route, m in routes.items():
            m.check_smodel = saved[route]


def gate(seed: int, count: int):
    """Checks and explores ``count`` programs of ``seed``.  Returns the
    programs the check calls free and the oracle deadlocked, and a Counter
    of outcomes: "decided", "inconclusive", and the witness kind of each
    static deadlock the oracle calls free."""
    wrong, tally = [], Counter()
    for prog in programs(seed, count):
        verdict = analyze(prog).verdict
        truth = explore(prog, max_states=MAX_STATES)
        if isinstance(truth, Inconclusive):
            tally["inconclusive"] += 1
            continue
        tally["decided"] += 1
        oracle_free = isinstance(truth, DeadlockFreeOracle)
        if not isinstance(verdict, Deadlock):
            if not oracle_free:
                wrong.append(prog)
        elif oracle_free:
            tally[type(verdict.witness).__name__] += 1
    return wrong, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=3000)
    args = ap.parse_args(argv)
    with mdg_cross_checked(Counter()) as seen:
        wrong, tally = gate(args.seed, args.count)
    for prog in wrong:
        print(f"static free, oracle deadlocked:\n{render(prog)}")
    kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(tally.items())
                      if kind not in ("decided", "inconclusive")) or "none"
    models = sum(seen[route] for route in ("smodel", "l0", "l2"))
    print(f"seed {args.seed}: {args.count} programs, {tally['decided']} "
          f"decided, {tally['inconclusive']} inconclusive; "
          f"{len(wrong)} static free but oracle deadlocked; "
          f"static deadlock but oracle free: {kinds}; "
          f"{models} checked models agree with the MDG")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
