"""Seeded generators for the benchmark's known-answer workloads.

Every generator takes a ``random.Random`` and a cell (the size class and
kind of program to draw) and returns a ``Case``: the program as
``.mdl`` source text plus the verdict it must get.  ``case()`` derives both
from the workload, the seed and the case index, so any single case can be
regenerated from those three.

Why the answers are known
-------------------------
*Schedule construction (deadlock-free).*  Each node's body is its
projection of one global sequence of rendezvous.  Every node is
deterministic and takes part in at most one enabled rendezvous (its front
statement), so enabled rendezvous are pairwise disjoint and one firing
never disables another.  The system is therefore confluent: every
interleaving can be extended along the schedule, so no reachable state is
stuck.  This covers finite schedules and ``for inf`` repetitions of one.
Loops change only how the projection is written, not the sequence it
unrolls to (``for c { x }`` with ``r`` copies of ``x`` per iteration is the
same as ``r * c`` copies when ``r * c`` matches the partner's total).

*Mutations (certain deadlock).*
- dropped event: the totals of one message are unbalanced, so some
  statement can never complete, and a finite program must stop short;
- crossed receives: two nodes each receive from the other before sending
  the message the other waits for, so neither passes that point;
- flipped pair / receive-first ring: every node of a cycle receives first;
- count mismatch: one finite loop repeats its body a different number of
  times, which unbalances that node's messages.
In infinite programs a node stuck forever eventually blocks every partner
that needs it; the generators keep each component connected, so the whole
component reaches a state with nothing enabled.

*Independent sub-systems.*  A program of several components is free when
no component deadlocks, and deadlocks when one does and no free component
runs forever.  A program with both a deadlocked component and a free
infinite one has no constructed answer: "deadlock" is not yet pinned down
for it, so the oracle decides.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEADLOCK = "deadlock"
FREE = "deadlock-free"


@dataclass(frozen=True)
class Case:
    text: str            # .mdl source
    expected: str | None  # DEADLOCK, FREE, or None when only the oracle knows
    stmts: int           # send/recv statements in the source text
    label: str           # shape and mutation, for failure reports


# A node body is a list of items: ("send", msg, peer), ("recv", msg, peer)
# or ("for", count, items) with count a positive int or "inf".

def render(bodies: list) -> str:
    lines = []

    def emit(items, depth):
        pad = "  " * depth
        for it in items:
            if it[0] == "for":
                lines.append(f"{pad}for {it[1]} {{")
                emit(it[2], depth + 1)
                lines.append(f"{pad}}}")
            elif it[0] == "send":
                lines.append(f"{pad}send {it[1]} to P{it[2]}")
            else:
                lines.append(f"{pad}recv {it[1]} from P{it[2]}")

    for n, body in enumerate(bodies):
        lines.append(f"node P{n} {{")
        emit(body, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"


def count_stmts(items) -> int:
    return sum(count_stmts(it[2]) if it[0] == "for" else 1 for it in items)


def _case(bodies, expected, label) -> Case:
    return Case(render(bodies), expected,
                sum(count_stmts(b) for b in bodies), label)


def _project(schedule, n_nodes) -> list:
    """Per-node statement lists of a global rendezvous sequence."""
    bodies = [[] for _ in range(n_nodes)]
    for msg, src, dst in schedule:
        bodies[src].append(("send", msg, dst))
        bodies[dst].append(("recv", msg, src))
    return bodies


def _cross(bodies, rng, a, b, pos_a=None, pos_b=None):
    """Insert crossed receives between nodes a and b (a cyclic wait)."""
    pa = rng.randint(0, len(bodies[a])) if pos_a is None else pos_a
    pb = rng.randint(0, len(bodies[b])) if pos_b is None else pos_b
    bodies[a][pa:pa] = [("recv", "xq", b), ("send", "xp", b)]
    bodies[b][pb:pb] = [("recv", "xp", a), ("send", "xq", a)]


def _drop(bodies, rng, at=None):
    """Remove one statement from a non-empty node (unbalanced totals), at
    the share ``at`` of its body, or anywhere."""
    n = rng.choice([i for i, b in enumerate(bodies) if b])
    del bodies[n][rng.randrange(len(bodies[n])) if at is None
                  else int(at * len(bodies[n]))]


# ---------------------------------------------------------------- loop-free

def _connected_schedule(rng, n_nodes, length, names="abcd"):
    """Random rendezvous sequence that includes a link from every node to
    an earlier one, so the communication graph is connected."""
    sched = []
    for v in range(1, n_nodes):
        u = rng.randrange(v)
        src, dst = (u, v) if rng.random() < 0.5 else (v, u)
        sched.append((rng.choice(names), src, dst))
    for _ in range(length - len(sched)):
        src, dst = rng.sample(range(n_nodes), 2)
        sched.append((rng.choice(names), src, dst))
    rng.shuffle(sched)
    return sched


LOOPFREE_KINDS = ("free", "free", "free", "free", "drop", "cross")


def loopfree(rng, n_nodes, length, kind, at=None):
    """Projection of a random schedule, kept free or made a certain
    deadlock by a dropped event or crossed receives, at the share ``at``
    of the bodies, or anywhere."""
    bodies = _project(_connected_schedule(rng, n_nodes, length), n_nodes)
    if kind == "drop":
        _drop(bodies, rng, at)
    elif kind == "cross":
        a, b = rng.sample(range(n_nodes), 2)
        if at is None:
            _cross(bodies, rng, a, b)
        else:
            _cross(bodies, rng, a, b, int(at * len(bodies[a])),
                   int(at * len(bodies[b])))
    return bodies, (FREE if kind == "free" else DEADLOCK), f"loopfree-{kind}"


def _sizes(lo, hi, n):
    """``n`` sizes from ``lo`` to ``hi``, evenly spaced on a log scale."""
    return [round(lo * (hi / lo) ** (k / (n - 1))) for k in range(n)]


# The large workloads' programs come in two groups, four in five small and
# one in five large, so that the median falls well inside the small group
# and the 90th percentile inside the large one: a percentile that fell
# where sizes thin out would move with every program drawn.

# Cells (rendezvous count, nodes, kind, where): 200-400 rendezvous over
# 16, 32 and 64 nodes in turn, and 1000-1600 over 32 nodes (at a fixed
# count, width changes the time up to threefold); in every three
# consecutive cells one deadlocks, by drop and cross in turn.  The cell
# fixes where in the bodies the mutation goes, since a checker's time
# depends on it.
LOOPFREE_CELLS = [
    (r, (16, 32, 64)[k % 3] if r <= 400 else 32,
     ("free", "free", ("drop", "cross")[k // 3 % 2])[(k + k // 3) % 3],
     (k % 4 + 0.5) / 4)
    for k, r in enumerate(_sizes(200, 400, 36) + _sizes(1000, 1600, 12))]


def gen_loopfree_wide(rng, cell) -> Case:
    length, n_nodes, kind, at = cell
    bodies, expected, label = loopfree(rng, n_nodes, length, kind, at)
    return _case(bodies, expected, f"{label} n={n_nodes} r={length}")


# ------------------------------------------------------------- single loop

def _ring_round(n_nodes):
    return [(f"t{i}", i, (i + 1) % n_nodes) for i in range(n_nodes)]


def _mesh_round(width, height):
    """One rendezvous per mesh edge: rows left to right, then columns."""
    sched = []
    for r in range(height):
        for c in range(width - 1):
            u = r * width + c
            sched.append((f"h{u}", u, u + 1))
    for r in range(height - 1):
        for c in range(width):
            u = r * width + c
            sched.append((f"v{u}", u, u + width))
    return sched


def single_loop(rng, topology, n_nodes, finite, max_total, kind,
                total=None):
    """One top-level loop per node over its projection of one round, with
    the projection repeated r_i times per iteration and the count set to
    T / r_i (T even, at most ``max_total`` unless given), so ratios and LCM
    slices differ from all-ones.  ``kind`` is free, mismatch (finite only)
    or recv-first."""
    if topology == "ring":
        round_ = _ring_round(n_nodes)
    else:
        width = max(2, int(math.sqrt(n_nodes)))
        n_nodes = width * max(2, n_nodes // width)
        round_ = _mesh_round(width, n_nodes // width)
    proj = _project(round_, n_nodes)
    reps = [rng.choice((1, 2)) for _ in range(n_nodes)]
    if total is None:
        total = 2 * rng.randint(1, max(1, max_total // 2))
    if kind == "recv-first":
        if topology == "ring":
            # node 0 is the only one that sends first; make it receive first
            proj[0] = proj[0][::-1]
        else:
            a = rng.randrange(n_nodes - 1)
            _cross(proj, rng, a, a + 1, 0, 0)
    bodies = []
    for n in range(n_nodes):
        count = total // reps[n] if finite else "inf"
        bodies.append([("for", count, proj[n] * reps[n])])
    if kind == "mismatch":
        n = rng.randrange(n_nodes)
        count = bodies[n][0][1]
        bodies[n][0] = ("for", count + 1 if count == 1 or rng.random() < 0.5
                        else count - 1, bodies[n][0][2])
    expected = FREE if kind == "free" else DEADLOCK
    return bodies, expected, f"{topology}-{'fin' if finite else 'inf'}-{kind}"


def _small_loop_kind(rng, finite):
    return rng.choice(("free", "free", "mismatch" if finite else "free",
                       "recv-first"))


# Cells (topology, nodes, finite, kind, total): rings of 100-200 and
# 800-1600 nodes, meshes of 100-150 and 300-400, the kinds taken in turn,
# loop totals T of 2-12.
RING_KINDS = ((True, "free"), (False, "free"), (True, "mismatch"),
              (True, "recv-first"), (False, "recv-first"))
RING_CELLS = [
    (topo, n, *RING_KINDS[k % len(RING_KINDS)], 2 * (1 + k % 6))
    for k, (topo, n) in enumerate(
        [("ring", n) for n in _sizes(100, 200, 28)]
        + [("mesh", n) for n in _sizes(100, 150, 8)]
        + [("ring", n) for n in _sizes(800, 1600, 5)]
        + [("mesh", n) for n in _sizes(300, 400, 4)])]


def gen_single_loop_ring(rng, cell) -> Case:
    topology, n_nodes, finite, kind, total = cell
    bodies, expected, label = single_loop(rng, topology, n_nodes, finite,
                                          total, kind, total)
    return _case(bodies, expected, f"{label} n={len(bodies)}")


# ----------------------------------------------------------- nested phases

def _split_loops(count, inner, rng):
    """``for count { inner }`` written as 1-3 nested loops whose counts
    multiply to ``count``."""
    factors = _factorize(count)
    rng.shuffle(factors)
    k = rng.randint(1, min(3, max(1, len(factors))))
    groups = [1] * k
    for f in factors:
        groups[rng.randrange(k)] *= f
    groups = [g for g in groups if g > 1] or [count]
    body = inner
    for g in groups:
        body = [("for", g, body)]
    return body


def _factorize(n):
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _round_count(rng, lo_exp, hi_exp):
    """A count with several small factors, drawn log-uniformly."""
    target = 10 ** rng.uniform(lo_exp, hi_exp)
    count = 1
    while True:
        f = rng.choice((2, 3, 5, 7, 10))
        if count * f > target:
            return max(2, count)
        count *= f


def nested_phases(rng, n_nodes, n_phases, count_range, flip, shift,
                  wrap_inf):
    """Phased pairwise exchanges.  Phase 0 pairs (2i, 2i+1), phase 1 pairs
    (2i+1, 2i+2), later phases are random matchings; the first two make the
    pairing graph connected.  Each exchange repeats {send a, recv b} on one
    side and {recv a, send b} on the other ``c`` times; each side writes
    ``c`` as its own nesting of loops."""
    matchings = [[(2 * i, 2 * i + 1) for i in range(n_nodes // 2)],
                 [(2 * i + 1, (2 * i + 2) % n_nodes)
                  for i in range(n_nodes // 2)]]
    for _ in range(n_phases - 2):
        perm = list(range(n_nodes))
        rng.shuffle(perm)
        matchings.append([(perm[2 * i], perm[2 * i + 1])
                          for i in range(n_nodes // 2)])
    pairs = [(k, u, v) for k, m in enumerate(matchings) for u, v in m]
    flipped = set()
    if flip:
        flipped = set(rng.sample(range(len(pairs)), rng.randint(1, 2)))
    shifted = set()
    if shift:
        rest = [i for i in range(len(pairs)) if i not in flipped]
        shifted = set(rng.sample(rest, min(len(rest), rng.randint(1, 3))))
    bodies = [[] for _ in range(n_nodes)]
    for idx, (k, u, v) in enumerate(pairs):
        if rng.random() < 0.5:
            u, v = v, u                       # u starts the exchange
        c = _round_count(rng, *count_range)
        a, b = f"a{k}", f"b{k}"
        first = ([("recv", b, v), ("send", a, v)] if idx in flipped
                 else [("send", a, v), ("recv", b, v)])
        bodies[u] += _split_loops(c, first, rng)
        if idx in shifted:
            bodies[v] += [("recv", a, u),
                          ("for", c - 1, [("send", b, u), ("recv", a, u)]),
                          ("send", b, u)]
        else:
            bodies[v] += _split_loops(c, [("recv", a, u), ("send", b, u)],
                                      rng)
    if wrap_inf:
        bodies = [[("for", "inf", body)] for body in bodies]
    expected = DEADLOCK if flipped else FREE
    label = (f"phases-{'inf' if wrap_inf else 'fin'}"
             f"-{'flipped' if flipped else 'free'}-shifted{len(shifted)}")
    return bodies, expected, label


# Cells (nodes, phases, flipped pair?, shifted pairs?): 16-32 and 96-128
# nodes; a third of the programs get a flipped pair, another third
# shifted pairs.
PHASES_CELLS = [(n, phases, flip, shift)
                for n, phase_counts in ([(n, (2, 3, 4))
                                         for n in (16, 20, 24, 28, 32)]
                                        + [(96, (3, 4)), (128, (3, 4))])
                for phases in phase_counts
                for flip, shift in ((False, False), (False, True),
                                    (True, False))]


def gen_nested_phases(rng, cell) -> Case:
    n_nodes, n_phases, flip, shift = cell
    bodies, expected, label = nested_phases(
        rng, n_nodes, n_phases, (3, 9), flip, shift, rng.random() < 0.5)
    return _case(bodies, expected, f"{label} n={n_nodes}")


# ------------------------------------------------------ small, cross-checked

def _small_params(prng, shape):
    """Size and kind of one small sub-system: (nodes, parameters)."""
    if shape == "loopfree":
        return prng.randint(2, 3), (prng.randint(3, 7),
                                    prng.choice(LOOPFREE_KINDS))
    if shape == "loop":
        finite = prng.random() < 0.5
        return prng.randint(2, 3), (finite, 2 * prng.randint(1, 3),
                                    _small_loop_kind(prng, finite))
    return 2 * prng.randint(1, 2), (prng.uniform(0.3, 0.7),
                                    prng.random() < 1 / 3,
                                    prng.random() < 1 / 3,
                                    prng.random() < 0.5)


def _small_component(rng, shape, n_nodes, params):
    """(bodies, expected, infinite, label) for one small sub-system of the
    given size and kind; ``rng`` draws only its structure."""
    if shape == "loopfree":
        length, kind = params
        bodies, expected, label = loopfree(rng, n_nodes, length, kind)
        return bodies, expected, False, label
    if shape == "loop":
        finite, total, kind = params
        bodies, expected, label = single_loop(rng, "ring", n_nodes, finite,
                                              total, kind, total)
        return bodies, expected, not finite, label
    count_exp, flip, shift, wrap = params
    bodies, expected, label = nested_phases(
        rng, n_nodes, 2, (count_exp, count_exp), flip, shift, wrap)
    return bodies, expected, wrap, label


def _combine(components):
    """Disjoint union: renumber nodes and keep message names apart."""
    bodies = []
    for ci, comp in enumerate(components):
        base = len(bodies)

        def shift(items):
            out = []
            for it in items:
                if it[0] == "for":
                    out.append(("for", it[1], shift(it[2])))
                else:
                    out.append((it[0], f"{it[1]}c{ci}", it[2] + base))
            return out

        bodies.extend(shift(b) for b in comp)
    return bodies


def small_program(rng, cell):
    """A program of independent small sub-systems.  The cell fixes the
    shape, size and kind of each (drawn once from the cell's own random
    stream, at most 8 nodes in all), so that every seed times the same
    mix of state-space sizes; ``rng`` draws the structure."""
    variant, shapes = cell
    prng = random.Random(f"small:{variant}:{shapes}")
    while True:
        params = [_small_params(prng, shape) for shape in shapes]
        if sum(n for n, _ in params) <= 8:
            break
    comps = [_small_component(rng, shape, n, p)
             for shape, (n, p) in zip(shapes, params)]
    bodies = _combine([c[0] for c in comps])
    dead = [c[1] == DEADLOCK for c in comps]
    free_inf = any(c[1] == FREE and c[2] for c in comps)
    if not any(dead):
        expected = FREE
    elif free_inf:
        expected = None
    else:
        expected = DEADLOCK
    label = "+".join(c[3] for c in comps)
    return bodies, expected, label


# Cells (variant, shapes of the independent sub-systems): half the
# programs have one sub-system, the rest two to four.  The oracle's cost
# grows with the product of the parts' state spaces, over a hundredfold
# between programs of the same shapes, so each cell also fixes the parts'
# sizes and kinds (SMALL_VARIANTS draws per list of shapes).
SMALL_SHAPES = ([(shape,) for shape in ("loopfree", "loop", "nested")] * 4
                + [("loopfree", "loopfree"), ("loopfree", "loop"),
                   ("loopfree", "nested"), ("loop", "loop"),
                   ("loop", "nested"), ("nested", "nested"),
                   ("loopfree", "loop", "nested"),
                   ("loopfree", "loopfree", "nested"),
                   ("loop", "loop", "nested"),
                   ("nested", "nested", "loopfree"),
                   ("loopfree", "loop", "nested", "nested"),
                   ("loopfree", "loopfree", "loop", "loop")])
SMALL_VARIANTS = 4
SMALL_CELLS = [(v * len(SMALL_SHAPES) + k, shapes)
               for v in range(SMALL_VARIANTS)
               for k, shapes in enumerate(SMALL_SHAPES)]


def gen_small_crosscheck(rng, cell) -> Case:
    return _case(*small_program(rng, cell))


# Oracle-scale variants of the three large families, explored to confirm
# the constructed answers and to time the oracle on each family's shapes.
# Their cell counts (36, 30 and 12) divide ORACLE_CASES, the cases explored
# per pass.

LOOPFREE_SMALL_CELLS = [(n, length, kind) for n in (4, 5, 6)
                        for length in (10, 16) for kind in LOOPFREE_KINDS]


def gen_loopfree_small(rng, cell) -> Case:
    n_nodes, length, kind = cell
    return _case(*loopfree(rng, n_nodes, length, kind))


RING_SMALL_CELLS = [(topo, n, finite, kind)
                    for topo in ("ring", "mesh") for n in (4, 5, 6)
                    for finite, kind in ((True, "free"), (False, "free"),
                                         (True, "mismatch"),
                                         (True, "recv-first"),
                                         (False, "recv-first"))]


def gen_ring_small(rng, cell) -> Case:
    topology, n_nodes, finite, kind = cell
    return _case(*single_loop(rng, topology, n_nodes, finite, 6, kind))


PHASES_SMALL_CELLS = [(phases, flip, shift, wrap) for phases in (2, 3)
                      for flip, shift in ((False, False), (False, True),
                                          (True, False))
                      for wrap in (False, True)]


def gen_phases_small(rng, cell) -> Case:
    n_phases, flip, shift, wrap = cell
    return _case(*nested_phases(rng, 4, n_phases, (0.3, 0.7), flip, shift,
                                wrap))


# name -> (generator and cells of the statically checked cases, generator
# and cells of the cases the oracle explores).  small-crosscheck checks and
# explores the same cases.
WORKLOADS = {
    "loopfree-wide": ((gen_loopfree_wide, LOOPFREE_CELLS),
                      (gen_loopfree_small, LOOPFREE_SMALL_CELLS)),
    "single-loop-ring": ((gen_single_loop_ring, RING_CELLS),
                         (gen_ring_small, RING_SMALL_CELLS)),
    "nested-phases": ((gen_nested_phases, PHASES_CELLS),
                      (gen_phases_small, PHASES_SMALL_CELLS)),
    "small-crosscheck": ((gen_small_crosscheck, SMALL_CELLS),
                         (gen_small_crosscheck, SMALL_CELLS)),
}


# Blocks of statically checked cases in a workload's program set, sized so
# that one pass over the set takes a few seconds.
BLOCKS = {"loopfree-wide": 1, "single-loop-ring": 1, "nested-phases": 2,
          "small-crosscheck": 6}
# Oracle-scale cases explored per pass on the three large workloads.
ORACLE_CASES = 360


def case(workload: str, seed: int, index: int, oracle: bool = False) -> Case:
    """Case ``index`` of a workload, or of its oracle-scale set.  Each
    block of ``len(cells)`` consecutive cases takes every cell once, in a
    seeded order, so runs with different seeds time the same mix of sizes
    and kinds and differ only in the programs drawn within each cell."""
    gen, cells = WORKLOADS[workload][oracle]
    tag = f"{'oracle:' if oracle else ''}{workload}:{seed}"
    block, pos = divmod(index, len(cells))
    order = random.Random(f"{tag}:block{block}").sample(range(len(cells)),
                                                        len(cells))
    return gen(random.Random(f"{tag}:{index}"), cells[order[pos]])


def program_set(workload: str, seed: int, oracle: bool = False) -> list:
    """The cases a run of ``workload`` times: whole blocks of its cells, so
    that every seed times the same mix.  The oracle-scale set is empty on
    small-crosscheck, which explores its own programs."""
    if oracle:
        n = 0 if workload == "small-crosscheck" else ORACLE_CASES
    else:
        n = BLOCKS[workload] * len(WORKLOADS[workload][0][1])
    return [case(workload, seed, i, oracle) for i in range(n)]
