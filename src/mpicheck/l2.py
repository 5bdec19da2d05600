"""Nested-loop engine: power strings and the first-power-pool reduction loop.

A node program becomes a power string: a tuple of loops (``For``), each
loop's count its exponent.  A run of bare literals between loops is wrapped
as a count-1 loop, so the pool and the reduction step treat everything
uniformly; inside loop bodies literals stay bare.  One rule puts a power
into a string: a count-1 power enters as the wrapped runs of its body.
Powers are built by ``tuple.__new__``, as the parser builds loops, which
skips the named tuple's Python-level ``__new__``.  Normalization applies
two rewrites to a fixpoint:

* power reduction:      (x^p1)^p2        -> x^(p1*p2)
* left prefix reduction: x^p1 (xy)^p2    -> x^(p1+1) y (xy)^(p2-1)

After stripping outer infinite loops via the ratio-equation machinery, the
main loop repeatedly takes the pool of leading powers and reduces it by one
round, until all strings drain (deadlock free) or nothing can move
(deadlock).  A round counts each power once and walks the held symbols
twice: ``_groups`` links the pool into related sets and notes a symbol that
one endpoint does not hold, the only case in which the pool is trimmed and
grouped again; ``reg.solve_counts`` then feeds each symbol's two counts
into the ratio union-find, which gives every set its values and slice
times.  The equations are built, in set order, only for a ratio conflict,
whose witness they name.  One kernel call decides the round.
"""
from itertools import groupby

from .model import (INFINITE, For, Program, SizeExceeded, UnsupportedProgram,
                    build_queues, count_occurrences)
from .record import Record
from .reg import (check_digits, count_equations, ratio_stage, solve,
                  solve_counts)
from .smodel import check_smodel
from .trace import SetRecord, Trace
from .verdicts import (DEADLOCK_FREE, Deadlock, FppStuck, RatioInconsistency,
                       Verdict, WaitCycle)


def _wrap_runs(items) -> list:
    """Group maximal runs of bare literals into count-1 loops."""
    out = []
    for kind, run in groupby(items, type):
        if kind is For:
            out.extend(run)
        else:
            out.append(tuple.__new__(For, (1, tuple(run))))
    return out


def _norm_power(p: For):
    """The items loop ``p`` adds, normalized, to the body around it: none
    when it is empty, its body when its count is 1, else itself.  Its body
    is its bare literals and the items of its sub-loops; a body that is one
    loop is folded into the count (power reduction), and as that loop's own
    body is never one loop, one fold suffices.  A loop over literals alone
    is normal as it is, and is returned, or its body, without a copy."""
    if For not in map(type, p.body):
        if not p.body or p.count == 0:
            return ()
        return p.body if p.count == 1 else (p,)
    body = []
    for it in p.body:
        if type(it) is For:
            body += _norm_power(it)
        else:
            body.append(it)
    count = p.count
    if len(body) == 1 and type(body[0]) is For:
        inner = body[0]
        count = (INFINITE if count is INFINITE or inner.count is INFINITE
                 else count * inner.count)
        body = inner.body
    if not body or count == 0:
        return []
    if count == 1:
        return body
    return [tuple.__new__(For, (count, tuple(body)))]


def normalize(body: tuple) -> tuple:
    """The power string of a statement body: the fixpoint of both
    rewrites.  Each top-level loop and literal run enters on its own."""
    powers = []
    for p in _wrap_runs(body):
        powers += _wrap_runs(_norm_power(p))
    return _left_prefix_fixpoint(powers)


def _left_prefix_fixpoint(out: list) -> tuple:
    """Rewrite ``out`` in place.  One left-to-right scan reaches the
    fixpoint: a rewrite at (i, i+1) keeps the body of ``out[i]`` and a
    finite count, so no rewrite becomes applicable left of i."""
    i = 0
    while i + 1 < len(out):
        a, b = out[i], out[i + 1]
        if (a.count is INFINITE or b.count is INFINITE
                or len(a.body) > len(b.body)
                or b.body[:len(a.body)] != a.body):
            i += 1
            continue
        y = b.body[len(a.body):]
        if not y:
            # same base: merge counts
            out[i] = tuple.__new__(For, (a.count + b.count, a.body))
            del out[i + 1]
        else:
            repl = [tuple.__new__(For, (a.count + 1, a.body))]
            repl.extend(_wrap_runs(y))
            # (xy)^(p2-1) by the count-1 rule
            if b.count == 2:
                repl.extend(_wrap_runs(b.body))
            elif b.count > 2:
                repl.append(tuple.__new__(For, (b.count - 1, b.body)))
            out[i:i + 2] = repl
    return tuple(out)


def strip_outer_infinite(strings: dict, trace: Trace):
    """Run the ratio stage on per-outer-iteration counts (t = inf for a node
    wrapped in an infinite loop, t = 1 for a finite one) and replicate each
    infinite body LCM/p_i times.

    Returns the finite strings or a Deadlock.
    """
    counts = {}
    times = {}
    for n, ps in strings.items():
        if any(p.count is INFINITE for p in ps):
            if len(ps) != 1:
                raise UnsupportedProgram(
                    f"node {n} mixes an infinite loop with other top-level "
                    "statements; the ratio method needs purely periodic nodes")
            counts[n] = count_occurrences(ps[0].body)
            times[n] = INFINITE
        else:
            counts[n] = count_occurrences(ps)
            times[n] = 1
    solution = ratio_stage(tuple(strings), counts, times, "outer", trace)
    if isinstance(solution, Deadlock):
        return solution
    return {n: (_repeat(ps[0].body, solution.times[n])
                if times[n] is INFINITE else ps)
            for n, ps in strings.items()}


def _repeat(body, t) -> tuple:
    """``normalize((For(t, body),))`` for the normal body of an infinite
    power: its loops are normal already, so only the top level changes."""
    if t == 1:
        return _left_prefix_fixpoint(_wrap_runs(body))
    return (tuple.__new__(For, (t, body)),)


def fpp(strings: dict) -> dict:
    """First power pool: each non-exhausted node's leading power."""
    return {n: ps[0] for n, ps in strings.items() if ps}


class SetMember(Record):
    """A related set's member: a trimmed pool power ``body^count`` and the
    occurrence counts of ``body``, which are its held symbols and feed the
    round's ratio equations."""

    _fields = ("body", "count", "counts", "leftover")

    def __init__(self, body, count, counts):
        self.body = body
        self.count = count
        self.counts = counts  # count_occurrences(body)
        self.leftover = ()  # tail of a trimmed literal run, stays


class RelatedSet(Record):
    _fields = ("nodes", "members")

    def __init__(self, nodes, members):
        self.nodes = nodes  # sorted; a waiting set names its pool component
        self.members = members  # node -> SetMember (trimmed); {}: waiting


def _groups(held: dict):
    """Nodes of ``held`` (node -> symbols) linked by every symbol both of
    whose endpoints hold it, in ascending order of their smallest node, and
    whether some symbol is held by one endpoint only."""
    seen = set()
    out = []
    lone = False
    for n in sorted(held):
        if n in seen:
            continue
        seen.add(n)
        comp = [n]
        for v in comp:  # comp grows as the walk reaches new nodes
            for s in held[v]:
                u = s[2] if s[1] == v else s[1]  # v's partner
                if s not in held.get(u, ()):
                    lone = True
                elif u not in seen:
                    seen.add(u)
                    comp.append(u)
        out.append(tuple(sorted(comp)))
    return out, lone


def related_sets(pool: dict, cap: int) -> list:
    """Group the pool into related sets after trimming it to a fixpoint.

    Each pool power is counted once with ``count_occurrences``; the keys of
    a member's counts are the symbols it holds.  A symbol is offending when
    the member of its sender or of its receiver does not hold it.  An
    exponent-1 run is cut before its first offending symbol: the head takes
    part now, recounted, and the tail waits in the string (a composite run
    is flattened first, by ``build_queues`` under ``cap``).  Any other
    power holding an offending symbol drops out; its node is blocked until
    the partner arrives.  Members only shrink, so the fixpoint does not
    depend on the order of the cuts, and a symbol's two endpoints always
    share a component, so trimming the whole pool at once is exact.  A pool
    component left with no member is one waiting set; when no symbol is
    offending, nothing is trimmed and the pool components are the related
    sets.
    """
    members = {n: SetMember(p.body, p.count, count_occurrences(p.body))
               for n, p in pool.items()}
    held = {n: m.counts for n, m in members.items()}
    pool_groups, trimmed = _groups(held)
    if not trimmed:
        return [RelatedSet(g, {n: members[n] for n in g})
                for g in pool_groups]
    todo = list(members)
    while todo:
        n = todo.pop()
        if n not in members:
            continue
        bad = {s for s in held[n]
               if s not in held.get(s[2] if s[1] == n else s[1], ())}
        if not bad:
            continue
        m = members[n]
        pos = 0
        if m.count == 1:
            body = build_queues(((n, m.body, 1),), cap)[n]
            pos = next(i for i, s in enumerate(body) if s in bad)
        if pos == 0:
            del members[n]
            lost = held.pop(n)
        else:
            m.body, m.leftover = body[:pos], body[pos:] + m.leftover
            m.counts = count_occurrences(m.body)
            lost, held[n] = held[n].keys() - m.counts.keys(), m.counts
        todo.extend(s[2] if s[1] == n else s[1] for s in lost)
    out = [RelatedSet(g, {n: members[n] for n in g})
           for g in _groups(held)[0]]
    out.extend(RelatedSet(g, {}) for g in pool_groups
               if not any(n in members for n in g))
    out.sort(key=lambda rs: rs.nodes[0])
    return out


def align_and_reduce(strings: dict, sets: list, max_events,
                     record: SetRecord):
    """One pool round: reduce every eligible set of `sets` at once.

    The sets are disjoint in nodes and symbols, so one ratio solve over all
    their members' counts and one kernel call on the union of their round
    queues decide each set as a solve and a kernel call per set would.
    Nodes are ordered set by set, so each set's equations, values and
    conflict witness are the ones it would get alone, and the first set in
    set order that deadlocks wins: the sets before a ratio conflict are
    solved and checked again without it.  Round queues balance for every
    message, so a deadlock's witness is a cycle of blocked fronts.  The
    queues are ordered set by set and a set that does not deadlock drains,
    so the walk for the witness starts in the first deadlocked set and
    stays there: the cycle is that set's own witness, and its first node
    names the set.  A round of more than ``max_events`` events is checked
    set by set instead, and a set that alone is over the cap raises
    SizeExceeded.

    Returns ("deadlock", verdict), ("progress", new strings) or
    ("noprogress", None).
    """
    sets = [rs for rs in sets if rs.members]
    counts = {n: m.counts for rs in sets for n, m in rs.members.items()}
    solution = _solve(sets, counts)
    conflict = None
    if isinstance(solution, RatioInconsistency):
        bad = solution.equations[-1].i
        first = next(k for k, rs in enumerate(sets) if bad in rs.members)
        conflict = Deadlock(solution)
        sets = sets[:first]
        solution = _solve(sets, counts)

    per_round = solution.times
    rounds = [min(rs.members[n].count // per_round[n] for n in rs.nodes)
              for rs in sets]
    live = [k for k, r in enumerate(rounds) if r > 0]

    def round_queues(ks):
        return build_queues([(n, m.body, per_round[n]) for k in ks
                             for n, m in sets[k].members.items()], max_events)

    stop = len(sets)
    try:
        verdict = check_smodel(round_queues(live)) if live else DEADLOCK_FREE
        if isinstance(verdict, Deadlock):
            node = verdict.witness.fronts[0][0]
            stop = next(k for k in live if node in sets[k].members)
    except SizeExceeded:
        for k in live:
            verdict = check_smodel(round_queues((k,)))
            if isinstance(verdict, Deadlock):
                stop = k
                break
    # a set is one ratio component, so its values come in node order
    solved = [(rs.nodes, {n: solution.values[n] for n in rs.nodes})
              for rs in sets[:stop + 1]]
    check_digits([max(values.values()) for _, values in solved],
                 "a ratio value has")
    record.solutions.extend(solved)
    record.actions.extend(
        f"reduced {sets[k].nodes} by {rounds[k]} round(s)"
        for k in live if k < stop)
    if stop < len(sets):
        return "deadlock", verdict
    if conflict is not None:
        return "deadlock", conflict
    if not live:
        return "noprogress", None

    new_strings = dict(strings)
    for k in live:
        for n, m in sets[k].members.items():
            rest = []
            left = m.count - rounds[k] * per_round[n]
            if left > 0:
                rest.append(tuple.__new__(For, (left, m.body)))
            if m.leftover:
                rest.append(tuple.__new__(For, (1, m.leftover)))
            new_strings[n] = tuple(rest) + strings[n][1:]
    return "progress", new_strings


def _solve(sets, counts):
    """The ratio solution of the sets' counts, the sets' nodes in set
    order, or its conflict: straight from the counts, and only when they do
    not give it, from the equations, whose order names the conflict."""
    solution = solve_counts(tuple(rs.nodes for rs in sets), counts)
    if solution is None:
        order = [n for rs in sets for n in rs.nodes]
        solution = solve(count_equations(order, counts)[0])
    return solution


def check_l2(program: Program, trace: Trace, max_events: int) -> Verdict:
    """Normalize, strip outer infinity, then run the pool reduction loop."""
    strings = {n: normalize(body) for n, body in program.nodes}
    trace.strings = strings

    stripped = strip_outer_infinite(strings, trace)
    if isinstance(stripped, Deadlock):
        return stripped

    strings = stripped
    while True:
        pool = fpp(strings)
        trace.pools.append(pool)
        if not pool:
            return DEADLOCK_FREE
        sets = related_sets(pool, max_events)
        record = SetRecord(tuple((rs.nodes, bool(rs.members)) for rs in sets))
        trace.set_records.append(record)
        kind, payload = align_and_reduce(strings, sets, max_events, record)
        if kind == "deadlock":
            return _from_start(payload, stripped, strings)
        if kind == "noprogress":
            snapshot = tuple(sorted(
                (n, str(p)) for n, p in pool.items()))
            return Deadlock(FppStuck(snapshot))
        strings = payload


def _from_start(verdict: Deadlock, stripped: dict, strings: dict) -> Deadlock:
    """``verdict`` with the k of each wait-cycle front counted from its
    node's start in ``stripped``, not from the round that deadlocked, which
    started from ``strings``: the rounds before consumed the symbol's count
    in the first less its count in the second, both in closed form."""
    if not isinstance(verdict.witness, WaitCycle):
        return verdict
    fronts = tuple(
        (n, s, k + count_occurrences(stripped[n]).get(s, 0)
         - count_occurrences(strings[n]).get(s, 0))
        for n, s, k in verdict.witness.fronts)
    check_digits([k for _, _, k in fronts], "a witness count has")
    return Deadlock(WaitCycle(fronts))
