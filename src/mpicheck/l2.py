"""Nested-loop engine: power strings and the first-power-pool reduction loop.

A node program becomes a sequence of powers (loops rendered as
string-with-exponent).  Normalization applies two rewrites to a fixpoint:

* power reduction:      (x^p1)^p2        -> x^(p1*p2)
* left prefix reduction: x^p1 (xy)^p2    -> x^(p1+1) y (xy)^(p2-1)

After stripping outer infinite loops via the ratio-equation machinery, the
main loop repeatedly takes the pool of leading powers, groups it into
related sets, and reduces or expands each eligible set until all strings
drain (deadlock free) or nothing can move (deadlock).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .model import (INFINITE, Program, Recv, Send, Symbol,
                    UnsupportedProgram, default_max_events, is_infinite)
from .reg import Inconsistent, count_equations, ratio_stage, solve
from .smodel import check_smodel
from .trace import SetRecord
from .verdicts import (DEADLOCK_FREE, Deadlock, FppStuck, RatioInconsistency,
                       Verdict)


@dataclass(frozen=True)
class Power:
    body: tuple   # items: Symbol or nested Power
    exp: object   # positive int, or INFINITE

    def __str__(self):
        return render_items((self,))


# A node's power string is a tuple of Powers; bare literal runs are wrapped
# as exponent-1 powers so the pool and the reduction step treat everything
# uniformly.  Inside power bodies literals stay bare.


def _mul(e1, e2):
    if is_infinite(e1) or is_infinite(e2):
        return INFINITE
    return e1 * e2


def _is_literal(items) -> bool:
    return all(isinstance(x, Symbol) for x in items)


def _wrap_runs(items) -> tuple:
    """Group maximal runs of bare literals into exponent-1 powers."""
    out = []
    run = []
    for it in items:
        if isinstance(it, Symbol):
            run.append(it)
        else:
            if run:
                out.append(Power(tuple(run), 1))
                run = []
            out.append(it)
    if run:
        out.append(Power(tuple(run), 1))
    return tuple(out)


def to_power_string(body) -> tuple:
    """Map statements to a power string: loops become powers, literal runs
    become exponent-1 powers at the top level."""

    def items(stmts):
        out = []
        for st in stmts:
            if isinstance(st, (Send, Recv)):
                out.append(st.sym)
            else:
                out.append(Power(items(st.body), st.count))
        return tuple(out)

    return _wrap_runs(items(body))


def _norm_body(items) -> tuple:
    """Normalize a power body: recurse, collapse single-power bodies,
    splice exponent-1 sub-powers into bare items."""
    out = []
    for it in items:
        if isinstance(it, Symbol):
            out.append(it)
            continue
        p = _norm_power(it)
        if p is None:
            continue
        if p.exp == 1:
            out.extend(p.body)
        else:
            out.append(p)
    return tuple(out)


def _norm_power(p: Power):
    body = _norm_body(p.body)
    exp = p.exp
    while len(body) == 1 and isinstance(body[0], Power):
        inner = body[0]
        exp = _mul(exp, inner.exp)
        body = inner.body
    if not body or exp == 0:
        return None
    return Power(body, exp)


def normalize(ps: tuple) -> tuple:
    """Fixpoint of both rewrites over a top-level power sequence."""
    powers = []
    for p in _wrap_runs(ps):
        q = _norm_power(p)
        if q is None:
            continue
        if q.exp == 1 and not _is_literal(q.body):
            # exponent-1 composite wrapper: splice its content
            powers.extend(_wrap_runs(q.body))
        else:
            powers.append(q)
    return _left_prefix_fixpoint(tuple(powers))


def _left_prefix_fixpoint(powers: tuple) -> tuple:
    changed = True
    while changed:
        changed = False
        out = list(powers)
        i = 0
        while i + 1 < len(out):
            a, b = out[i], out[i + 1]
            if (is_infinite(a.exp) or is_infinite(b.exp)
                    or len(a.body) > len(b.body)
                    or b.body[:len(a.body)] != a.body):
                i += 1
                continue
            y = b.body[len(a.body):]
            if not y:
                # same base: merge exponents
                out[i] = Power(a.body, a.exp + b.exp)
                del out[i + 1]
            else:
                repl = [Power(a.body, a.exp + 1)]
                repl.extend(_wrap_runs(y))
                if b.exp - 1 == 1:
                    if _is_literal(b.body):
                        repl.append(Power(b.body, 1))
                    else:
                        repl.extend(_wrap_runs(b.body))
                elif b.exp - 1 > 1:
                    repl.append(Power(b.body, b.exp - 1))
                out[i:i + 2] = repl
            changed = True
        powers = tuple(out)
    return powers


def flatten_items(items, cap=None) -> tuple:
    """Fully unrolled symbol sequence of a body or power sequence."""
    out = []

    def go(items):
        for it in items:
            if isinstance(it, Symbol):
                out.append(it)
                if cap is not None and len(out) > cap:
                    raise UnsupportedProgram(
                        f"expansion exceeds cap of {cap} events")
            else:
                if is_infinite(it.exp):
                    raise UnsupportedProgram(
                        "cannot flatten an infinite power")
                for _ in range(it.exp):
                    go(it.body)

    go(items)
    return tuple(out)


def power_counts(items) -> Counter:
    """Occurrence counts of a body with exponent weighting."""
    out = Counter()
    for it in items:
        if isinstance(it, Symbol):
            out[it] += 1
        else:
            if is_infinite(it.exp):
                raise UnsupportedProgram("cannot count an infinite power")
            inner = power_counts(it.body)
            for s, c in inner.items():
                out[s] += it.exp * c
    return out


def render_items(items) -> str:
    """Compact rendering: literals run together, exponent-1 powers bare,
    infinite exponents written ^inf."""
    parts = []
    run = []
    for it in items:
        if isinstance(it, Symbol):
            run.append(it.name)
            continue
        if run:
            parts.append("".join(run))
            run = []
        body = render_items(it.body)
        if it.exp == 1:
            parts.append(body)
            continue
        exp = "inf" if is_infinite(it.exp) else str(it.exp)
        if len(it.body) == 1 and isinstance(it.body[0], Symbol):
            parts.append(f"{body}^{exp}")
        else:
            parts.append(f"({body})^{exp}")
    if run:
        parts.append("".join(run))
    return " ".join(parts)


def string_symbols(items) -> set:
    out = set()
    for it in items:
        if isinstance(it, Symbol):
            out.add(it)
        else:
            out |= string_symbols(it.body)
    return out


def strip_outer_infinite(strings: dict, trace=None):
    """Run the ratio stage on per-outer-iteration counts (t = inf for a node
    wrapped in an infinite loop, t = 1 for a finite one) and replicate each
    infinite body LCM/p_i times.

    Returns (finite strings, None) or (None, Deadlock verdict).
    """
    counts = {}
    times = {}
    for n, ps in strings.items():
        if any(is_infinite(p.exp) for p in ps):
            if len(ps) != 1:
                raise UnsupportedProgram(
                    f"node {n} mixes an infinite loop with other top-level "
                    "statements; the ratio method needs purely periodic nodes")
            counts[n] = power_counts(ps[0].body)
            times[n] = INFINITE
        else:
            counts[n] = power_counts(ps)
            times[n] = 1
    solution, deadlock = ratio_stage(tuple(strings), counts, times, "outer",
                                     trace)
    if deadlock is not None:
        return None, deadlock
    return {n: (normalize((Power(ps[0].body, solution.times(n)),))
                if is_infinite(times[n]) else ps)
            for n, ps in strings.items()}, None


def fpp(strings: dict) -> dict:
    """First power pool: each non-exhausted node's leading power."""
    return {n: ps[0] for n, ps in strings.items() if ps}


@dataclass
class SetMember:
    node: int
    body: tuple
    exp: int
    leftover: tuple = ()  # tail of a trimmed literal run, stays in the string


@dataclass
class RelatedSet:
    nodes: tuple              # original component membership
    members: dict             # node -> SetMember (after trimming), may be {}
    eligible: bool
    symbols: frozenset


def related_sets(pool: dict) -> list:
    """Connected components of the pool under shared symbols, with members
    trimmed or dropped until every symbol has both endpoints present.

    An exponent-1 literal run whose tail mentions a symbol with a missing
    endpoint is split before that symbol; the head participates now and the
    tail waits in the string.  True powers with a missing-endpoint symbol
    drop out entirely (their node is blocked until the partner arrives).
    """
    syms = {n: string_symbols(p.body) for n, p in pool.items()}
    comps = _components(list(pool), syms)
    out = []
    for comp in comps:
        members = {n: SetMember(n, pool[n].body, pool[n].exp) for n in comp}
        out.extend(_resolve(comp, members))
    return out


def _components(nodes, syms):
    comps = []
    left = set(nodes)
    while left:
        n = left.pop()
        comp = {n}
        frontier = [n]
        while frontier:
            v = frontier.pop()
            for u in list(left):
                if syms[v] & syms[u]:
                    left.discard(u)
                    comp.add(u)
                    frontier.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def _resolve(orig_nodes, members) -> list:
    """Trim/drop fixpoint; may split into several sets."""
    while True:
        if not members:
            return [RelatedSet(tuple(orig_nodes), {}, False, frozenset())]
        syms = {n: string_symbols(m.body) for n, m in members.items()}
        comps = _components(list(members), syms)
        if len(comps) > 1:
            out = []
            for comp in comps:
                sub = {n: members[n] for n in comp}
                out.extend(_resolve(comp, sub))
            return out
        comp = comps[0]
        present = set().union(*(syms[n] for n in comp))
        offending = set()
        for s in present:
            ok = (s.src in members and s in syms[s.src]
                  and s.dst in members and s in syms[s.dst])
            if not ok:
                offending.add(s)
        if not offending:
            return [RelatedSet(tuple(comp), dict(members), True,
                               frozenset(present))]
        changed = False
        for n in list(members):
            m = members[n]
            hit = string_symbols(m.body) & offending
            if not hit:
                continue
            if m.exp == 1:
                # an exponent-1 power is just its literal sequence; split it
                # before the first symbol whose partner is not here yet
                body = (m.body if _is_literal(m.body)
                        else flatten_items(m.body, cap=default_max_events()))
                pos = min(i for i, it in enumerate(body) if it in offending)
                if pos == 0:
                    del members[n]
                else:
                    m.leftover = body[pos:] + m.leftover
                    m.body = body[:pos]
            else:
                del members[n]
            changed = True
        if not changed:
            # cannot happen: every offending symbol lives in some member
            return [RelatedSet(tuple(orig_nodes), {}, False, frozenset())]


def align_and_reduce(strings: dict, rset: RelatedSet, max_events,
                     record: SetRecord | None = None):
    """One unified reducible/expansible step for an eligible related set.

    Returns ("deadlock", verdict), ("progress", new strings) or
    ("noprogress", None).
    """
    members = rset.members
    order = sorted(members)
    counts = {n: power_counts(members[n].body) for n in order}
    group, _ = count_equations(order, counts)
    solution = solve(group)
    if isinstance(solution, Inconsistent):
        return "deadlock", Deadlock(
            RatioInconsistency(solution.detail, solution.equations))

    per_round = {n: solution.times(n) for n in order}
    rounds = min(members[n].exp // per_round[n] for n in order)
    if record is not None:
        record.solutions.append((tuple(order), dict(solution.values)))
    if rounds == 0:
        return "noprogress", None

    round_queues = {
        n: flatten_items(members[n].body, cap=max_events) * per_round[n]
        for n in members}
    verdict = check_smodel(round_queues)
    if isinstance(verdict, Deadlock):
        return "deadlock", verdict

    new_strings = dict(strings)
    for n, m in members.items():
        rest = []
        new_exp = m.exp - rounds * per_round[n]
        if new_exp > 0:
            rest.append(Power(m.body, new_exp))
        if m.leftover:
            rest.append(Power(m.leftover, 1))
        new_strings[n] = tuple(rest) + strings[n][1:]
    if record is not None:
        record.actions.append(f"reduced {tuple(order)} by {rounds} round(s)")
    return "progress", new_strings


def check_l2(program: Program, trace=None, max_events=None) -> Verdict:
    """Normalize, strip outer infinity, then run the pool reduction loop."""
    cap = default_max_events() if max_events is None else max_events
    strings = {n: normalize(to_power_string(body))
               for n, body in program.nodes}
    if trace is not None:
        trace.string_map = {n: render_items(ps) for n, ps in strings.items()}

    strings, verdict = strip_outer_infinite(strings, trace)
    if verdict is not None:
        return verdict

    while True:
        pool = fpp(strings)
        if trace is not None:
            trace.fpp_snapshots.append(
                {n: render_items((p,)) for n, p in pool.items()})
        if not pool:
            return DEADLOCK_FREE
        sets = related_sets(pool)
        record = None
        if trace is not None:
            record = SetRecord(tuple(
                (rs.nodes, rs.eligible) for rs in sets))
            trace.set_records.append(record)
        progressed = False
        for rs in sets:
            if not rs.eligible:
                continue
            kind, payload = align_and_reduce(strings, rs, cap, record)
            if kind == "deadlock":
                return payload
            if kind == "progress":
                strings = payload
                progressed = True
        if not progressed:
            snapshot = tuple(sorted(
                (n, render_items((p,))) for n, p in pool.items()))
            return Deadlock(FppStuck(snapshot))
