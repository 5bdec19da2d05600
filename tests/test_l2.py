"""Power strings: normalization rewrites, pools, related sets, reduction."""
import os
import random
from collections import Counter

import pytest
from corpus import corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from mpicheck import l2, model
from mpicheck.analyze import analyze
from mpicheck.model import (INFINITE, MAX_EVENTS, For, InfiniteLoop,
                            SizeExceeded, Symbol, UnsupportedProgram,
                            count_occurrences, flatten_items, make_program,
                            render_items, validate)
from mpicheck.parser import parse
from mpicheck.l2 import (align_and_reduce, check_l2, fpp, normalize,
                         related_sets, strip_outer_infinite)
from mpicheck.l0 import check_l0
from mpicheck.trace import SetRecord, Trace
from mpicheck.verdicts import Deadlock, MdgCycle, RatioInconsistency

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
C = Symbol("c", 0, 1)
D = Symbol("d", 1, 0)


def test_normalize_wraps_literal_runs_of_a_statement_body():
    body = (A, C, For(2, (A,)))
    assert normalize(body) == (For(1, (A, C)), For(2, (A,)))


def test_power_reduction():
    ps = (For(3, (For(2, (A,)),)),)
    assert normalize(ps) == (For(6, (A,)),)


def test_power_reduction_under_infinity():
    ps = (For(INFINITE, (For(4, (A,)),)),)
    assert normalize(ps) == (For(INFINITE, (A,)),)


def test_exponent_one_composite_is_spliced():
    ps = (For(1, (A, For(2, (B,)))),)
    assert normalize(ps) == (For(1, (A,)), For(2, (B,)))


def test_left_prefix_reduction():
    # x (xy)^3  ->  x^2 y (xy)^2
    x, y = (A,), (B,)
    ps = (For(1, x), For(3, x + y))
    assert normalize(ps) == (
        For(2, x), For(1, y), For(2, x + y))


def test_left_prefix_merges_equal_bases():
    ps = (For(2, (A,)), For(3, (A,)))
    assert normalize(ps) == (For(5, (A,)),)


def test_normalize_drops_empty_and_keeps_order():
    # empty powers vanish; distinct exponent-1 runs stay separate units
    ps = (For(3, ()), For(1, (A,)), For(1, (B,)))
    assert normalize(ps) == (For(1, (A,)), For(1, (B,)))


def test_render_examples():
    assert render_items((For(4, (B,)),)) == "b^4"
    assert render_items((For(2, (A, C)),)) == "(ac)^2"
    assert render_items((For(1, (A, C)),)) == "ac"
    assert render_items((For(INFINITE, (For(2, (A, C)), B)),)) \
        == "((ac)^2 b)^inf"


def test_flatten_and_counts():
    ps = (For(3, (A, For(2, (B,)))),)
    assert flatten_items(ps) == (A, B, B) * 3
    assert count_occurrences(ps) == {A: 3, B: 6}
    with pytest.raises(InfiniteLoop):
        flatten_items((For(INFINITE, (A,)),))


def test_power_counts_keys_in_first_appearance_order():
    ps = (For(2, (C, For(3, (B, For(2, (A,)))), C, D)),)
    counts = count_occurrences(ps)
    assert list(counts.items()) == [(C, 4), (B, 6), (A, 12), (D, 2)]
    assert count_occurrences(ps[0].body, 5, counts) is counts
    assert counts == {C: 14, B: 21, A: 42, D: 7}


def _random_items(rng, depth, budget, alphabet=(A, B, C, D)):
    out = []
    while budget[0] > 0 and rng.random() < 0.8:
        if depth == 0 or rng.random() < 0.6:
            out.append(rng.choice(alphabet))
            budget[0] -= 1
        else:
            inner = _random_items(rng, depth - 1, budget, alphabet)
            if inner:
                out.append(For(rng.randint(1, 4), tuple(inner)))
    return out


def random_power_string(rng):
    items = _random_items(rng, 3, [12])
    return tuple(items)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_normalize_preserves_sequence_and_is_idempotent(seed):
    rng = random.Random(seed)
    ps = random_power_string(rng)
    norm = normalize(ps)
    assert flatten_items(norm) == flatten_items(ps)
    assert normalize(norm) == norm


# The normal form as separate helpers for power reduction, count-1
# splicing and wrapping, kept as the reference that normalize must equal.

def _ref_mul(e1, e2):
    if model.is_infinite(e1) or model.is_infinite(e2):
        return INFINITE
    return e1 * e2


def _ref_is_literal(items):
    return all(isinstance(x, Symbol) for x in items)


def _ref_wrap_runs(items):
    out = []
    run = []
    for it in items:
        if isinstance(it, Symbol):
            run.append(it)
        else:
            if run:
                out.append(For(1, tuple(run)))
                run = []
            out.append(it)
    if run:
        out.append(For(1, tuple(run)))
    return tuple(out)


def _ref_norm_body(items):
    out = []
    for it in items:
        if isinstance(it, Symbol):
            out.append(it)
            continue
        p = _ref_norm_power(it)
        if p is None:
            continue
        if p.count == 1:
            out.extend(p.body)
        else:
            out.append(p)
    return tuple(out)


def _ref_norm_power(p):
    body = _ref_norm_body(p.body)
    count = p.count
    while len(body) == 1 and isinstance(body[0], For):
        inner = body[0]
        count = _ref_mul(count, inner.count)
        body = inner.body
    if not body or count == 0:
        return None
    return For(count, body)


def reference_normalize(body):
    return _ref_left_prefix_fixpoint(_ref_powers(body))


def _ref_powers(body):
    powers = []
    for p in _ref_wrap_runs(body):
        q = _ref_norm_power(p)
        if q is None:
            continue
        if q.count == 1 and not _ref_is_literal(q.body):
            powers.extend(_ref_wrap_runs(q.body))
        else:
            powers.append(q)
    return powers


def _ref_left_prefix_fixpoint(out):
    i = 0
    while i + 1 < len(out):
        a, b = out[i], out[i + 1]
        if (model.is_infinite(a.count) or model.is_infinite(b.count)
                or len(a.body) > len(b.body)
                or b.body[:len(a.body)] != a.body):
            i += 1
            continue
        y = b.body[len(a.body):]
        if not y:
            out[i] = For(a.count + b.count, a.body)
            del out[i + 1]
        else:
            repl = [For(a.count + 1, a.body)]
            repl.extend(_ref_wrap_runs(y))
            if b.count - 1 == 1:
                if _ref_is_literal(b.body):
                    repl.append(For(1, b.body))
                else:
                    repl.extend(_ref_wrap_runs(b.body))
            elif b.count - 1 > 1:
                repl.append(For(b.count - 1, b.body))
            out[i:i + 2] = repl
    return tuple(out)


def _random_raw_body(rng, depth, budget):
    """Statements as normalize may meet them: loops of count 1 (often), 0
    and up to 4, loops that are or become empty, runs of few symbols so
    that prefixes repeat."""
    out = []
    while budget[0] > 0 and rng.random() < 0.75:
        if depth == 0 or rng.random() < 0.5:
            out.append(rng.choice((A, B, C)))
            budget[0] -= 1
        else:
            count = rng.choice((0, 1, 1, 1, 2, 2, 3, 4))
            out.append(For(count, tuple(_random_raw_body(rng, depth - 1,
                                                         budget))))
    return out


def test_normalize_equals_the_reference_on_random_strings():
    rng = random.Random(1300)
    seen = Counter()
    for _ in range(4000):
        body = tuple(_random_raw_body(rng, 3, [10]))
        if rng.random() < 0.2:
            body = (For(INFINITE, body),)
        powers = _ref_powers(body)
        seen["prefix"] += tuple(powers) != _ref_left_prefix_fixpoint(
            list(powers))
        want = reference_normalize(body)
        assert normalize(body) == want, body
        seen["inf"] += any(model.is_infinite(p.count) for p in want)
        seen["count-1"] += any(p.count == 1 for p in want)
        seen["empty"] += any(type(st) is For and not st.body
                             for st in body)
    # every shape the rewrites treat apart occurs often
    assert min(seen.values()) > 200, seen


def test_normalize_equals_the_reference_on_corpus_bodies():
    from test_acceptance import CORPUS_SEED, CORPUS_SIZE
    bodies = [body for prog in corpus(CORPUS_SEED, CORPUS_SIZE)
              for _, body in prog.nodes]
    assert len(bodies) > 3000
    for body in bodies:
        assert normalize(body) == reference_normalize(body), body


def test_strip_outer_infinite_replicates_to_lcm():
    strings = {
        0: normalize((For(INFINITE, (A,)),)),
        1: normalize((For(INFINITE, (A, A)),)),
    }
    finite, verdict = strip_outer_infinite(strings, Trace())
    assert verdict is None
    assert finite[0] == (For(2, (A,)),)
    assert finite[1] == (For(1, (A, A)),)


def test_strip_outer_infinite_folds_as_normalize_does():
    # a stripped infinite body is normal already, so it is folded at the
    # top level only; the reference normalizes the replicated loop whole
    from test_acceptance import CORPUS_SEED, CORPUS_SIZE, PROGRAMS, load
    programs = corpus(CORPUS_SEED, CORPUS_SIZE) + [
        load(name) for name in sorted(os.listdir(PROGRAMS))
        if name.endswith(".mdl")]
    seen = Counter()
    for prog in programs:
        strings = {n: normalize(body) for n, body in prog.nodes}
        infinite = [n for n, ps in strings.items()
                    if any(p.count is INFINITE for p in ps)]
        if not infinite or any(len(strings[n]) > 1 for n in infinite):
            continue
        trace = Trace()
        finite, verdict = strip_outer_infinite(strings, trace)
        if verdict is not None:
            continue
        solution = trace.reg_records[-1].solution
        for n in infinite:
            t = solution.times(n)
            want = normalize((For(t, strings[n][0].body),))
            assert finite[n] == want
            assert render_items(finite[n]) == render_items(want)
            seen["t = 1" if t == 1 else "t > 1"] += 1
            seen["folded"] += len(want) > 1
    assert min(seen.values()) >= 40, seen


def test_strip_outer_infinite_flags_mixed_components():
    strings = {
        0: normalize((For(INFINITE, (A,)),)),
        1: (For(1, (A,)),),
    }
    _, verdict = strip_outer_infinite(strings, Trace())
    assert isinstance(verdict, Deadlock)


def test_strip_outer_infinite_names_unequal_finite_products():
    # every node finite: the conflict is unequal totals, not a mix of
    # infinite and finite nodes
    strings = {0: (For(1, (A,)),), 1: (For(2, (A,)),)}
    _, verdict = strip_outer_infinite(strings, Trace())
    assert verdict.witness == RatioInconsistency(
        "unequal products within component (0, 1): p0*t0=1, p1*t1=2")


def test_outer_stage_matches_l0_on_single_infinite_loops():
    E = Symbol("e", 1, 2)
    F = Symbol("f", 2, 0)
    prog = make_program({
        0: [For(INFINITE, (A, A, F))],
        1: [For(INFINITE, (A, E))],
        2: [For(INFINITE, (E, E, F))],
        3: [],
    })
    l0_trace, outer_trace = Trace(), Trace()
    assert bool(check_l0(prog, l0_trace))
    strings = {n: normalize(b) for n, b in prog.nodes}
    _, verdict = strip_outer_infinite(strings, outer_trace)
    assert verdict is None
    (l0_rec,), (outer_rec,) = l0_trace.reg_records, outer_trace.reg_records
    assert (l0_rec.label, outer_rec.label) == ("l0", "outer")
    assert l0_rec.equations == outer_rec.equations
    assert l0_rec.solution.values == outer_rec.solution.values
    assert l0_rec.solution.values == {0: 2, 1: 1, 2: 2, 3: 1}
    assert l0_rec.lcm == outer_rec.lcm == {(0, 1, 2): 2, (3,): 1}


def test_infinite_with_siblings_is_unsupported():
    prog = make_program({
        0: [A, For(INFINITE, (A,))],
        1: [For(INFINITE, (A,))],
    })
    with pytest.raises(UnsupportedProgram):
        check_l2(prog, Trace())


def test_related_sets_split_by_shared_symbols():
    pool = fpp({0: (For(2, (A,)),), 1: (For(2, (A,)),),
                2: (For(1, (Symbol("e", 2, 3),)),),
                3: (For(1, (Symbol("e", 2, 3),)),)})
    sets = {rs.nodes: rs.eligible for rs in related_sets(pool)}
    assert sets == {(0, 1): True, (2, 3): True}


def test_related_sets_trim_misaligned_run():
    # node 0 leads with "a b" but b's partner still sits behind a power
    pool = {0: For(1, (A, C)), 1: For(1, (A,))}
    (rs,) = related_sets(pool)
    assert rs.eligible and rs.nodes == (0, 1)
    assert rs.members[0].body == (A,)
    assert rs.members[0].leftover == (C,)


def test_related_sets_drop_blocked_power():
    pool = {0: For(3, (A, C)), 1: For(1, (A,))}
    sets = related_sets(pool)
    assert all(not rs.eligible for rs in sets)


def random_pool(rng):
    """A pool over up to five nodes whose entries use a few shared
    messages, each entry holding only messages it sends or receives."""
    n_nodes = rng.randint(2, 5)
    links = [Symbol(name, i, j) for name in "xy" for i in range(n_nodes)
             for j in range(n_nodes) if i != j]
    links = rng.sample(links, rng.randint(1, 2 * n_nodes))
    pool = {}
    for n in range(n_nodes):
        mine = [s for s in links if n in (s.src, s.dst)]
        if not mine or rng.random() < 0.1:
            continue
        items = _random_items(rng, 2, [6], mine)
        if items:
            pool[n] = For(rng.choice((1, 1, 2, 3)), tuple(items))
    return pool


def _partner(sym, n):
    return sym.dst if sym.src == n else sym.src


def test_related_sets_meet_their_spec_on_random_pools():
    seen = Counter()
    for seed in range(600):
        pool = random_pool(random.Random(seed))
        sets = related_sets(pool)
        firsts = [rs.nodes[0] for rs in sets]
        assert firsts == sorted(firsts)
        placed = [n for rs in sets for n in rs.nodes]
        assert len(placed) == len(set(placed)) and set(placed) <= set(pool)
        held = {}
        for rs in sets:
            assert list(rs.nodes) == sorted(rs.nodes)
            assert rs.eligible == bool(rs.members)
            assert not rs.members or set(rs.members) == set(rs.nodes)
            for n, m in rs.members.items():
                # a cut member is recounted, the others keep their counts
                assert m.counts == count_occurrences(m.body)
                held[n] = (set(flatten_items(m.body)), rs)
        for n, (syms, rs) in held.items():
            # every symbol is held by both endpoints, inside the same set
            for s in syms:
                p = _partner(s, n)
                assert p in held and s in held[p][0] and held[p][1] is rs
            m = rs.members[n]
            if pool[n].count == 1:
                assert m.body and m.count == 1
                assert (flatten_items(m.body) + m.leftover
                        == flatten_items(pool[n].body))
            else:
                assert (m.body, m.count, m.leftover) == (pool[n].body,
                                                       pool[n].count, ())
        waiting = {n: rs for rs in sets if not rs.eligible for n in rs.nodes}
        original = {n: set(flatten_items(p.body)) for n, p in pool.items()}
        for n, entry in pool.items():
            flat = flatten_items(entry.body)
            if n in held:
                m = held[n][1].members[n]
                if not m.leftover:
                    seen["whole"] += 1
                    continue
                seen["trimmed"] += 1
                blocker = [m.leftover[0]]
            else:
                seen["dropped"] += 1
                blocker = flat[:1] if entry.count == 1 else flat
            # restoring the next symbol (or the whole power) would leave
            # one whose partner does not hold it
            assert any(s not in held.get(_partner(s, n), ((),))[0]
                       for s in blocker)
            # a waiting set is a whole pool component with no member
            if n in waiting:
                for s in original[n]:
                    p = _partner(s, n)
                    if s in original.get(p, ()):
                        assert waiting.get(p) is waiting[n]
        seen["eligible"] += sum(rs.eligible for rs in sets)
        seen["waiting"] += sum(not rs.eligible for rs in sets)
    assert min(seen.values()) >= 20, seen


def test_related_sets_flatten_within_cap():
    # the run is cut before c, so its five events are flattened first
    pool = {0: For(1, (For(2, (A, A)), C)), 1: For(4, (A,))}
    with pytest.raises(SizeExceeded):
        related_sets(pool, cap=3)
    (rs,) = related_sets(pool, cap=5)
    assert rs.members[0].body == (A,) * 4
    assert rs.members[0].leftover == (C,)


def test_align_and_reduce_progress():
    strings = {0: (For(4, (A,)),), 1: (For(2, (A, A)),)}
    sets = related_sets(fpp(strings))
    kind, new = align_and_reduce(strings, sets, 10**5, SetRecord(()))
    assert kind == "progress"
    assert new == {0: (), 1: ()}


def test_align_and_reduce_noprogress_on_short_exponent():
    # per-round needs two iterations of node 0 but only one is available
    strings = {0: (For(1, (A,)), For(1, (B,))),
               1: (For(1, (A, A)),)}
    sets = related_sets(fpp(strings))
    kind, _ = align_and_reduce(strings, sets, 10**5, SetRecord(()))
    assert kind == "noprogress"


def test_check_l2_deadlock_on_crossed_loops():
    prog = make_program({
        0: [For(INFINITE, (A, B))],
        1: [For(INFINITE, (B, A))],
    })
    assert isinstance(check_l2(prog, Trace()), Deadlock)


def test_check_l2_free_on_staggered_nesting():
    prog = make_program({
        0: [For(INFINITE, (For(2, (A,)), B))],
        1: [For(INFINITE, (A, A, B))],
    })
    assert bool(check_l2(prog, Trace()))


# Three pairs in separate related sets; the middle pair's loop is crossed.
ROUND_TEXT = """\
node P0 { for 4 { send a to P1 } send b to P1 }
node P1 { for 2 { recv a from P0, recv a from P0 } recv b from P0 }
node P2 { for 2 { send c to P3, recv d from P3 } send c to P3 }
node P3 { for 2 { MIDDLE } recv c from P2 }
node P4 { for 3 { send e to P5 } send f to P5 }
node P5 { for 3 { recv e from P4 } recv f from P4 }
"""
ROUND_FREE = ROUND_TEXT.replace("MIDDLE", "recv c from P2, send d to P2")
ROUND_DEADLOCK = ROUND_TEXT.replace("MIDDLE", "send d to P2, recv c from P2")
# a pair whose loop bodies give conflicting ratios, c 1:2 against d 1:1
CONFLICT_PAIR = """\
node P{p} {{ for 2 {{ send c to P{q}, send d to P{q} }}
    send c to P{q} send c to P{q} }}
node P{q} {{ for 2 {{ recv c from P{p}, recv c from P{p},
    recv d from P{p} }} }}
"""
# a pair whose loops both start with a send
CROSSED_PAIR = """\
node P{p} {{ for 2 {{ send {x} to P{q}, recv {y} from P{q} }}
    send {x} to P{q} }}
node P{q} {{ for 2 {{ send {y} to P{p}, recv {x} from P{p} }}
    recv {x} from P{p} }}
"""
# a pair whose loop body unrolls to 31 events
LONG_PAIR = """\
node P{p} {{ for 2 {{ for 30 {{ send e to P{q} }} send f to P{q} }} }}
node P{q} {{ for 2 {{ for 30 {{ recv e from P{p} }} recv f from P{p} }} }}
"""


def _report(text, max_events=MAX_EVENTS):
    return analyze(validate(parse(text)), max_events)


def _counting(monkeypatch, name, calls, module=l2):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_pool_round_makes_one_solve_and_one_kernel_call(monkeypatch):
    calls = Counter()
    for name in ("fpp", "solve", "check_smodel"):
        _counting(monkeypatch, name, calls)
    rep = _report(ROUND_FREE)
    assert bool(rep.verdict) and rep.phase == "l2"
    records = rep.trace.set_records
    assert len(records) == 2
    assert all(len(rec.partition) == 3 and all(e for _, e in rec.partition)
               for rec in records)
    # two reducing rounds, then the empty pool
    assert calls == {"fpp": 3, "solve": 2, "check_smodel": 2}


def test_kernel_deadlock_in_earlier_set_beats_later_ratio_conflict():
    crossed = CROSSED_PAIR.format(p=0, q=1, x="a", y="b")
    rep = _report(crossed + CONFLICT_PAIR.format(p=2, q=3))
    assert rep.verdict == _report(crossed).verdict
    assert isinstance(rep.verdict.witness, MdgCycle)
    (rec,) = rep.trace.set_records
    assert rec.solutions == [((0, 1), {0: 1, 1: 1})] and rec.actions == []


def test_ratio_conflict_in_earlier_set_beats_later_kernel_deadlock():
    conflict = CONFLICT_PAIR.format(p=0, q=1)
    rep = _report(conflict + CROSSED_PAIR.format(p=2, q=3, x="a", y="b"))
    alone = _report(conflict).verdict
    assert isinstance(alone.witness, RatioInconsistency)
    assert rep.verdict == alone
    (rec,) = rep.trace.set_records
    assert rec.solutions == [] and rec.actions == []


def test_first_of_two_kernel_deadlocks_wins():
    first = CROSSED_PAIR.format(p=0, q=1, x="a", y="b")
    rep = _report(first + CROSSED_PAIR.format(p=2, q=3, x="e", y="f"))
    assert rep.verdict == _report(first).verdict
    (rec,) = rep.trace.set_records
    assert rec.solutions == [((0, 1), {0: 1, 1: 1})]


def test_first_deadlocked_set_of_a_round_is_named_by_its_witness(
        monkeypatch):
    # the second and third sets both deadlock: the round's one kernel call
    # decides it, and its witness is the second set's own
    calls = Counter()
    _counting(monkeypatch, "check_smodel", calls)
    free = "\n".join(ROUND_FREE.splitlines()[:2]) + "\n"
    text = (free + CROSSED_PAIR.format(p=2, q=3, x="c", y="d")
            + CROSSED_PAIR.format(p=4, q=5, x="e", y="f"))
    rep = _report(text)
    assert calls["check_smodel"] == 1
    strings = {n: normalize(b) for n, b in validate(parse(text)).nodes}
    sets = related_sets(fpp(strings))
    assert align_and_reduce(strings, sets[1:2], MAX_EVENTS,
                            SetRecord(())) == ("deadlock", rep.verdict)
    assert rep.verdict.witness == MdgCycle(
        ((Symbol("c", 2, 3), 0), (Symbol("d", 3, 2), 0)))
    (rec,) = rep.trace.set_records
    assert [nodes for nodes, _ in rec.partition] == [(0, 1), (2, 3), (4, 5)]
    assert rec.solutions == [((0, 1), {0: 1, 1: 2}), ((2, 3), {2: 1, 3: 1})]
    assert rec.actions == ["reduced (0, 1) by 2 round(s)"]


def test_set_past_the_event_cap_raises_only_when_reached():
    crossed = CROSSED_PAIR.format(p=0, q=1, x="a", y="b")
    rep = _report(crossed + LONG_PAIR.format(p=2, q=3), max_events=20)
    assert rep.verdict == _report(crossed).verdict
    with pytest.raises(SizeExceeded):
        _report(LONG_PAIR.format(p=0, q=1)
                + CROSSED_PAIR.format(p=2, q=3, x="a", y="b"), max_events=20)


# nested loops whose one pool round repeats member bodies of at most 32
# events 29 to 31 times
NESTED_ROUND = """\
node P0 {{ for {a} {{ for {b} {{ send a to P1 }} send x to P2 }} }}
node P1 {{ for {b} {{ for {a} {{ recv a from P0 }} send y to P3 }} }}
node P2 {{ for {a} {{ recv x from P0 }} }}
node P3 {{ for {b} {{ recv y from P1 }} }}
"""


def test_round_past_the_event_cap_raises():
    # the round's queues hold 31 * 30 + 29 * 32 + 31 + 29 events: the cap
    # bounds them all, not each member body
    text = NESTED_ROUND.format(a=31, b=29)
    assert bool(_report(text, max_events=1918).verdict)
    for cap in (1917, 100):
        with pytest.raises(SizeExceeded) as exc:
            _report(text, max_events=cap)
        assert str(exc.value) == f"unrolled size exceeds cap of {cap} events"


def test_mid_round_deadlock_records_sets_up_to_it():
    rep = _report(ROUND_DEADLOCK)
    assert rep.verdict.witness == MdgCycle(
        ((Symbol("c", 2, 3), 0), (Symbol("d", 3, 2), 0)))
    (rec,) = rep.trace.set_records
    assert rec.partition == (((0, 1), True), ((2, 3), True), ((4, 5), True))
    # the set after the deadlock is neither solved nor reduced
    assert rec.solutions == [((0, 1), {0: 1, 1: 2}), ((2, 3), {2: 1, 3: 1})]
    assert rec.actions == ["reduced (0, 1) by 2 round(s)"]


def test_trace_renders_strings_and_pools_only_when_read(monkeypatch):
    calls = Counter()
    _counting(monkeypatch, "render_items", calls, model)
    rep = _report(ROUND_FREE)
    assert calls["render_items"] == 0
    assert rep.trace.string_map[0] == "a^4 b"
    assert rep.trace.fpp_snapshots[1] == {0: "b", 1: "b", 2: "c", 3: "c",
                                          4: "f", 5: "f"}
    assert calls["render_items"] > 0


def test_one_live_deadlocked_set_makes_one_kernel_call(monkeypatch):
    # the round's whole check is the set's own check: it is not repeated
    calls = Counter()
    _counting(monkeypatch, "check_smodel", calls)
    rep = _report(CROSSED_PAIR.format(p=0, q=1, x="a", y="b"))
    assert calls["check_smodel"] == 1
    assert rep.verdict == Deadlock(MdgCycle(
        ((Symbol("a", 0, 1), 0), (Symbol("b", 1, 0), 0))))
    (rec,) = rep.trace.set_records
    assert rec.solutions == [((0, 1), {0: 1, 1: 1})] and rec.actions == []
    # over the cap there is no whole verdict to reuse: the set's own pass
    # raises
    with pytest.raises(SizeExceeded, match="cap of 20 events"):
        _report(LONG_PAIR.format(p=0, q=1), max_events=20)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the pool stops at FppStuck {0: (ab)^c, 1: a} although "
    "the literal fronts of P0 and P1 match; drop this marker once item 2 "
    "rotates the power"))
@pytest.mark.parametrize("c", [3, 10**9], ids=["3", "1e9"])
def test_shifted_exchange_is_free(c):
    # P1 runs P0's exchange shifted by one event.  The oracle finds no
    # deadlock (7 states at c = 3)
    prog = make_program({0: [For(c, (A, B))],
                         1: [A, For(c - 1, (B, A)), B]})
    assert not isinstance(analyze(prog).verdict, Deadlock)
