"""Program model: validation, counting, unrolling."""
import random
from collections import Counter

import pytest

from mpicheck import model
from mpicheck.analyze import analyze
from mpicheck.model import (INFINITE, MAX_EVENTS, DanglingEndpoint,
                            DuplicateNode, For, InfiniteLoop,
                            InvalidLoopCount, MisplacedOperation, ModelError,
                            NestedInfinite, Program, SelfMessage,
                            SizeExceeded, Symbol, build_queues,
                            count_occurrences, flatten_items, make_program,
                            unroll, validate, weighted_size)
from mpicheck.parser import parse

A01 = Symbol("a", 0, 1)
B10 = Symbol("b", 1, 0)


def two_node():
    return make_program({0: [A01, B10],
                         1: [A01, B10]})


def test_validate_accepts_well_formed():
    assert validate(two_node()) is not None


def test_validate_rejects_self_message():
    bad = make_program({0: [Symbol("a", 0, 0)]})
    with pytest.raises(SelfMessage):
        validate(bad)


def test_validate_rejects_dangling_endpoint():
    bad = make_program({0: [Symbol("a", 0, 7)]})
    with pytest.raises(DanglingEndpoint):
        validate(bad)


def test_validate_rejects_symbol_outside_its_endpoints():
    # a symbol's role follows from its node, so only a node that is neither
    # endpoint can misplace it
    bad = make_program({0: [A01], 1: [A01], 2: [A01]})
    with pytest.raises(MisplacedOperation, match="node 2, which is neither"):
        validate(bad)


def test_validate_rejects_nested_infinite():
    bad = make_program({0: [For(2, (For(INFINITE, (A01,)),))],
                        1: [A01]})
    with pytest.raises(NestedInfinite):
        validate(bad)


def test_validate_rejects_bad_counts():
    for count in (0, -1, "x"):
        bad = make_program({0: [For(count, (A01,))], 1: [A01]})
        with pytest.raises(InvalidLoopCount):
            validate(bad)
    empty = make_program({0: [For(2, ())], 1: []})
    with pytest.raises(InvalidLoopCount):
        validate(empty)


# (program, error class, message): programs the parser or a library caller
# can build and validate must reject
INVALID = [
    pytest.param(parse("node P0 { }\nnode P0 { }\n"), DuplicateNode,
                 "node 0 declared twice", id="node declared twice"),
    pytest.param(Program(()), ModelError,
                 "a program needs at least one node", id="no node"),
    pytest.param(Program(((0, ("x",)),)), ModelError,
                 "unknown statement 'x'", id="unknown statement"),
]


@pytest.mark.parametrize("program, cls, msg", INVALID)
def test_validate_rejects_golden(program, cls, msg):
    with pytest.raises(ModelError) as exc:
        validate(program)
    assert type(exc.value) is cls
    assert str(exc.value) == msg


def test_validate_bounds_events_per_outermost_iteration():
    # at most MAX_COUNT_DIGITS digits of events per node, a top-level
    # infinite loop counted once, so no product of one node's counts is
    # past what str() converts on Python 3.11
    limit = 10**model.MAX_COUNT_DIGITS
    half = 10**(model.MAX_COUNT_DIGITS // 2)
    within = [[For(limit - 1, (A01,))],
              [For(INFINITE, (For(limit - 1, (A01,)),))],
              [For(half, (For(half - 1, (A01,)),))],
              [For(limit - 2, (A01,)), A01]]
    past = [[For(limit, (A01,))],
            [For(INFINITE, (For(limit, (A01,)),))],
            [For(half, (For(half, (A01,)),))],
            [For(limit - 1, (A01,)), A01],
            [For(2, (For(limit // 2, (A01,)),))]]
    for body in within:
        validate(make_program({0: body, 1: [For(INFINITE, (A01,))]}))
    for body in past:
        prog = make_program({0: [For(INFINITE, (A01,))], 1: body})
        with pytest.raises(SizeExceeded, match="events per outermost "
                           "iteration of node 1 have more than 4300 digits"):
            validate(prog)


def test_analyze_refuses_a_count_past_the_digit_bound():
    prog = make_program({0: [For(10**4999, (A01,))], 1: [A01]})
    with pytest.raises(ModelError, match="node 0"):
        analyze(prog)


def test_infinite_singleton():
    assert type(INFINITE)() is INFINITE
    assert repr(INFINITE) == "inf"


def test_count_occurrences_weights_nested_loops():
    body = (A01, For(3, (A01, For(2, (B10,)))))
    counts = count_occurrences(body)
    assert counts[A01] == 1 + 3
    assert counts[B10] == 6


def test_count_occurrences_rejects_infinite():
    with pytest.raises(InfiniteLoop, match="inside a counted scope"):
        count_occurrences((For(INFINITE, (A01,)),))


def test_weighted_size():
    body = (A01, For(4, (B10, B10)))
    assert weighted_size(body) == 9
    with pytest.raises(InfiniteLoop):
        weighted_size((For(INFINITE, (A01,)),))


def test_unroll_flattens_in_order():
    prog = make_program({0: [For(2, (A01,)), B10],
                         1: [A01, A01, B10]})
    queues = unroll(prog)
    assert queues[0] == (A01, A01, B10)
    assert queues[1] == (A01, A01, B10)


def test_unroll_respects_cap():
    prog = make_program({0: [For(100, (A01,))], 1: []})
    with pytest.raises(SizeExceeded):
        unroll(prog, max_events=10)


def test_names_default_and_custom():
    prog = two_node()
    assert prog.name_of(0) == "P0"
    named = make_program({0: []}, names={0: "root"})
    assert named.name_of(0) == "root"


def _counting_check(monkeypatch):
    calls = []
    original = model._check

    def counting(program):
        calls.append(program)
        return original(program)

    monkeypatch.setattr(model, "_check", counting)
    return calls


def test_validate_walks_a_program_once(monkeypatch):
    calls = _counting_check(monkeypatch)
    prog = two_node()
    assert validate(prog) is prog
    assert validate(prog) is prog
    assert len(calls) == 1
    validate(two_node())                 # an equal but new Program walks
    assert len(calls) == 2


def test_invalid_program_raises_on_every_validate(monkeypatch):
    calls = _counting_check(monkeypatch)
    bad = make_program({0: [Symbol("a", 0, 0)]})
    for _ in range(2):
        with pytest.raises(SelfMessage):
            validate(bad)
    assert len(calls) == 2


# The counting and expansion kernels as they were before they worked on
# runs of Symbols: one step per item, one event appended at a time.
def reference_count_occurrences(body, times=1, out=None):
    if out is None:
        out = Counter()
    for st in body:
        if isinstance(st, For):
            if st.count is INFINITE:
                raise InfiniteLoop("infinite loop inside a counted scope")
            reference_count_occurrences(st.body, times * st.count, out)
        else:
            out[st] += times
    return out


def reference_flatten_items(body):
    out = []

    def go(items):
        for st in items:
            if isinstance(st, For):
                if st.count is INFINITE:
                    raise InfiniteLoop("cannot flatten an infinite loop")
                for _ in range(st.count):
                    go(st.body)
            else:
                out.append(st)

    go(body)
    return tuple(out)


SYMBOLS = (A01, B10, Symbol("c", 0, 1), Symbol("d", 1, 2))


def random_body(rng, depth, infinite):
    """Runs of Symbols and nested loops, some loops over a flat run; with
    `infinite`, some loop counts are infinite, at any depth."""
    body = []
    for _ in range(rng.randint(0 if depth else 1, 4)):
        if depth < 3 and rng.random() < 0.4:
            count = (INFINITE if infinite and rng.random() < 0.2
                     else rng.randint(1, 4))
            body.append(For(count, tuple(random_body(rng, depth + 1,
                                                     infinite))))
        else:
            body.extend(rng.choices(SYMBOLS, k=rng.randint(1, 3)))
    return tuple(body)


def outcome(fn, *args):
    """The result of a call, or [type, message] of what it raised: a list,
    which no result of these kernels is."""
    try:
        return fn(*args)
    except ModelError as exc:
        return [type(exc), str(exc)]


def test_counting_and_expansion_match_reference():
    rng = random.Random(12)
    kinds = Counter()
    for k in range(3000):
        body = random_body(rng, 0, infinite=k % 3 == 0)
        kinds["flat loop"] += any(
            isinstance(st, For) and all(isinstance(x, Symbol) for x in st.body)
            for st in body)
        # the last counts into a Counter that already holds some keys
        for times, held in ((1, None), (3, None),
                            (2, {SYMBOLS[3]: 2, SYMBOLS[1]: 1})):
            got = outcome(count_occurrences, body, times,
                          held and Counter(held))
            want = outcome(reference_count_occurrences, body, times,
                           held and Counter(held))
            assert got == want
            if isinstance(got, dict):    # same keys in the same order
                assert list(got.items()) == list(want.items())
        flat = outcome(reference_flatten_items, body)
        if isinstance(flat, tuple):
            kinds["finite"] += 1
            assert weighted_size(body) == len(flat)
        else:
            kinds["infinite"] += 1
            assert outcome(weighted_size, body)[0] is InfiniteLoop
        assert outcome(flatten_items, body) == flat
    assert kinds["flat loop"] >= 500
    assert kinds["finite"] >= 1500 and kinds["infinite"] >= 300


def test_unroll_matches_reference_at_the_cap():
    rng = random.Random(13)
    for _ in range(500):
        bodies = {n: random_body(rng, 0, infinite=False) for n in range(3)}
        prog = make_program(bodies)
        want = {n: reference_flatten_items(b) for n, b in bodies.items()}
        size = sum(map(len, want.values()))
        assert unroll(prog, max_events=size) == want
        with pytest.raises(SizeExceeded) as exc:
            unroll(prog, max_events=size - 1)
        assert str(exc.value) == \
            f"unrolled size exceeds cap of {size - 1} events"


def test_build_queues_matches_reference_at_the_cap():
    rng = random.Random(14)
    loop_free = 0
    for _ in range(500):
        parts = [(n, random_body(rng, 0, infinite=False), rng.randint(1, 3))
                 for n in (2, 0, 1)]
        loop_free += sum(For not in map(type, b) for _, b, _ in parts)
        want = [(n, reference_flatten_items(b) * t) for n, b, t in parts]
        size = sum(len(q) for _, q in want)
        assert list(build_queues(parts, size).items()) == want
        with pytest.raises(SizeExceeded) as exc:
            build_queues(parts, size - 1)
        assert str(exc.value) == \
            f"unrolled size exceeds cap of {size - 1} events"
    assert loop_free >= 200


def test_build_queues_sizes_before_it_builds():
    body = (A01, B10)
    assert build_queues([(0, body, 1)], MAX_EVENTS)[0] is body   # not copied
    # 10^12 events would not fit in memory: the size alone refuses them
    with pytest.raises(SizeExceeded):
        build_queues([(0, (For(10**6, (A01,)),), 10**6), (1, body, 1)],
                     MAX_EVENTS)
    with pytest.raises(InfiniteLoop):
        build_queues([(0, (For(INFINITE, (A01,)),), 1)], MAX_EVENTS)
