"""Program model: validation, counting, unrolling."""
import pytest

from mpicheck import model
from mpicheck.model import (INFINITE, DanglingEndpoint, For, InfiniteInside,
                            InfiniteLoop, InvalidLoopCount, MisplacedOperation,
                            NestedInfinite, SelfMessage, SizeExceeded, Symbol,
                            count_occurrences, is_infinite, make_program,
                            unroll, validate, weighted_size)

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


def test_infinite_singleton():
    assert is_infinite(INFINITE)
    assert not is_infinite(3)
    assert repr(INFINITE) == "inf"


def test_count_occurrences_weights_nested_loops():
    body = (A01, For(3, (A01, For(2, (B10,)))))
    counts = count_occurrences(body)
    assert counts[A01] == 1 + 3
    assert counts[B10] == 6


def test_count_occurrences_rejects_infinite():
    with pytest.raises(InfiniteInside):
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
