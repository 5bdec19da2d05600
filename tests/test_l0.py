"""Single-loop pipeline: routing, equations, consistency, slicing.

The equations and the Theorem-2 check are the shared ``reg.ratio_stage``,
run here on the counts ``check_l0`` gives it."""
import os
import sys

import pytest

import mpicheck.model
from corpus import corpus
from test_acceptance import CORPUS_SEED, CORPUS_SIZE
from mpicheck.analyze import analyze
from mpicheck.model import (INFINITE, MAX_EVENTS, For, SizeExceeded, Symbol,
                            count_occurrences, make_program, unroll,
                            validate)
from mpicheck import l0
from mpicheck.l0 import check_l0, is_single_loop
from mpicheck.parser import parse
from mpicheck.reg import count_equations, ratio_stage
from mpicheck.trace import Trace
from mpicheck.verdicts import (DEADLOCK_FREE, Deadlock, RatioInconsistency,
                               UnmatchedTotals)

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)


def loop_prog(c0, body0, c1, body1):
    return make_program({0: [For(c0, tuple(body0))],
                         1: [For(c1, tuple(body1))]})


def l0_counts(prog):
    return {n: count_occurrences(body[0].body if body else ())
            for n, body in prog.nodes}


def l0_stage(prog, times=None):
    """An empty node counts nothing and has t = 1, as in ``check_l0``."""
    if times is None:
        times = {n: body[0].count if body else 1 for n, body in prog.nodes}
    return ratio_stage(tuple(n for n, _ in prog.nodes), l0_counts(prog),
                       times, "l0", Trace())


def test_build_reg_counts_both_endpoints():
    prog = loop_prog(3, [A, A], 2, [A, A, A])
    group, unmatched = count_equations((0, 1), l0_counts(prog))
    assert unmatched == []
    assert group.variables == (0, 1)
    (eq,) = group.equations
    assert (eq.i, eq.j, eq.a, eq.b) == (0, 1, 2, 3)
    assert eq.origin == A


def test_build_reg_reports_one_sided_symbols():
    prog = loop_prog(2, [A], 2, [B])
    group, unmatched = count_equations((0, 1), l0_counts(prog))
    assert group.equations == ()
    assert unmatched == [(A, 1, 0), (B, 1, 0)]
    verdict = l0_stage(prog)
    assert isinstance(verdict, Deadlock)
    assert verdict.witness == UnmatchedTotals(A, 1, 0)


def test_ratio_consistent_infinite_means_zero():
    prog = loop_prog(2, [A], 1, [A, A])
    for times in ({0: INFINITE, 1: INFINITE}, {0: 2, 1: 1}):
        solution = l0_stage(prog, times)
        assert not isinstance(solution, Deadlock)
        assert solution.values == {0: 1, 1: 2}
    verdict = l0_stage(prog, {0: 2, 1: 2})
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, RatioInconsistency)
    verdict = l0_stage(prog, {0: INFINITE, 1: 2})
    assert isinstance(verdict, Deadlock)
    assert verdict.witness.detail == (
        "unequal products within component (0, 1): p0*t0=0, p1*t1=4")


@pytest.fixture
def l0_slice(monkeypatch):
    """``check_l0`` as a function of (program, max_events) that returns the
    queues it hands to the kernel, as (node, queue) pairs in order, or the
    message of the SizeExceeded it raises."""
    seen = []
    monkeypatch.setattr(l0, "check_smodel", lambda queues: (
        seen.append(list(queues.items())) or DEADLOCK_FREE))

    def run(program, max_events=MAX_EVENTS):
        seen.clear()
        try:
            check_l0(program, Trace(), max_events)
        except SizeExceeded as exc:
            return str(exc)
        (queues,) = seen
        return queues
    return run


def test_slice_replaces_counts_by_lcm_over_value(l0_slice):
    prog = loop_prog(INFINITE, [A], INFINITE, [A, A])
    solution = l0_stage(prog)
    assert not isinstance(solution, Deadlock)
    assert (solution.times[0], solution.times[1]) == (2, 1)
    assert l0_slice(prog) == [(0, (A, A)), (1, (A, A))]


def reference_slice(program, solution, max_events):
    """The slice as a program whose loop counts are LCM / p_n, unrolled:
    how the single-loop engine once built its queues."""
    return unroll(make_program({n: [For(solution.times[n], body[0].body)]
                                if body else [] for n, body in program.nodes}),
                  max_events)


def single_loop_programs():
    """The single-loop programs of the acceptance corpus and of the ring
    benchmark's seed-1 and seed-2 sets (checked and explored)."""
    progs = list(corpus(CORPUS_SEED, CORPUS_SIZE))
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    for seed in (1, 2):
        for oracle in (False, True):
            progs += [validate(parse(case.text)) for case in
                      workloads.program_set("single-loop-ring", seed, oracle)]
    return [p for p in progs if is_single_loop(p)]


def _reference_outcome(program, solution, cap):
    """The reference queues as (node, queue) pairs in order, or the error
    message."""
    try:
        return list(reference_slice(program, solution, cap).items())
    except SizeExceeded as exc:
        return str(exc)


def test_slice_queues_equal_the_unrolled_slice_program(l0_slice):
    sliced = 0
    for prog in single_loop_programs():
        solution = l0_stage(prog)
        if isinstance(solution, Deadlock):
            continue
        size = sum(map(len, reference_slice(prog, solution,
                                            float("inf")).values()))
        # at the slice's size both give its queues; one below, both raise
        # with the same message
        for cap, fits in ((size, True), (size - 1, False)):
            want = _reference_outcome(prog, solution, cap)
            assert isinstance(want, list) == fits
            assert l0_slice(prog, cap) == want
        sliced += 1
    assert sliced >= 800


def test_l0_route_unrolls_nothing(monkeypatch):
    calls = []
    original = mpicheck.model.unroll

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module's binding of unroll, as modules import it by name
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mpicheck" and \
                getattr(module, "unroll", None) is original:
            monkeypatch.setattr(module, "unroll", counted)
    prog = make_program({0: [For(INFINITE, (A, B))],
                         1: [For(INFINITE, (A, B))], 2: []})
    report = analyze(prog)
    assert report.phase == "l0" and bool(report.verdict)
    assert calls == []
    # the counter does see the loop-free route's unroll
    assert analyze(make_program({0: [A], 1: [A]})).phase == "smodel"
    assert len(calls) == 1


def test_check_l0_free_and_traced():
    trace = Trace()
    verdict = check_l0(loop_prog(INFINITE, [A, B], INFINITE, [A, B]), trace,
                       MAX_EVENTS)
    assert bool(verdict)
    (rec,) = trace.reg_records
    assert rec.label == "l0"
    assert rec.lcm == {(0, 1): 1}
    assert rec.loop_times == {0: 1, 1: 1}


def test_check_l0_slices_only_non_empty_nodes():
    trace = Trace()
    prog = make_program({0: [For(INFINITE, (A, A))],
                         1: [For(INFINITE, (A, A, A))],
                         2: []})
    assert bool(check_l0(prog, trace, MAX_EVENTS))
    (rec,) = trace.reg_records
    assert rec.solution.values == {0: 2, 1: 3, 2: 1}
    assert rec.lcm == {(0, 1): 6, (2,): 1}
    assert rec.loop_times == {0: 3, 1: 2}


def test_check_l0_unmatched_symbol_deadlocks():
    verdict = check_l0(loop_prog(2, [A], 2, [B]), Trace(), MAX_EVENTS)
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, UnmatchedTotals)


def test_check_l0_ratio_conflict_deadlocks():
    # finite loop totals disagree with the per-iteration ratio
    verdict = check_l0(loop_prog(2, [A], 3, [A]), Trace(), MAX_EVENTS)
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, RatioInconsistency)


def test_check_l0_mixed_infinite_and_finite_deadlocks():
    verdict = check_l0(loop_prog(INFINITE, [A], 2, [A]), Trace(),
                       MAX_EVENTS)
    assert isinstance(verdict, Deadlock)



@pytest.mark.parametrize("bodies, phase", [
    ({0: [A, B], 1: [A, B]}, "smodel"),
    ({0: [For(2, (A,))], 1: [For(2, (A,))], 2: []}, "l0"),
    ({0: [For(INFINITE, (A, B))], 1: [For(INFINITE, (A, B))]}, "l0"),
    # a bare message beside a loop is not the single-loop shape
    ({0: [A, For(2, (A,))], 1: [For(3, (A,))]}, "l2"),
    ({0: [For(2, (For(3, (A,)),))], 1: [For(6, (A,))]}, "l2"),
], ids=["loop-free", "finite-loops-and-empty-node", "inf-loops",
        "message-beside-loop", "nested-loop"])
def test_analyze_routes_on_the_top_level_shape(bodies, phase):
    assert analyze(make_program(bodies)).phase == phase
