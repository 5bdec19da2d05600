"""Single-loop pipeline: routing, equations, consistency, slicing.

The equations and the Theorem-2 check are the shared ``reg.ratio_stage``,
run here on the counts ``check_l0`` gives it."""
import pytest

from mpicheck.analyze import analyze
from mpicheck.model import (INFINITE, For, Symbol,
                            count_occurrences, make_program, unroll)
from mpicheck.l0 import check_l0, slice_view
from mpicheck.reg import count_equations, ratio_stage
from mpicheck.trace import Trace
from mpicheck.verdicts import (Deadlock, RatioInconsistency, UnmatchedTotals)

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)


def loop_prog(c0, body0, c1, body1):
    return make_program({0: [For(c0, tuple(body0))],
                         1: [For(c1, tuple(body1))]})


def l0_counts(prog):
    return {n: count_occurrences(body[0].body) for n, body in prog.nodes}


def l0_stage(prog, times=None):
    if times is None:
        times = {n: body[0].count for n, body in prog.nodes}
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
    solution, verdict = l0_stage(prog)
    assert solution is None
    assert verdict.witness == UnmatchedTotals(A, 1, 0)


def test_ratio_consistent_infinite_means_zero():
    prog = loop_prog(2, [A], 1, [A, A])
    for times in ({0: INFINITE, 1: INFINITE}, {0: 2, 1: 1}):
        solution, verdict = l0_stage(prog, times)
        assert verdict is None and solution.values == {0: 1, 1: 2}
    solution, verdict = l0_stage(prog, {0: 2, 1: 2})
    assert solution is None
    assert isinstance(verdict.witness, RatioInconsistency)
    solution, verdict = l0_stage(prog, {0: INFINITE, 1: 2})
    assert solution is None
    assert verdict.witness.detail == (
        "unequal products within component (0, 1): p0*t0=0, p1*t1=4")


def test_slice_replaces_counts_by_lcm_over_value():
    prog = loop_prog(INFINITE, [A], INFINITE, [A, A])
    solution, verdict = l0_stage(prog)
    assert verdict is None
    sliced = slice_view(prog, solution)
    (_, body0), (_, body1) = sliced.nodes
    assert body0[0].count == 2
    assert body1[0].count == 1
    queues = unroll(sliced)
    assert queues[0] == (A, A) and queues[1] == (A, A)


def test_check_l0_free_and_traced():
    trace = Trace()
    verdict = check_l0(loop_prog(INFINITE, [A, B], INFINITE, [A, B]), trace)
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
    assert bool(check_l0(prog, trace))
    (rec,) = trace.reg_records
    assert rec.solution.values == {0: 2, 1: 3, 2: 1}
    assert rec.lcm == {(0, 1): 6, (2,): 1}
    assert rec.loop_times == {0: 3, 1: 2}


def test_check_l0_unmatched_symbol_deadlocks():
    verdict = check_l0(loop_prog(2, [A], 2, [B]), Trace())
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, UnmatchedTotals)


def test_check_l0_ratio_conflict_deadlocks():
    # finite loop totals disagree with the per-iteration ratio
    verdict = check_l0(loop_prog(2, [A], 3, [A]), Trace())
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, RatioInconsistency)


def test_check_l0_mixed_infinite_and_finite_deadlocks():
    verdict = check_l0(loop_prog(INFINITE, [A], 2, [A]), Trace())
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
