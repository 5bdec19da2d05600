"""Single-loop pipeline: view extraction, equations, consistency, slicing.

The equations and the Theorem-2 check are the shared ``reg.ratio_stage``,
run here on the counts ``check_l0`` gives it."""
from mpicheck import l0
from mpicheck.analyze import analyze
from mpicheck.model import (INFINITE, For, Symbol,
                            count_occurrences, make_program, unroll)
from mpicheck.l0 import as_l0_view, check_l0, slice_view
from mpicheck.reg import count_equations, ratio_stage
from mpicheck.trace import Trace
from mpicheck.verdicts import (Deadlock, RatioInconsistency, UnmatchedTotals)

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)


def loop_prog(c0, body0, c1, body1):
    return make_program({0: [For(c0, tuple(body0))],
                         1: [For(c1, tuple(body1))]})


def l0_view(*args):
    return as_l0_view(loop_prog(*args))


def l0_counts(view):
    return {n: count_occurrences(body) for n, (_, body) in view.loops.items()}


def l0_stage(view, times=None):
    if times is None:
        times = {n: count for n, (count, _) in view.loops.items()}
    return ratio_stage(view.order, l0_counts(view), times, "l0")


def test_view_requires_single_top_level_loop():
    assert as_l0_view(make_program({0: [A], 1: [A]})) is None
    nested = make_program({0: [For(2, (For(2, (A,)),))],
                           1: [For(4, (A,))]})
    assert as_l0_view(nested) is None
    view = as_l0_view(loop_prog(2, [A], 2, [A]))
    assert view.loops[0] == (2, (A,))


def test_empty_node_joins_view_with_unit_loop():
    prog = make_program({0: [For(2, (A,))], 1: [For(2, (A,))],
                         2: []})
    view = as_l0_view(prog)
    assert view.loops[2] == (1, ())


def test_build_reg_counts_both_endpoints():
    view = as_l0_view(loop_prog(3, [A, A], 2, [A, A,
                                                           A]))
    group, unmatched = count_equations(view.order, l0_counts(view))
    assert unmatched == []
    assert group.variables == (0, 1)
    (eq,) = group.equations
    assert (eq.i, eq.j, eq.a, eq.b) == (0, 1, 2, 3)
    assert eq.origin == A


def test_build_reg_reports_one_sided_symbols():
    view = as_l0_view(loop_prog(2, [A], 2, [B]))
    group, unmatched = count_equations(view.order, l0_counts(view))
    assert group.equations == ()
    assert unmatched == [(A, 1, 0), (B, 1, 0)]
    solution, verdict = l0_stage(view)
    assert solution is None
    assert verdict.witness == UnmatchedTotals(A, 1, 0)


def test_ratio_consistent_infinite_means_zero():
    view = as_l0_view(loop_prog(2, [A], 1, [A, A]))
    for times in ({0: INFINITE, 1: INFINITE}, {0: 2, 1: 1}):
        solution, verdict = l0_stage(view, times)
        assert verdict is None and solution.values == {0: 1, 1: 2}
    solution, verdict = l0_stage(view, {0: 2, 1: 2})
    assert solution is None
    assert isinstance(verdict.witness, RatioInconsistency)
    solution, verdict = l0_stage(view, {0: INFINITE, 1: 2})
    assert solution is None
    assert verdict.witness.detail == (
        "unequal products within component (0, 1): p0*t0=0, p1*t1=4")


def test_slice_replaces_counts_by_lcm_over_value():
    view = as_l0_view(loop_prog(INFINITE, [A], INFINITE,
                                [A, A]))
    solution, verdict = l0_stage(view)
    assert verdict is None
    sliced = slice_view(view, solution)
    assert sliced.body(0)[0].count == 2
    assert sliced.body(1)[0].count == 1
    queues = unroll(sliced)
    assert queues[0] == (A, A) and queues[1] == (A, A)


def test_check_l0_free_and_traced():
    trace = Trace()
    verdict = check_l0(l0_view(INFINITE, [A, B], INFINITE,
                               [A, B]), trace)
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
    assert bool(check_l0(as_l0_view(prog), trace))
    (rec,) = trace.reg_records
    assert rec.solution.values == {0: 2, 1: 3, 2: 1}
    assert rec.lcm == {(0, 1): 6, (2,): 1}
    assert rec.loop_times == {0: 3, 1: 2}


def test_check_l0_unmatched_symbol_deadlocks():
    verdict = check_l0(l0_view(2, [A], 2, [B]))
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, UnmatchedTotals)


def test_check_l0_ratio_conflict_deadlocks():
    # finite loop totals disagree with the per-iteration ratio
    verdict = check_l0(l0_view(2, [A], 3, [A]))
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, RatioInconsistency)


def test_check_l0_mixed_infinite_and_finite_deadlocks():
    verdict = check_l0(l0_view(INFINITE, [A], 2, [A]))
    assert isinstance(verdict, Deadlock)


def test_analyze_builds_the_view_once(monkeypatch):
    calls = []
    real = l0.as_l0_view

    def counting(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(l0, "as_l0_view", counting)
    report = analyze(loop_prog(INFINITE, [A, B], INFINITE,
                               [A, B]))
    assert report.phase == "l0" and bool(report.verdict)
    assert len(calls) == 1
