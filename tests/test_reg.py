"""Ratio equation groups: solving, components, conflict witnesses, and the
ratio stage both loop engines share."""
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from mpicheck import reg
from mpicheck.model import INFINITE, MAX_COUNT_DIGITS, SizeExceeded, Symbol
from mpicheck.reg import (RatioEquation, RatioEquationGroup, RatioSolution,
                          count_equations, ratio_stage, solve)
from mpicheck.trace import Trace
from mpicheck.verdicts import Deadlock, RatioInconsistency, UnmatchedTotals

A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
C = Symbol("c", 1, 2)
D = Symbol("d", 3, 4)


def equation(i, j, a, b) -> RatioEquation:
    """p_i : p_j = a : b, as a message m from p_i to p_j produces it."""
    return RatioEquation(i, j, a, b, Symbol("m", i, j))


def oriented(i, j, a, b, origin) -> RatioEquation:
    """The reference orientation: the equation with the node whose id
    string is smaller on the left, the conventional way to write a
    proportion between two nodes."""
    if str(j) < str(i):
        return RatioEquation(j, i, b, a, origin)
    return RatioEquation(i, j, a, b, origin)


def test_single_equation():
    group = RatioEquationGroup((0, 1), (equation(0, 1, 1, 2),))
    sol = solve(group)
    assert isinstance(sol, RatioSolution)
    assert sol.values == {0: 1, 1: 2}
    assert sol.components == ((0, 1),)


def test_ratios_are_reduced_per_component():
    group = RatioEquationGroup((0, 1), (equation(0, 1, 4, 6),))
    sol = solve(group)
    assert sol.values == {0: 2, 1: 3}


def test_isolated_variable_gets_own_component():
    group = RatioEquationGroup((0, 1, 2), (equation(0, 1, 1, 1),))
    sol = solve(group)
    assert sol.components == ((0, 1), (2,))
    assert sol.values[2] == 1
    assert sol.lcm == {(0, 1): 1, (2,): 1}


def test_transitive_chain():
    group = RatioEquationGroup((0, 1, 2), (
        equation(0, 1, 1, 2),
        equation(1, 2, 3, 1),
    ))
    sol = solve(group)
    # p0:p1 = 1:2 and p1:p2 = 3:1 => p0:p1:p2 = 3:6:2
    assert sol.values == {0: 3, 1: 6, 2: 2}


def test_consistent_duplicate_is_fine():
    group = RatioEquationGroup((0, 1), (
        equation(0, 1, 1, 2),
        equation(0, 1, 2, 4),
    ))
    assert isinstance(solve(group), RatioSolution)


def test_inconsistent_yields_witness_chain():
    eqs = (
        equation(0, 1, 1, 2),
        equation(1, 2, 1, 1),
        equation(0, 2, 1, 1),   # conflicts: implies p0:p2 = 1:2
    )
    out = solve(RatioEquationGroup((0, 1, 2), eqs))
    assert isinstance(out, RatioInconsistency)
    assert out.equations[-1] == eqs[2]
    # the chain joins the conflicting equation's endpoints
    chain_vars = {v for eq in out.equations for v in (eq.i, eq.j)}
    assert {0, 2} <= chain_vars


@pytest.mark.parametrize("eqs, detail", [
    (((0, 1, 2, 1), (0, 1, 6, 2)),
     "through p0 and p1 is 2, equation demands 3"),
    (((0, 1, 1, 2), (1, 2, 1, 1), (0, 2, 1, 1)),
     "through p0 and p2 is 1/2, equation demands 1"),
    (((0, 1, 2, 3), (1, 2, 2, 1), (0, 2, 6, 4)),
     "through p0 and p2 is 4/3, equation demands 3/2"),
])
def test_conflict_detail_prints_ratios_in_lowest_terms(eqs, detail):
    group = RatioEquationGroup((0, 1, 2),
                               tuple(equation(*e) for e in eqs))
    assert solve(group).detail == "ratio around the cycle " + detail


def test_conflicting_ratio_too_long_to_print_is_a_size_error():
    x = 10**2200 + 1
    group = RatioEquationGroup((0, 1, 2), (
        equation(0, 1, x, 1), equation(1, 2, x, 1),
        equation(0, 2, 1, 1)))
    with pytest.raises(SizeExceeded, match="a conflicting ratio has more "
                       f"than {MAX_COUNT_DIGITS} digits"):
        solve(group)


def test_oriented_puts_smaller_variable_first():
    eq = oriented(2, 1, 3, 5, B)
    assert eq == RatioEquation(1, 2, 5, 3, B)
    assert oriented(0, 1, 3, 5, A) == RatioEquation(0, 1, 3, 5, A)


def _derived_group(rng, n_vars, n_eqs, perturb=False):
    """Equations derived from hidden positive values, optionally with one
    equation knocked off so the group becomes inconsistent."""
    values = [rng.randint(1, 12) for _ in range(n_vars)]
    eqs = []
    for _ in range(n_eqs):
        i, j = rng.sample(range(n_vars), 2)
        k = rng.randint(1, 4)
        eqs.append(equation(i, j, values[i] * k, values[j] * k))
    if perturb and eqs:
        t = rng.randrange(len(eqs))
        e = eqs[t]
        eqs[t] = equation(e.i, e.j, e.a * 2 + 1, e.b)
    return RatioEquationGroup(tuple(range(n_vars)), tuple(eqs)), values


@pytest.mark.parametrize("seed", range(200))
def test_solution_matches_hidden_values(seed):
    rng = random.Random(seed)
    group, values = _derived_group(rng, rng.randint(2, 8), rng.randint(1, 12))
    sol = solve(group)
    assert isinstance(sol, RatioSolution)
    for comp in sol.components:
        # solved values proportional to the hidden ones within the component
        ratios = {Fraction(sol.values[v], values[v]) for v in comp}
        assert len(ratios) == 1
        assert gcd(*(sol.values[v] for v in comp)) == 1


@pytest.mark.parametrize("seed", range(100))
def test_perturbed_cycle_detected(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    # a closed cycle of consistent equations plus one perturbed edge
    values = [rng.randint(1, 9) for _ in range(n)]
    eqs = [equation(i, (i + 1) % n, values[i], values[(i + 1) % n])
           for i in range(n)]
    t = rng.randrange(n)
    e = eqs[t]
    eqs[t] = equation(e.i, e.j, e.a * 3, e.b * 2)
    out = solve(RatioEquationGroup(tuple(range(n)), tuple(eqs)))
    assert isinstance(out, RatioInconsistency)


def test_count_equations_one_per_symbol_in_first_appearance_order():
    counts = {0: Counter({A: 2, B: 1}), 1: Counter({C: 1, B: 1, A: 4}),
              2: Counter({C: 3})}
    group, unmatched = count_equations((0, 1, 2), counts)
    assert unmatched == []
    assert group.variables == (0, 1, 2)
    assert [str(e) for e in group.equations] == [
        "p0 : p1 = 2 : 4  [a:0->1]",
        "p0 : p1 = 1 : 1  [b:1->0]",
        "p1 : p2 = 1 : 3  [c:1->2]",
    ]


def test_count_equations_orient_as_oriented_across_digit_lengths():
    # string order and number order disagree once ids cross a digit length:
    # "10" < "100" < "11" < "9"; equations keep the string order of
    # ``oriented``, and so do a solution's components and their variables
    ids = (9, 10, 11, 100, 1)
    rng = random.Random(3)
    counts = {n: {} for n in ids}
    for k, (src, dst) in enumerate((s, d) for s in ids for d in ids
                                   if s != d):
        sym = Symbol(f"m{k}", src, dst)
        counts[src][sym] = rng.randint(1, 3)
        counts[dst][sym] = counts[src][sym] * (1 + (src < dst))
    for order in (ids, ids[::-1], (100, 9, 11, 1, 10)):
        group, unmatched = count_equations(order, counts)
        assert unmatched == []
        syms = dict.fromkeys(s for n in order for s in counts[n])
        want = tuple(oriented(s.src, s.dst, counts[s.src][s],
                              counts[s.dst][s], s) for s in syms)
        assert group.equations == want
        assert all(type(eq) is RatioEquation for eq in group.equations)
    # node 9's sends come first, each with node 9 on the right
    group, _ = count_equations(ids, counts)
    assert [(eq.i, eq.j) for eq in group.equations[:4]] == [
        (10, 9), (11, 9), (100, 9), (1, 9)]
    a = Symbol("a", 9, 100)
    d = Symbol("d", 11, 10)
    e = Symbol("e", 90, 8)
    pairs = {9: {a: 1}, 100: {a: 1}, 10: {d: 2}, 11: {d: 1}, 8: {e: 1},
             90: {e: 1}}
    group, _ = count_equations((9, 100, 10, 11, 8, 90), pairs)
    assert [str(eq) for eq in group.equations] == [
        "p100 : p9 = 1 : 1  [a:9->100]", "p10 : p11 = 2 : 1  [d:11->10]",
        "p8 : p90 = 1 : 1  [e:90->8]"]
    assert solve(group).components == ((10, 11), (100, 9), (8, 90))


def _linked(counts):
    """The nodes of ``counts`` linked by every symbol both endpoints count,
    found breadth-first: sorted tuples in ascending order of their
    smallest node."""
    seen = set()
    out = []
    for n in sorted(counts):
        if n in seen:
            continue
        seen.add(n)
        comp = [n]
        for v in comp:
            for s in counts[v]:
                u = s.dst if s.src == v else s.src
                if u not in seen and s in counts.get(u, ()):
                    seen.add(u)
                    comp.append(u)
        out.append(tuple(sorted(comp)))
    return out


def test_solve_counts_equals_solve_of_the_equations_or_gives_up():
    # from per-node counts over hidden values, some bumped to conflict and
    # some symbols counted at one endpoint only, solve_counts gives the
    # components a breadth-first walk over the symbols both endpoints count
    # gives, each with the values solve gives its equations, or None
    # exactly when they conflict, and says whether a symbol is lone
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        nodes = rng.sample(range(12), rng.randint(2, 7))
        hidden = {v: rng.randint(1, 6) for v in nodes}
        counts = {v: {} for v in nodes}
        for k in range(rng.randint(1, 2 * len(nodes))):
            src, dst = rng.sample(nodes, 2)
            sym = Symbol(f"m{k}", src, dst)
            m = rng.randint(1, 3)
            counts[src][sym] = m * hidden[src]
            counts[dst][sym] = m * hidden[dst]
        syms = [s for v, c in counts.items() for s in c if s.src == v]
        for sym in rng.sample(syms, min(len(syms), rng.choice((0, 0, 1, 2)))):
            counts[sym.src][sym] += 1
        if rng.random() < 0.3:
            sym = rng.choice(syms)
            del counts[rng.choice((sym.src, sym.dst))][sym]
        if rng.random() < 0.1:      # a partner outside the counts
            counts[nodes[0]][Symbol("z", nodes[0], 12)] = 1
        padded = {v: counts.get(v, {}) for v in range(13)}
        lone = any(s not in counts.get(s.dst if s.src == v else s.src, ())
                   for v, c in counts.items() for s in c)

        comps, got_lone, values = reg.solve_counts(counts)
        assert comps == _linked(counts)
        assert got_lone == lone
        assert len(values) == len(comps)
        for comp, got in zip(comps, values):
            want = solve(count_equations(comp, padded)[0])
            if isinstance(want, RatioInconsistency):
                assert got is None
                seen["conflict"] += 1
            else:
                assert list(got.items()) == [(v, want.values[v])
                                             for v in comp]
                seen["solved"] += 1
        seen["lone" if lone else "paired"] += 1
    assert min(seen.values()) >= 50, seen


def test_ratio_stage_slices_to_lcm_over_value():
    counts = {0: Counter({A: 2}), 1: Counter({A: 3, C: 2}), 2: Counter({C: 1}),
              3: Counter({D: 1}), 4: Counter({D: 1})}
    times = dict.fromkeys(counts, INFINITE)
    trace = Trace()
    solution = ratio_stage(tuple(counts), counts, times, "x", trace)
    assert not isinstance(solution, Deadlock)
    assert solution.values == {0: 4, 1: 6, 2: 3, 3: 1, 4: 1}
    assert solution.lcm == {(0, 1, 2): 12, (3, 4): 1}
    assert {n: solution.times[n] for n in counts} == {
        0: 3, 1: 2, 2: 4, 3: 1, 4: 1}
    # every symbol balances in the slice
    for sym in (A, C, D):
        assert (counts[sym.src][sym] * solution.times[sym.src]
                == counts[sym.dst][sym] * solution.times[sym.dst])
    (rec,) = trace.reg_records
    assert rec.label == "x" and rec.solution is solution
    assert rec.lcm == solution.lcm and rec.loop_times is None


def test_ratio_stage_unmatched_totals_record_nothing():
    counts = {0: Counter({A: 1}), 1: Counter()}
    trace = Trace()
    verdict = ratio_stage((0, 1), counts, {0: 1, 1: 1}, "x", trace)
    assert isinstance(verdict, Deadlock)
    assert verdict.witness == UnmatchedTotals(A, 1, 0)
    assert trace.reg_records == []


def test_ratio_stage_solver_conflict():
    counts = {0: Counter({A: 1, B: 2}), 1: Counter({A: 1, B: 1})}
    trace = Trace()
    verdict = ratio_stage((0, 1), counts, {0: 1, 1: 1}, "x", trace)
    assert isinstance(verdict, Deadlock)
    assert isinstance(verdict.witness, RatioInconsistency)
    assert len(verdict.witness.equations) == 2
    (rec,) = trace.reg_records
    assert isinstance(rec.solution, RatioInconsistency) and rec.lcm is None


def test_ratio_stage_theorem_2_conflict():
    # solvable counts, but the finite loop totals disagree: recorded
    # without LCMs (infinite counts are covered in test_l0)
    counts = {0: Counter({A: 1}), 1: Counter({A: 2}), 2: Counter()}
    trace = Trace()
    verdict = ratio_stage((0, 1, 2), counts, {0: 1, 1: 1, 2: 5}, "x", trace)
    assert isinstance(verdict, Deadlock)
    assert verdict.witness == RatioInconsistency(
        "unequal products within component (0, 1): p0*t0=1, p1*t1=2")
    (rec,) = trace.reg_records
    assert rec.solution.values == {0: 1, 1: 2, 2: 1} and rec.lcm is None


def test_ratio_stage_asserts_a_balanced_slice(monkeypatch):
    counts = {0: Counter({A: 1}), 1: Counter({A: 2})}
    wrong = RatioSolution(((0, 1),), {0: 1, 1: 1})
    monkeypatch.setattr(reg, "solve", lambda group: wrong)
    with pytest.raises(AssertionError, match="unbalanced"):
        ratio_stage((0, 1), counts, {0: INFINITE, 1: INFINITE}, "x",
                    Trace())


def test_ratio_stage_numbers_too_long_to_print_are_a_size_error():
    # two coprime counts of 2,201 digits: each value prints, their LCM not
    x, y = 10**2200 + 1, 10**2200
    counts = {0: Counter({A: x}), 1: Counter({A: y})}
    with pytest.raises(SizeExceeded, match="an LCM of ratio values has"):
        ratio_stage((0, 1), counts, {0: INFINITE, 1: INFINITE}, "x",
                    Trace())
    # unequal products are printed, so each must print
    counts = {0: Counter({A: 1}), 1: Counter({A: 2})}
    with pytest.raises(SizeExceeded, match=r"a product p\*t within "
                       r"component \(0, 1\) has"):
        ratio_stage((0, 1), counts, {0: 1, 1: 6 * 10**4299}, "x", Trace())
    # a value is printed whatever the verdict
    counts = {0: Counter({A: 1, B: 1}), 1: Counter({A: x**2, B: x**2})}
    with pytest.raises(SizeExceeded, match="a ratio value has"):
        ratio_stage((0, 1), counts, {0: 1, 1: 1}, "x", Trace())
