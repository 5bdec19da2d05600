"""Single-loop pipeline: ratio equations, consistency, LCM slicing.

Handles the canonical shape only (every non-empty node is exactly one
top-level loop over a loop-free body); everything else is routed to the
nested-loop engine, whose power-string form subsumes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .model import (For, Program, count_occurrences, is_infinite,
                    make_program, unroll)
from .reg import Inconsistent, RatioEquationGroup, oriented, solve
from .smodel import check_smodel
from .verdicts import (Deadlock, RatioInconsistency, UnmatchedTotals,
                       Verdict)


@dataclass
class L0View:
    """Per node: the single top-level loop (count, loop-free body).

    Nodes with no statements are carried with an empty body and count 1;
    they exchange nothing and only pad the variable set.
    """

    loops: dict  # node -> (count, body tuple)
    order: tuple


def as_l0_view(program: Program):
    """The canonical view, or None when the program has another shape."""
    loops = {}
    for nid, body in program.nodes:
        if not body:
            loops[nid] = (1, ())
            continue
        if len(body) != 1 or not isinstance(body[0], For):
            return None
        loop = body[0]
        if any(isinstance(st, For) for st in loop.body):
            return None
        loops[nid] = (loop.count, loop.body)
    return L0View(loops, tuple(n for n, _ in program.nodes))


def build_l0_reg(view: L0View):
    """One variable per node; one equation per symbol from its per-iteration
    occurrence counts at both endpoints.

    Returns (group, unmatched) where unmatched lists symbols occurring on
    only one side — an immediate deadlock for the caller.
    """
    counts = {n: count_occurrences(body) for n, (_, body) in view.loops.items()}
    equations = []
    unmatched = []
    seen = set()
    for n in view.order:
        for sym in counts[n]:
            if sym in seen:
                continue
            seen.add(sym)
            c_src = counts.get(sym.src, {}).get(sym, 0)
            c_dst = counts.get(sym.dst, {}).get(sym, 0)
            if c_src == 0 or c_dst == 0:
                unmatched.append((sym, c_src, c_dst))
                continue
            equations.append(oriented(sym.src, sym.dst, c_src, c_dst, sym))
    group = RatioEquationGroup(tuple(view.order), tuple(equations))
    return group, unmatched


def ratio_consistent(solution, times: dict):
    """Check p_i * t_i = p_j * t_j within each component (infinite => t = 0).

    Returns None when consistent, else a human-readable conflict detail.
    Components never synchronize with each other, so cross-component
    products are not compared.
    """
    for comp in solution.components:
        products = {}
        for n in comp:
            t = 0 if is_infinite(times[n]) else times[n]
            products[n] = solution.values[n] * t
        vals = set(products.values())
        if len(vals) > 1:
            parts = ", ".join(f"p{n}*t{n}={products[n]}" for n in comp)
            return f"unequal products within component {comp}: {parts}"
    return None


def slice_view(view: L0View, solution) -> Program:
    """Replace each loop count by LCM / p_i, per component (Eq.-7 style)."""
    comp_lcm = {}
    for comp in solution.components:
        comp_lcm[comp] = lcm(*(solution.values[n] for n in comp))
    bodies = {}
    for n in view.order:
        _, body = view.loops[n]
        if not body:
            bodies[n] = []
            continue
        times = comp_lcm[solution.component_of(n)] // solution.values[n]
        bodies[n] = [For(times, body)]
    sliced = make_program(bodies)
    _assert_balanced(sliced)
    return sliced


def _assert_balanced(program: Program):
    from collections import Counter

    sends = Counter()
    recvs = Counter()
    for n, body in program.nodes:
        c = count_occurrences(body)
        for sym, k in c.items():
            if n == sym.src:
                sends[sym] += k
            else:
                recvs[sym] += k
    assert sends == recvs, f"sliced model unbalanced: {sends} vs {recvs}"


def check_l0(program: Program, trace=None, max_events=None) -> Verdict:
    """REG -> Theorem-2 consistency -> slice -> unroll -> S-Model check."""
    view = as_l0_view(program)
    if view is None:
        raise ValueError("program is not in canonical single-loop shape")
    group, unmatched = build_l0_reg(view)
    if unmatched:
        sym, c_src, c_dst = unmatched[0]
        return Deadlock(UnmatchedTotals(sym, c_src, c_dst))
    solution = solve(group)
    if isinstance(solution, Inconsistent):
        if trace is not None:
            trace.add_reg("l0", group.equations, solution)
        return Deadlock(RatioInconsistency(solution.detail, solution.equations))

    times = {n: count for n, (count, _) in view.loops.items()}
    conflict = ratio_consistent(solution, times)
    if conflict is not None:
        if trace is not None:
            trace.add_reg("l0", group.equations, solution)
        return Deadlock(RatioInconsistency(conflict))

    sliced = slice_view(view, solution)
    if trace is not None:
        comp_lcm = {c: lcm(*(solution.values[n] for n in c))
                    for c in solution.components}
        loop_times = {n: body[0].count for n, body in sliced.nodes if body}
        trace.add_reg("l0", group.equations, solution, comp_lcm, loop_times)
    queues = unroll(sliced, max_events)
    return check_smodel(queues)
