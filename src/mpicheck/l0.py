"""Single-loop pipeline: the canonical-shape test and the LCM slice.

Handles the canonical shape only (every non-empty node is exactly one
top-level loop over a loop-free body); everything else is routed to the
nested-loop engine, whose power-string form subsumes it.  The ratio method
itself is ``reg.ratio_stage``, shared with that engine.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import For, Program, count_occurrences, make_program, unroll
from .reg import ratio_stage
from .smodel import check_smodel
from .verdicts import Verdict


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


def slice_view(view: L0View, solution) -> Program:
    """Replace each loop count by LCM / p_i, per component (Eq.-7 style)."""
    return make_program({n: [For(solution.times(n), body)] if body else []
                         for n, (_, body) in view.loops.items()})


def check_l0(view: L0View, trace=None, max_events=None) -> Verdict:
    """REG -> Theorem-2 consistency -> slice -> unroll -> S-Model check."""
    loops = view.loops
    counts = {n: count_occurrences(body) for n, (_, body) in loops.items()}
    times = {n: count for n, (count, _) in loops.items()}
    solution, deadlock = ratio_stage(view.order, counts, times, "l0", trace)
    if deadlock is not None:
        return deadlock
    if trace is not None:
        trace.reg_records[-1].loop_times = {
            n: solution.times(n) for n, (_, body) in loops.items() if body}
    return check_smodel(unroll(slice_view(view, solution), max_events))
