"""Single-loop pipeline: the canonical-shape test and the LCM slice.

Handles the canonical shape only (every non-empty node is exactly one
top-level loop over a loop-free body); everything else is routed to the
nested-loop engine, whose power-string form subsumes it.  The ratio method
itself is ``reg.ratio_stage``, shared with that engine.
"""
from __future__ import annotations

from .model import (MAX_EVENTS, For, Program, count_occurrences, make_program,
                    unroll)
from .reg import ratio_stage
from .smodel import check_smodel
from .trace import Trace
from .verdicts import Verdict


def is_single_loop(program: Program) -> bool:
    """Every non-empty node is one loop over a loop-free body."""
    return all(not body or (len(body) == 1 and type(body[0]) is For
                            and For not in map(type, body[0].body))
               for _, body in program.nodes)


def slice_view(program: Program, solution) -> Program:
    """Replace each loop count by LCM / p_i, per component (Eq.-7 style)."""
    return make_program({n: [For(solution.times(n), body[0].body)]
                         if body else [] for n, body in program.nodes})


def check_l0(program: Program, trace: Trace,
             max_events: int = MAX_EVENTS) -> Verdict:
    """REG -> Theorem-2 consistency -> slice -> unroll -> S-Model check.

    An empty node counts nothing and has t = 1: it only pads the variables.
    """
    counts = {n: count_occurrences(body[0].body if body else ())
              for n, body in program.nodes}
    times = {n: body[0].count if body else 1 for n, body in program.nodes}
    solution, deadlock = ratio_stage(tuple(counts), counts, times, "l0", trace)
    if deadlock is not None:
        return deadlock
    trace.reg_records[-1].loop_times = {
        n: solution.times(n) for n, body in program.nodes if body}
    return check_smodel(unroll(slice_view(program, solution), max_events))
