"""Single-loop pipeline: the canonical-shape test and the LCM slice.

Handles the canonical shape only (every non-empty node is exactly one
top-level loop over a loop-free body); everything else is routed to the
nested-loop engine, whose power-string form subsumes it.  The ratio method
itself is ``reg.ratio_stage``, shared with that engine.  The slice's event
queues are built straight from the loop bodies: nothing is unrolled.
"""
from collections import _count_elements

from .model import For, Program, build_queues
from .reg import ratio_stage
from .smodel import check_smodel
from .trace import Trace
from .verdicts import Deadlock, Verdict


def is_single_loop(program: Program) -> bool:
    """Every non-empty node is one loop over a loop-free body."""
    return all(not body or (len(body) == 1 and type(body[0]) is For
                            and For not in map(type, body[0].body))
               for _, body in program.nodes)


def check_l0(program: Program, trace: Trace, max_events: int) -> Verdict:
    """REG -> Theorem-2 consistency -> slice queues -> S-Model check.

    A loop body is counted into a plain dict in one call of the C helper
    behind ``Counter.update``, keys in first-appearance order.  An empty
    node counts nothing and has t = 1: it only pads the variables.  A
    node's slice queue is its loop body repeated LCM / p_n times (Eq.-7
    style), built by ``build_queues`` under ``max_events``.
    """
    counts, times = {}, {}
    for n, body in program.nodes:
        counts[n] = count = {}
        times[n] = body[0].count if body else 1
        if body:
            _count_elements(count, body[0].body)
    solution = ratio_stage(tuple(counts), counts, times, "l0", trace)
    if isinstance(solution, Deadlock):
        return solution
    trace.reg_records[-1].loop_times = {
        n: solution.times[n] for n, body in program.nodes if body}
    return check_smodel(build_queues(
        [(n, body[0].body if body else body, solution.times[n])
         for n, body in program.nodes], max_events))
