"""Static deadlock analysis for synchronous message-passing programs."""

from .analyze import Report, analyze
from .model import (INFINITE, For, Program, Symbol, count_occurrences,
                    make_program, unroll, validate)
from .parser import parse, render
from .verdicts import DEADLOCK_FREE, Deadlock, DeadlockFree, Verdict

__all__ = [
    "INFINITE", "For", "Program", "Symbol",
    "count_occurrences", "make_program", "unroll", "validate",
    "parse", "render", "explore", "analyze", "Report",
    "DEADLOCK_FREE", "Deadlock", "DeadlockFree", "Verdict",
]


def __getattr__(name):
    # no check runs the oracle, so it is compiled on the first `explore`
    # and then bound here, where later lookups find it directly
    if name != "explore":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import explore
    globals()["explore"] = explore
    return explore
