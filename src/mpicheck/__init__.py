"""Static deadlock analysis for synchronous message-passing programs."""

from .analyze import Report, analyze
from .model import (INFINITE, For, Program, Symbol, count_occurrences,
                    make_program, unroll, validate)
from .oracle import explore
from .parser import parse, render
from .verdicts import DEADLOCK_FREE, Deadlock, DeadlockFree, Verdict

__all__ = [
    "INFINITE", "For", "Program", "Symbol",
    "count_occurrences", "make_program", "unroll", "validate",
    "parse", "render", "explore", "analyze", "Report",
    "DEADLOCK_FREE", "Deadlock", "DeadlockFree", "Verdict",
]
