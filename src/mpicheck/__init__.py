"""Static deadlock analysis for synchronous message-passing programs."""

from .analyze import Report, analyze, check_program
from .model import (INFINITE, For, ModelClass, Program, Symbol, classify,
                    count_occurrences, make_program, unroll, validate)
from .oracle import explore
from .parser import parse, render
from .verdicts import DEADLOCK_FREE, Deadlock, DeadlockFree, Verdict

__all__ = [
    "INFINITE", "For", "ModelClass", "Program", "Symbol",
    "classify", "count_occurrences", "make_program", "unroll", "validate",
    "parse", "render", "explore", "analyze", "check_program", "Report",
    "DEADLOCK_FREE", "Deadlock", "DeadlockFree", "Verdict",
]
