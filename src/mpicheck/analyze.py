"""Dispatch and machine-readable reports."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import l0, l2, smodel
from .model import ModelClass, Program, classify, unroll, validate
from .reg import Inconsistent
from .trace import Trace
from .verdicts import Deadlock, Verdict, witness_dict


def check_program(program: Program, trace: Trace | None = None,
                  max_events: int | None = None):
    """Validate, dispatch by class, return (verdict, phase)."""
    validate(program)
    cls = classify(program)
    if cls is ModelClass.SMODEL:
        return smodel.check_smodel(unroll(program, max_events)), "smodel"
    if cls is ModelClass.L0 and (view := l0.as_l0_view(program)) is not None:
        return l0.check_l0(view, trace, max_events), "l0"
    return l2.check_l2(program, trace, max_events), "l2"


@dataclass
class Report:
    verdict: Verdict
    phase: str
    trace: Trace
    program: Program
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        reg_solutions = []
        for rec in self.trace.reg_records:
            entry = {
                "stage": rec.label,
                "equations": [str(e) for e in rec.equations],
            }
            sol = rec.solution
            if isinstance(sol, Inconsistent):
                entry["inconsistent"] = sol.detail
            else:
                entry["components"] = [
                    {"vars": [f"p{v}" for v in comp],
                     "values": {f"p{v}": sol.values[v] for v in comp}}
                    for comp in sol.components]
            if rec.lcm:
                entry["lcm"] = {str(list(c)): v for c, v in rec.lcm.items()}
            if rec.loop_times:
                entry["slicedLoopTimes"] = {
                    self.program.name_of(n): t for n, t in rec.loop_times.items()}
            reg_solutions.append(entry)
        empty = [self.program.name_of(n)
                 for n, body in self.program.nodes if not body]
        return {
            "verdict": ("deadlock-free"
                        if not isinstance(self.verdict, Deadlock)
                        else "deadlock"),
            "phase": self.phase,
            "witness": witness_dict(self.verdict),
            "regSolutions": reg_solutions,
            "fppTrace": [
                {self.program.name_of(n): p for n, p in snap.items()}
                for snap in self.trace.fpp_snapshots] or None,
            "nodes": {self.program.name_of(n): n
                      for n, _ in self.program.nodes},
            "emptyNodes": empty,
            "timings": self.timings,
        }


def analyze(program: Program, max_events: int | None = None) -> Report:
    trace = Trace()
    t0 = time.perf_counter()
    verdict, phase = check_program(program, trace, max_events)
    elapsed = time.perf_counter() - t0
    return Report(verdict, phase, trace, program,
                  {"checkSeconds": round(elapsed, 6)})
