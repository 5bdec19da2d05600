"""The one entry point, and machine-readable reports."""
import time

from . import l0, l2, smodel
from .model import MAX_EVENTS, For, Program, unroll, validate
from .record import Record
from .trace import Trace
from .verdicts import Deadlock, RatioInconsistency, Verdict, witness_dict


class Report(Record):
    _fields = ("verdict", "phase", "trace", "program", "timings")

    def __init__(self, verdict: Verdict, phase: str, trace: Trace,
                 program: Program, timings: dict):
        self.verdict = verdict
        self.phase = phase
        self.trace = trace
        self.program = program
        self.timings = timings

    def to_dict(self) -> dict:
        reg_solutions = []
        for rec in self.trace.reg_records:
            entry = {
                "stage": rec.label,
                "equations": [str(e) for e in rec.equations],
            }
            sol = rec.solution
            if isinstance(sol, RatioInconsistency):
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


def analyze(program: Program, max_events: int = MAX_EVENTS) -> Report:
    """Validate, then route on the top-level statements alone: no loop goes
    to the sequential model, one loop per node over a loop-free body to the
    single-loop engine, anything else to the nested-loop engine.

    ``max_events`` bounds the events of each event model the check builds:
    the unrolled program, the LCM slice, the queues of one pool round (or of
    one set, when the round does not fit) and a composite run being cut.
    A model past it raises SizeExceeded before it is built."""
    trace = Trace()
    t0 = time.perf_counter()
    validate(program)
    if not any(For in map(type, body) for _, body in program.nodes):
        verdict = smodel.check_smodel(unroll(program, max_events))
        phase = "smodel"
    elif l0.is_single_loop(program):
        verdict, phase = l0.check_l0(program, trace, max_events), "l0"
    else:
        verdict, phase = l2.check_l2(program, trace, max_events), "l2"
    elapsed = time.perf_counter() - t0
    return Report(verdict, phase, trace, program,
                  {"checkSeconds": round(elapsed, 6)})
