"""Structured trace of an analysis run, consumed by the CLI and tests."""
from .record import Record


class RegRecord(Record):
    _fields = ("label", "equations", "solution", "lcm", "loop_times")

    def __init__(self, label, equations, solution, lcm=None,
                 loop_times=None):
        self.label = label
        self.equations = equations
        self.solution = solution      # RatioSolution or RatioInconsistency
        self.lcm = lcm                # component tuple -> lcm, when sliced
        self.loop_times = loop_times


class SetRecord(Record):
    """One FPP pass: the related-set partition and per-set outcomes."""

    _fields = ("partition", "solutions", "actions")

    def __init__(self, partition, solutions=None, actions=None):
        self.partition = partition    # ((nodes...), eligible) pairs
        # (nodes, values dict) per set, and human-readable lines
        self.solutions = [] if solutions is None else solutions
        self.actions = [] if actions is None else actions


class Trace(Record):
    """The nested-loop engine keeps its power strings and pools raw; they
    are rendered only when read."""

    _fields = ("reg_records", "set_records", "strings", "pools")

    def __init__(self, reg_records=None, set_records=None, strings=None,
                 pools=None):
        self.reg_records = [] if reg_records is None else reg_records
        self.set_records = [] if set_records is None else set_records
        # node -> power string, and node -> leading power per pool round
        self.strings = {} if strings is None else strings
        self.pools = [] if pools is None else pools

    @property
    def string_map(self) -> dict:
        """node -> rendered string; a string's items are all powers."""
        return {n: " ".join(map(str, ps)) for n, ps in self.strings.items()}

    @property
    def fpp_snapshots(self) -> list:
        """One node -> rendered power dict per pool round."""
        return [{n: str(p) for n, p in pool.items()} for pool in self.pools]
