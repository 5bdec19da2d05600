"""Structured trace of an analysis run, consumed by the CLI and tests."""
from .record import Record


class RegRecord(Record):
    _fields = ("label", "equations", "solution", "lcm", "loop_times")

    def __init__(self, label, equations, solution, lcm):
        self.label = label
        self.equations = equations
        self.solution = solution      # RatioSolution or RatioInconsistency
        self.lcm = lcm                # component tuple -> lcm, when sliced
        self.loop_times = None        # node -> loop count in the l0 slice


class SetRecord(Record):
    """One FPP pass: the related-set partition and per-set outcomes."""

    _fields = ("partition", "solutions", "actions")

    def __init__(self, partition):
        self.partition = partition    # ((nodes...), eligible) pairs
        # (nodes, values dict) per set, and human-readable lines
        self.solutions = []
        self.actions = []


class Trace(Record):
    """The nested-loop engine keeps its power strings and pools raw; they
    are rendered only when read."""

    _fields = ("reg_records", "set_records", "strings", "pools")

    def __init__(self):
        self.reg_records = []
        self.set_records = []
        # node -> power string, and node -> leading power per pool round
        self.strings = {}
        self.pools = []

    @property
    def string_map(self) -> dict:
        """node -> rendered string; a string's items are all powers."""
        return {n: " ".join(map(str, ps)) for n, ps in self.strings.items()}

    @property
    def fpp_snapshots(self) -> list:
        """One node -> rendered power dict per pool round."""
        return [{n: str(p) for n, p in pool.items()} for pool in self.pools]
