"""Structured trace of an analysis run, consumed by the CLI and tests."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RegRecord:
    label: str
    equations: tuple
    solution: object          # RatioSolution or Inconsistent
    lcm: dict | None = None   # component tuple -> lcm, when sliced
    loop_times: dict | None = None


@dataclass
class SetRecord:
    """One FPP pass: the related-set partition and per-set outcomes."""

    partition: tuple          # ((nodes...), eligible) pairs
    solutions: list = field(default_factory=list)  # (nodes, values dict)
    actions: list = field(default_factory=list)    # human-readable lines


@dataclass
class Trace:
    string_map: dict = field(default_factory=dict)   # node -> rendered string
    reg_records: list = field(default_factory=list)
    fpp_snapshots: list = field(default_factory=list)  # node -> rendered power
    set_records: list = field(default_factory=list)

    def add_reg(self, label, equations, solution, lcm=None, loop_times=None):
        self.reg_records.append(
            RegRecord(label, tuple(equations), solution, lcm, loop_times))
