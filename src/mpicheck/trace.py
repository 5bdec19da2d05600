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
    """The nested-loop engine keeps its power strings and pools raw; they
    are rendered only when read."""

    reg_records: list = field(default_factory=list)
    set_records: list = field(default_factory=list)
    strings: dict = field(default_factory=dict)  # node -> power string
    pools: list = field(default_factory=list)    # node -> leading power

    @property
    def string_map(self) -> dict:
        """node -> rendered string; a string's items are all powers."""
        return {n: " ".join(map(str, ps)) for n, ps in self.strings.items()}

    @property
    def fpp_snapshots(self) -> list:
        """One node -> rendered power dict per pool round."""
        return [{n: str(p) for n, p in pool.items()} for pool in self.pools]
