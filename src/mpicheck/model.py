"""Core program model: AST, validation, classification, counting, unrolling."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple


class _Infinite:
    """Singleton marker for an unbounded loop count."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "inf"


INFINITE = _Infinite()


def is_infinite(count) -> bool:
    return count is INFINITE


class ModelError(Exception):
    pass


class DuplicateNode(ModelError):
    pass


class SelfMessage(ModelError):
    pass


class MisplacedOperation(ModelError):
    pass


class DanglingEndpoint(ModelError):
    pass


class NestedInfinite(ModelError):
    pass


class InvalidLoopCount(ModelError):
    pass


class InfiniteInside(ModelError):
    pass


class InfiniteLoop(ModelError):
    pass


class SizeExceeded(ModelError):
    pass


class UnsupportedProgram(ModelError):
    """Shape the static pipeline does not cover (e.g. an infinite loop with
    siblings at the top level of a node)."""


class Symbol(NamedTuple):
    """A message identity: name plus fixed sender and receiver nodes.

    A tuple, so hashing and equality run in C; the hash is that of the
    plain tuple (name, src, dst), as it was for the frozen dataclass."""

    name: str
    src: int
    dst: int

    def __str__(self):
        return f"{self.name}:{self.src}->{self.dst}"


@dataclass(frozen=True)
class Send:
    sym: Symbol


@dataclass(frozen=True)
class Recv:
    sym: Symbol


@dataclass(frozen=True)
class For:
    count: object  # positive int, or INFINITE
    body: tuple


@dataclass(frozen=True)
class Program:
    """Immutable program: ordered (node id, statement tuple) pairs plus the
    display-name mapping echoed in reports."""

    nodes: tuple
    names: tuple = ()

    def bodies(self) -> dict:
        return dict(self.nodes)

    def node_ids(self) -> list:
        return [n for n, _ in self.nodes]

    def body(self, nid) -> tuple:
        return dict(self.nodes)[nid]

    @cached_property
    def _name_map(self) -> dict:
        return dict(self.names)

    def name_of(self, nid) -> str:
        return self._name_map.get(nid, f"P{nid}")


def make_program(bodies: dict, names: dict | None = None) -> Program:
    """Build a Program from {node id: [statements]}.

    Default display names are P<id>, matching what the parser produces for
    sources written with those names, so rendered round trips compare equal.
    """
    nodes = tuple((n, tuple(b)) for n, b in bodies.items())
    if names is None:
        name_items = tuple((n, f"P{n}") for n in bodies)
    else:
        name_items = tuple(names.items())
    return Program(nodes, name_items)


class ModelClass(Enum):
    SMODEL = "smodel"
    L0 = "l0"
    L2 = "l2"


def validate(program: Program) -> Program:
    """Check well-formedness; returns the program unchanged or raises."""
    seen = set()
    for nid, _ in program.nodes:
        if nid in seen:
            raise DuplicateNode(f"node {nid} declared twice")
        seen.add(nid)

    def check(nid, body, top):
        for st in body:
            if isinstance(st, (Send, Recv)):
                s = st.sym
                _, src, dst = s
                if src == dst:
                    raise SelfMessage(f"{s} has identical endpoints")
                if src not in seen or dst not in seen:
                    raise DanglingEndpoint(f"{s} references an undeclared node")
                if isinstance(st, Send) and nid != src:
                    raise MisplacedOperation(
                        f"send of {s} found in node {nid}, not its source")
                if isinstance(st, Recv) and nid != dst:
                    raise MisplacedOperation(
                        f"recv of {s} found in node {nid}, not its destination")
            elif isinstance(st, For):
                if is_infinite(st.count):
                    if not top:
                        raise NestedInfinite(
                            f"infinite loop below top level in node {nid}")
                elif not (isinstance(st.count, int) and st.count >= 1):
                    raise InvalidLoopCount(
                        f"loop count {st.count!r} in node {nid}")
                if not st.body:
                    raise InvalidLoopCount(f"empty loop body in node {nid}")
                check(nid, st.body, False)
            else:
                raise ModelError(f"unknown statement {st!r}")

    for nid, body in program.nodes:
        check(nid, body, True)
    if not program.nodes:
        raise ModelError("a program needs at least one node")
    return program


def classify(program: Program) -> ModelClass:
    has_loop = False
    has_nested = False

    def scan(body, inside):
        nonlocal has_loop, has_nested
        for st in body:
            if isinstance(st, For):
                has_loop = True
                if inside:
                    has_nested = True
                scan(st.body, True)

    for _, body in program.nodes:
        scan(body, False)
    if not has_loop:
        return ModelClass.SMODEL
    return ModelClass.L2 if has_nested else ModelClass.L0


def count_occurrences(body) -> Counter:
    """Per-iteration occurrence counts, nested finite loops weighted in."""
    out = Counter()
    for st in body:
        if isinstance(st, (Send, Recv)):
            out[st.sym] += 1
        elif isinstance(st, For):
            if is_infinite(st.count):
                raise InfiniteInside("infinite loop inside a counted scope")
            inner = count_occurrences(st.body)
            for s, c in inner.items():
                out[s] += st.count * c
    return out


def weighted_size(body) -> int:
    """Number of events the body unrolls to; raises on infinite counts."""
    total = 0
    for st in body:
        if isinstance(st, (Send, Recv)):
            total += 1
        elif isinstance(st, For):
            if is_infinite(st.count):
                raise InfiniteLoop("cannot size an infinite loop")
            total += st.count * weighted_size(st.body)
    return total


# Default cap on the events one check may unroll or flatten.
MAX_EVENTS = 10**6


def unroll(program: Program, max_events: int | None = None) -> dict:
    """Expand all finite loops into flat per-node symbol sequences."""
    cap = MAX_EVENTS if max_events is None else max_events
    total = 0
    for _, body in program.nodes:
        total += weighted_size(body)
        if total > cap:
            raise SizeExceeded(f"unrolled size exceeds cap of {cap} events")

    def expand(body, out):
        for st in body:
            if isinstance(st, (Send, Recv)):
                out.append(st.sym)
            elif isinstance(st, For):
                for _ in range(st.count):
                    expand(st.body, out)

    queues = {}
    for nid, body in program.nodes:
        out = []
        expand(body, out)
        queues[nid] = tuple(out)
    return queues
