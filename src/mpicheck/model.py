"""Core program model: AST, validation, counting, unrolling."""
from collections import _count_elements, namedtuple
from functools import cached_property
from itertools import groupby

from .record import Frozen


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


class InfiniteLoop(ModelError):
    pass


class SizeExceeded(ModelError):
    pass


class UnsupportedProgram(ModelError):
    """Shape the static pipeline does not cover: an infinite loop with
    siblings at the top level of a node.  A model past the event cap is
    SizeExceeded instead."""


class Symbol(namedtuple("Symbol", "name src dst")):
    """A message identity: name (str) plus fixed sender and receiver nodes.

    A tuple, so hashing and equality run in C; the hash is that of the
    plain tuple (name, src, dst)."""

    __slots__ = ()

    def __str__(self):
        return f"{self.name}:{self.src}->{self.dst}"


class For(namedtuple("For", "count body")):
    """A loop over a body (a tuple) of Symbols and Fors, repeated ``count``
    times, a positive int or INFINITE.  A Symbol in node n is a send when n
    is its source and a receive otherwise.  The nested-loop engine's power
    strings are tuples of For, with ``count`` as the exponent.

    A tuple, like Symbol: its hash is that of (count, body), and it is only
    compared with the items of loop trees."""

    __slots__ = ()

    def __str__(self):
        return render_items((self,))


class Program(Frozen):
    """Immutable program: ordered (node id, statement tuple) pairs plus the
    display-name mapping echoed in reports."""

    _fields = ("nodes", "names")

    def __init__(self, nodes, names=()):
        self.__dict__.update(nodes=nodes, names=names)

    @cached_property
    def rank(self) -> dict:
        """node id -> position in ``nodes``"""
        return {n: k for k, (n, _) in enumerate(self.nodes)}

    @cached_property
    def _name_map(self) -> dict:
        return dict(self.names)

    def name_of(self, nid) -> str:
        return self._name_map.get(nid, f"P{nid}")

    @cached_property
    def _valid(self) -> bool:
        # a raise is not cached, so an invalid program raises every time
        _check(self)
        return True

    @cached_property
    def symbols(self) -> dict:
        """Each distinct Symbol, keyed by its fields, in order of first
        appearance: node by node, each body in text order.  One walk per
        Program, and none for one the parser has certified, as the parser
        hands over the table it built."""
        table = {}

        def walk(body):
            for st in body:
                if type(st) is For:
                    walk(st.body)
                else:
                    table.setdefault(st, st)

        for _, body in self.nodes:
            walk(body)
        return table


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


# The most digits CPython (3.11 and later) converts between an int and a
# digit string by default.  On every Python alike, the parser refuses a
# longer loop count, validate a node whose events per outermost iteration
# need more digits, and the ratio stage a number it records that does, as
# the checks print counts, ratios and their products.
MAX_COUNT_DIGITS = 4300
COUNT_LIMIT = 10**MAX_COUNT_DIGITS
# The deepest nesting of loops validate accepts.  Every recursive walk over
# a loop tree (validate, count_occurrences, weighted_size, flatten_items,
# render_items, the parser's render and l2's normalization) takes one or two
# Python frames per level, so a program within it stays far under the
# default recursion limit of 1,000 frames, whatever stack it is checked on.
MAX_NESTING = 200


def validate(program: Program) -> Program:
    """Check well-formedness and size (a top-level infinite loop counted
    once); returns the program unchanged or raises.  The walk runs once per
    Program, and not at all for one the parser has certified."""
    program._valid
    return program


def certified(nodes, names, symbols) -> Program:
    """A Program its builder has already found valid, as the parser does
    when none of validate's conditions fired while it built each part:
    validate returns it without a walk.  The walk, run on every other
    program, stays the only source of a ModelError.  ``symbols`` is the
    builder's table of the program's distinct Symbols, taken as the
    Program's ``symbols`` without a copy."""
    program = Program(nodes, names)
    program.__dict__.update(_valid=True, symbols=symbols)
    return program


def _check(program: Program):
    seen = set()
    for nid, _ in program.nodes:
        if nid in seen:
            raise DuplicateNode(f"node {nid} declared twice")
        seen.add(nid)

    def check(nid, body, depth):
        """The events of ``body``, ``depth`` loops deep, per outermost
        iteration."""
        events = len(body)
        for st in body:
            if isinstance(st, Symbol):
                _, src, dst = st
                if src == dst:
                    raise SelfMessage(f"{st} has identical endpoints")
                if src not in seen or dst not in seen:
                    raise DanglingEndpoint(
                        f"{st} references an undeclared node")
                if nid != src and nid != dst:
                    raise MisplacedOperation(
                        f"{st} found in node {nid}, which is neither its "
                        "source nor its destination")
            elif isinstance(st, For):
                times = st.count
                if times is INFINITE:
                    if depth:
                        raise NestedInfinite(
                            f"infinite loop below top level in node {nid}")
                    times = 1
                elif not (isinstance(times, int) and times >= 1):
                    raise InvalidLoopCount(
                        f"loop count {times!r} in node {nid}")
                if not st.body:
                    raise InvalidLoopCount(f"empty loop body in node {nid}")
                if depth == MAX_NESTING:
                    raise SizeExceeded(f"loops nest more than {MAX_NESTING} "
                                       f"deep in node {nid}")
                events += times * check(nid, st.body, depth + 1) - 1
            else:
                raise ModelError(f"unknown statement {st!r}")
        if events >= COUNT_LIMIT:
            raise SizeExceeded(
                f"events per outermost iteration of node {nid} have more "
                f"than {MAX_COUNT_DIGITS} digits")
        return events

    for nid, body in program.nodes:
        check(nid, body, 0)
    if not program.nodes:
        raise ModelError("a program needs at least one node")


def count_occurrences(body, times=1, out=None) -> dict:
    """Occurrence counts of a body with nested finite loops weighted in,
    ``times`` over, added into ``out`` (a new plain dict by default).  One
    walk over the maximal runs of Symbols and the loops between them, with
    a running multiplier; a run is counted in one call of the C helper
    behind ``Counter.update`` under multiplier 1, else symbol by symbol, so
    the keys come in order of first appearance."""
    if out is None:
        out = {}
    for kind, run in groupby(body, type):
        if kind is For:
            for st in run:
                if st.count is INFINITE:
                    raise InfiniteLoop(
                        "infinite loop inside a counted scope")
                count_occurrences(st.body, times * st.count, out)
        elif times == 1:
            _count_elements(out, run)
        else:
            get = out.get
            for st in run:
                out[st] = get(st, 0) + times
    return out


def weighted_size(body) -> int:
    """Number of events the body unrolls to; raises on infinite counts.
    Each Symbol counts one, so only the loops are walked."""
    total = len(body)
    for kind, run in groupby(body, type):
        if kind is For:
            for st in run:
                if st.count is INFINITE:
                    raise InfiniteLoop("cannot size an infinite loop")
                total += st.count * weighted_size(st.body) - 1
    return total


def flatten_items(body) -> tuple:
    """Fully unrolled symbol sequence of a finite body or power string.  A
    maximal run of Symbols is added in one step, a loop as its body, or the
    expansion of one iteration when its body holds loops, times its count."""
    out = []
    for kind, run in groupby(body, type):
        if kind is not For:
            out += run
            continue
        for st in run:
            if st.count is INFINITE:
                raise InfiniteLoop("cannot flatten an infinite loop")
            once = st.body
            if For in map(type, once):
                once = flatten_items(once)
            out += once * st.count
    return tuple(out)


def render_items(items) -> str:
    """Compact rendering: literals run together, count-1 loops bare,
    infinite counts written ^inf."""
    parts = []
    run = []
    for it in items:
        if isinstance(it, Symbol):
            run.append(it.name)
            continue
        if run:
            parts.append("".join(run))
            run = []
        body = render_items(it.body)
        if it.count == 1:
            parts.append(body)
            continue
        count = "inf" if it.count is INFINITE else str(it.count)
        if len(it.body) == 1 and isinstance(it.body[0], Symbol):
            parts.append(f"{body}^{count}")
        else:
            parts.append(f"({body})^{count}")
    if run:
        parts.append("".join(run))
    return " ".join(parts)


# Default cap on the events of each event model a check builds.
MAX_EVENTS = 10**6


def build_queues(parts, max_events: int) -> dict:
    """node -> event queue for (node, body, times) ``parts``: the body
    unrolled and repeated ``times`` times.  Every part is sized first, so a
    model of more than ``max_events`` events raises SizeExceeded before any
    queue is built.  A loop-free body is repeated as it is."""
    parts = [(n, body, times, For in map(type, body))
             for n, body, times in parts]
    if sum((weighted_size(body) if loops else len(body)) * times
           for _, body, times, loops in parts) > max_events:
        raise SizeExceeded(f"unrolled size exceeds cap of {max_events} events")
    return {n: (flatten_items(body) if loops else body) * times
            for n, body, times, loops in parts}


def unroll(program: Program, max_events: int = MAX_EVENTS) -> dict:
    """Expand all finite loops into flat per-node symbol sequences."""
    return build_queues([(n, body, 1) for n, body in program.nodes],
                        max_events)
