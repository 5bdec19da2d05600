"""Ratio equation groups: systems p_i : p_j = a : b over positive unknowns.

Solved per connected component with a weighted union-find holding exact
reduced fractions, so downstream LCM-based slicing gets exact integers.
``ratio_stage`` is the whole ratio method both loop engines share: build
the group from per-node counts, solve it, apply Theorem 2 and size the
LCM slice.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .model import is_infinite
from .trace import RegRecord, Trace
from .verdicts import Deadlock, RatioInconsistency, UnmatchedTotals


@dataclass(frozen=True)
class RatioEquation:
    i: object
    j: object
    a: int
    b: int
    origin: object = None  # symbol that produced the equation, if any

    def __str__(self):
        tag = f"  [{self.origin}]" if self.origin is not None else ""
        return f"p{self.i} : p{self.j} = {self.a} : {self.b}{tag}"


def oriented(i, j, a, b, origin=None) -> RatioEquation:
    """Equation with the smaller variable on the left, the conventional way
    to write a proportion between two nodes."""
    if str(j) < str(i):
        i, j, a, b = j, i, b, a
    return RatioEquation(i, j, a, b, origin)


@dataclass(frozen=True)
class RatioEquationGroup:
    variables: tuple
    equations: tuple

    def __post_init__(self):
        vs = set(self.variables)
        for eq in self.equations:
            if eq.i not in vs or eq.j not in vs:
                raise ValueError(f"equation {eq} uses an unknown variable")


@dataclass
class RatioSolution:
    components: tuple  # tuple of sorted variable tuples
    values: dict       # variable -> positive int, per-component gcd 1
    lcm: dict = field(init=False, repr=False, compare=False)  # comp -> LCM

    def __post_init__(self):
        self.lcm = {c: lcm(*[self.values[v] for v in c])
                    for c in self.components}
        # keyed by variable: a lookup by component would hash its tuple
        self._times = {v: m // self.values[v]
                       for c, m in self.lcm.items() for v in c}

    def times(self, var):
        """Loop count of `var` in the LCM slice: LCM / p_var."""
        return self._times[var]


@dataclass
class Inconsistent:
    """Conflict witness: a chain of accepted equations joining the two
    variables, plus the equation whose ratio disagrees around the cycle."""

    equations: tuple
    detail: str


def _frac(n, d):
    g = gcd(n, d)
    return n // g, d // g


class _UnionFind:
    """Ratios are kept as reduced positive (numerator, denominator) pairs;
    exact Fraction objects are only built for error messages."""

    def __init__(self, variables):
        self.parent = {v: v for v in variables}
        # value(v) / value(parent(v))
        self.ratio = {v: (1, 1) for v in variables}
        self.size = {v: 1 for v in variables}

    def find(self, v):
        """(root, value(v) / value(root)), compressing the path."""
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        if not path:
            return v, (1, 1)
        root = v
        num, den = self.ratio[path.pop()]   # already reduced, to the root
        for u in reversed(path):
            un, ud = self.ratio[u]
            num, den = _frac(num * un, den * ud)
            self.parent[u] = root
            self.ratio[u] = (num, den)
        return root, (num, den)


def solve(group: RatioEquationGroup):
    """Solution or an Inconsistent witness; a conflicting group is a first
    class result, not an error."""
    uf = _UnionFind(group.variables)
    tree = {v: [] for v in group.variables}  # accepted spanning edges
    for eq in group.equations:
        ri, (fin, fid) = uf.find(eq.i)
        rj, (fjn, fjd) = uf.find(eq.j)
        # demanded: value(i) / value(j) = a / b
        if ri == rj:
            if fin * fjd * eq.b != fid * fjn * eq.a:
                chain = _chain(tree, eq.i, eq.j)
                have = Fraction(fin * fjd, fid * fjn)
                return Inconsistent(
                    tuple(chain) + (eq,),
                    f"ratio around the cycle through p{eq.i} and p{eq.j} "
                    f"is {have}, equation demands {Fraction(eq.a, eq.b)}")
            continue
        # attach the smaller tree below the larger
        if uf.size[ri] < uf.size[rj]:
            # value(ri)/value(rj) = (value(ri)/value(i)) * (a/b) * (value(j)/value(rj))
            uf.parent[ri] = rj
            uf.ratio[ri] = _frac(eq.a * fjn * fid, eq.b * fjd * fin)
            uf.size[rj] += uf.size[ri]
        else:
            uf.parent[rj] = ri
            uf.ratio[rj] = _frac(eq.b * fin * fjd, eq.a * fid * fjn)
            uf.size[ri] += uf.size[rj]
        tree[eq.i].append((eq.j, eq))
        tree[eq.j].append((eq.i, eq))

    groups = {}     # root -> {member: its ratio to the root}
    for v in group.variables:
        root, ratio = uf.find(v)
        groups.setdefault(root, {})[v] = ratio
    comps = []
    values = {}
    for ratios in groups.values():
        members = list(ratios)
        denom_lcm = lcm(*(d for _, d in ratios.values()))
        ints = {v: n * (denom_lcm // d) for v, (n, d) in ratios.items()}
        g = gcd(*ints.values())
        values.update({v: n // g for v, n in ints.items()})
        comps.append(tuple(sorted(members, key=str)))
    comps.sort(key=lambda c: str(min(c, key=str)))
    return RatioSolution(tuple(comps), values)


def _chain(tree, src, dst):
    """Path of accepted equations between two variables of one component."""
    prev = {src: None}
    q = deque([src])
    while q:
        v = q.popleft()
        if v == dst:
            break
        for u, eq in tree[v]:
            if u not in prev:
                prev[u] = (v, eq)
                q.append(u)
    out = []
    v = dst
    while prev.get(v) is not None:
        v, eq = prev[v]
        out.append(eq)
    out.reverse()
    return out


def count_equations(order, counts):
    """The group of per-node occurrence counts: one variable per node of
    `order` and one equation per symbol, in first-appearance order, from its
    counts at both endpoints (`counts`: node -> {symbol: count}).

    Returns (group, unmatched), where unmatched lists (symbol, sends, recvs)
    for each symbol counted at only one endpoint; those get no equation.
    """
    equations = []
    unmatched = []
    seen = set()
    for n in order:
        for sym in counts[n]:
            if sym in seen:
                continue
            seen.add(sym)
            c_src = counts[sym.src].get(sym, 0)
            c_dst = counts[sym.dst].get(sym, 0)
            if c_src and c_dst:
                equations.append(oriented(sym.src, sym.dst, c_src, c_dst, sym))
            else:
                unmatched.append((sym, c_src, c_dst))
    return RatioEquationGroup(tuple(order), tuple(equations)), unmatched


def ratio_stage(order, counts, times, label, trace: Trace):
    """Solve the group of `counts` and check Theorem 2 against the loop
    counts `times`: p_n * t_n must be equal within each component, with an
    infinite t_n counted as 0.  Components never synchronize with each
    other, so their products are not compared.

    Returns (solution, None), whose ``times(n)`` sizes the LCM slice, or
    (None, Deadlock).  A solved group is recorded in `trace` under `label`,
    with its LCMs when it passes.
    """
    group, unmatched = count_equations(order, counts)
    if unmatched:
        return None, Deadlock(UnmatchedTotals(*unmatched[0]))
    solution = solve(group)
    if isinstance(solution, Inconsistent):
        conflict = RatioInconsistency(solution.detail, solution.equations)
    else:
        conflict = _unequal_products(solution, times)
    trace.reg_records.append(RegRecord(
        label, group.equations, solution,
        solution.lcm if conflict is None else None))
    if conflict is not None:
        return None, Deadlock(conflict)
    for eq in group.equations:
        # each symbol's sends and receives balance in the slice
        assert eq.a * solution.times(eq.i) == eq.b * solution.times(eq.j), \
            f"sliced model unbalanced at {eq}"
    return solution, None


def _unequal_products(solution, times):
    for comp in solution.components:
        products = [solution.values[n] * (0 if is_infinite(times[n])
                                          else times[n]) for n in comp]
        if len(set(products)) > 1:
            parts = ", ".join(f"p{n}*t{n}={p}" for n, p in zip(comp, products))
            return RatioInconsistency(
                f"unequal products within component {comp}: {parts}")
    return None
