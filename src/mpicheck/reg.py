"""Ratio equation groups: systems p_i : p_j = a : b over positive unknowns.

Solved per connected component with a weighted union-find holding exact
reduced fractions, so downstream LCM-based slicing gets exact integers.
An equation is a plain tuple, and the solver reads a variable that is a
root, or one hop below one, straight from the union-find's dicts; only a
longer path takes a call, which compresses it.  The spanning equations that
name a conflict's chain are kept as a list and joined into a graph only
when a conflict is found.
``ratio_stage`` is the whole ratio method both loop engines share: build
the group from per-node counts, solve it, apply Theorem 2 and size the
LCM slice.
"""
from __future__ import annotations

from collections import deque, namedtuple
from itertools import chain
from math import gcd, lcm
from operator import itemgetter

from .model import COUNT_LIMIT, MAX_COUNT_DIGITS, SizeExceeded, is_infinite
from .record import Frozen, Record
from .trace import RegRecord, Trace
from .verdicts import Deadlock, RatioInconsistency, UnmatchedTotals


class RatioEquation(namedtuple("RatioEquation", "i j a b origin",
                                defaults=(None,))):
    """p_i : p_j = a : b; ``origin`` is the symbol that produced the
    equation, if any."""

    __slots__ = ()

    def __str__(self):
        tag = f"  [{self.origin}]" if self.origin is not None else ""
        return f"p{self.i} : p{self.j} = {self.a} : {self.b}{tag}"


_ENDS = itemgetter(0, 1)


class RatioEquationGroup(Frozen):
    _fields = ("variables", "equations")

    def __init__(self, variables, equations):
        vs = set(variables)
        # both variables of every equation, in one pass of C code
        if not vs.issuperset(chain.from_iterable(map(_ENDS, equations))):
            eq = next(eq for eq in equations
                      if eq.i not in vs or eq.j not in vs)
            raise ValueError(f"equation {eq} uses an unknown variable")
        self.__dict__.update(variables=variables, equations=equations)


class RatioSolution(Record):
    """``lcm`` (component -> LCM of its values) is neither shown nor
    compared."""

    _fields = ("components", "values")

    def __init__(self, components, values):
        self.components = components  # tuple of sorted variable tuples
        self.values = values  # variable -> positive int, per-component gcd 1
        self.lcm = {c: lcm(*[values[v] for v in c]) for c in components}
        # keyed by variable: a lookup by component would hash its tuple
        self._times = {v: m // values[v]
                       for c, m in self.lcm.items() for v in c}

    def times(self, var):
        """Loop count of `var` in the LCM slice: LCM / p_var."""
        return self._times[var]


class Inconsistent(Record):
    """Conflict witness: a chain of accepted equations joining the two
    variables, plus the equation whose ratio disagrees around the cycle."""

    _fields = ("equations", "detail")

    def __init__(self, equations, detail):
        self.equations = equations
        self.detail = detail


def _frac(n, d):
    g = gcd(n, d)
    return n // g, d // g


def check_digits(numbers, what):
    """Raise SizeExceeded when one of ``numbers``, which a check records for
    printing, has more than MAX_COUNT_DIGITS digits, the most that CPython
    3.11 and later convert to a string by default."""
    if max(numbers, default=0) >= COUNT_LIMIT:
        raise SizeExceeded(f"{what} more than {MAX_COUNT_DIGITS} digits")


def _ratio_str(n, d) -> str:
    """The positive ratio n/d in lowest terms: n when d is 1, else n/d."""
    n, d = _frac(n, d)
    check_digits((n, d), "a conflicting ratio has")
    return str(n) if d == 1 else f"{n}/{d}"


class _UnionFind:
    """Ratios are kept as reduced positive (numerator, denominator) pairs,
    formatted only for error messages.  A root's ratio is (1, 1), so a
    variable whose parent is a root has its ratio to the root in ``ratio``
    without a walk."""

    def __init__(self, variables):
        self.parent = {v: v for v in variables}
        # value(v) / value(parent(v))
        self.ratio = dict.fromkeys(variables, (1, 1))
        self.size = dict.fromkeys(variables, 1)

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
    parent, ratio, size = uf.parent, uf.ratio, uf.size
    accepted = []   # spanning equations, in the order they were accepted
    for eq in group.equations:
        i, j, a, b, _ = eq
        # a root, or one hop below one, is read without a call
        ri = parent[i]
        if parent[ri] == ri:
            fin, fid = ratio[i]
        else:
            ri, (fin, fid) = uf.find(i)
        rj = parent[j]
        if parent[rj] == rj:
            fjn, fjd = ratio[j]
        else:
            rj, (fjn, fjd) = uf.find(j)
        # demanded: value(i) / value(j) = a / b
        if ri == rj:
            if fin * fjd * b != fid * fjn * a:
                path = _chain(accepted, i, j)
                have = _ratio_str(fin * fjd, fid * fjn)
                return Inconsistent(
                    tuple(path) + (eq,),
                    f"ratio around the cycle through p{i} and p{j} "
                    f"is {have}, equation demands {_ratio_str(a, b)}")
            continue
        # attach the smaller tree below the larger
        if size[ri] < size[rj]:
            # value(ri)/value(rj) = (value(ri)/value(i)) * (a/b) * (value(j)/value(rj))
            parent[ri] = rj
            ratio[ri] = _frac(a * fjn * fid, b * fjd * fin)
            size[rj] += size[ri]
        else:
            parent[rj] = ri
            ratio[rj] = _frac(b * fin * fjd, a * fid * fjn)
            size[ri] += size[rj]
        accepted.append(eq)

    name = dict(zip(group.variables, map(str, group.variables)))
    groups = {}     # root -> {member: its ratio to the root}
    for v in group.variables:
        root = parent[v]
        if parent[root] == root:
            groups.setdefault(root, {})[v] = ratio[v]
        else:
            root, r = uf.find(v)
            groups.setdefault(root, {})[v] = r
    comps = []
    values = {}
    for ratios in groups.values():
        nums, dens = zip(*ratios.values())
        m = lcm(*dens)
        if m > 1:
            nums = [n * (m // d) for n, d in zip(nums, dens)]
        g = gcd(*nums)
        values.update(zip(ratios, nums if g == 1 else [n // g for n in nums]))
        comps.append(tuple(sorted(ratios, key=name.__getitem__)))
    # a component's first variable is its least by string
    comps.sort(key=lambda c: name[c[0]])
    return RatioSolution(tuple(comps), values)


def _chain(accepted, src, dst):
    """Path of accepted equations between two variables of one component,
    found breadth-first over the spanning equations in acceptance order."""
    tree = {}
    for eq in accepted:
        tree.setdefault(eq.i, []).append((eq.j, eq))
        tree.setdefault(eq.j, []).append((eq.i, eq))
    prev = {src: None}
    q = deque([src])
    while q:
        v = q.popleft()
        if v == dst:
            break
        for u, eq in tree.get(v, ()):
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
    # each equation puts the node whose id string is smaller on the left
    name = dict(zip(counts, map(str, counts)))
    for sym in dict.fromkeys(chain.from_iterable(map(counts.__getitem__,
                                                     order))):
        _, src, dst = sym
        c_src = counts[src].get(sym, 0)
        c_dst = counts[dst].get(sym, 0)
        if not (c_src and c_dst):
            unmatched.append((sym, c_src, c_dst))
        elif name[dst] < name[src]:
            equations.append(tuple.__new__(RatioEquation,
                                           (dst, src, c_dst, c_src, sym)))
        else:
            equations.append(tuple.__new__(RatioEquation,
                                           (src, dst, c_src, c_dst, sym)))
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
        check_digits(solution.values.values(), "a ratio value has")
        conflict = _unequal_products(solution, times)
        if conflict is None:
            # recorded, and no less than any slice loop count it gives
            check_digits(solution.lcm.values(), "an LCM of ratio values has")
    trace.reg_records.append(RegRecord(
        label, group.equations, solution,
        solution.lcm if conflict is None else None))
    if conflict is not None:
        return None, Deadlock(conflict)
    t = solution._times
    for eq in group.equations:
        # each symbol's sends and receives balance in the slice
        i, j, a, b, _ = eq
        assert a * t[i] == b * t[j], f"sliced model unbalanced at {eq}"
    return solution, None


def _unequal_products(solution, times):
    for comp in solution.components:
        products = [solution.values[n] * (0 if is_infinite(times[n])
                                          else times[n]) for n in comp]
        if len(set(products)) > 1:
            check_digits(products,
                         f"a product p*t within component {comp} has")
            parts = ", ".join(f"p{n}*t{n}={p}" for n, p in zip(comp, products))
            return RatioInconsistency(
                f"unequal products within component {comp}: {parts}")
    return None
