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
LCM slice.  ``solve_counts`` feeds the same union-find from the counts
themselves, with no ``RatioEquation`` or group built, for the nested-loop
engine's pool rounds; it gives up where only the equations name the
result: a conflict.
"""
from collections import deque, namedtuple
from itertools import chain
from math import gcd, lcm

from .model import COUNT_LIMIT, INFINITE, MAX_COUNT_DIGITS, SizeExceeded
from .record import Frozen, Record
from .trace import RegRecord, Trace
from .verdicts import Deadlock, RatioInconsistency, UnmatchedTotals


class RatioEquation(namedtuple("RatioEquation", "i j a b origin")):
    """p_i : p_j = a : b; ``origin`` is the symbol that produced the
    equation."""

    __slots__ = ()

    def __str__(self):
        return f"p{self.i} : p{self.j} = {self.a} : {self.b}  [{self.origin}]"


class RatioEquationGroup(Frozen):
    """Unknowns and equations over them, as ``count_equations``, the one
    builder, makes them: both variables of every equation are unknowns."""

    _fields = ("variables", "equations")

    def __init__(self, variables, equations):
        self.__dict__.update(variables=variables, equations=equations)


class RatioSolution(Record):
    """``lcm`` (component -> LCM of its values) and ``times`` (variable ->
    its loop count in the LCM slice, LCM / value) are neither shown nor
    compared."""

    _fields = ("components", "values")

    def __init__(self, components, values):
        self.components = components  # tuple of sorted variable tuples
        self.values = values  # variable -> positive int, per-component gcd 1
        self.lcm = {c: lcm(*[values[v] for v in c]) for c in components}
        # keyed by variable: a lookup by component would hash its tuple
        self.times = {v: m // values[v]
                      for c, m in self.lcm.items() for v in c}


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


def _find(parent, ratio, v):
    """(root, value(v) / value(root)) in ``solve``'s union-find forest,
    compressing the path.  ``solve`` calls it only for a ``v`` two or more
    hops below its root."""
    path = []
    while parent[v] != v:
        path.append(v)
        v = parent[v]
    root = v
    num, den = ratio[path.pop()]    # already reduced, to the root
    for u in reversed(path):
        un, ud = ratio[u]
        num, den = _frac(num * un, den * ud)
        parent[u] = root
        ratio[u] = (num, den)
    return root, (num, den)


def _unite(variables, equations):
    """The union-find forest of ``variables`` joined by ``equations``, each
    an (i, j, a, b, origin) tuple demanding value(i) : value(j) = a : b, in
    order: ``parent``, and ``ratio``, the reduced positive (numerator,
    denominator) pair value(v) / value(parent(v)), (1, 1) at a root.  Also
    returns the spanning equations in the order they were accepted, and
    None or, for the first equation whose ratio disagrees with the forest,
    that equation and the ratio value(i) / value(j) the forest has, as a
    (numerator, denominator) pair (not reduced)."""
    parent = {v: v for v in variables}
    ratio = dict.fromkeys(variables, (1, 1))
    size = dict.fromkeys(variables, 1)
    accepted = []
    for eq in equations:
        i, j, a, b, _ = eq
        # a root, or one hop below one, is read without a call
        ri = parent[i]
        if parent[ri] == ri:
            fin, fid = ratio[i]
        else:
            ri, (fin, fid) = _find(parent, ratio, i)
        rj = parent[j]
        if parent[rj] == rj:
            fjn, fjd = ratio[j]
        else:
            rj, (fjn, fjd) = _find(parent, ratio, j)
        # demanded: value(i) / value(j) = a / b
        if ri == rj:
            if fin * fjd * b != fid * fjn * a:
                return parent, ratio, accepted, (eq, fin * fjd, fid * fjn)
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
    return parent, ratio, accepted, None


def _integers(ratios):
    """The positive integers of gcd 1 proportional to ``ratios``, a list of
    (numerator, denominator) pairs."""
    nums, dens = zip(*ratios)
    m = lcm(*dens)
    if m > 1:
        nums = [n * (m // d) for n, d in zip(nums, dens)]
    g = gcd(*nums)
    return nums if g == 1 else [n // g for n in nums]


def solve(group: RatioEquationGroup):
    """Solution or a RatioInconsistency witness: the chain of accepted
    equations joining the two variables of the equation whose ratio
    disagrees around the cycle, then that equation.  A conflicting group
    is a first class result, not an error."""
    parent, ratio, accepted, conflict = _unite(group.variables,
                                               group.equations)
    if conflict is not None:
        eq, have_num, have_den = conflict
        i, j, a, b, _ = eq
        return RatioInconsistency(
            f"ratio around the cycle through p{i} and p{j} "
            f"is {_ratio_str(have_num, have_den)}, "
            f"equation demands {_ratio_str(a, b)}",
            tuple(_chain(accepted, i, j)) + (eq,))

    name = dict(zip(group.variables, map(str, group.variables)))
    groups = {}     # root -> {member: its ratio to the root}
    for v in group.variables:
        root = parent[v]
        if parent[root] == root:
            groups.setdefault(root, {})[v] = ratio[v]
        else:
            root, r = _find(parent, ratio, v)
            groups.setdefault(root, {})[v] = r
    comps = []
    values = {}
    for ratios in groups.values():
        values.update(zip(ratios, _integers(ratios.values())))
        comps.append(tuple(sorted(ratios, key=name.__getitem__)))
    # a component's first variable is its least by string
    comps.sort(key=lambda c: name[c[0]])
    return RatioSolution(tuple(comps), values)


def solve_counts(components, counts):
    """The solution ``solve(count_equations(order, counts)[0])`` gives,
    ``order`` being the nodes of ``components`` in turn, when its
    components are ``components``: tuples of nodes linked by the symbols
    they hold (``counts``: node -> {symbol: count}).  Each symbol's two
    counts go straight into the union-find as a plain tuple; no
    ``RatioEquation``, group or sorted component is built, and the values
    come in the order of ``components``.  None when the counts conflict, a
    symbol is counted at one endpoint only, or a component is not one of
    the solution's: the caller then solves the group for its witness.
    """
    equations = []
    held = 0
    try:
        for comp in components:
            for n in comp:
                mine = counts[n]
                held += len(mine)
                for sym, c in mine.items():
                    if sym[1] == n:     # each symbol once, at its sender
                        equations.append(
                            (n, sym[2], c, counts[sym[2]][sym], sym))
    except KeyError:                    # a sender counts a lone symbol
        return None
    variables = [n for comp in components for n in comp]
    parent, ratio, accepted, conflict = _unite(variables, equations)
    # a receiver counts a lone symbol, or the trees are fewer or more than
    # the components (each component is checked to be in one tree below)
    if conflict is not None or 2 * len(equations) != held or \
            len(accepted) != len(variables) - len(components):
        return None
    values = {}
    for comp in components:
        ratios = []
        root = None
        for v in comp:
            r = parent[v]
            if parent[r] == r:
                ratios.append(ratio[v])
            else:
                r, f = _find(parent, ratio, v)
                ratios.append(f)
            if r != root and root is not None:
                return None
            root = r
        values.update(zip(comp, _integers(ratios)))
    return RatioSolution(components, values)


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
    counts at both endpoints (`counts`: node -> {symbol: count}).  `order`,
    every node or a union of related sets, holds both endpoints of each of
    its symbols, so every equation's variables are in the group.

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

    Returns the solution, whose ``times`` sizes the LCM slice, or a
    Deadlock.  A solved group is recorded in `trace` under `label`,
    with its LCMs when it passes.
    """
    group, unmatched = count_equations(order, counts)
    if unmatched:
        return Deadlock(UnmatchedTotals(*unmatched[0]))
    solution = solve(group)
    if isinstance(solution, RatioInconsistency):
        conflict = solution
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
        return Deadlock(conflict)
    t = solution.times
    for eq in group.equations:
        # each symbol's sends and receives balance in the slice
        i, j, a, b, _ = eq
        assert a * t[i] == b * t[j], f"sliced model unbalanced at {eq}"
    return solution


def _unequal_products(solution, times):
    for comp in solution.components:
        products = [solution.values[n] * (0 if times[n] is INFINITE
                                          else times[n]) for n in comp]
        if len(set(products)) > 1:
            check_digits(products,
                         f"a product p*t within component {comp} has")
            parts = ", ".join(f"p{n}*t{n}={p}" for n, p in zip(comp, products))
            return RatioInconsistency(
                f"unequal products within component {comp}: {parts}")
    return None
