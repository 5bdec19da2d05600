"""Record types: what ``import mpicheck`` loads, and the repr, equality,
hashing, immutability, keywords and defaults of every record class."""
import ast
import os
import subprocess
import sys

import pytest

import mpicheck
from mpicheck.analyze import Report
from mpicheck.l2 import RelatedSet, SetMember
from mpicheck.model import INFINITE, For, Program, Symbol
from mpicheck.oracle import (TERMINATED, DeadlockFreeOracle,
                             DeadlockReachable, Inconclusive, OracleVerdict)
from mpicheck.reg import RatioEquation, RatioEquationGroup, RatioSolution
from mpicheck.smodel import build_mdg
from mpicheck.trace import RegRecord, SetRecord, Trace
from mpicheck.verdicts import (Deadlock, DeadlockFree, FppStuck,
                               RatioInconsistency, UnmatchedTotals,
                               WaitCycle)

# the oracle is left out: it loads on the first `explore`
SUBMODULES = ["analyze", "l0", "l2", "model", "parser", "record", "reg",
              "smodel", "trace", "verdicts"]


def test_import_loads_no_class_generator_or_fractions():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpicheck.__file__)))
    code = ("import sys; before = set(sys.modules); import mpicheck; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "fractions", "decimal",
                        "__future__", "heapq"}
    assert {m for m in added if m.startswith("mpicheck")} == \
        {"mpicheck", *(f"mpicheck.{m}" for m in SUBMODULES)}


def test_plain_interpreter_import_loads_no_typing():
    # -S skips the site hooks, some of which load typing on their own
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpicheck.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import mpicheck; "
            "print('typing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.split() == ["False"]


def test_explore_loads_on_first_lookup_and_stays_bound():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpicheck.__file__)))
    code = ("import sys, mpicheck; print('explore' in vars(mpicheck)); "
            "fn = mpicheck.explore; "
            "print(fn is sys.modules['mpicheck.oracle'].explore, "
            "'explore' in vars(mpicheck))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    # later lookups are dict hits, not calls of the module's __getattr__
    assert proc.stdout.split() == ["False", "True", "True"]


def test_star_import_binds_explore():
    names = {}
    exec("from mpicheck import *", names)
    assert names["explore"] is mpicheck.oracle.explore
    assert set(mpicheck.__all__) <= set(names)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'mpicheck' has no attribute "
                                             "'no_such_name'"):
        mpicheck.no_such_name


A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
EQ = RatioEquation(0, 1, 2, 3, A)
SA = "Symbol(name='a', src=0, dst=1)"
SB = "Symbol(name='b', src=1, dst=0)"
SEQ = f"RatioEquation(i=0, j=1, a=2, b=3, origin={SA})"
SOL = RatioSolution(((0, 1),), {0: 3, 1: 2})
SSOL = "RatioSolution(components=((0, 1),), values={0: 3, 1: 2})"
PROG = Program(((0, (A,)), (1, (A,))), ((0, "P0"), (1, "P1")))


def _set(record, **fields):
    """``record`` with ``fields`` assigned, as the engines fill them in."""
    for name, value in fields.items():
        setattr(record, name, value)
    return record


# (record, its repr, whether it is frozen), as the classes printed them
# when they were generated as data classes
RECORDS = [
    (For(2, (A, For(INFINITE, (B,)))),
     f"For(count=2, body=({SA}, For(count=inf, body=({SB},))))", True),
    (PROG, f"Program(nodes=((0, ({SA},)), (1, ({SA},))), "
           "names=((0, 'P0'), (1, 'P1')))", True),
    (Program(((0, ()),)), "Program(nodes=((0, ()),), names=())", True),
    (DeadlockFree(), "DeadlockFree()", True),
    (Deadlock(None), "Deadlock(witness=None)", True),
    (Deadlock(WaitCycle(((0, A, 0),))),
     f"Deadlock(witness=WaitCycle(fronts=((0, {SA}, 0),)))", True),
    (WaitCycle(((0, A, 0), (1, B, 2))),
     f"WaitCycle(fronts=((0, {SA}, 0), (1, {SB}, 2)))", True),
    (UnmatchedTotals(A, 2, 1),
     f"UnmatchedTotals(symbol={SA}, sends=2, recvs=1)", True),
    (RatioInconsistency("x"), "RatioInconsistency(detail='x', equations=())",
     True),
    (RatioInconsistency("y", (EQ,)),
     f"RatioInconsistency(detail='y', equations=({SEQ},))", True),
    (FppStuck(((0, "a^2"),)), "FppStuck(pool=((0, 'a^2'),))", True),
    (OracleVerdict(), "OracleVerdict()", True),
    (DeadlockReachable((A,), (TERMINATED, ((0, 1),))),
     f"DeadlockReachable(trace=({SA},), state=('terminated', ((0, 1),)))",
     True),
    (DeadlockFreeOracle(21), "DeadlockFreeOracle(states=21)", True),
    (Inconclusive(14), "Inconclusive(states=14)", True),
    (RatioEquationGroup((0, 1), (EQ,)),
     f"RatioEquationGroup(variables=(0, 1), equations=({SEQ},))", True),
    (SOL, SSOL, False),
    (RegRecord("l0", (EQ,), SOL, None),
     f"RegRecord(label='l0', equations=({SEQ},), solution={SSOL}, "
     "lcm=None, loop_times=None)", False),
    (_set(RegRecord("outer", (EQ,), SOL, {(0, 1): 6}), loop_times={0: 2}),
     f"RegRecord(label='outer', equations=({SEQ},), solution={SSOL}, "
     "lcm={(0, 1): 6}, loop_times={0: 2})", False),
    (SetRecord(((0, 1), True)),
     "SetRecord(partition=((0, 1), True), solutions=[], actions=[])", False),
    (Trace(), "Trace(reg_records=[], set_records=[], strings={}, pools=[])",
     False),
    (SetMember((A,), 2, {A: 1}),
     f"SetMember(body=({SA},), count=2, counts={{{SA}: 1}}, leftover=())",
     False),
    (_set(SetMember((A,), 1, {A: 1}), leftover=(B,)),
     f"SetMember(body=({SA},), count=1, counts={{{SA}: 1}}, "
     f"leftover=({SB},))", False),
    (RelatedSet((0, 1), {0: SetMember((A,), 2, {A: 1})}),
     f"RelatedSet(nodes=(0, 1), members={{0: SetMember(body=({SA},), "
     f"count=2, counts={{{SA}: 1}}, leftover=())}})", False),
    (build_mdg({0: (A, B), 1: (A, B)}),
     f"Mdg(pairs=(({SA}, 0), ({SB}, 0)), succ=((1,), ()))",
     True),
    (Report(DeadlockFree(), "smodel", Trace(), Program(((0, ()),)), {}),
     "Report(verdict=DeadlockFree(), phase='smodel', trace=Trace("
     "reg_records=[], set_records=[], strings={}, pools=[]), "
     "program=Program(nodes=((0, ()),), names=()), timings={})", False),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]
FIELDS = {
    "For": ("count", "body"), "Program": ("nodes", "names"),
    "DeadlockFree": (), "Deadlock": ("witness",),
    "WaitCycle": ("fronts",),
    "UnmatchedTotals": ("symbol", "sends", "recvs"),
    "RatioInconsistency": ("detail", "equations"), "FppStuck": ("pool",),
    "OracleVerdict": (), "DeadlockReachable": ("trace", "state"),
    "DeadlockFreeOracle": ("states",), "Inconclusive": ("states",),
    "RatioEquationGroup": ("variables", "equations"),
    "RatioSolution": ("components", "values"),
    "RegRecord": ("label", "equations", "solution", "lcm", "loop_times"),
    "SetRecord": ("partition", "solutions", "actions"),
    "Trace": ("reg_records", "set_records", "strings", "pools"),
    "SetMember": ("body", "count", "counts", "leftover"),
    "RelatedSet": ("nodes", "members"),
    "Mdg": ("pairs", "succ"),
    "Report": ("verdict", "phase", "trace", "program", "timings"),
}


def test_table_covers_every_record_class():
    assert set(FIELDS) == set(IDS) and len(FIELDS) == 21


@pytest.mark.parametrize("record, text, frozen", RECORDS, ids=IDS)
def test_record_repr_and_hash(record, text, frozen):
    assert repr(record) == text
    if not frozen:
        assert type(record).__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
        return
    names = FIELDS[type(record).__name__]
    assert hash(record) == hash(tuple(getattr(record, f) for f in names))
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0] if names else "other")


@pytest.mark.parametrize("record, text, frozen", RECORDS, ids=IDS)
def test_record_equals_only_a_record_of_its_class(record, text, frozen):
    assert record == record and not record != record
    assert record != object() and record != ()
    # a record leaves the comparison with another class to the other side
    assert record.__eq__(object()) is NotImplemented


def test_records_of_different_classes_never_compare_equal():
    pairs = ((A, 0),)
    assert DeadlockFreeOracle(21) != Inconclusive(21)
    assert WaitCycle(pairs) != FppStuck(pairs)
    assert Deadlock(None) != DeadlockFree()
    assert DeadlockFreeOracle(21) == DeadlockFreeOracle(21)
    assert DeadlockFreeOracle(21) != DeadlockFreeOracle(22)


def test_for_hashes_as_its_field_tuple():
    loop = For(3, (A, B))
    assert hash(loop) == hash((3, (A, B)))
    assert loop == For(3, (A, B)) and loop != For(2, (A, B))


def test_tuple_classes_are_plain_tuples_with_their_own_text():
    loop = For(3, (A,))
    for value, names, fields in (
            (A, ("name", "src", "dst"), ("a", 0, 1)),
            (loop, ("count", "body"), (3, (A,))),
            (EQ, ("i", "j", "a", "b", "origin"), (0, 1, 2, 3, A))):
        assert value == fields and hash(value) == hash(fields)
        assert type(value)._fields == names
        assert tuple(getattr(value, f) for f in names) == fields
        assert not hasattr(value, "__dict__")
    assert str(A) == "a:0->1" and str(loop) == "a^3"
    assert str(EQ) == "p0 : p1 = 2 : 3  [a:0->1]"


def test_cached_properties_leave_repr_equality_and_hash_alone():
    fresh = Program(PROG.nodes, PROG.names)
    assert PROG.rank == {0: 0, 1: 1} and PROG.name_of(1) == "P1"
    assert PROG == fresh and hash(PROG) == hash(fresh)
    assert repr(PROG) == repr(fresh)
    mdg = build_mdg({0: (A, B), 1: (A, B)})
    before = repr(mdg)
    assert mdg.edges == (((A, 0), (B, 0)),)
    assert repr(mdg) == before and mdg == build_mdg({0: (A, B), 1: (A, B)})


def test_ratio_solution_compares_and_shows_components_and_values_only():
    sol = RatioSolution(((0, 1),), {0: 3, 1: 2})
    assert sol.lcm == {(0, 1): 6} and sol.times[0] == 2
    assert sol == RatioSolution(((0, 1),), {0: 3, 1: 2})
    assert sol != RatioSolution(((0, 1),), {0: 1, 1: 1})


def test_record_keywords_and_defaults():
    assert For(count=2, body=(A,)) == For(2, (A,))
    assert Program(nodes=((0, ()),)).names == ()
    assert Deadlock(witness=None) == Deadlock(None)
    assert RatioInconsistency("d").equations == ()
    assert RatioInconsistency(detail="d", equations=(EQ,)) == \
        RatioInconsistency("d", (EQ,))
    assert DeadlockReachable(state=(), trace=(A,)) == \
        DeadlockReachable((A,), ())
    assert UnmatchedTotals(A, recvs=1, sends=2) == UnmatchedTotals(A, 2, 1)
    rec = RegRecord("l0", (), SOL, None)
    assert rec.lcm is None and rec.loop_times is None
    assert SetMember(body=(A,), count=2, counts={A: 1}).leftover == ()
    report = Report(DeadlockFree(), "smodel", Trace(), PROG, {})
    assert report.timings == {}
    assert report.timings is not Report(DeadlockFree(), "smodel", Trace(),
                                        PROG, {}).timings
    a, b = Trace(), Trace()
    for name in FIELDS["Trace"]:
        assert getattr(a, name) == getattr(b, name)
        assert getattr(a, name) is not getattr(b, name)
    assert SetRecord(()).solutions is not SetRecord(()).solutions


@pytest.mark.parametrize("make", [
    lambda: UnmatchedTotals(A, 2),
    lambda: UnmatchedTotals(A, 2, 1, 0),
    lambda: UnmatchedTotals(A, 2, 1, sends=2),
    lambda: RatioInconsistency("d", extra=1),
    lambda: Inconclusive(),
    lambda: DeadlockFree(1),
], ids=["missing", "extra", "repeated", "unknown", "none", "no-fields"])
def test_record_rejects_wrong_arguments(make):
    with pytest.raises(TypeError):
        make()


def test_mutable_records_take_assignment():
    member = SetMember((A,), 2, {A: 1})
    member.body, member.counts, member.leftover = (B,), {B: 1}, (A,)
    assert member == _set(SetMember((B,), 2, {B: 1}), leftover=(A,))


# module-level functions in src/ that only callers outside it name, each
# with the reason it stays
OUTSIDE_CALLERS = {
    ("oracle", "enabled"): "bench/tracing.py counts oracle states through "
                           "it until the benchmark reads stats from the "
                           "report (ROADMAP item 5)",
    ("__init__", "__getattr__"): "the interpreter calls it for a missing "
                                 "module attribute (PEP 562)",
}


def _src_trees():
    """(module name, parsed module) for each module of src/mpicheck."""
    pkg = os.path.dirname(os.path.abspath(mpicheck.__file__))
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as f:
                yield fname[:-3], ast.parse(f.read())


def test_every_src_function_has_a_src_caller():
    # a helper that only tests call belongs in the test that uses it
    tops = []       # (module, top-level statement, names used in it)
    for mod, tree in _src_trees():
        for node in tree.body:
            used = {n.id for n in ast.walk(node) if type(n) is ast.Name}
            used |= {n.attr for n in ast.walk(node)
                     if type(n) is ast.Attribute}
            tops.append((mod, node, used))
    orphans = set()
    for mod, node, _ in tops:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name not in mpicheck.__all__ and not any(
                    node.name in used for _, other, used in tops
                    if other is not node):
            orphans.add((mod, node.name))
    assert orphans == set(OUTSIDE_CALLERS)


# what a test may import besides the standard library and the modules of
# tests/ and bench/: the package and the dev extra's two dependencies
IMPORTABLE = {"mpicheck", "pytest", "networkx"}


def _unfixed_inputs(tree, local):
    """(line, what) for each import in ``tree`` of a module outside the
    standard library, ``local`` and IMPORTABLE, each unseeded
    ``random.Random()`` and each draw from the random module's global
    generator."""
    known = set(sys.stdlib_module_names) | local | IMPORTABLE
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            mods = [node.module] if type(node) is ast.ImportFrom else names
            if any(m.split(".")[0] not in known for m in mods):
                yield node.lineno, f"imports {', '.join(mods)}"
            elif type(node) is ast.ImportFrom and mods == ["random"] and \
                    set(names) - {"Random"}:
                yield node.lineno, "imports a global generator's function"
        elif type(node) is ast.Call:
            func = node.func
            if getattr(func, "id", None) == "Random" or (
                    getattr(func, "attr", None) == "Random"
                    and getattr(func.value, "id", None) == "random"):
                if not node.args and not node.keywords:
                    yield node.lineno, "Random() without a seed"
            elif getattr(getattr(func, "value", None), "id", None) == "random":
                yield node.lineno, f"random.{func.attr}() is not seeded here"


def test_tests_import_listed_modules_and_seed_every_generator():
    # every run of the suite checks the same cases, and a failing case's
    # id names its seed
    here = os.path.dirname(os.path.abspath(__file__))
    bench = os.path.join(here, os.pardir, "bench")
    files = [os.path.join(here, f) for f in sorted(os.listdir(here))
             if f.endswith(".py")]
    local = {os.path.basename(f)[:-3]
             for f in files + os.listdir(bench) if f.endswith(".py")}
    found = []
    for path in files:
        with open(path) as f:
            found += [(os.path.basename(path), *hit)
                      for hit in _unfixed_inputs(ast.parse(f.read()), local)]
    assert found == []
    control = ("import propertylib.strategies\nfrom random import choice\n"
               "random.Random()\nrandom.shuffle(x)\nrandom.Random(7)\n"
               "rng.random()\nimport pytest, corpus\n")
    hits = _unfixed_inputs(ast.parse(control), {"corpus"})
    assert [line for line, _ in hits] == [1, 2, 3, 4]


# defaulted parameters that no src/ call varies, each with the reason it
# keeps its default: callers outside src/ omit it
FIXED_DEFAULTS = {
    ("model", "unroll", "max_events"): "public: a library caller unrolls "
                                       "under the default cap",
    ("model", "make_program", "names"): "public: a library caller gets the "
                                        "default names P<id>",
    ("model", "Program", "names"): "public: a library caller builds "
                                   "Program(nodes); the parser and "
                                   "make_program always name the nodes",
    ("oracle", "explore", "max_states"): "public: a library caller explores "
                                         "under the default state bound",
    ("cli", "main", "argv"): "the console script calls main(), which reads "
                             "sys.argv",
}


def _namedtuple_args(base):
    """The fields of a ``namedtuple("Name", "f g", defaults=(...))`` base
    as the parameters of a def, or None for any other base."""
    if getattr(base, "func", None) is None or \
            getattr(base.func, "id", None) != "namedtuple":
        return None
    fields = [ast.arg(f) for f in base.args[1].value.split()]
    defaults = next((k.value.elts for k in base.keywords
                     if k.arg == "defaults"), [])
    return ast.arguments(posonlyargs=[], args=fields, kwonlyargs=[],
                         kw_defaults=[], defaults=defaults)


def _called_name(call):
    """The name a call calls.  ``tuple.__new__(Class, fields)`` builds a
    named tuple from all its fields, read here as ``Class(*fields)``."""
    func = call.func
    if getattr(func, "attr", None) == "__new__" and call.args:
        return getattr(call.args[0], "id", None)
    return getattr(func, "id", getattr(func, "attr", None))


def test_every_src_default_is_varied_by_src_calls():
    # a default that every src/ call passes is a parameter only tests
    # leave out, and one that no src/ call passes is a constant only tests
    # set.  A record's __init__ is called by its class name, and so is a
    # named tuple whose base gives field defaults; a Report is not exempt
    # like the other names in __all__, as only analyze builds one.
    defs = []       # (module, name called, positional params, defaulted)
    calls = []
    for mod, tree in _src_trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((mod, node.name, node.args, 0))
            elif isinstance(node, ast.ClassDef):
                defs += [(mod, node.name, item.args, 1) for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"]
                defs += [(mod, node.name, args, 0) for args in
                         map(_namedtuple_args, node.bases) if args]
        calls += [n for n in ast.walk(tree) if type(n) is ast.Call]
    fixed = set()
    for mod, name, args, skip in defs:
        params = [a.arg for a in args.posonlyargs + args.args][skip:]
        defaulted = params[len(params) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        sites = [c for c in calls if _called_name(c) == name]
        for p in defaulted:
            passed = {any(type(a) is ast.Starred for a in c.args)
                      or getattr(c.func, "attr", None) == "__new__"
                      or (p in params and params.index(p) < len(c.args))
                      or any(k.arg in (p, None) for k in c.keywords)
                      for c in sites}
            if passed != {True, False}:
                fixed.add((mod, name, p))
    assert fixed == set(FIXED_DEFAULTS)
