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
from mpicheck.reg import (Inconsistent, RatioEquation, RatioEquationGroup,
                          RatioSolution)
from mpicheck.smodel import build_mdg
from mpicheck.trace import RegRecord, SetRecord, Trace
from mpicheck.verdicts import (Deadlock, DeadlockFree, FppStuck, MdgCycle,
                               RatioInconsistency,
                               UnmatchedTotals)

SUBMODULES = ["analyze", "l0", "l2", "model", "oracle", "parser", "record",
              "reg", "smodel", "trace", "verdicts"]


def test_import_loads_no_class_generator_or_fractions():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpicheck.__file__)))
    code = ("import sys; before = set(sys.modules); import mpicheck; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "fractions", "decimal"}
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


A = Symbol("a", 0, 1)
B = Symbol("b", 1, 0)
EQ = RatioEquation(0, 1, 2, 3, A)
SA = "Symbol(name='a', src=0, dst=1)"
SB = "Symbol(name='b', src=1, dst=0)"
SEQ = f"RatioEquation(i=0, j=1, a=2, b=3, origin={SA})"
SOL = RatioSolution(((0, 1),), {0: 3, 1: 2})
SSOL = "RatioSolution(components=((0, 1),), values={0: 3, 1: 2})"
PROG = Program(((0, (A,)), (1, (A,))), ((0, "P0"), (1, "P1")))

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
    (Deadlock(MdgCycle(((A, 0),))),
     f"Deadlock(witness=MdgCycle(pairs=(({SA}, 0),)))", True),
    (MdgCycle(((A, 0), (B, 0))), f"MdgCycle(pairs=(({SA}, 0), ({SB}, 0)))",
     True),
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
    (Inconsistent((EQ,), "d"),
     f"Inconsistent(equations=({SEQ},), detail='d')", False),
    (RegRecord("l0", (EQ,), SOL),
     f"RegRecord(label='l0', equations=({SEQ},), solution={SSOL}, "
     "lcm=None, loop_times=None)", False),
    (RegRecord("outer", (EQ,), SOL, {(0, 1): 6}, {0: 2}),
     f"RegRecord(label='outer', equations=({SEQ},), solution={SSOL}, "
     "lcm={(0, 1): 6}, loop_times={0: 2})", False),
    (SetRecord(((0, 1), True)),
     "SetRecord(partition=((0, 1), True), solutions=[], actions=[])", False),
    (Trace(), "Trace(reg_records=[], set_records=[], strings={}, pools=[])",
     False),
    (SetMember((A,), 2, {A: 1}),
     f"SetMember(body=({SA},), count=2, counts={{{SA}: 1}}, leftover=())",
     False),
    (SetMember((A,), 1, {A: 1}, (B,)),
     f"SetMember(body=({SA},), count=1, counts={{{SA}: 1}}, "
     f"leftover=({SB},))", False),
    (RelatedSet((0, 1), {0: SetMember((A,), 2, {A: 1})}, True),
     f"RelatedSet(nodes=(0, 1), members={{0: SetMember(body=({SA},), "
     f"count=2, counts={{{SA}: 1}}, leftover=())}}, eligible=True)", False),
    (build_mdg({0: (A, B), 1: (A, B)}),
     f"Mdg(pairs=(({SA}, 0), ({SB}, 0)), succ=((1,), ()), unpaired=())",
     True),
    (Report(DeadlockFree(), "smodel", Trace(), Program(((0, ()),))),
     "Report(verdict=DeadlockFree(), phase='smodel', trace=Trace("
     "reg_records=[], set_records=[], strings={}, pools=[]), "
     "program=Program(nodes=((0, ()),), names=()), timings={})", False),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]
FIELDS = {
    "For": ("count", "body"), "Program": ("nodes", "names"),
    "DeadlockFree": (), "Deadlock": ("witness",),
    "MdgCycle": ("pairs",),
    "UnmatchedTotals": ("symbol", "sends", "recvs"),
    "RatioInconsistency": ("detail", "equations"), "FppStuck": ("pool",),
    "OracleVerdict": (), "DeadlockReachable": ("trace", "state"),
    "DeadlockFreeOracle": ("states",), "Inconclusive": ("states",),
    "RatioEquationGroup": ("variables", "equations"),
    "RatioSolution": ("components", "values"),
    "Inconsistent": ("equations", "detail"),
    "RegRecord": ("label", "equations", "solution", "lcm", "loop_times"),
    "SetRecord": ("partition", "solutions", "actions"),
    "Trace": ("reg_records", "set_records", "strings", "pools"),
    "SetMember": ("body", "count", "counts", "leftover"),
    "RelatedSet": ("nodes", "members", "eligible"),
    "Mdg": ("pairs", "succ", "unpaired"),
    "Report": ("verdict", "phase", "trace", "program", "timings"),
}


def test_table_covers_every_record_class():
    assert set(FIELDS) == set(IDS) and len(FIELDS) == 22


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
    assert MdgCycle(pairs) != FppStuck(pairs)
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
    bare = RatioEquation(0, 1, 2, 3)
    assert bare.origin is None and str(bare) == "p0 : p1 = 2 : 3"
    assert repr(bare) == "RatioEquation(i=0, j=1, a=2, b=3, origin=None)"


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
    assert sol.lcm == {(0, 1): 6} and sol.times(0) == 2
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
    rec = RegRecord("l0", (), SOL)
    assert rec.lcm is None and rec.loop_times is None
    assert SetMember(body=(A,), count=2, counts={A: 1}).leftover == ()
    report = Report(DeadlockFree(), "smodel", Trace(), PROG)
    assert report.timings == {}
    assert report.timings is not Report(DeadlockFree(), "smodel", Trace(),
                                        PROG).timings
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
    assert member == SetMember((B,), 2, {B: 1}, (A,))


# module-level functions in src/ that only callers outside it name, each
# with the reason it stays
OUTSIDE_CALLERS = {
    ("oracle", "enabled"): "bench/tracing.py counts oracle states through "
                           "it until the benchmark reads stats from the "
                           "report (ROADMAP item 5)",
}


def test_every_src_function_has_a_src_caller():
    # a helper that only tests call belongs in the test that uses it
    pkg = os.path.dirname(os.path.abspath(mpicheck.__file__))
    tops = []       # (module, top-level statement, names used in it)
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as f:
                tree = ast.parse(f.read())
            for node in tree.body:
                used = {n.id for n in ast.walk(node) if type(n) is ast.Name}
                used |= {n.attr for n in ast.walk(node)
                         if type(n) is ast.Attribute}
                tops.append((fname[:-3], node, used))
    orphans = set()
    for mod, node, _ in tops:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name not in mpicheck.__all__ and not any(
                    node.name in used for _, other, used in tops
                    if other is not node):
            orphans.add((mod, node.name))
    assert orphans == set(OUTSIDE_CALLERS)
