"""Top-level acceptance suite.

Each test covers one release criterion and prints a single PASS line when it
holds; any assertion failure is a FAIL for that criterion.  Golden checks pin
the bundled example programs; the statistical checks run a fresh random
corpus against the exhaustive oracle.
"""
import gc
import os
import random
import time
from collections import Counter

import pytest

import conftest
from corpus import corpus
from test_l2 import random_power_string
from test_smodel import schedule_queues
from mpicheck.analyze import analyze
from mpicheck.l2 import normalize, strip_outer_infinite
from mpicheck.model import For, Symbol, flatten_items, unroll, validate
from mpicheck.oracle import DeadlockFreeOracle, DeadlockReachable, explore
from mpicheck.parser import parse
from mpicheck.reg import RatioEquation, RatioEquationGroup, RatioSolution, solve
from mpicheck.smodel import (build_mdg, check_by_queues, check_smodel,
                             find_deadlock_cycle)
from mpicheck.trace import Trace
from mpicheck.verdicts import Deadlock, MdgCycle

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAMS = os.path.join(HERE, os.pardir, "programs")

CORPUS_SEED = 20260826
CORPUS_SIZE = 1200


def load(name):
    with open(os.path.join(PROGRAMS, name), encoding="utf-8") as fh:
        return validate(parse(fh.read()))


def ok(n, text):
    conftest.acceptance_lines.append(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def shared_corpus():
    return corpus(CORPUS_SEED, CORPUS_SIZE)


def test_criterion_1_golden_verdicts():
    t0 = time.perf_counter()
    r2 = analyze(load("prog2.mdl"))
    assert isinstance(r2.verdict, Deadlock)
    assert isinstance(r2.verdict.witness, MdgCycle)
    assert len(r2.verdict.witness.pairs) == 3
    assert time.perf_counter() - t0 < 1.0

    for name, phase in (("prog3.mdl", "l0"), ("prog10.mdl", "l2"),
                        ("prog18.mdl", "l2")):
        t0 = time.perf_counter()
        rep = analyze(load(name))
        assert bool(rep.verdict), name
        assert rep.phase == phase
        assert time.perf_counter() - t0 < 1.0
    ok(1, "golden verdicts: 3-pair cycle deadlock plus three free programs")


def test_criterion_2_golden_artifacts():
    # single-loop flow: equations, solution, slice, unrolled sequences
    rep3 = analyze(load("prog3.mdl"))
    (rec,) = rep3.trace.reg_records
    assert [str(e) for e in rec.equations] == [
        "p0 : p1 = 1 : 2  [a:0->1]",
        "p0 : p2 = 1 : 1  [c:0->2]",
        "p0 : p1 = 1 : 2  [b:1->0]",
        "p1 : p2 = 2 : 1  [d:2->1]",
    ]
    assert rec.solution.values == {0: 1, 1: 2, 2: 1}
    assert list(rec.lcm.values()) == [2]
    assert rec.loop_times == {0: 2, 1: 1, 2: 2}

    from mpicheck.l0 import slice_view
    prog3 = load("prog3.mdl")
    sliced = slice_view(prog3, rec.solution)
    queues = unroll(sliced)
    seq = {n: "".join(s.name for s in q) for n, q in queues.items()}
    assert seq == {0: "acbacb", 1: "abadbd", 2: "cdcd"}

    # nested-loop flow: string mapping, pool snapshots, first set partition
    rep10 = analyze(load("prog10.mdl"))
    assert rep10.trace.string_map == {
        0: "((ac)^2 b^4 ac)^inf",
        1: "((ac)^3 d)^inf",
        2: "(b^4 d)^inf",
    }
    snaps = rep10.trace.fpp_snapshots
    assert snaps[0] == {0: "(ac)^2", 1: "(ac)^3", 2: "b^4"}
    assert snaps[1] == {0: "b^4", 1: "ac", 2: "b^4"}
    first = rep10.trace.set_records[0]
    assert dict(first.partition) == {(0, 1): True, (2,): False}
    vars_, values = first.solutions[0]
    assert vars_ == (0, 1) and values == {0: 1, 1: 1}
    ok(2, "intermediate artifacts match the worked examples exactly")


def test_criterion_3_oracle_equivalence(shared_corpus):
    t0 = time.perf_counter()
    free = 0
    for i, prog in enumerate(shared_corpus):
        verdict = analyze(prog).verdict
        oracle = explore(prog)
        assert isinstance(oracle, (DeadlockFreeOracle, DeadlockReachable)), i
        static_free = not isinstance(verdict, Deadlock)
        oracle_free = isinstance(oracle, DeadlockFreeOracle)
        assert static_free == oracle_free, (
            f"disagreement on corpus program {i}")
        free += oracle_free
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert 0 < free < len(shared_corpus)  # the corpus exercises both verdicts
    ok(3, f"static == oracle on {len(shared_corpus)}/{len(shared_corpus)} "
          f"programs ({free} free) in {elapsed:.1f}s")


def _finite_queue_models(programs):
    """Every corpus program as an event-queue model: direct unrolling for
    finite programs, the consistent slice for infinite ones (skipped when no
    slice exists)."""
    for prog in programs:
        try:
            yield unroll(prog)
            continue
        except Exception:
            pass
        strings = {n: normalize(b) for n, b in prog.nodes}
        try:
            finite, verdict = strip_outer_infinite(strings, Trace())
        except Exception:
            continue
        if verdict is not None:
            continue
        yield {n: flatten_items(ps, cap=10**5) for n, ps in finite.items()}


def test_criterion_4_method_agreement_and_confluence(shared_corpus):
    models = 0
    for queues in _finite_queue_models(shared_corpus):
        models += 1
        base = isinstance(check_by_queues(queues), Deadlock)
        mdg = build_mdg(queues)
        assert (bool(mdg.unpaired)
                or find_deadlock_cycle(mdg) is not None) == base
        for k in range(10):
            rng = random.Random(k * 7919 + models)
            assert isinstance(check_by_queues(queues, rng=rng),
                              Deadlock) == base
    assert models >= 1000
    ok(4, f"queue and cycle tests agree on {models} event-queue models, "
          f"stable under 10 randomized orders each")


def _ping_pong_queues(n_events):
    a = Symbol("a", 0, 1)
    b = Symbol("b", 1, 0)
    half = n_events // 2
    q0 = (a, b) * (half // 2)
    return {0: q0, 1: q0}


def test_criterion_5_desk_scale_performance():
    # sizes alternate and the collector is paused, as in criterion 8, so a
    # slow spell of a shared host or a collector pass hits both sizes alike
    models = [_ping_pong_queues(n) for n in (10**5, 2 * 10**5)]
    best = [float("inf")] * len(models)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for i, queues in enumerate(models):
                t0 = time.perf_counter()
                verdict = check_by_queues(queues)
                best[i] = min(best[i], time.perf_counter() - t0)
                assert bool(verdict)
    finally:
        gc.enable()
    t1, t2 = best
    ratio = t2 / t1
    assert ratio <= 2.5, f"doubling the events scaled time by {ratio:.2f}"

    rng = random.Random(13)
    n = 10**5
    values = [rng.randint(1, 50) for _ in range(n // 4 + 1)]
    eqs = []
    for _ in range(n):
        i, j = rng.sample(range(len(values)), 2)
        k = rng.randint(1, 3)
        eqs.append(RatioEquation(i, j, values[i] * k, values[j] * k))
    group = RatioEquationGroup(tuple(range(len(values))), tuple(eqs))
    t0 = time.perf_counter()
    sol = solve(group)
    dt = time.perf_counter() - t0
    assert isinstance(sol, RatioSolution)
    assert dt < 1.0, f"solving 1e5 equations took {dt:.2f}s"
    ok(5, f"queue scaling ratio {ratio:.2f} <= 2.5; "
          f"1e5 ratio equations solved in {dt * 1000:.0f}ms")


def test_criterion_6_normalization_soundness():
    checked = 0
    for seed in range(1000):
        ps = random_power_string(random.Random(seed))
        norm = normalize(ps)
        assert flatten_items(norm) == flatten_items(ps), seed
        assert normalize(norm) == norm, seed
        checked += 1
    ok(6, f"normalize preserved the unrolled sequence and was idempotent "
          f"on {checked} random power strings")


def test_criterion_7_slicing_balance(shared_corpus):
    sliced = 0
    for prog in shared_corpus:
        if not any(isinstance(st, For) for _, body in prog.nodes
                   for st in body):
            continue
        strings = {n: normalize(b) for n, b in prog.nodes}
        try:
            finite, verdict = strip_outer_infinite(strings, Trace())
        except Exception:
            continue
        if verdict is not None:
            continue  # not ratio consistent: no slice to check
        sends = Counter()
        recvs = Counter()
        for n, ps in finite.items():
            for s in flatten_items(ps, cap=10**5):
                if n == s.src:
                    sends[s] += 1
                else:
                    recvs[s] += 1
        for s in set(sends) | set(recvs):
            assert sends[s] == recvs[s], (prog, s)
        sliced += 1
    assert sliced >= 100
    ok(7, f"send/recv totals balanced in all {sliced} sliced models")


def test_criterion_8_loopfree_check_scaling():
    # the whole loop-free check, MDG cross-check included, on a 64-node
    # random schedule.  Sizes alternate so a slow spell of a shared host
    # hits both, and the collector is paused as in timeit: its passes cost
    # in proportion to the whole test process's heap, not the check's work.
    sizes = (5 * 10**4, 10**5)
    models = [schedule_queues(random.Random(8), 64, n) for n in sizes]
    best = [float("inf")] * len(sizes)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            for i, queues in enumerate(models):
                t0 = time.perf_counter()
                verdict = check_smodel(queues)
                best[i] = min(best[i], time.perf_counter() - t0)
                assert bool(verdict)
    finally:
        gc.enable()
    ratio = best[1] / best[0]
    assert ratio <= 2.5, f"doubling the events scaled time by {ratio:.2f}"
    ok(8, f"check_smodel scaling ratio {ratio:.2f} <= 2.5 on a 64-node "
          f"random schedule of 5e4 -> 1e5 events")
