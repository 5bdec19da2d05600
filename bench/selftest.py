"""Self-test of the benchmark's workloads and tracing, small enough for the
oracle: the reference answers must not depend on the static checker.

    PYTHONPATH=src python -m pytest bench/selftest.py
"""
import random
from collections import Counter

import pytest

import tracing
import workloads
from mpicheck import analyze, explore, parse, validate
from mpicheck.oracle import DeadlockFreeOracle, DeadlockReachable

SEED = 7


def oracle_says(text):
    result = explore(validate(parse(text)))
    assert isinstance(result, (DeadlockReachable, DeadlockFreeOracle))
    return (workloads.DEADLOCK if isinstance(result, DeadlockReachable)
            else workloads.FREE)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_agrees_with_constructed_answers(workload):
    known = 0
    for i in range(150):
        case = workloads.case(workload, SEED, i, oracle=True)
        if case.expected is not None:
            assert oracle_says(case.text) == case.expected, (i, case.label)
            known += 1
    assert known >= 100


@pytest.mark.parametrize("count", [3, 5, 1000])
def test_shifted_exchange_is_deadlock_free(count):
    bodies = [[("for", count, [("send", "a", 1), ("recv", "b", 1)])],
              [("recv", "a", 0),
               ("for", count - 1, [("send", "b", 0), ("recv", "a", 0)]),
               ("send", "b", 0)]]
    assert oracle_says(workloads.render(bodies)) == workloads.FREE


@pytest.mark.parametrize("wrap", [False, True])
def test_small_nested_phases_answers(wrap):
    """Flipped and shifted pairs at oracle scale, finite and infinite."""
    for flip, shift in ((False, False), (False, True), (True, False)):
        for i in range(10):
            bodies, expected, label = workloads.nested_phases(
                random.Random(i), 4, 3, (0.3, 0.7), flip, shift, wrap)
            assert expected == (workloads.DEADLOCK if flip
                                else workloads.FREE)
            assert oracle_says(workloads.render(bodies)) == expected, label


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("oracle", [False, True])
def test_each_block_takes_every_cell_once(workload, oracle, monkeypatch):
    assert workloads.case(workload, SEED, 3, oracle) == \
        workloads.case(workload, SEED, 3, oracle)
    sets = list(workloads.WORKLOADS[workload])
    cells = sets[oracle][1]
    seen = []
    sets[oracle] = (lambda rng, cell: seen.append(cell), cells)
    monkeypatch.setitem(workloads.WORKLOADS, workload, tuple(sets))
    for i in range(2 * len(cells)):
        workloads.case(workload, SEED, i, oracle)
    assert Counter(seen[:len(cells)]) == Counter(cells)
    assert Counter(seen[len(cells):]) == Counter(cells)


def test_span_counts_match_reports():
    import mpicheck
    tracer = tracing.Tracer()
    texts = [workloads.case("small-crosscheck", SEED, i).text
             for i in range(40)]
    texts.append(workloads.case("nested-phases", SEED, 0).text)
    phases = set()
    for i, text in enumerate(texts):
        tracer.case, first = i, len(tracer.spans)
        tracer.install()
        try:
            report = mpicheck.analyze(validate(parse(text)))
        finally:
            tracer.uninstall()
        assert tracing.report_mismatches(tracer.spans[first:], report) == []
        phases.add(report.phase)
    assert phases == {"smodel", "l0", "l2"}
    assert mpicheck.analyze is analyze          # originals are back


def test_times_scale_by_the_nearest_probes():
    import run
    ref = run.PROBE_REF_MS / 1000
    # the host runs at reference speed, then at half of it
    probes = [(t, ref if t < 10 else 2 * ref) for t in range(20)]
    assert run.host_scaled([(3.5, 0.1), (15.5, 0.1)], probes) == \
        pytest.approx([0.1, 0.05])


def test_program_set_is_whole_blocks():
    for workload, blocks in workloads.BLOCKS.items():
        cells = workloads.WORKLOADS[workload][0][1]
        cases = workloads.program_set(workload, SEED)
        assert len(cases) == blocks * len(cells)
        assert cases == workloads.program_set(workload, SEED)
