"""mpicheck benchmark: time to verdict and oracle latency on known-answer
workloads.

    python3 bench/run.py                              # every workload
    python3 bench/run.py --workload nested-phases --seed 3
    python3 bench/run.py --workload loopfree-wide --trace 1   # per layer
    python3 bench/run.py --workload nested-phases --seed 3 --dump s17 > p.mdl

One process, one client, closed loop: each program is checked only after
the previous check returns.  A check is ``parse`` + ``validate`` +
``analyze()`` on source text already in memory, with default settings
(default ``max_events`` and ``max_states``, the MDG cross-check on).  A run
times a fixed seeded set of programs, whole blocks of its workload's cells
(see ``workloads.py``, also for why every answer is known), in passes: each
pass checks every program of the set, then, on the three large workloads,
explores the 360 oracle-scale cases of the same family, then times
``import mpicheck`` in two fresh interpreters.  Passes repeat until the run
length (``run_seconds`` of BENCHMARK.json) has passed, and the run stops
only between passes, so the set timed never depends on host speed.  Every
time is scaled to a reference host speed, measured by a probe between
checks (see PROBE_REF_MS); a program's time is the median of its passes,
and the percentiles weigh every program of the set once.

A failure is a wrong verdict, an exception, or an oracle ``Inconclusive``;
each is printed with the workload, seed and case that regenerate it.
``attempted`` and ``failed`` count the static checks (on small-crosscheck a
check and its exploration are one operation).  The oracle-scale
confirmations are counted apart, and a disagreement there makes ``correct``
false: the workload's constructed answers could not be trusted.  The last
line of output is one JSON object; ``correct`` is also false when spans
disagree with the Report.

``--trace 1`` times each program untraced and traced, in turn, and reports
per-layer metrics from the spans (``tracing.py``) with the tracing
overhead.  Spans are written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

# Fresh interpreters that time ``import mpicheck`` after each pass.
SETUP_PER_PASS = 2
# The checker's work depends on the order of string hashing: the same
# program makes up to 1.6 times as many calls under one hash seed as under
# another.  Every run pins it, so that runs compare like with like.
HASH_SEED = "0"
WORKLOADS = ("loopfree-wide", "single-loop-ring", "nested-phases",
             "small-crosscheck")
SETUP_CODE = ("import time\nt0 = time.perf_counter()\nimport mpicheck\n"
              "print(time.perf_counter() - t0)\n")
DEADLOCK, FREE = "deadlock", "deadlock-free"

# Host speed.  On a shared machine every program runs up to 1.7 times as
# slow for stretches of seconds, all alike.  A fixed probe, run between
# steps, measures that speed as it changes, and every time is scaled to a
# host on which the probe takes PROBE_REF_MS: a time T whose PROBE_NEAR
# nearest probes take P (median) is reported as T * PROBE_REF_MS / P.
PROBE_EVERY_S = 0.05
PROBE_NEAR = 4
PROBE_REF_MS = 4.0
_probe_rng = random.Random(0)
PROBE_EDGES = [(u, v) for u, v in ((_probe_rng.randrange(400),
                                    _probe_rng.randrange(400))
                                   for _ in range(700)) if u < v]


def run_seconds() -> float:
    """How long a run measures, as BENCHMARK.json sets it."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def _import_mpicheck():
    if not os.path.isfile(os.path.join(SRC, "mpicheck", "__init__.py")):
        sys.exit(f"error: no mpicheck sources under {SRC}")
    sys.path.insert(0, SRC)
    import mpicheck
    if not os.path.abspath(mpicheck.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported mpicheck from {mpicheck.__file__}")
    return mpicheck


def setup_seconds() -> float:
    """Seconds to ``import mpicheck`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=REPO,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def probe() -> int:
    """The probe: build an acyclic networkx graph and search it for a
    cycle, the kind of work the checker's MDG cross-check does.  It does
    not touch mpicheck, so a faster checker shows; of the probes tried, it
    followed the checker's slowdowns most closely."""
    import networkx as nx
    graph = nx.DiGraph(PROBE_EDGES)
    try:
        nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        pass
    return graph.number_of_edges()


def host_scaled(samples, probes) -> list:
    """(midpoint, seconds) samples scaled to the reference host speed, each
    by the PROBE_NEAR probes nearest to it in time."""
    mids = [m for m, _ in probes]
    out = []
    for mid, seconds in samples:
        lo = max(0, min(bisect.bisect(mids, mid) - PROBE_NEAR // 2,
                        len(probes) - PROBE_NEAR))
        near = statistics.median(d for _, d in probes[lo:lo + PROBE_NEAR])
        out.append(seconds * PROBE_REF_MS / 1000 / near)
    return out


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_unit(name) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


class Run:
    def __init__(self, api, workload, seed, traced):
        import workloads
        from mpicheck.oracle import DeadlockFreeOracle, DeadlockReachable
        from mpicheck.verdicts import Deadlock
        self.api = api
        self.oracle_kinds = {DeadlockReachable: DEADLOCK,
                             DeadlockFreeOracle: FREE}
        self.deadlock = Deadlock
        self.workload, self.seed = workload, seed
        self.tracer = None
        if traced:
            import tracing
            self.tracing = tracing
            self.tracer = tracing.Tracer()
        # The whole program set is generated before anything is timed.
        self.cases = {f"s{i}": c for i, c in enumerate(
            workloads.program_set(workload, seed))}
        self.cases.update({f"o{i}": c for i, c in enumerate(
            workloads.program_set(workload, seed, oracle=True))})
        self.attempted = self.n_failed = 0
        self.oracle_attempted = self.oracle_failed = 0
        self.failures = set()
        self.mismatches = []
        # (midpoint, seconds) samples: case key -> list, set-up, probes
        self.check_s = defaultdict(list)
        self.simulate_s = defaultdict(list)
        self.setup_s = []
        self.probes = []
        self.n_checks = self.n_explores = self.passes = 0
        self.plain_s = self.traced_s = 0.0

    def fail(self, key, what):
        if key not in self.failures:
            self.failures.add(key)
            print(f"FAIL workload={self.workload} seed={self.seed} "
                  f"case={key} [{self.cases[key].label}] {what}", flush=True)

    def _analyze(self, text):
        """(verdict, error, seconds, report) of parse + validate + analyze."""
        t0 = time.perf_counter()
        try:
            program = self.api.parse(text)
            self.api.validate(program)
            report = self.api.analyze(program)
        except Exception as exc:
            return None, repr(exc), time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        verdict = DEADLOCK if isinstance(report.verdict, self.deadlock) \
            else FREE
        return verdict, None, elapsed, report

    def check(self, key):
        """Time one static check; returns (verdict, error).  A traced run
        checks the program untraced and traced, in turn first."""
        c = self.cases[key]
        tr = self.tracer
        if tr is None:
            verdict, err, elapsed, _ = self._analyze(c.text)
        else:
            for traced in ((True, False) if self.n_checks % 2
                           else (False, True)):
                if not traced:
                    self.plain_s += self._analyze(c.text)[2]
                    continue
                tr.case, first = key, len(tr.spans)
                tr.install()
                try:
                    verdict, err, elapsed, report = self._analyze(c.text)
                finally:
                    tr.uninstall()
                self.traced_s += elapsed
                if report is not None:
                    bad = self.tracing.report_mismatches(tr.spans[first:],
                                                         report)
                    if bad:
                        self.mismatches.append((key, bad))
        self.n_checks += 1
        self.check_s[key].append((time.perf_counter() - elapsed / 2,
                                  elapsed))
        return verdict, err

    def explore(self, key):
        """Time one oracle exploration; returns the verdict, or None when
        inconclusive."""
        program = self.api.parse(self.cases[key].text)
        tr = self.tracer
        if tr is not None:
            tr.case = key
            tr.install()
        t0 = time.perf_counter()
        try:
            result = self.api.explore(program)
        finally:
            elapsed = time.perf_counter() - t0
            self.simulate_s[key].append((t0 + elapsed / 2, elapsed))
            if tr is not None:
                tr.uninstall()
        self.n_explores += 1
        return self.oracle_kinds.get(type(result))

    def static_case(self, key):
        verdict, err = self.check(key)
        expected = self.cases[key].expected
        self.attempted += 1
        if err is not None:
            what = f"raised {err}"
        elif verdict != expected:
            what = f"expected {expected}, checker says {verdict}"
        else:
            return
        self.n_failed += 1
        self.fail(key, what)

    def oracle_case(self, key):
        """Explore an oracle-scale case of the workload's family, which
        confirms its constructed answer.  Counted apart from the checks:
        a disagreement means the workload's answers cannot be trusted."""
        verdict = self.explore(key)
        expected = self.cases[key].expected
        self.oracle_attempted += 1
        if verdict is None:
            what = "oracle inconclusive"
        elif verdict != expected:
            what = f"expected {expected}, oracle says {verdict}"
        else:
            return
        self.oracle_failed += 1
        self.fail(key, what)

    def crosscheck_case(self, key):
        """Checked statically and explored, one operation; the reference is
        the constructed answer, or the oracle where there is none."""
        verdict, err = self.check(key)
        truth = self.explore(key)
        expected = self.cases[key].expected
        self.attempted += 1
        if err is not None:
            what = f"raised {err}"
        elif truth is None:
            what = "oracle inconclusive"
        elif expected is not None and truth != expected:
            what = f"expected {expected}, oracle says {truth}"
        elif verdict != truth:
            what = f"oracle says {truth}, checker says {verdict}"
        else:
            return
        self.n_failed += 1
        self.fail(key, what)

    def probe_due(self):
        """Run the probe when PROBE_EVERY_S have passed since the last."""
        t0 = time.perf_counter()
        if not self.probes or t0 - self.probes[-1][0] >= PROBE_EVERY_S:
            probe()
            elapsed = time.perf_counter() - t0
            self.probes.append((t0 + elapsed / 2, elapsed))

    def go(self, seconds, measure_setup):
        """Pass over the whole program set, then over the oracle-scale set,
        then time the set-up, until ``seconds`` have passed.  The run stops
        only between passes, so every seed and every host speed times the
        same mix of programs.  Untraced runs probe the host speed between
        steps."""
        static = [k for k in self.cases if k[0] == "s"]
        oracle = [k for k in self.cases if k[0] == "o"]
        step = (self.crosscheck_case if self.workload == "small-crosscheck"
                else self.static_case)
        steps = [(step, k) for k in static]
        steps += [(self.oracle_case, k) for k in oracle]
        probing = self.tracer is None
        if measure_setup:
            setup_seconds()           # fills the bytecode cache, untimed
        start = time.perf_counter()
        while True:
            for fn, key in steps:
                fn(key)
                if probing:
                    self.probe_due()
            if measure_setup:
                for _ in range(SETUP_PER_PASS):
                    t0 = time.perf_counter()
                    value = setup_seconds()
                    self.setup_s.append(((t0 + time.perf_counter()) / 2,
                                         value))
                    self.probe_due()
            self.passes += 1
            if time.perf_counter() - start >= seconds:
                return

    def end_to_end(self) -> dict:
        def scaled(samples):
            return statistics.median(host_scaled(samples, self.probes))

        ms = {k: scaled(v) * 1000 for k, v in self.check_s.items()}
        sim = [scaled(v) * 1000 for v in self.simulate_s.values()]
        stmts = sum(self.cases[k].stmts for k in ms)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (scaled(self.setup_s), "s", len(self.setup_s)),
            "check_ms_p50": (statistics.median(ms.values()), "ms", len(ms)),
            "check_ms_p90": (percentile(list(ms.values()), 90), "ms",
                             len(ms)),
            "stmts_per_s": (stmts * 1000 / sum(ms.values()), "1/s", len(ms)),
            "simulate_ms_p50": (statistics.median(sim), "ms", len(sim)),
            "simulate_ms_p90": (percentile(sim, 90), "ms", len(sim)),
            "peak_rss_mb": (rss, "MB", 1),
        }

    def per_layer(self) -> dict:
        n_checks, n_explores = self.n_checks, self.n_explores
        values = self.tracing.layer_metrics(
            self.tracer.spans, n_checks, n_explores, self.tracer.states)
        values["trace.overhead_share"] = self.traced_s / self.plain_s - 1
        return {name: (value, layer_unit(name),
                       n_explores if name.startswith("oracle.") else n_checks)
                for name, value in values.items()}


def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Same arguments, pinned string hashing; the process is replaced.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    api = _import_mpicheck()
    sys.path.insert(0, HERE)
    run = Run(api, args.workload, args.seed, args.trace)
    run.go(args.seconds, measure_setup=not args.trace)
    if args.trace:
        metrics = run.per_layer()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        run.tracer.write(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        metrics = run.end_to_end()
    for key, bad in run.mismatches:
        print(f"TRACE MISMATCH case={key}: {'; '.join(bad)}")
    rows = dict(metrics)
    if run.probes:
        rows["probe_ms"] = (statistics.median(d for _, d in run.probes)
                            * 1000, "ms", len(run.probes))
    rows["failed_share"] = (run.n_failed / run.attempted, "ratio",
                            run.attempted)
    if run.oracle_attempted:
        rows["oracle_failed_share"] = (
            run.oracle_failed / run.oracle_attempted, "ratio",
            run.oracle_attempted)
    for name, (value, unit, n) in rows.items():
        print(f"{args.workload:18s} {name:24s} {value:14.6g} {unit:6s} "
              f"n={n} passes={run.passes}")
    print(json.dumps({
        "correct": not run.mismatches and not run.oracle_failed,
        "attempted": run.attempted,
        "failed": run.n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that peak
    memory is per workload and the load stays one client."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)], cwd=REPO)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measure at least this long, in whole passes "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", metavar="CASE",
                    help="print the source of one case, named as in a FAIL "
                         "line (s17, o3), and exit")
    args = ap.parse_args(argv)
    if args.dump is not None:
        key = args.dump
        if args.workload == "all":
            ap.error("--dump needs --workload")
        if key[:1] not in ("s", "o") or not key[1:].isdigit():
            ap.error("--dump takes s<index> or o<index>")
        sys.path.insert(0, HERE)
        import workloads
        sys.stdout.write(workloads.case(args.workload, args.seed,
                                        int(key[1:]), key[0] == "o").text)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.seconds is None:
        args.seconds = run_seconds()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
