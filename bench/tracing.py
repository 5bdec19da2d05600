"""Per-layer spans for the traced benchmark run, recorded from outside.

``Tracer`` replaces the public functions of each ``mpicheck`` module with
wrappers that record a span (name, start, end, parent, case) or a counter,
and puts the originals back on ``uninstall``.  Modules import each other's
functions by name (``l0``, ``l2`` and ``analyze`` hold their own references
to ``solve``, ``check_smodel`` and ``unroll``), so every module attribute
bound to a wrapped function is replaced, not only the defining one.
Nothing under ``src/`` changes.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict


def _walk_events(body):
    n = 0
    for st in body:
        inner = getattr(st, "body", None)
        n += 1 if inner is None else _walk_events(inner)
    return n


def _parse_count(args, kwargs, program):
    return sum(_walk_events(body) for _, body in program.nodes)


def _queue_events(queues):
    return sum(len(q) for q in queues.values())


# (module, function, span name, counter of (args, kwargs, result))
TARGETS = (
    ("parser", "parse", "parser.parse", _parse_count),
    ("model", "validate", "model.validate", None),
    ("model", "unroll", "model.unroll", lambda a, k, r: _queue_events(r)),
    ("smodel", "check_smodel", "smodel.check_smodel",
     lambda a, k, r: _queue_events(a[0])),
    ("smodel", "check_by_queues", "smodel.check_by_queues", None),
    ("smodel", "build_mdg", "smodel.build_mdg",
     lambda a, k, r: (len(r.pairs), len(r.edges))),
    ("smodel", "find_deadlock_cycle", "smodel.find_deadlock_cycle", None),
    ("reg", "solve", "reg.solve", lambda a, k, r: len(a[0].equations)),
    ("l0", "check_l0", "l0.check_l0", None),
    ("l2", "check_l2", "l2.check_l2", None),
    ("l2", "normalize", "l2.normalize", None),
    ("l2", "strip_outer_infinite", "l2.strip_outer_infinite", None),
    ("l2", "fpp", "l2.fpp", None),
    ("l2", "related_sets", "l2.related_sets", None),
    ("l2", "align_and_reduce", "l2.align_and_reduce",
     lambda a, k, r: r[0] == "progress"),
    ("analyze", "analyze", "analyze.analyze", lambda a, k, r: r.phase),
    ("oracle", "explore", "oracle.explore", None),
)
ENGINES = {"smodel.check_smodel": "smodel", "l0.check_l0": "l0",
           "l2.check_l2": "l2"}


class Tracer:
    """Spans are lists ``[id, parent, name, start, end, case, count]``;
    ``parent`` is -1 for a span with no enclosing span."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self.states = 0           # oracle states expanded while installed
        self._bindings = []       # (module, attribute, original, wrapper)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "mpicheck" or name.startswith("mpicheck.")}
        for mod_name, fn_name, span, count in TARGETS:
            original = getattr(mods[f"mpicheck.{mod_name}"], fn_name)
            self._bind(mods, original,
                       self._span_wrapper(original, span, count))
        enabled = mods["mpicheck.oracle"].enabled
        self._bind(mods, enabled, self._state_counter(enabled))

    def _bind(self, mods, original, wrapper):
        for mod in mods.values():
            for attr, value in vars(mod).items():
                if value is original:
                    self._bindings.append((mod, attr, original, wrapper))

    def _span_wrapper(self, fn, name, count):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   self.case, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[6] = count(args, kwargs, result)
            return result

        return wrapper

    def _state_counter(self, fn):
        def wrapper(*args, **kwargs):
            self.states += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, case, count in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "case": case,
                     "start": t0, "end": t1, "count": count}) + "\n")


def report_mismatches(spans, report) -> list:
    """Compare the spans of one traced ``analyze()`` call with what its
    Report records; returns a description of each disagreement."""
    names = {s[0]: s[2] for s in spans}
    top = [s for s in spans if s[2] == "analyze.analyze"]
    engines = [ENGINES[s[2]] for s in spans
               if s[2] in ENGINES and names.get(s[1]) == "analyze.analyze"]
    pools = sum(1 for s in spans if s[2] == "l2.fpp")
    regs = sum(1 for s in spans if s[2] == "reg.solve" and names.get(s[1])
               in ("l0.check_l0", "l2.strip_outer_infinite"))
    out = []
    if len(top) != 1 or engines != [report.phase]:
        out.append(f"engine spans {engines} vs phase {report.phase}")
    if pools != len(report.trace.fpp_snapshots):
        out.append(f"{pools} pool spans vs "
                   f"{len(report.trace.fpp_snapshots)} fpp snapshots")
    if regs != len(report.trace.reg_records):
        out.append(f"{regs} recorded solve spans vs "
                   f"{len(report.trace.reg_records)} reg records")
    return out


def layer_metrics(spans, n_checks, n_explores, states) -> dict:
    """Per-layer metrics as means per traced program: static-check layers
    per checked program, oracle layers per explored program."""
    dur = defaultdict(float)
    child = defaultdict(float)     # span id -> time covered by its children
    calls = defaultdict(int)
    counts = defaultdict(int)
    names = {}
    for sid, parent, name, t0, t1, _, count in spans:
        names[sid] = name
        dur[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            child[parent] += t1 - t0
    self_time = defaultdict(float)
    for sid, parent, name, t0, t1, _, count in spans:
        self_time[name] += (t1 - t0) - child[sid]
        if count is None:            # no counter, or the call raised
            continue
        if name == "model.unroll":
            counts["unrolled"] += count
            if names.get(parent) == "l0.check_l0":
                counts["sliced"] += count
        elif name == "smodel.check_smodel" and \
                names.get(parent) == "l2.align_and_reduce":
            counts["round"] += count
        elif name == "smodel.build_mdg":
            counts["pairs"] += count[0]
            counts["edges"] += count[1]
        elif name == "analyze.analyze":
            counts[f"route_{count}"] += 1
        elif name in ("parser.parse", "reg.solve"):
            counts[name] += count
        elif name == "l2.align_and_reduce":
            counts["progress"] += count

    c = max(n_checks, 1)
    e = max(n_explores, 1)
    ar_calls = calls["l2.align_and_reduce"]
    values = {
        "parser.parse_s": dur["parser.parse"] / c,
        "parser.stmts": counts["parser.parse"] / c,
        "model.validate_s": dur["model.validate"] / c,
        "model.unroll_s": dur["model.unroll"] / c,
        "model.unrolled_events": counts["unrolled"] / c,
        "smodel.queue_match_s": dur["smodel.check_by_queues"] / c,
        "smodel.mdg_build_s": dur["smodel.build_mdg"] / c,
        "smodel.cycle_test_s": dur["smodel.find_deadlock_cycle"] / c,
        "smodel.check_calls": calls["smodel.check_smodel"] / c,
        "smodel.mdg_pairs": counts["pairs"] / c,
        "smodel.mdg_edges": counts["edges"] / c,
        "reg.solve_s": dur["reg.solve"] / c,
        "reg.solve_calls": calls["reg.solve"] / c,
        "reg.equations": counts["reg.solve"] / c,
        "l0.self_s": self_time["l0.check_l0"] / c,
        "l0.sliced_events": counts["sliced"] / c,
        "l2.normalize_s": dur["l2.normalize"] / c,
        "l2.strip_outer_s": dur["l2.strip_outer_infinite"] / c,
        "l2.related_sets_s": dur["l2.related_sets"] / c,
        "l2.pool_iterations": calls["l2.fpp"] / c,
        "l2.align_reduce_self_s": self_time["l2.align_and_reduce"] / c,
        "l2.align_reduce_calls": ar_calls / c,
        "l2.progress_ratio": (counts["progress"] / ar_calls if ar_calls
                              else 0.0),
        "l2.round_events": counts["round"] / c,
        "oracle.explore_s": dur["oracle.explore"] / e,
        "oracle.states": states / e,
        "oracle.states_per_s": (states / dur["oracle.explore"]
                                if dur["oracle.explore"] else 0.0),
        "analyze.self_s": self_time["analyze.analyze"] / c,
        "analyze.route_smodel": counts["route_smodel"] / c,
        "analyze.route_l0": counts["route_l0"] / c,
        "analyze.route_l2": counts["route_l2"] / c,
    }
    return values
