"""Command-line front door.

Exit codes: 0 deadlock-free, 1 deadlock, 2 usage/parse/validation error,
3 inconclusive (simulate only).
"""
import argparse
import contextlib
import io
import os
import sys

from .analyze import analyze
from .l2 import normalize, strip_outer_infinite
from .model import (INFINITE, MAX_EVENTS, For, ModelError, build_queues,
                    validate)
from .parser import MdlSyntaxError, parse
from .smodel import build_mdg, mdg_to_dot
from .trace import Trace
from .verdicts import Deadlock, RatioInconsistency, witness_dict


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read {path}: {exc}")
    return validate(parse(text))


class _Usage(Exception):
    pass


def _at_least_1(text):
    """An argparse type for a cap: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return n


def cmd_check(args) -> int:
    report = analyze(_load(args.path), max_events=args.max_events)
    if args.json:
        import json
        print(json.dumps(report.to_dict(), indent=2))
    else:
        verdict = report.verdict
        print(f"{args.path}: "
              f"{'DEADLOCK' if isinstance(verdict, Deadlock) else 'deadlock-free'}"
              f" (phase {report.phase})")
        if isinstance(verdict, Deadlock):
            print(f"  witness: {verdict.witness.to_dict()}")
        if args.trace:
            _print_trace(report)
    return 1 if isinstance(report.verdict, Deadlock) else 0


def _print_trace(report):
    tr = report.trace
    name = report.program.name_of
    if tr.string_map:
        print("  string mapping:")
        for n, s in tr.string_map.items():
            print(f"    {name(n)} -> {s}")
    for rec in tr.reg_records:
        _print_reg(rec, name)
    for i, snap in enumerate(tr.fpp_snapshots):
        body = ", ".join(f"{name(n)}: {p}" for n, p in sorted(snap.items()))
        print(f"  fpp[{i}]: {{{body}}}")
        if i < len(tr.set_records):
            rec = tr.set_records[i]
            for nodes, eligible in rec.partition:
                tag = "eligible" if eligible else "waiting"
                print(f"    related set {tuple(name(n) for n in nodes)}: {tag}")
            for nodes, values in rec.solutions:
                vals = ", ".join(f"p{n}={v}" for n, v in values.items())
                print(f"    set solution: {vals}")
            for act in rec.actions:
                print(f"    {act}")


def _print_reg(rec, name):
    """Text form of one ratio record, for `check --trace` and `reg`."""
    print(f"  ratio equations ({rec.label}):")
    for eq in rec.equations:
        print(f"    {eq}")
    sol = rec.solution
    if isinstance(sol, RatioInconsistency):
        print(f"    inconsistent: {sol.detail}")
        for eq in sol.equations:
            print(f"      clashing: {eq}")
    else:
        for comp in sol.components:
            vals = ":".join(str(sol.values[v]) for v in comp)
            vars_ = ":".join(f"p{v}" for v in comp)
            print(f"    solution {vars_} = {vals}")
    if rec.lcm:
        for comp, v in rec.lcm.items():
            print(f"    lcm{list(comp)} = {v}")
    if rec.loop_times:
        times = ", ".join(f"{name(n)}={t}" for n, t in rec.loop_times.items())
        print(f"    sliced loop times: {times}")


def cmd_mdg(args) -> int:
    mdg = build_mdg(_as_queues(_load(args.path), args.max_events))
    dot = mdg_to_dot(mdg)
    if args.dot == "-":
        sys.stdout.write(dot)
    else:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise _Usage(f"cannot write {args.dot}: {exc}")
        print(f"wrote {args.dot}: {len(mdg.pairs)} pairs, "
              f"{len(mdg.edges)} edges")
    return 0


def _as_queues(program, max_events):
    bodies = dict(program.nodes)
    # validate() allows `for inf` at the top level only
    if any(isinstance(st, For) and st.count is INFINITE
           for body in bodies.values() for st in body):
        # slice infinite loops down to one consistent round first
        strings = {n: normalize(b) for n, b in program.nodes}
        bodies = strip_outer_infinite(strings, Trace())
        if isinstance(bodies, Deadlock):
            raise ModelError(
                "program has no consistent finite slice; cannot draw its MDG")
    return build_queues([(n, b, 1) for n, b in bodies.items()], max_events)


def cmd_reg(args) -> int:
    """The ratio records of the check, as `check --trace` prints them."""
    program = _load(args.path)
    report = analyze(program)
    for rec in report.trace.reg_records:
        _print_reg(rec, program.name_of)
    if not report.trace.reg_records:
        print(f"  no ratio equations (phase {report.phase})")
    if isinstance(report.verdict, Deadlock):
        print(f"  deadlock: {witness_dict(report.verdict)}")
    return 0


def cmd_simulate(args) -> int:
    from . import oracle
    program = _load(args.path)
    verdict = oracle.explore(program, max_states=args.max_states)
    if isinstance(verdict, oracle.DeadlockReachable):
        print(f"{args.path}: deadlock reachable "
              f"after {len(verdict.trace)} rendezvous")
        for sym in verdict.trace:
            print(f"  {sym}")
        return 1
    if isinstance(verdict, oracle.Inconclusive):
        print(f"{args.path}: inconclusive after {verdict.states} states")
        return 3
    print(f"{args.path}: deadlock-free ({verdict.states} states explored)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="mpicheck",
        description="Static deadlock analysis for synchronous "
                    "message-passing programs (.mdl files)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run the static analysis")
    p.add_argument("path")
    p.add_argument("--trace", action="store_true",
                   help="print stage-by-stage details")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-events", type=_at_least_1, default=MAX_EVENTS)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("mdg", help="export the contracted message "
                                   "dependence graph as DOT")
    p.add_argument("path")
    p.add_argument("--dot", default="-", help="output file, - for stdout")
    p.add_argument("--max-events", type=_at_least_1, default=MAX_EVENTS)
    p.set_defaults(fn=cmd_mdg)

    p = sub.add_parser("reg", help="print ratio equations and solution")
    p.add_argument("path")
    p.set_defaults(fn=cmd_reg)

    p = sub.add_parser(
        "simulate", help="ground-truth oracle: one run to a stuck or "
        "repeated state")
    p.add_argument("path")
    p.add_argument("--max-states", type=_at_least_1, default=10**6)
    p.set_defaults(fn=cmd_simulate)

    args = ap.parse_args(argv)
    # the output is written once the exit code is known, so a reader that
    # closes its end early (`| head -1`) cannot change the code
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.fn(args)
    except (MdlSyntaxError, ModelError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull
        # (the note on SIGPIPE in the docs of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
