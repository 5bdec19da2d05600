"""Print every oracle verdict of a fixed program set, one line per program,
so that two versions of the oracle can be compared with ``diff``.

A line is the program's source name, then, tab-separated, ``repr`` of
``explore``'s verdict at its default bound and at a bound of 7 states.  A
program that does not parse or validate prints the error's class and
message instead.  The sources:

* ``corpus``, ``programs`` and ``fuzz``: as in ``tests/reports.py``;
* ``workloads``: the seed-1 and seed-2 oracle-scale sets of the four
  workloads in ``bench/workloads.py`` (small-crosscheck has none) and the
  seed-1 and seed-2 static sets of small-crosscheck, whose every program
  the benchmark also explores.

Run as ``PYTHONPATH=src python tests/explorations.py [SOURCE ...] >
out.txt`` (all four when none is named), then ``diff`` the outputs of two
checkouts; run each under ``PYTHONHASHSEED=0`` and ``1`` as well.
"""
import argparse
import os
import sys

import reports
from mpicheck.model import ModelError, validate
from mpicheck.oracle import explore
from mpicheck.parser import MdlSyntaxError, parse

BOUND = 7


def _workloads():
    sys.path.insert(0, os.path.join(reports.ROOT, "bench"))
    import workloads
    for oracle in (True, False):
        for name in workloads.WORKLOADS:
            if not oracle and name != "small-crosscheck":
                continue
            tag = f"oracle:{name}" if oracle else name
            for seed in reports.WORKLOAD_SEEDS:
                for i, case in enumerate(
                        workloads.program_set(name, seed, oracle)):
                    yield f"{tag}:{seed}:{i}", case.text


SOURCES = {**reports.SOURCES, "workloads": _workloads}


def line(name, source) -> str:
    """The output line of one program, given as a Program or as text."""
    try:
        prog = validate(parse(source)) if isinstance(source, str) else source
        verdicts = [explore(prog), explore(prog, max_states=BOUND)]
    except (MdlSyntaxError, ModelError) as exc:
        return f"{name}\terror: {type(exc).__name__}: {exc}"
    return "\t".join([name, *map(repr, verdicts)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sources", nargs="*", metavar="SOURCE",
                    help=f"one of {', '.join(SOURCES)} (default: all)")
    args = ap.parse_args(argv)
    for source in set(args.sources) - SOURCES.keys():
        ap.error(f"unknown source {source!r}")
    for source in args.sources or SOURCES:
        for name, prog in SOURCES[source]():
            print(line(name, prog))
    return 0


if __name__ == "__main__":
    sys.exit(main())
