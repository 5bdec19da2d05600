"""Print every report of a fixed program set, one line per program, so that
two versions of the engines can be compared with ``diff``.

A line is the program's source name, a tab, and a JSON array of the report
as ``mpicheck check --json`` shows it, without its ``timings``, and the
trace's pool-round set records (partition, solutions, actions).  A check
that raises prints the error's class and message instead.  The sources:

* ``corpus``: the acceptance corpus of ``tests/corpus.py``;
* ``programs``: ``programs/*.mdl``;
* ``fuzz``: ``tests/fuzz.py``'s seeds 1-3, 3,000 programs each;
* ``workloads``: the seed-1 and seed-2 static sets of the four workloads
  in ``bench/workloads.py``.

Run as ``PYTHONPATH=src python tests/reports.py [SOURCE ...] > out.txt``
(all four when none is named), then ``diff`` the outputs of two checkouts;
run each under ``PYTHONHASHSEED=0`` and ``1`` as well.
"""
import argparse
import glob
import json
import os
import sys

from mpicheck.analyze import analyze
from mpicheck.model import ModelError, validate
from mpicheck.parser import MdlSyntaxError, parse

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS_SEED, CORPUS_SIZE = 20260826, 1200  # as in test_acceptance.py
FUZZ_SEEDS, FUZZ_COUNT = (1, 2, 3), 3000
WORKLOAD_SEEDS = (1, 2)


def _corpus():
    from corpus import corpus
    for i, prog in enumerate(corpus(CORPUS_SEED, CORPUS_SIZE)):
        yield f"corpus:{CORPUS_SEED}:{i}", prog


def _programs():
    for path in sorted(glob.glob(os.path.join(ROOT, "programs", "*.mdl"))):
        with open(path, encoding="utf-8") as fh:
            yield f"programs/{os.path.basename(path)}", fh.read()


def _fuzz():
    import fuzz
    for seed in FUZZ_SEEDS:
        for i, prog in enumerate(fuzz.programs(seed, FUZZ_COUNT)):
            yield f"fuzz:{seed}:{i}", prog


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for i, case in enumerate(workloads.program_set(name, seed)):
                yield f"{name}:{seed}:{i}", case.text


SOURCES = {"corpus": _corpus, "programs": _programs, "fuzz": _fuzz,
           "workloads": _workloads}


def line(name, source) -> str:
    """The output line of one program, given as a Program or as text."""
    try:
        prog = validate(parse(source)) if isinstance(source, str) else source
        report = analyze(prog)
    except (MdlSyntaxError, ModelError) as exc:
        return f"{name}\terror: {type(exc).__name__}: {exc}"
    shown = report.to_dict()
    del shown["timings"]
    sets = [[rec.partition, rec.solutions, rec.actions]
            for rec in report.trace.set_records]
    return f"{name}\t{json.dumps([shown, sets])}"


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
