"""Command-line interface: subcommands, exit codes, machine output."""
import json
import os
import subprocess
import sys

import pytest

import reports
from test_parser import _nested_for
from mpicheck.cli import main
from mpicheck.model import MAX_NESTING

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAMS = os.path.join(HERE, os.pardir, "programs")


def prog(name):
    return os.path.join(PROGRAMS, name)


def test_check_free_exit_zero(capsys):
    assert main(["check", prog("prog3.mdl")]) == 0
    out = capsys.readouterr().out
    assert "deadlock-free" in out and "l0" in out


def test_check_deadlock_exit_one(capsys):
    assert main(["check", prog("prog2.mdl")]) == 1
    out = capsys.readouterr().out
    assert "DEADLOCK" in out and "wait-cycle" in out


def test_check_json_structure(capsys):
    assert main(["check", prog("prog10.mdl"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "deadlock-free"
    assert data["phase"] == "l2"
    assert data["witness"] is None
    assert data["fppTrace"][0] == {"P0": "(ac)^2", "P1": "(ac)^3",
                                   "P2": "b^4"}
    assert data["nodes"] == {"P0": 0, "P1": 1, "P2": 2}


def test_check_trace_prints_stages(capsys):
    assert main(["check", prog("prog3.mdl"), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "ratio equations" in out
    assert "solution p0:p1:p2 = 1:2:1" in out


def test_json_reports_declared_node_names(tmp_path, capsys):
    single = tmp_path / "single.mdl"
    single.write_text("node root { for inf { send a to leaf } }\n"
                      "node leaf { for inf { recv a from root } }\n"
                      "node idle { }\n")
    assert main(["check", str(single), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phase"] == "l0"
    assert data["nodes"] == {"root": 0, "leaf": 1, "idle": 2}
    assert data["emptyNodes"] == ["idle"]
    (rec,) = data["regSolutions"]
    assert rec["slicedLoopTimes"] == {"root": 1, "leaf": 1}

    nested = tmp_path / "nested.mdl"
    nested.write_text("node root { for 2 { for 3 { send a to leaf } } }\n"
                      "node leaf { for 6 { recv a from root } }\n")
    assert main(["check", str(nested), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phase"] == "l2"
    assert data["fppTrace"][0] == {"root": "a^6", "leaf": "a^6"}


def test_check_slice_cap_is_its_event_count(capsys):
    # prog3's LCM slice has 6 + 6 + 4 events
    assert main(["check", prog("prog3.mdl"), "--max-events", "16"]) == 0
    out = capsys.readouterr().out
    assert out == f"{prog('prog3.mdl')}: deadlock-free (phase l0)\n"
    assert main(["check", prog("prog3.mdl"), "--max-events", "15"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {prog('prog3.mdl')}: unrolled size exceeds cap "
                   "of 15 events\n")


def test_mdg_caps_the_slice_as_check_does(capsys):
    assert main(["mdg", prog("prog3.mdl"), "--max-events", "16"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    for cmd in ("check", "mdg"):
        assert main([cmd, prog("prog3.mdl"), "--max-events", "15"]) == 2
        assert capsys.readouterr().err == (
            f"error: {prog('prog3.mdl')}: unrolled size exceeds cap of 15 "
            "events\n")


def test_missing_file_exit_two(capsys):
    assert main(["check", prog("nope.mdl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mdl"
    bad.write_bytes(b"node P0 { }\n\xff\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot read {bad}: 'utf-8' codec can't decode byte "
        "0xff in position 12: invalid start byte\n")


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mdl"
    bad.write_text("node P0 { send a }")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_ascii_loop_count_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mdl"
    bad.write_text("node P0 {\n  for \u00b2 { send a to P1 }\n}\nnode P1 { }",
                   encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "(line 2, column 7)" in err


def test_validation_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mdl"
    bad.write_text("node P0 { send a to P0 }")
    assert main(["check", str(bad)]) == 2


def test_node_declared_twice_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mdl"
    bad.write_text("node P0 { }\nnode P0 { }\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {bad}: node 0 declared twice\n")


@pytest.mark.parametrize("cmd", ["check", "simulate", "reg", "mdg"])
def test_nesting_at_the_bound_checks(tmp_path, capsys, cmd):
    path = tmp_path / "deep.mdl"
    path.write_text(_nested_for(MAX_NESTING))
    assert main([cmd, str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cmd", ["check", "simulate"])
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000])
def test_nesting_past_the_bound_exit_two(tmp_path, capsys, cmd, depth):
    # 1,000 levels once overflowed the recursion limit, an exit of 1
    path = tmp_path / "deep.mdl"
    path.write_text(_nested_for(depth))
    assert main([cmd, str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: loops nest more than {MAX_NESTING} deep in "
        "node 0\n")


def _nested(stmt):
    """``stmt`` in two loops of 3,000 nines each: each count is within the
    parser's bound, their product is not."""
    nines = "9" * 3000
    return f"for {nines} {{ for {nines} {{ {stmt} }} }}"


HUGE_PRODUCTS = {
    "infinite-partner": f"node P0 {{ {_nested('send a to P1')} }}\n"
                        "node P1 { for inf { recv a from P0 } }\n",
    "finite": f"node P0 {{ {_nested('send a to P1')} }}\n"
              f"node P1 {{ {_nested('recv a from P0')} }}\n",
}


@pytest.mark.parametrize("args", [["check"], ["check", "--json"],
                                  ["check", "--trace"], ["reg"], ["mdg"],
                                  ["simulate"]], ids=" ".join)
@pytest.mark.parametrize("kind", sorted(HUGE_PRODUCTS))
def test_loop_count_product_past_the_digit_bound_exit_two(tmp_path, capsys,
                                                         kind, args):
    path = tmp_path / "huge.mdl"
    path.write_text(HUGE_PRODUCTS[kind])
    assert main([args[0], str(path), *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: events per outermost iteration of "
                   "node 0 have more than 4300 digits\n")


# A = 2,500 nines and B = 2,499 nines and an 8: the ratio values of the
# chain P0 -> P1 -> P2 are B^2 : AB : A^2, each of about 5,000 digits,
# although every node's events per iteration are within the bound.
HUGE_RATIO = ("node P0 {{ for inf {{ for {a} {{ send a to P1 }} }} }}\n"
              "node P1 {{ for inf {{ for {b} {{ recv a from P0 }},\n"
              "    for {a} {{ send b to P2 }} }} }}\n"
              "node P2 {{ for inf {{ for {b} {{ recv b from P1 }} }} }}\n"
              ).format(a="9" * 2500, b="9" * 2499 + "8")


@pytest.mark.parametrize("args", [["check"], ["check", "--json"],
                                  ["check", "--trace"], ["reg"], ["mdg"]],
                         ids=" ".join)
def test_ratio_value_past_the_digit_bound_exit_two(tmp_path, capsys, args):
    path = tmp_path / "ratio.mdl"
    path.write_text(HUGE_RATIO)
    assert main([args[0], str(path), *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: a ratio value has more than 4300 "
                   "digits\n")


def test_mdg_stdout(capsys):
    assert main(["mdg", prog("prog2.mdl")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "color=red" in out


@pytest.mark.parametrize("name", sorted(
    f[:-4] for f in os.listdir(PROGRAMS) if f.endswith(".mdl")))
def test_mdg_matches_golden_dot(name, capsys):
    # pins the pairs, the derived edge order and the highlighted cycle
    assert main(["mdg", prog(f"{name}.mdl")]) == 0
    with open(os.path.join(HERE, "golden", f"{name}.dot"),
              encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_mdg_file_output(tmp_path, capsys):
    target = tmp_path / "out.dot"
    assert main(["mdg", prog("prog3.mdl"), "--dot", str(target)]) == 0
    assert target.read_text().startswith("digraph")
    assert "wrote" in capsys.readouterr().out


def test_mdg_unwritable_output_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "g.dot"
    assert main(["mdg", prog("prog2.mdl"), "--dot", str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_reg_prints_equations_and_solution(capsys):
    assert main(["reg", prog("prog3.mdl")]) == 0
    out = capsys.readouterr().out
    assert "p0 : p1 = 1 : 2" in out
    assert "solution p0:p1:p2 = 1:2:1" in out


def test_reg_and_trace_print_records_alike(tmp_path, capsys):
    bad = tmp_path / "bad.mdl"
    bad.write_text("node P0 { for 2 { send a to P1 } }\n"
                   "node P1 { for 3 { recv a from P0 } }\n")
    assert main(["reg", str(bad)]) == 0
    *reg_lines, deadlock = capsys.readouterr().out.splitlines()
    assert main(["check", str(bad), "--trace"]) == 1
    header, witness, *trace_lines = capsys.readouterr().out.splitlines()
    assert reg_lines == trace_lines == [
        "  ratio equations (l0):",
        "    p0 : p1 = 1 : 1  [a:0->1]",
        "    solution p0:p1 = 1:1",
    ]
    assert deadlock.split(": ", 1)[1] == witness.split(": ", 1)[1]
    assert "unequal products" in deadlock


def test_reg_on_loop_free_program_names_phase(capsys):
    assert main(["reg", prog("prog2.mdl")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  no ratio equations (phase smodel)",
        "  deadlock: {'type': 'wait-cycle', 'fronts': ['0: a:0->2#0', "
        "'2: c:1->2#0', '1: b:0->1#0']}",
    ]


def test_simulate_free(capsys):
    assert main(["simulate", prog("prog3.mdl")]) == 0
    assert "deadlock-free" in capsys.readouterr().out


def test_simulate_deadlock_prints_trace(capsys):
    assert main(["simulate", prog("prog2.mdl")]) == 1
    assert "deadlock reachable" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(
    f[:-4] for f in os.listdir(PROGRAMS) if f.endswith(".mdl")))
def test_simulate_matches_golden(name, monkeypatch, capsys):
    # the golden is the stdout of `mpicheck simulate programs/<name>.mdl`
    # run from the repository root, then a line with its exit code
    monkeypatch.chdir(os.path.join(PROGRAMS, os.pardir))
    code = main(["simulate", f"programs/{name}.mdl"])
    with open(os.path.join(HERE, "golden", f"{name}.simulate"),
              encoding="utf-8") as fh:
        assert capsys.readouterr().out + f"exit {code}\n" == fh.read()


def test_simulate_inconclusive_exit_three(capsys):
    assert main(["simulate", prog("prog3.mdl"), "--max-states", "1"]) == 3


@pytest.mark.parametrize("cmd,flag", [("check", "--max-events"),
                                      ("mdg", "--max-events"),
                                      ("simulate", "--max-states")])
@pytest.mark.parametrize("value", ["0", "-1", "-5", "1.5", "many", ""])
def test_cap_below_one_is_usage_error(cmd, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, prog("prog3.mdl"), f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >= 1, got {value!r}" in err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_check_json_independent_of_hash_seed():
    src = os.path.join(HERE, os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "mpicheck.cli", "check", prog("prog2.mdl"),
             "--json"], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        data = json.loads(proc.stdout)
        assert data["witness"]["type"] == "wait-cycle"
        del data["timings"]
        outs.append(data)
    assert outs[0] == outs[1]


def test_simulate_independent_of_hash_seed():
    # two parts: the witness joins the parts' traces in node order
    src = os.path.join(HERE, os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "mpicheck.cli", "simulate",
             prog("parts2.mdl")], env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "deadlock reachable after 4 rendezvous" in outs[0]


def test_check_path_loads_neither_oracle_nor_json():
    src = os.path.join(HERE, os.pardir, "src")
    code = ("import contextlib, io, sys\n"
            "from mpicheck.cli import main\n"
            "loaded = lambda: ('mpicheck.oracle' in sys.modules,"
            " 'json' in sys.modules)\n"
            "print(*loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['simulate', {prog('prog9.mdl')!r}])\n"
            "print(code, *loaded())\n")
    # -S: no site hook loads modules of its own
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.split("\n") == ["False False", "0 True False", ""]


# A digest of every report, without its timings, and of every oracle
# result, over the corpus of seed 3 and tests/fuzz.py's programs of seed 1
_DIGEST = """\
import hashlib
import fuzz
from corpus import corpus
from mpicheck.analyze import analyze
from mpicheck.oracle import explore
h = hashlib.sha256()
for prog in [*corpus(3, 1200), *fuzz.programs(1, 3000)]:
    report = analyze(prog).to_dict()
    del report["timings"]
    h.update(repr(report).encode())
    h.update(repr(explore(prog, max_states=10**5)).encode())
print(h.hexdigest())
"""


def test_reports_independent_of_hash_seed_over_a_program_set():
    path = os.pathsep.join([os.path.join(HERE, os.pardir, "src"), HERE])
    procs = [subprocess.Popen(
        [sys.executable, "-c", _DIGEST], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
        for seed in ("0", "1")]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(outs[0]) == 65 and outs[0] == outs[1]


def test_report_dump_prints_one_line_per_corpus_program_under_any_hash_seed():
    # tests/reports.py, the dump that two checkouts are compared by
    path = os.pathsep.join([os.path.join(HERE, os.pardir, "src"), HERE])
    procs = [subprocess.Popen(
        [sys.executable, os.path.join(HERE, "reports.py"), "corpus"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
        for seed in ("0", "1")]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    names = [line.split("\t")[0] for line in outs[0].splitlines()]
    assert names == [f"corpus:{reports.CORPUS_SEED}:{i}"
                     for i in range(reports.CORPUS_SIZE)]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args, code", [
    (["check", "--json", "prog9.mdl"], 0), (["simulate", "prog9.mdl"], 0),
    (["check", "--json", "prog2.mdl"], 1), (["simulate", "prog2.mdl"], 1)])
def test_closed_stdout_keeps_the_verdict_exit_code(args, code):
    # a reader that has gone (`| head -c1`) leaves the exit code to the
    # verdict, with nothing on stderr
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mpicheck.cli", *args[:-1], prog(args[-1])],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
            timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""


def test_check_trace_on_mid_round_deadlock(tmp_path, capsys):
    from test_l2 import ROUND_DEADLOCK
    path = tmp_path / "round.mdl"
    path.write_text(ROUND_DEADLOCK)
    assert main(["check", str(path), "--trace"]) == 1
    _, *lines = capsys.readouterr().out.splitlines()
    pool = lines.index("  fpp[0]: {P0: a^4, P1: (aa)^2, P2: (cd)^2, "
                       "P3: (dc)^2, P4: e^3, P5: e^3}")
    assert lines[0] == ("  witness: {'type': 'wait-cycle', "
                        "'fronts': ['2: c:2->3#0', '3: d:3->2#0']}")
    assert lines[2:4] == ["    P0 -> a^4 b", "    P1 -> (aa)^2 b"]
    assert lines[pool + 1:] == [
        "    related set ('P0', 'P1'): eligible",
        "    related set ('P2', 'P3'): eligible",
        "    related set ('P4', 'P5'): eligible",
        "    set solution: p0=1, p1=2",
        "    set solution: p2=1, p3=1",
        "    reduced (0, 1) by 2 round(s)",
    ]


# The outer ratio stage of the nested-loop engine finds the conflict, so
# check_l2 returns before its first pool round (fppTrace is null).
OUTER_CONFLICT = ("node P0 { for inf { for 2 { send a to P1 }, "
                  "send c to P1 } }\n"
                  "node P1 { for inf { recv a from P0, recv c from P0, "
                  "recv c from P0 } }\n")
CONFLICT_DETAIL = ("ratio around the cycle through p0 and p1 is 2, "
                   "equation demands 1/2")
CONFLICT_EQUATIONS = ["p0 : p1 = 2 : 1  [a:0->1]",
                      "p0 : p1 = 1 : 2  [c:0->1]"]
CONFLICT_WITNESS = {"type": "ratio-inconsistency", "detail": CONFLICT_DETAIL,
                    "equations": CONFLICT_EQUATIONS}
CONFLICT_RECORD = ["  ratio equations (outer):",
                   *(f"    {eq}" for eq in CONFLICT_EQUATIONS),
                   f"    inconsistent: {CONFLICT_DETAIL}",
                   *(f"      clashing: {eq}" for eq in CONFLICT_EQUATIONS)]


@pytest.mark.parametrize("args,code,lines", [
    (["check"], 1, [f"  witness: {CONFLICT_WITNESS}"]),
    (["check", "--trace"], 1, [f"  witness: {CONFLICT_WITNESS}",
                               "  string mapping:",
                               "    P0 -> (a^2 c)^inf",
                               "    P1 -> (acc)^inf",
                               *CONFLICT_RECORD]),
    (["reg"], 0, [*CONFLICT_RECORD, f"  deadlock: {CONFLICT_WITNESS}"]),
], ids=["check", "check --trace", "reg"])
def test_outer_ratio_conflict_prints_its_clashing_equations(
        tmp_path, capsys, args, code, lines):
    path = tmp_path / "conflict.mdl"
    path.write_text(OUTER_CONFLICT)
    assert main([args[0], str(path), *args[1:]]) == code
    out, err = capsys.readouterr()
    assert err == ""
    if args[0] == "check":
        lines = [f"{path}: DEADLOCK (phase l2)", *lines]
    assert out.splitlines() == lines


def test_outer_ratio_conflict_has_no_slice_to_draw(tmp_path, capsys):
    path = tmp_path / "conflict.mdl"
    path.write_text(OUTER_CONFLICT)
    assert main(["mdg", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: program has no consistent finite slice; "
            "cannot draw its MDG\n")


@pytest.mark.parametrize("text,phase,witness,records", [
    (OUTER_CONFLICT, "l2", CONFLICT_WITNESS,
     [{"stage": "outer", "equations": CONFLICT_EQUATIONS,
       "inconsistent": CONFLICT_DETAIL}]),
    ("node P0 { for inf { send a to P1, send b to P1 } }\n"
     "node P1 { for inf { recv a from P0 } }\n", "l0",
     {"type": "unmatched-totals", "symbol": "b:0->1", "sends": 1,
      "recvs": 0}, []),
], ids=["ratio-inconsistency", "unmatched-totals"])
def test_check_json_deadlock_witness(tmp_path, capsys, text, phase, witness,
                                     records):
    path = tmp_path / "dead.mdl"
    path.write_text(text)
    assert main(["check", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "deadlock"
    assert data["phase"] == phase
    assert data["witness"] == witness
    assert data["regSolutions"] == records
    assert data["fppTrace"] is None


def _fpp_stuck_program(tmp_path, c):
    path = tmp_path / f"fpp{c}.mdl"
    path.write_text(f"node P0 {{\n  for {c} {{ send a to P1 }}\n"
                    "  recv b from P1\n  send a to P1\n}\n"
                    f"node P1 {{\n  for {c + 1} {{ recv a from P0 }}\n"
                    "  send b to P0\n}\n")
    return str(path)


@pytest.mark.parametrize("c", [1000, 10**9], ids=["1e3", "1e9"])
def test_fpp_stuck_json_golden(tmp_path, capsys, c):
    # a true deadlock whose witness is still a pool of strings, not fronts;
    # ROADMAP item 15 changes this golden
    assert main(["check", _fpp_stuck_program(tmp_path, c), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "deadlock" and data["phase"] == "l2"
    assert data["witness"] == {"type": "fpp-stuck",
                               "pool": {"0": "ba", "1": "a"}}


def test_fpp_stuck_program_deadlocks_in_the_oracle(tmp_path, capsys):
    path = _fpp_stuck_program(tmp_path, 1000)
    assert main(["simulate", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{path}: deadlock reachable after 1000 "
                          "rendezvous\n")
