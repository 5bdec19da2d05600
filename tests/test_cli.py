"""Command-line interface: subcommands, exit codes, machine output."""
import json
import os
import subprocess
import sys

import pytest

from mpicheck.cli import main

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
    assert "DEADLOCK" in out and "mdg-cycle" in out


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
        "  deadlock: {'type': 'mdg-cycle', 'pairs': ['a:0->2#0', "
        "'b:0->1#0', 'c:1->2#0']}",
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
        assert data["witness"]["type"] == "mdg-cycle"
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


def test_check_trace_on_mid_round_deadlock(tmp_path, capsys):
    from test_l2 import ROUND_DEADLOCK
    path = tmp_path / "round.mdl"
    path.write_text(ROUND_DEADLOCK)
    assert main(["check", str(path), "--trace"]) == 1
    _, *lines = capsys.readouterr().out.splitlines()
    pool = lines.index("  fpp[0]: {P0: a^4, P1: (aa)^2, P2: (cd)^2, "
                       "P3: (dc)^2, P4: e^3, P5: e^3}")
    assert lines[0] == ("  witness: {'type': 'mdg-cycle', "
                        "'pairs': ['c:2->3#0', 'd:3->2#0']}")
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
