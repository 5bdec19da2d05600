"""Text format: parsing, errors with positions, render round trips."""
import gc
import glob
import os
import random
import sys
import time

import pytest

from corpus import corpus, generate
from test_acceptance import CORPUS_SEED, CORPUS_SIZE
from test_model import _counting_check
from test_smodel import schedule_queues
from mpicheck import model, parser
from mpicheck.model import (INFINITE, MAX_NESTING, DanglingEndpoint,
                            DuplicateNode, For, InvalidLoopCount,
                            NestedInfinite, SelfMessage, SizeExceeded,
                            Symbol, make_program, validate)
from mpicheck.parser import (MAX_COUNT_DIGITS, MdlLexError, MdlSyntaxError,
                             parse, render)

HERE = os.path.dirname(os.path.abspath(__file__))

SIMPLE = """
node P0 {
  send a to P1
  recv b from P1
}
node P1 {
  recv a from P0, send b to P0
}
"""


def test_parse_simple():
    prog = parse(SIMPLE)
    assert [n for n, _ in prog.nodes] == [0, 1]
    body0 = prog.nodes[0][1]
    # a symbol in node n is a send when n is its source, else a receive
    assert body0[0] == Symbol("a", 0, 1) and body0[0].src == 0
    assert body0[1] == Symbol("b", 1, 0) and body0[1].src != 0
    assert prog.nodes[1][1] == (Symbol("a", 0, 1), Symbol("b", 1, 0))


def test_ranks_follow_declaration_order():
    prog = parse("node b { send m to a }\nnode a { recv m from b }")
    assert prog.name_of(0) == "b"
    assert prog.name_of(1) == "a"


def test_parse_loops_and_inf():
    prog = parse("""
node P0 { for inf { for 3 { send a to P1 } } }
node P1 { for inf { for 3 { recv a from P0 } } }
""")
    loop = prog.nodes[0][1][0]
    assert isinstance(loop, For) and loop.count is INFINITE
    inner = loop.body[0]
    assert inner.count == 3


def test_comments_and_commas():
    prog = parse("node P0 { }  # trailing comment\n# full line\nnode P1 {}")
    assert prog.nodes[0][1] == () and prog.nodes[1][1] == ()


# (source, scanned tokens, None or the error's message, line and column):
# comments the scanner skips before a token
COMMENTS = [
    pytest.param("node P0 { send a to P1 }\nnode P1 { recv a from P0 } # end",
                 ["node P0 {", "send a to P1", "}", "node P1 {",
                  "recv a from P0", "}", "", ""], None,
                 id="at the end, no newline"),
    pytest.param("node P0 { send a to P1 # end",
                 ["node P0 {", "send a to P1", "", ""],
                 ("unexpected end of input, missing '}'", 1, 24),
                 id="at the end, brace missing"),
    pytest.param("node P0 {\n  send a to P1  # one\n  send b to P1 # two\n}\n"
                 "node P1 { recv a from P0, recv b from P0 }\n",
                 ["node P0 {", "send a to P1", "send b to P1", "}",
                  "node P1 {", "recv a from P0", "recv b from P0", "}", "",
                  ""], None, id="after a statement"),
    pytest.param("node P0 { send a to P1 # one\n  recv  # two\n}\n"
                 "node P1 { recv a from P0 }\n",
                 ["node P0 {", "send a to P1", "recv", "}", "node P1 {",
                  "recv a from P0", "}", "", ""],
                 ("expected message name, got '\\n'", 2, 9),
                 id="after a lone keyword"),
    pytest.param("# one\n# two\n\n   # three\nnode P0 { send a to P1 }\n"
                 "# four\n#\nnode P1 { recv a from P0 }\n",
                 ["node P0 {", "send a to P1", "}", "node P1 {",
                  "recv a from P0", "}", "", ""], None,
                 id="lines in a row"),
    pytest.param("# one\n# two\nnode P0 { bogus }\n",
                 ["node P0 {", "bogus", "}", "", ""],
                 ("unknown statement keyword 'bogus'", 3, 11),
                 id="lines in a row, then an error"),
    pytest.param("node P0 {# open\n  send a to P1 }\nnode P1 {#\n"
                 "recv a from P0 }\n",
                 ["node P0 {", "send a to P1", "}", "node P1 {",
                  "recv a from P0", "}", "", ""], None,
                 id="right after a brace"),
    pytest.param("node P0 { send a to P1 ,# c\n, send b to P1 ,,# d\n}\n"
                 "node P1 { recv a from P0 , # e\n ,recv b from P0 }\n",
                 ["node P0 {", "send a to P1", "send b to P1", "}",
                  "node P1 {", "recv a from P0", "recv b from P0", "}", "",
                  ""], None, id="between commas"),
    pytest.param("node P0 { send a to P1 ,# c\n, send b to # d\n P1 }\n",
                 ["node P0 {", "send a to P1", "send", "b", "to", "P1", "}",
                  "", ""], ("expected node name, got '\\n'", 2, 13),
                 id="inside a statement"),
]


@pytest.mark.parametrize("text, tokens, error", COMMENTS)
def test_comment_tokens_and_error_positions(text, tokens, error):
    assert parser._SCAN.findall(text) == tokens
    if error is None:
        parse(text)
        return
    msg, line, col = error
    with pytest.raises(MdlSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"{msg} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


def test_syntax_error_carries_position():
    with pytest.raises(MdlSyntaxError) as exc:
        parse("node P0 {\n  send a\n}")
    assert exc.value.line == 2
    assert "expected" in str(exc.value)


def test_lex_error_on_illegal_character():
    with pytest.raises(MdlLexError):
        parse("node P0 { send a to P1 $ }")


def test_missing_brace():
    with pytest.raises(MdlSyntaxError):
        parse("node P0 { send a to P1")


def test_empty_input_rejected():
    with pytest.raises(MdlSyntaxError):
        parse("   \n  ")


# (source, exception class, message, line, column), recorded from the
# character-by-character lexer and recursive-descent parser this one
# replaced.  Columns count characters; "\r" and "\t" are one column each.
ERRORS = [
    ('',
     MdlSyntaxError, 'at least one node declaration required', 1, 1),
    ('   \n\t \r\n',
     MdlSyntaxError, 'at least one node declaration required', 3, 1),
    ('# only a comment\n# and another',
     MdlSyntaxError, 'at least one node declaration required', 2, 1),
    ('node P0 {\n  send a\n}',
     MdlSyntaxError, "expected 'to', got '\\n'", 2, 9),
    ('node P0 { send a to P1',
     MdlSyntaxError, "unexpected end of input, missing '}'", 1, 23),
    ('node P0 {\n  send a to P1\n',
     MdlSyntaxError, "unexpected end of input, missing '}'", 3, 1),
    ('node P0\n{',
     MdlSyntaxError, "unexpected end of input, missing '}'", 2, 2),
    ('node P0 { send a to P1 $ }',
     MdlLexError, "illegal character '$'", 1, 24),
    ('node P0 { send to P1 }\nnode P1 { @ }',
     MdlLexError, "illegal character '@'", 2, 11),
    ('node P0 { for 0x3 { send a to P1 } }',
     MdlSyntaxError, "expected '{', got 'x3'", 1, 16),
    ('node P0 { for ever { send a to P1 } }',
     MdlSyntaxError, "expected a loop count or 'inf', got 'ever'", 1, 15),
    ('node P0 { for { send a to P1 } }',
     MdlSyntaxError, "expected a loop count or 'inf', got '{'", 1, 15),
    ('node P0 {\r\n  send a to\r\n}\r\n',
     MdlSyntaxError, "expected node name, got '\\n'", 2, 13),
    ('node P0 {\r\n\trecv a from P1 P2\r\n}',
     MdlSyntaxError, "unknown statement keyword 'P2'", 2, 17),
    ('node P0 {\n\tsend\ta\tto\t}',
     MdlSyntaxError, "expected node name, got '}'", 2, 12),
    ('node P0 { send a # to P1\n to P1 }',
     MdlSyntaxError, "expected 'to', got '\\n'", 1, 18),
    ('node P0 {\n  send a to P1 # no closing brace',
     MdlSyntaxError, "unexpected end of input, missing '}'", 2, 16),
    ('node',
     MdlSyntaxError, "expected node name, got ''", 1, 5),
    ('nodes P0 { }',
     MdlSyntaxError, "expected 'node', got 'nodes'", 1, 1),
    ('node P0 { } }',
     MdlSyntaxError, "expected 'node', got '}'", 1, 13),
    ('node P0 { 3 }',
     MdlSyntaxError, "expected a statement, got '3'", 1, 11),
    ('node P0 { bogus a to P1 }',
     MdlSyntaxError, "unknown statement keyword 'bogus'", 1, 11),
    ('node P0 { , , { }',
     MdlSyntaxError, "expected a statement, got '{'", 1, 15),
    ('node P0 { recv a to P1 }',
     MdlSyntaxError, "expected 'from', got 'to'", 1, 18),
    ('node P0 { send 3 to P1 }',
     MdlSyntaxError, "expected message name, got '3'", 1, 16),
    ('node 9 { }',
     MdlSyntaxError, "expected node name, got '9'", 1, 6),
    ('node P0 { for inf send a to P1 }',
     MdlSyntaxError, "expected '{', got 'send'", 1, 19),
    ('node P0 send a to P1 }',
     MdlSyntaxError, "expected '{', got 'send'", 1, 9),
    ('node P0 { for 2 {\n  for 3 { send a to P1 }\n }',
     MdlSyntaxError, "unexpected end of input, missing '}'", 3, 3),
    ('node P0 { send a to P1 }\n\nnode P1 { recv a from P0, }\nnode P2 { send b to, P1 }',
     MdlSyntaxError, "expected node name, got ','", 4, 20),
    # where a whole-statement or header token and the words part
    ('node P0 { send send a to P1 }',
     MdlSyntaxError, "expected 'to', got 'a'", 1, 21),
    ('node\nP0 { }',
     MdlSyntaxError, "expected node name, got '\\n'", 1, 5),
    ('node P0 {\n  for\n3 { send a to P1 }\n}',
     MdlSyntaxError, "expected a loop count or 'inf', got '\\n'", 2, 6),
    ('node P0 { for 3x { send a to P1 } }',
     MdlSyntaxError, "expected '{', got 'x'", 1, 16),
    ('node P0 { for infx { send a to P1 } }',
     MdlSyntaxError, "expected a loop count or 'inf', got 'infx'", 1, 15),
    ('node P0 { send a to P1x$ }',
     MdlLexError, "illegal character '$'", 1, 24),
    ('node P0 { recv a to P1, send b from P1 }',
     MdlSyntaxError, "expected 'from', got 'to'", 1, 18),
    ('node P0 { send a to P1 } send a to P1',
     MdlSyntaxError, "expected 'node', got 'send'", 1, 26),
    # longer than Python 3.11's int() takes from a digit string; the same
    # error on every Python
    pytest.param('node P0 {\n  for ' + '1' * 5000 + ' { send a to P1 }\n}',
                 MdlSyntaxError,
                 "loop count of 5000 digits is longer than 4300", 2, 7,
                 id="5000-digit loop count"),
]


@pytest.mark.parametrize("text, cls, msg, line, col", ERRORS)
def test_error_golden(text, cls, msg, line, col):
    with pytest.raises(MdlSyntaxError) as exc:
        parse(text)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{msg} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


# (source, nodes, names): valid layouts the scanner must take as the
# canonical one does
A01, B01, B10 = Symbol("a", 0, 1), Symbol("b", 0, 1), Symbol("b", 1, 0)
ACCEPTS = [
    # no separator between statements
    ('node P0 { send a to P1 recv b from P1 }\n'
     'node P1 { recv a from P0 send b to P0 }',
     ((0, (A01, B10)), (1, (A01, B10))), ((0, "P0"), (1, "P1"))),
    # tabs and CRLF line ends, also inside statements and headers
    ('node P0 {\r\n\tsend\ta\tto\tP1\r\n\tfor\t2\t{\trecv b from P1 }\r\n}\r\n'
     'node P1 {\r\n\trecv a from P0\r\n\tfor 2 {\r\n\t\tsend b to P0\r\n\t}\r\n}\r\n',
     ((0, (A01, For(2, (B10,)))), (1, (A01, For(2, (B10,))))),
     ((0, "P0"), (1, "P1"))),
    # trailing and repeated commas
    ('node P0 { send a to P1, },\nnode P1 { recv a from P0,, },\n',
     ((0, (A01,)), (1, (A01,))), ((0, "P0"), (1, "P1"))),
    # comments between statements
    ('node P0 { send a to P1 # first\n  # a whole line\n  send b to P1 }\n'
     'node P1 { recv a from P0 # x\n recv b from P0 }',
     ((0, (A01, B01)), (1, (A01, B01))), ((0, "P0"), (1, "P1"))),
    # keywords as names; an undeclared target takes the next rank
    ('node to { send to to send }',
     ((0, (Symbol("to", 0, 1),)),), ((0, "to"), (1, "send"))),
    ('node node { for inf { recv for from inf } }\n'
     'node inf { for inf { send for to node } }',
     ((0, (For(INFINITE, (Symbol("for", 1, 0),)),)),
      (1, (For(INFINITE, (Symbol("for", 1, 0),)),))),
     ((0, "node"), (1, "inf"))),
    # a header's brace right after it, or on the next line
    ('node P0{for 2{send a to P1}}\nnode P1\n{for 2\n{recv a from P0}}',
     ((0, (For(2, (A01,)),)), (1, (For(2, (A01,)),))),
     ((0, "P0"), (1, "P1"))),
]


@pytest.mark.parametrize("text, nodes, names", ACCEPTS)
def test_accept_golden(text, nodes, names):
    prog = parse(text)
    assert prog.nodes == nodes
    assert prog.names == names


def test_parse_time_is_linear_in_statements():
    # the rendered text of a 64-node loop-free schedule.  As in acceptance
    # criterion 8, sizes alternate so a slow spell of a shared host hits
    # both, and the collector is paused: its passes cost in proportion to
    # the whole test process's heap, not the parse's work.  The clock is the
    # process's CPU time, which stops while it waits for a core.
    sizes = (5 * 10**4, 10**5)
    texts = [render(make_program(schedule_queues(random.Random(8), 64, n)))
             for n in sizes]
    best = [float("inf")] * len(sizes)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            for i, text in enumerate(texts):
                t0 = time.process_time()
                prog = parse(text)
                best[i] = min(best[i], time.process_time() - t0)
                assert len(prog.nodes) == 64
    finally:
        gc.enable()
    ratio = best[1] / best[0]
    assert ratio <= 2.5, f"doubling the statements scaled time by {ratio:.2f}"


@pytest.mark.parametrize("count, col", [
    ("\u00b2", 7),     # superscript two: str.isdigit, but not a count
    ("\u0663", 7),     # Arabic-Indic three: a decimal digit, but not ASCII
    ("3\u00b2", 8),    # "3" is the count; the "{" is missing
])
def test_loop_count_must_be_ascii_digits(count, col):
    with pytest.raises(MdlSyntaxError) as exc:
        parse(f"node P0 {{\n  for {count} {{ send a to P1 }}\n}}\nnode P1 {{}}")
    assert (exc.value.line, exc.value.col) == (2, col)


def test_longest_loop_count():
    text = "node P0 {{ for {} {{ send a to P1 }} }}\nnode P1 {{ }}"
    digits = "9" * MAX_COUNT_DIGITS
    (_, (loop,)), _ = parse(text.format(digits)).nodes
    assert loop.count == 10**MAX_COUNT_DIGITS - 1
    with pytest.raises(MdlSyntaxError) as exc:
        parse(text.format(digits + "9"))
    assert (exc.value.line, exc.value.col) == (1, 15)


def test_equal_messages_share_one_symbol():
    prog = parse("node P0 { send a to P1, send a to P1, for 2 { send a to P1 } }\n"
                 "node P1 { recv a from P0, for 3 { recv a from P0 } }")
    (_, body0), (_, body1) = prog.nodes
    syms = [body0[0], body0[1], body0[2].body[0], body1[0], body1[1].body[0]]
    assert all(s is syms[0] for s in syms)
    assert syms[0] == Symbol("a", 0, 1) and type(syms[0]) is Symbol
    assert body0[2] == For(2, (syms[0],)) and type(body0[2]) is For
    assert type(body1[1]) is For


def test_symbol_is_a_plain_value():
    s = Symbol("a", 0, 1)
    assert hash(s) == hash(("a", 0, 1))
    assert str(s) == "a:0->1"
    assert repr(s) == "Symbol(name='a', src=0, dst=1)"


def test_render_parse_round_trip_fixed():
    prog = parse(SIMPLE)
    assert parse(render(prog)).nodes == prog.nodes


@pytest.mark.parametrize("seed", range(100))
def test_render_parse_round_trip_random(seed):
    prog = generate(random.Random(seed))
    validate(prog)
    again = parse(render(prog))
    assert again.nodes == prog.nodes
    assert again.names == prog.names


def test_round_trip_of_a_node_that_sends_and_receives_one_name():
    text = ("node P0 {\n  send a to P1\n  recv a from P1\n}\n"
            "node P1 {\n  recv a from P0\n  send a to P0\n}\n")
    prog = parse(text)
    assert prog.nodes[0][1] == (Symbol("a", 0, 1), Symbol("a", 1, 0))
    assert render(prog) == text
    assert parse(render(prog)).nodes == prog.nodes


# The parser checks validate's conditions as it builds a program and, when
# none holds, hands it over certified: validate then skips its walk.
def _valid_texts():
    """The criterion-3 corpus rendered to text, every example program, and
    the four benchmark workloads' seed-1 and seed-2 program sets."""
    texts = [render(p) for p in corpus(CORPUS_SEED, CORPUS_SIZE)]
    for path in sorted(glob.glob(os.path.join(HERE, os.pardir, "programs",
                                              "*.mdl"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            for oracle in (False, True):
                texts += [case.text for case in
                          workloads.program_set(name, seed, oracle)]
    return texts


def test_valid_text_is_certified(monkeypatch):
    texts = _valid_texts()
    walk = model._check
    calls = _counting_check(monkeypatch)
    assert len(texts) > 4000
    for i, text in enumerate(texts):
        prog = parse(text)
        assert validate(prog) is prog
        assert not calls, f"text {i} was not certified"
        walk(prog)                      # which the walk passes


def _nested_for(depth):
    """P0 sends P1 one message inside ``depth`` nested loops."""
    return ("node P0 {" + " for 1 {" * depth + " send a to P1" + " }" * depth
            + " }\nnode P1 { recv a from P0 }")


NINES = "9" * 3000
# (text, class, message): each ModelError that text can reach, with the
# class and message validate has always raised for it
UNCERTIFIED = [
    pytest.param("node P0 { send a to P0 }\n",
                 SelfMessage, "a:0->0 has identical endpoints",
                 id="self-message"),
    pytest.param("node P0 { send a to P1 }\n",
                 DanglingEndpoint, "a:0->1 references an undeclared node",
                 id="undeclared peer"),
    pytest.param("node P0 { }\nnode P0 { }\n",
                 DuplicateNode, "node 0 declared twice",
                 id="duplicate node"),
    pytest.param("node P0 { for 2 { for inf { send a to P1 } } }\n"
                 "node P1 { for inf { recv a from P0 } }\n",
                 NestedInfinite, "infinite loop below top level in node 0",
                 id="nested for inf"),
    pytest.param("node P0 { for 0 { send a to P1 } }\nnode P1 { }\n",
                 InvalidLoopCount, "loop count 0 in node 0", id="for 0"),
    pytest.param("node P0 { for 3 { } }\nnode P1 { }\n",
                 InvalidLoopCount, "empty loop body in node 0",
                 id="empty body at top level"),
    pytest.param("node P0 { for 3 { for 2 { } send a to P1 } }\n"
                 "node P1 { recv a from P0 }\n",
                 InvalidLoopCount, "empty loop body in node 0",
                 id="empty body nested"),
    pytest.param(f"node P0 {{ for {NINES} {{ for {NINES} {{ send a to P1 }}"
                 " } }\nnode P1 { for inf { recv a from P0 } }\n",
                 SizeExceeded, "events per outermost iteration of node 0 "
                 "have more than 4300 digits", id="two nested 3,000 nines"),
    pytest.param(_nested_for(MAX_NESTING + 1), SizeExceeded,
                 f"loops nest more than {MAX_NESTING} deep in node 0",
                 id="depth past the bound"),
]


@pytest.mark.parametrize("text, cls, msg", UNCERTIFIED)
def test_invalid_text_is_not_certified(monkeypatch, text, cls, msg):
    calls = _counting_check(monkeypatch)
    prog = parse(text)
    with pytest.raises(cls) as exc:
        validate(prog)
    assert len(calls) == 1
    assert type(exc.value) is cls and str(exc.value) == msg


def test_nested_huge_counts_parse_as_fast_as_siblings():
    # the parser's count of events stops growing once it is past the bound,
    # so 150 nested 4,300-digit counts cost what 150 sibling ones do,
    # rather than products of up to 645,000 digits
    count = "9" * MAX_COUNT_DIGITS
    nested = ("node P0 {" + f" for {count} {{" * 150 + " send a to P1"
              + " }" * 151 + "\nnode P1 { recv a from P0 }")
    siblings = ("node P0 {" + f" for {count} {{ send a to P1 }}" * 150
                + " }\nnode P1 { recv a from P0 }")
    best = {}
    for text in (nested, siblings) * 2:
        t0 = time.process_time()
        prog = parse(text)
        best[text] = min(best.get(text, 1e9), time.process_time() - t0)
        with pytest.raises(SizeExceeded):
            validate(prog)
    ratio = best[nested] / best[siblings]
    assert ratio < 5, f"nested counts parsed {ratio:.1f} times as slowly"


def test_validate_makes_no_walk_of_parsed_text(monkeypatch):
    calls = _counting_check(monkeypatch)
    prog = parse(SIMPLE)
    assert validate(prog) is prog
    validate(parse(_nested_for(MAX_NESTING)))
    assert calls == []
    validate(make_program(dict(prog.nodes)))  # built by a library caller
    assert len(calls) == 1
