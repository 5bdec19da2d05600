"""Text format: parsing, errors with positions, render round trips."""
import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import generate
from test_smodel import schedule_queues
from mpicheck.model import INFINITE, For, Symbol, make_program, validate
from mpicheck.parser import (MAX_COUNT_DIGITS, MdlLexError, MdlSyntaxError,
                             parse, render)

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


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
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
