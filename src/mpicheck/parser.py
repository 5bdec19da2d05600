"""Text format for programs: a statement-level scanner, a flat parser, renderer.

Grammar (``.mdl`` files, UTF-8)::

    program  := node+
    node     := "node" IDENT "{" stmt* "}"
    stmt     := "send" IDENT "to" IDENT
              | "recv" IDENT "from" IDENT
              | "for" ("inf" | INTEGER) "{" stmt* "}"

Statements are separated by newlines and/or commas; "#" starts a line
comment.  An IDENT is a run of word characters not starting with a decimal
digit; an INTEGER is a run of at most 4,300 ASCII digits.  The words of a
statement and of a "node" or "for" header are separated by blanks (spaces,
tabs, carriage returns) only.  Node names map to ranks in declaration order.

The scanner takes a whole "send" or "recv" statement, and a whole "node
NAME" or "for COUNT" header, as one token, so the parser makes one step per
statement and looks each repeated statement up with one dict hit.  A token
that cannot stand where it is (a lone keyword, a stray name or digit run, an
illegal character) is an error, diagnosed by scanning single words from that
token's start: the checks that name the word at fault run only once the text
is known to be wrong, not on every statement of a well-formed one.
"""
from __future__ import annotations

import re
from itertools import islice

from .model import INFINITE, MAX_COUNT_DIGITS, For, Program, Symbol


class MdlSyntaxError(Exception):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class MdlLexError(MdlSyntaxError):
    pass


_NAME = r"[^\W\d]\w*"
# Blanks, separators and comments, then one token: a whole send or recv
# statement, a node or loop header, or else one word token (below).
_SCAN = re.compile(
    r"[ \t\r\n,]*(?:#[^\n]*[ \t\r\n,]*)*("
    rf"send[ \t\r]+{_NAME}[ \t\r]+to[ \t\r]+{_NAME}"
    rf"|recv[ \t\r]+{_NAME}[ \t\r]+from[ \t\r]+{_NAME}"
    rf"|node[ \t\r]+{_NAME}|for[ \t\r]+(?:[0-9]+|inf)(?!\w)"
    rf"|[{{}}]|\d+|{_NAME}|.|\Z)")
# A node header, and its name, in the scanned tokens joined one to a line.
_HEAD = re.compile(r"\n(node[ \t\r]+(\w+))")
# Blanks and a comment, then one word token: a brace, a separator, a digit
# run, a name, any other single character (which is illegal), or the end of
# the text (""), so that every position matches and nothing is skipped.
_TOKEN = re.compile(rf"[ \t\r]*(?:#[^\n]*)?([{{}},\n]|\d+|{_NAME}|.|\Z)")
# The longest prefix free of illegal characters.
_LEGAL = re.compile(r"(?:[\w{},\n \t\r]+|#[^\n]*)*")
_is_name = re.compile(r"[^\W\d]").match
_SEPS = ("\n", ",")
_INFIX = {"send": "to", "recv": "from"}


def _fail(text, off, msg):
    """Raise the error at offset off, unless an illegal character comes
    first anywhere in the text: lexing errors take precedence."""
    cls = MdlSyntaxError
    bad = _LEGAL.match(text).end()
    if bad < len(text):
        cls, off, msg = MdlLexError, bad, f"illegal character {text[bad]!r}"
    line, col = text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)
    raise cls(msg, line, col)


def _words(text, pos):
    """The first four word tokens at or after offset pos, separators before
    the first skipped, as (token, offset) pairs; the end of the text repeats.
    A token right after a comment sits where the comment starts."""
    out = []
    for m in _TOKEN.finditer(text, pos):
        t = m.group(1)
        if t in _SEPS and not out:
            continue
        hash_at = text.find("#", m.start(), m.start(1))
        out.append((t, m.start(1) if hash_at < 0 else hash_at))
        if not t or len(out) == 4:
            break
    return out + out[-1:] * (4 - len(out))


def _fault(text, k, expected):
    """Raise the error for scanned token k, which cannot stand where the
    parser expected a "node" header, a "{" or a statement: the first word
    out of place, found by scanning words from the token's start."""
    m = next(islice(_SCAN.finditer(text), k, None))
    (t, off), (a, a_off), (b, b_off), (c, c_off) = _words(text, m.start())
    if expected == "{":
        _fail(text, off, f"expected '{{', got {t!r}")
    if expected == "node":
        if not t:
            _fail(text, off, "at least one node declaration required")
        if t != "node":
            _fail(text, off, f"expected 'node', got {t!r}")
        _fail(text, a_off, f"expected node name, got {a!r}")
    kw = _INFIX.get(t)
    if kw:
        if not _is_name(a):
            _fail(text, a_off, f"expected message name, got {a!r}")
        if b != kw:
            _fail(text, b_off, f"expected {kw!r}, got {b!r}")
        _fail(text, c_off, f"expected node name, got {c!r}")
    if t == "for":
        if a != "inf" and not (a.isdigit() and a.isascii()):
            _fail(text, a_off, f"expected a loop count or 'inf', got {a!r}")
        if len(a) > MAX_COUNT_DIGITS:
            _fail(text, a_off, f"loop count of {len(a)} digits is longer "
                  f"than {MAX_COUNT_DIGITS}")
        # a count that did not scan as a header runs into a name ("3x")
        _fail(text, b_off, f"expected '{{', got {b!r}")
    if not t:
        _fail(text, off, "unexpected end of input, missing '}'")
    if _is_name(t):
        _fail(text, off, f"unknown statement keyword {t!r}")
    _fail(text, off, f"expected a statement, got {t!r}")


def parse(text: str) -> Program:
    """Parse source text into a Program (unvalidated)."""
    toks = _SCAN.findall(text)      # ends in "", the end of the text
    # Ranks follow declaration order, and a body may name a node declared
    # later, so find the node headers first.  Undeclared targets get fresh
    # ranks afterwards, so validation can report the dangling endpoint with
    # context.
    heads = {}                      # header token -> node name
    ranks = {}
    for head, name in _HEAD.findall("\n" + "\n".join(toks)):
        heads[head] = name
        ranks.setdefault(name, len(ranks))
    symbols = {}                    # (name, src, dst) -> its one Symbol
    nodes = []
    i = 0
    if not toks[0]:
        _fault(text, 0, "node")
    while toks[i]:
        name = heads.get(toks[i])
        if name is None:
            _fault(text, i, "node")
        here = ranks[name]
        if toks[i + 1] != "{":
            _fault(text, i + 1, "{")
        i += 2
        stmts = {}                  # statement token -> its Symbol
        body = []
        outer = []                  # (count, enclosing body) per open loop
        while True:
            t = toks[i]
            i += 1
            st = stmts.get(t)
            if st is not None:
                body.append(st)
            elif t == "}":
                if not outer:
                    break
                count, enclosing = outer.pop()
                enclosing.append(tuple.__new__(For, (count, tuple(body))))
                body = enclosing
            else:
                words = t.split()
                if len(words) == 4:
                    kw, msg, _, peer_name = words
                    peer = ranks.get(peer_name)
                    if peer is None:
                        peer = ranks[peer_name] = len(ranks)
                    fields = ((msg, here, peer) if kw == "send"
                              else (msg, peer, here))
                    st = symbols.get(fields) or symbols.setdefault(
                        fields, tuple.__new__(Symbol, fields))
                    stmts[t] = st
                    body.append(st)
                elif len(words) == 2 and words[0] == "for":
                    if len(words[1]) > MAX_COUNT_DIGITS:
                        _fault(text, i - 1, "statement")
                    if toks[i] != "{":
                        _fault(text, i, "{")
                    i += 1
                    outer.append((INFINITE if words[1] == "inf"
                                  else int(words[1]), body))
                    body = []
                else:
                    _fault(text, i - 1, "statement")
        nodes.append((here, tuple(body)))
    names = tuple((r, n) for n, r in ranks.items())
    return Program(tuple(nodes), names)


def render(program: Program) -> str:
    """Canonical text: two-space indent, one statement per line."""
    lines = []

    def emit(stmt, nid, depth):
        pad = "  " * depth
        if isinstance(stmt, Symbol):
            if stmt.src == nid:
                lines.append(f"{pad}send {stmt.name} "
                             f"to {program.name_of(stmt.dst)}")
            else:
                lines.append(f"{pad}recv {stmt.name} "
                             f"from {program.name_of(stmt.src)}")
        else:
            count = "inf" if stmt.count is INFINITE else str(stmt.count)
            lines.append(f"{pad}for {count} {{")
            for st in stmt.body:
                emit(st, nid, depth + 1)
            lines.append(f"{pad}}}")

    for nid, body in program.nodes:
        lines.append(f"node {program.name_of(nid)} {{")
        for st in body:
            emit(st, nid, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"
