"""Text format for programs: a one-regex tokenizer, a flat parser, renderer.

Grammar (``.mdl`` files, UTF-8)::

    program  := node+
    node     := "node" IDENT "{" stmt* "}"
    stmt     := "send" IDENT "to" IDENT
              | "recv" IDENT "from" IDENT
              | "for" ("inf" | INTEGER) "{" stmt* "}"

Statements are separated by newlines and/or commas; "#" starts a line
comment.  An IDENT is a run of word characters not starting with a decimal
digit; an INTEGER is a run of ASCII digits.  Node names map to ranks in
declaration order.
"""
from __future__ import annotations

import re

from .model import INFINITE, For, Program, Symbol


class MdlSyntaxError(Exception):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class MdlLexError(MdlSyntaxError):
    pass


# Blanks and a comment, then one token: a brace, a separator, a digit run, a
# name, any other single character (which is illegal), or the end of the
# text (""), so that every position matches and nothing is skipped.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?([{},\n]|\d+|[^\W\d]\w*|.|\Z)")
_is_name = re.compile(r"[^\W\d]").match
_is_legal = re.compile(r"[\w{},\n]|\Z").match
_SEPS = ("\n", ",")
_INFIX = {"send": "to", "recv": "from"}
_OPERANDS = ("send", "recv", "to", "from")


def _fail(text, toks, k, msg):
    """Raise the error for token k, unless an illegal character comes first
    anywhere in the text: lexing errors take precedence."""
    cls = MdlSyntaxError
    for j, t in enumerate(toks):
        if not _is_legal(t):
            cls, k, msg = MdlLexError, j, f"illegal character {t!r}"
            break
    for j, m in enumerate(_TOKEN.finditer(text)):
        if j == k:
            break
    # A token right after a comment sits where the comment starts.
    hash_at = text.find("#", m.start(), m.start(1))
    off = m.start(1) if hash_at < 0 else hash_at
    line, col = text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)
    raise cls(msg, line, col)


def _stmt_error(text, toks, i):
    """Raise the first fault of the send or recv statement at token i."""
    kw = _INFIX[toks[i]]
    msg, got, peer = toks[i + 1:i + 4]
    if not _is_name(msg):
        _fail(text, toks, i + 1, f"expected message name, got {msg!r}")
    if got != kw:
        _fail(text, toks, i + 2, f"expected {kw!r}, got {got!r}")
    _fail(text, toks, i + 3, f"expected node name, got {peer!r}")


def _skip(toks, i):
    while toks[i] in _SEPS:
        i += 1
    return i


def parse(text: str) -> Program:
    """Parse source text into a Program (unvalidated)."""
    toks = _TOKEN.findall(text)     # ends in "", the end of the text
    toks += [""] * 3
    # Ranks follow declaration order, and a body may name a node declared
    # later, so find the declarations first: a "node" token that is not an
    # operand.  Undeclared targets get fresh ranks afterwards, so validation
    # can report the dangling endpoint with context.
    ranks = {}
    i = 0
    for _ in range(toks.count("node")):
        i = toks.index("node", i) + 1
        if toks[i - 2] not in _OPERANDS and _is_name(toks[i]):
            ranks.setdefault(toks[i], len(ranks))
    symbols = {}                # (name, src, dst) -> its one Symbol
    nodes = []
    i = _skip(toks, 0)
    if not toks[i]:
        _fail(text, toks, i, "at least one node declaration required")
    while toks[i]:
        if toks[i] != "node":
            _fail(text, toks, i, f"expected 'node', got {toks[i]!r}")
        name = toks[i + 1]
        if not _is_name(name):
            _fail(text, toks, i + 1, f"expected node name, got {name!r}")
        here = ranks[name]
        i = _skip(toks, i + 2)
        if toks[i] != "{":
            _fail(text, toks, i, f"expected '{{', got {toks[i]!r}")
        i += 1
        stmts = {}              # (keyword, message, peer) -> its Symbol
        body = []
        outer = []              # (count, enclosing body) per open loop
        while True:
            t = toks[i]
            kw = _INFIX.get(t)
            if kw:
                key = (t, toks[i + 1], toks[i + 3])
                st = stmts.get(key)
                if toks[i + 2] != kw or st is None and not _is_name(key[1]):
                    _stmt_error(text, toks, i)
                if st is None:
                    peer = ranks.get(key[2])
                    if peer is None:
                        if not _is_name(key[2]):
                            _stmt_error(text, toks, i)
                        peer = ranks[key[2]] = len(ranks)
                    fields = ((key[1], here, peer) if t == "send"
                              else (key[1], peer, here))
                    st = symbols.get(fields) or symbols.setdefault(
                        fields, Symbol(*fields))
                    stmts[key] = st
                body.append(st)
                i += 4
            elif t in _SEPS:
                i += 1
            elif t == "}":
                i += 1
                if not outer:
                    break
                count, enclosing = outer.pop()
                enclosing.append(For(count, tuple(body)))
                body = enclosing
            elif t == "for":
                c = toks[i + 1]
                if c == "inf":
                    count = INFINITE
                elif c.isdigit() and c.isascii():
                    count = int(c)
                else:
                    _fail(text, toks, i + 1,
                          f"expected a loop count or 'inf', got {c!r}")
                i = _skip(toks, i + 2)
                if toks[i] != "{":
                    _fail(text, toks, i, f"expected '{{', got {toks[i]!r}")
                i += 1
                outer.append((count, body))
                body = []
            elif not t:
                _fail(text, toks, i, "unexpected end of input, missing '}'")
            elif _is_name(t):
                _fail(text, toks, i, f"unknown statement keyword {t!r}")
            else:
                _fail(text, toks, i, f"expected a statement, got {t!r}")
        nodes.append((here, tuple(body)))
        i = _skip(toks, i)
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
