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
NAME" or "for COUNT" header, as one token, with the header's "{" when only
blanks come before it (a brace further on is a token of its own), so the
parser makes one step per statement or header and looks each repeated
statement up with one dict hit.  It walks the tokens with one iterator; a
token's index is recovered only to report an error.  A token that cannot
stand where it is (a lone keyword, a stray name or digit run, an illegal
character) is an error, diagnosed by scanning single words from that
token's start: the checks that name the word at fault run only once the text
is known to be wrong, not on every statement of a well-formed one.

The parser also checks validate's conditions as it builds each statement,
loop and node: a message to the node's own rank, an undeclared peer, a node
declared twice, a "for inf" inside a loop, a count of 0, an empty loop body,
loops nested past model.MAX_NESTING, and events per outermost iteration of
MAX_COUNT_DIGITS digits or more.  When none holds, the Program comes back
certified (model.certified), and validate returns it without a walk.  When
one does, validate's walk runs as on any other Program and raises the
error, so each message keeps its one wording and order.
"""
import re
from itertools import islice
from operator import length_hint

from .model import (COUNT_LIMIT, INFINITE, MAX_COUNT_DIGITS, MAX_NESTING, For,
                    Program, Symbol, certified)


class MdlSyntaxError(Exception):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class MdlLexError(MdlSyntaxError):
    pass


_NAME = r"[^\W\d]\w*"
# Blanks, separators and comments, then one token: a whole send or recv
# statement, a node or loop header with its "{" if only blanks come before
# it, or else one word token (below).  The comments are matched as "no
# comment" or as a "#" with a repeat for further comments after it, so that
# a token with no comment before it enters no repeat.
_SCAN = re.compile(
    r"[ \t\r\n,]*(?:#(?:[^\n]*[ \t\r\n,]*#)*[^\n]*[ \t\r\n,]*|)("
    rf"send[ \t\r]+{_NAME}[ \t\r]+to[ \t\r]+{_NAME}"
    rf"|recv[ \t\r]+{_NAME}[ \t\r]+from[ \t\r]+{_NAME}"
    rf"|(?:node[ \t\r]+{_NAME}|for[ \t\r]+(?:[0-9]+|inf)(?!\w))"
    rf"(?:[ \t\r]*{{)?"
    rf"|[{{}}]|\d+|{_NAME}|.|\Z)")
# A node header token, and its name, in the scanned tokens joined one to a
# line.
_HEAD = re.compile(r"\n(node[ \t\r]+(\w+)[^\n]*)")
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


def _index(toks, it):
    """The index in ``toks`` of the token ``it`` yielded last."""
    return len(toks) - length_hint(it) - 1


def parse(text: str) -> Program:
    """Parse source text into a Program, checking validate's conditions as
    each part is built.  A program for which none holds comes back
    certified, and validate returns it without a walk; any other comes back
    unvalidated, and validate's walk raises the error."""
    toks = _SCAN.findall(text)      # ends in "", the end of the text
    # Ranks follow declaration order, and a body may name a node declared
    # later, so find the node headers first.  Undeclared targets get fresh
    # ranks afterwards, so validation can report the dangling endpoint with
    # context.
    heads = {}                      # header token -> node name
    ranks = {}
    found = _HEAD.findall("\n" + "\n".join(toks))
    for head, name in found:
        heads[head] = name
        ranks.setdefault(name, len(ranks))
    declared = len(ranks)
    # False once one of validate's conditions holds: here, a duplicate node
    ok = len(found) == declared
    symbols = {}                    # (name, src, dst) -> its one Symbol
    nodes = []
    it = iter(toks)
    for t in it:
        name = heads.get(t)
        if name is None:
            if t or not nodes:
                _fault(text, _index(toks, it), "node")
            break
        here = ranks[name]
        if t[-1] != "{" and next(it) != "{":
            _fault(text, _index(toks, it), "{")
        stmts = {}                  # statement token -> its Symbol
        body = []
        extra = 0                   # its loops' events, less one per loop
        outer = []                  # (count, times, enclosing body, extra)
        for t in it:
            st = stmts.get(t)
            if st is not None:
                body.append(st)
            elif t == "}":
                if not outer:
                    break
                count, times, enclosing, enclosing_extra = outer.pop()
                events = len(body) + extra
                if not 0 < events < COUNT_LIMIT:    # empty, or too many
                    ok = False
                    events = 1      # no longer certified; keep it small
                extra = enclosing_extra + times * events - 1
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
                    st = symbols.get(fields)
                    if st is None:
                        # a self-message's one Symbol is made here, once
                        if peer == here:
                            ok = False
                        st = symbols[fields] = tuple.__new__(Symbol, fields)
                    stmts[t] = st
                    body.append(st)
                    continue
                # else a loop header, its brace in its last word or not
                if len(words) < 2 or words[0] != "for":
                    _fault(text, _index(toks, it), "statement")
                count = words[1].rstrip("{")
                if len(count) > MAX_COUNT_DIGITS:
                    _fault(text, _index(toks, it), "statement")
                if t[-1] != "{" and next(it) != "{":
                    _fault(text, _index(toks, it), "{")
                if count == "inf":
                    count, times = INFINITE, 1
                    if outer:
                        ok = False
                else:
                    count = times = int(count)
                    if not count:
                        ok = False
                if len(outer) == MAX_NESTING:
                    ok = False
                outer.append((count, times, body, extra))
                body = []
                extra = 0
        if extra and len(body) + extra >= COUNT_LIMIT:
            ok = False
        nodes.append((here, tuple(body)))
    names = tuple(zip(ranks.values(), ranks))
    if len(names) > declared:       # a peer no node header declares
        ok = False
    return (certified if ok else Program)(tuple(nodes), names)


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
