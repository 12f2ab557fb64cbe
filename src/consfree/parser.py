"""Concrete syntax for programs and terms.

Layout is line-oriented: a declarations section (sort / con / fun lines)
followed by a `rules:` section with one `lhs -> rhs` rule per line.
Comments run from `--` to end of line.  Sugar: `[]` for nil, infix
right-associative `::` for cons, and bitstring literals `"1010"` which
expand to true/false lists.  See docs/grammar.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import (
    Arrow, Con, LangError, Pair, Product, Program, RawApp, RawPair, Rule,
    Sort, SymbolTable, Term, Type, check_rule, free_vars, is_data_term,
    make_program, spine, type_check,
)


class ParseError(Exception):
    def __init__(self, msg, pos):
        self.msg = msg
        self.pos = pos
        super().__init__("%d:%d: %s" % (pos[0], pos[1], msg))


@dataclass
class Token:
    kind: str   # ident, punct, string, newline, eof
    text: str
    pos: tuple


_PUNCT = ["->", "=>", "::", "(", ")", "[]", ",", ":", "*"]


def tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        pos = (line, col)
        if c == "\n":
            if toks and toks[-1].kind not in ("newline",):
                toks.append(Token("newline", "\n", pos))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated bitstring literal", pos)
                j += 1
            if j >= n:
                raise ParseError("unterminated bitstring literal", pos)
            lit = text[i + 1: j]
            if any(ch not in "01" for ch in lit):
                raise ParseError("bitstring literal may only contain 0 and 1", pos)
            toks.append(Token("string", lit, pos))
            col += j + 1 - i
            i = j + 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, pos))
                i += len(p)
                col += len(p)
                break
        else:
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                toks.append(Token("ident", text[i:j], pos))
                col += j - i
                i = j
            else:
                raise ParseError("unexpected character %r" % c, pos)
    toks.append(Token("eof", "", (line, col)))
    return toks


class _Cursor:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind, text=None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            raise ParseError(
                "expected %s, found %r" % (text or kind, t.text or t.kind), t.pos)
        return self.next()

    def skip_newlines(self):
        while self.at("newline"):
            self.next()


# ---------------------------------------------------------------------------
# Types

def _parse_type(cur: _Cursor) -> Type:
    left = _parse_prod_type(cur)
    if cur.at("punct", "=>"):
        cur.next()
        return Arrow(left, _parse_type(cur))
    return left


def _parse_prod_type(cur: _Cursor) -> Type:
    left = _parse_atom_type(cur)
    if cur.at("punct", "*"):
        cur.next()
        return Product(left, _parse_prod_type(cur))
    return left


def _parse_atom_type(cur: _Cursor) -> Type:
    if cur.at("punct", "("):
        cur.next()
        t = _parse_type(cur)
        cur.expect("punct", ")")
        return t
    tok = cur.expect("ident")
    return Sort(tok.text)


# ---------------------------------------------------------------------------
# Raw terms

def _parse_term(cur: _Cursor) -> "RawApp | RawPair":
    left = _parse_app(cur)
    if cur.at("punct", "::"):
        pos = cur.next().pos
        right = _parse_term(cur)
        return RawApp("cons", [left, right], pos)
    return left

def _parse_app(cur: _Cursor):
    head = _parse_atom(cur)
    args = []
    while cur.at("ident") or cur.at("punct", "(") or cur.at("punct", "[]") \
            or cur.at("string"):
        if cur.at("ident", "where"):  # keyword, never an argument
            break
        args.append(_parse_atom(cur))
    if not args:
        return head
    if isinstance(head, RawApp) and not head.args:
        return RawApp(head.head, args, head.pos)
    raise ParseError("cannot apply a compound term", _raw_pos(head))


def _parse_atom(cur: _Cursor):
    tok = cur.peek()
    if cur.at("punct", "("):
        cur.next()
        first = _parse_term(cur)
        parts = [first]
        while cur.at("punct", ","):
            cur.next()
            parts.append(_parse_term(cur))
        cur.expect("punct", ")")
        raw = parts[-1]
        for p in reversed(parts[:-1]):
            raw = RawPair(p, raw, tok.pos)
        return raw
    if cur.at("punct", "[]"):
        cur.next()
        return RawApp("nil", [], tok.pos)
    if cur.at("string"):
        cur.next()
        raw = RawApp("nil", [], tok.pos)
        for ch in reversed(tok.text):
            bit = RawApp("true" if ch == "1" else "false", [], tok.pos)
            raw = RawApp("cons", [bit, raw], tok.pos)
        return raw
    t = cur.expect("ident")
    return RawApp(t.text, [], t.pos)


def _raw_pos(raw):
    return raw.pos or (0, 0)


# ---------------------------------------------------------------------------
# Programs

def parse_program(text: str) -> Program:
    """Parse and fully check a program; raises ParseError or LangError."""
    cur = _Cursor(tokenize(text))
    table = SymbolTable()
    cur.skip_newlines()
    while True:
        cur.skip_newlines()
        tok = cur.peek()
        if tok.kind == "ident" and tok.text == "sort":
            cur.next()
            while cur.at("ident"):
                t = cur.next()
                table.declare_sort(t.text, t.pos)
            _end_line(cur)
        elif tok.kind == "ident" and tok.text == "con":
            cur.next()
            name = cur.expect("ident")
            cur.expect("punct", ":")
            typ = _parse_type(cur)
            table.declare_con(name.text, typ, name.pos)
            _end_line(cur)
        elif tok.kind == "ident" and tok.text == "fun":
            cur.next()
            name = cur.expect("ident")
            cur.expect("punct", ":")
            typ = _parse_type(cur)
            table.declare_fun(name.text, typ, name.pos)
            _end_line(cur)
        elif tok.kind == "ident" and tok.text == "rules":
            cur.next()
            cur.expect("punct", ":")
            _end_line(cur)
            break
        elif tok.kind == "eof":
            return make_program(table, [])
        else:
            raise ParseError(
                "expected a declaration or 'rules:', found %r"
                % (tok.text or tok.kind), tok.pos)

    rules = []
    while True:
        cur.skip_newlines()
        if cur.at("eof"):
            break
        rules.append(_parse_rule(cur, table))
    return make_program(table, rules)


def _end_line(cur):
    if cur.at("eof"):
        return
    cur.expect("newline")


def _parse_rule(cur: _Cursor, table: SymbolTable) -> Rule:
    raw_lhs = _parse_term(cur)
    arrow_tok = cur.peek()
    cur.expect("punct", "->")
    raw_rhs = _parse_term(cur)
    declared = {}
    if cur.at("ident", "where"):
        cur.next()
        while True:
            name = cur.expect("ident")
            cur.expect("punct", ":")
            declared[name.text] = _parse_type(cur)
            if cur.at("punct", ","):
                cur.next()
                continue
            break
    _end_line(cur)

    var_types = _infer_pattern_types(table, raw_lhs, arrow_tok.pos)
    for name, typ in declared.items():
        if name in var_types and var_types[name] != typ:
            raise ParseError(
                "variable %r declared as %s but used at %s"
                % (name, typ, var_types[name]), arrow_tok.pos)
        var_types[name] = typ
    try:
        lhs = type_check(table, raw_lhs, var_types)
        rhs = type_check(table, raw_rhs, var_types)
    except LangError as e:
        raise ParseError(e.msg, e.pos or arrow_tok.pos)
    violations = check_rule(table, lhs, rhs)
    if violations:
        letter, msg = violations[0]
        raise ParseError("rule violates condition (%s): %s" % (letter, msg),
                         arrow_tok.pos)
    used = free_vars(lhs) | free_vars(rhs)
    return Rule(lhs, rhs, {v: var_types[v] for v in used})


def _infer_pattern_types(table, raw_lhs, pos) -> dict:
    """Variable types are fully determined by their left-hand-side position."""
    if not isinstance(raw_lhs, RawApp) or raw_lhs.head not in table.defined:
        raise ParseError("left-hand side must be a defined-symbol application",
                         raw_lhs.pos or pos)
    arg_types, _ = spine(table.defined[raw_lhs.head])
    if len(raw_lhs.args) > len(arg_types):
        raise ParseError("too many arguments for %r" % raw_lhs.head,
                         raw_lhs.pos or pos)
    var_types = {}
    for raw, typ in zip(raw_lhs.args, arg_types):
        _walk_pattern(table, raw, typ, var_types)
    return var_types


def _walk_pattern(table, raw, expected, var_types):
    if isinstance(raw, RawPair):
        if not isinstance(expected, Product):
            raise ParseError("pair pattern at non-product type %s" % expected,
                             raw.pos)
        _walk_pattern(table, raw.left, expected.left, var_types)
        _walk_pattern(table, raw.right, expected.right, var_types)
        return
    if raw.head in table.constructors:
        arg_types, cod = spine(table.constructors[raw.head])
        if len(raw.args) != len(arg_types):
            raise ParseError(
                "constructor %r expects %d arguments" % (raw.head, len(arg_types)),
                raw.pos)
        for a, t in zip(raw.args, arg_types):
            _walk_pattern(table, a, t, var_types)
        return
    if raw.head in table.defined:
        # reported as a condition (b) violation later; nothing to infer
        return
    if raw.args:
        raise ParseError("applied variable %r in a pattern" % raw.head, raw.pos)
    if raw.head in var_types and var_types[raw.head] != expected:
        raise ParseError(
            "variable %r used at both %s and %s"
            % (raw.head, var_types[raw.head], expected), raw.pos)
    var_types[raw.head] = expected


# ---------------------------------------------------------------------------
# Data terms

def parse_data_term(text: str, expected: Type, table: SymbolTable) -> Term:
    cur = _Cursor(tokenize(text))
    cur.skip_newlines()
    raw = _parse_term(cur)
    cur.skip_newlines()
    cur.expect("eof")
    term = type_check(table, raw, {}, expected)
    if not is_data_term(term):
        raise LangError("not a data term: %s" % print_term(term))
    return term


# ---------------------------------------------------------------------------
# Printing

def print_term(s: Term) -> str:
    return _pt(s, 0)


def _pt(s, level):
    # level 0: top (:: allowed bare); level 1: application argument
    if isinstance(s, Pair):
        return "(%s, %s)" % (_pt(s.left, 0), _pt(s.right, 0))
    if isinstance(s, Con) and s.name == "cons" and len(s.args) == 2:
        text = "%s::%s" % (_pt(s.args[0], 1), _pt(s.args[1], 0))
        return "(%s)" % text if level >= 1 else text
    if isinstance(s, Con) and s.name == "nil" and not s.args:
        return "[]"
    name = s.name
    if not s.args:
        return name
    text = " ".join([name] + [_pt(a, 1) for a in s.args])
    return "(%s)" % text if level >= 1 else text


def print_program(p: Program) -> str:
    lines = []
    for name in sorted(p.table.sorts):
        lines.append("sort %s" % name)
    for name, typ in p.table.constructors.items():
        lines.append("con %s : %s" % (name, typ))
    for name, typ in p.table.defined.items():
        lines.append("fun %s : %s" % (name, typ))
    lines.append("rules:")
    for r in p.rules:
        lines.append("%s -> %s" % (print_term(r.lhs), print_term(r.rhs)))
    return "\n".join(lines) + "\n"
