"""Parser for the .chor concrete syntax.

One declaration per item:

    domain x : Int in 0..3            (also: Int in {0, 2, 5}; Str in
                                       {"a", "b"}; Bool)
    table f : Str -> Bool = { "pw" -> true, _ -> false }
    global NAME(y1, ..., yk) = G      (params only on entry globals)
    type NAME = T
    process NAME plays p of GNAME = P (plays-clause only on entry procs)
    system NAME = S

with

    G ::= G ; G | p -> q : { y(Int). G + ... } | p -> { q @ y(Int). G + ... }
        | loop p { G } until ( q @ y(Unit), ... ) | end | NAME | ( G )
    T ::= T ; T | [e] y!(Int). T (+) ...  | [e] y?(Int). T (&) ...
        | ( T )* | [e] end | end | NAME | ( T )
    P ::= P ; P | request u[n](ys). P | accept u[p](ys). P | y!(e) | y!()
        | y?(x). P | sum { y1?(x1). P1 + ... } | if e then P else P
        | for x in e { P } | repeat { N } until { M } | 0 | NAME
        | { P } | ( P )
    S ::= S || S | P | queue y = [v, ...] | new (ys)@u in S | NAME | { S }

Comments run from // to end of line.  Names declared earlier in the
module may be referenced later (no recursion); references are inlined
during parsing.  After inlining, every process and system body is
alpha-freshened so bound names are globally unique.  The parser keeps
each freshened body's binders and free names for the rest of the parse,
so that freshening a later body that inlines it need not walk it again
where that would change nothing (see subst.py).

The tokenizer is one `findall` of a compiled regex, each match of which
skips blanks and comments and takes one token's spelling.  Each distinct
spelling is classified once into a (kind, value) token that all its
occurrences share, so tokenizing makes one object per distinct spelling,
not one per token, and a token holds no position.  An error names its
token by index; only when a `ParseError` is raised is the text scanned
again up to that token to find its line and column.  Input nested deeper
than the interpreter's stack allows is a `ParseError` too.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from .ast import (
    Accept, Arm, BinOp, BOOL, Branch, Const, DATA, Expr, FALSE_LIT, For,
    GBranch, GChoice, GEnd, GIter, GSeq, GlobalDef, GlobalType, If, INT,
    Lit, ListLit, ModuleDecl, NIL, Par, Proc, Process, ProcessDef,
    PseudoType, Queue, Range, RepeatUntil, Request, Restrict, Send, Seq,
    Sort, STR, System, SystemDef, Table, TBranch, TEnd, TExternal,
    TInternal, TIter, TRUE, TRUE_LIT, TSeq, UNIT, UNIT_LIT, UnOp, Var,
    bool_lit, int_lit, list_sort, str_lit,
)
from .subst import freshen


class ParseError(Exception):
    """Lexical or syntactic error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class InvariantError(ParseError):
    """A structurally valid parse that violates a syntax invariant."""


KEYWORDS = {
    "domain", "table", "global", "type", "process", "system", "plays", "of",
    "loop", "until", "end", "request", "accept", "sum", "if", "then", "else",
    "for", "in", "repeat", "queue", "new", "true", "false", "and", "or",
    "not", "hd", "tl", "Int", "Bool", "Str", "Unit", "Data",
}

_SYMBOLS = [
    "(+)", "(&)", "||", "->", "..", "<=", ">=", "!=",
    "(", ")", "{", "}", "[", "]", "+", "-", "*", "!", "?", ".", ",", ";",
    ":", "@", "=", "<", ">",
]

# The token classes, in the order they are tried.  BAD takes any other
# single character, so each match starts where the last one ended; EOF
# matches only at the end of the text.
_LEXEMES = [
    ("STRING", r'"(?:[^"\\]|\\[\s\S])*"'),
    ("DATA", r"0x(?:[0-9a-fA-F][0-9a-fA-F])*"),
    ("INT", r"[0-9]+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("SYM", "|".join(re.escape(sym) for sym in _SYMBOLS)),
    ("EOF", r"\Z"),
    ("BAD", r"[\s\S]"),
]
# One match skips blanks and comments, then takes one token's spelling
# as its only group; an empty spelling is the end of the text.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*("
                       + "|".join(pattern for _, pattern in _LEXEMES) + ")")
_KIND_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _LEXEMES))
_ESCAPE_RE = re.compile(r"\\([\s\S])")


class Token(NamedTuple):
    kind: str  # IDENT KEYWORD INT STRING DATA SYM EOF BAD
    value: str


def _token(spelling: str) -> Token:
    """The token spelled `spelling`, which `_TOKEN_RE` matched."""
    kind = _KIND_RE.match(spelling).lastgroup
    if kind == "IDENT" and spelling in KEYWORDS:
        kind = "KEYWORD"
    elif kind == "STRING":
        spelling = _ESCAPE_RE.sub(r"\1", spelling[1:-1])
    elif kind == "DATA":
        spelling = spelling[2:]
    return Token(kind, spelling)


def line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def token_offsets(text: str):
    """The offset into `text` of each token, then of the end: what
    `tokenize` leaves out, found again only to place an error."""
    for m in _TOKEN_RE.finditer(text):
        yield m.start(1)
        if not m[1]:
            return


def token_line_col(text: str, index: int) -> tuple:
    """The line and column of token `index` of `text` (an index past
    the end stands for the end)."""
    offset = next(islice(token_offsets(text), index, None), len(text))
    return line_col(text, offset)


def tokenize(text: str) -> list:
    """The tokens of `text`, then two EOF tokens, so that looking one
    token past the end needs no bounds check.  Tokens spelled alike are
    one shared object, and a token holds no position: an error names
    its token by index (see `token_line_col`)."""
    spellings = _TOKEN_RE.findall(text)
    if len(spellings) > 1 and not spellings[-2]:
        spellings.pop()  # a second, empty match at the end
    spellings.append("")
    tokens = {spelling: _token(spelling) for spelling in set(spellings)}
    bad = [s for s, tok in tokens.items() if tok.kind == "BAD"]
    if bad:
        index = min(map(spellings.index, bad))
        message = "unterminated string literal" if spellings[index] == '"' \
            else f"unexpected character {spellings[index]!r}"
        raise ParseError(message, *token_line_col(text, index))
    return list(map(tokens.__getitem__, spellings))


class Parser:
    def __init__(self, text: str, module: ModuleDecl | None = None):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.module = module or ModuleDecl()
        # binders and free names of each body freshened in this parse,
        # which `freshen` need not walk again where it is inlined
        self.fresh = {}

    # ------------------------------------------------------- primitives

    def error(self, message: str, at: int, cls=ParseError) -> ParseError:
        """An error at token `at`, by index: tokens spelled alike are
        one object, so the token itself would not say which it is."""
        return cls(message, *token_line_col(self.text, at))

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_sym(self, *syms: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "SYM" and t.value in syms

    def at_kw(self, *words: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "KEYWORD" and t.value in words

    def expect_sym(self, sym: str) -> None:
        t = self.toks[self.pos]
        if t.kind != "SYM" or t.value != sym:
            raise self.error(f"expected {sym!r}, found {t.value!r}", self.pos)
        self.pos += 1

    def expect_kw(self, word: str) -> None:
        t = self.toks[self.pos]
        if t.kind != "KEYWORD" or t.value != word:
            raise self.error(f"expected {word!r}, found {t.value!r}", self.pos)
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        t = self.toks[self.pos]
        if t.kind != "IDENT":
            raise self.error(f"expected {what}, found {t.value!r}", self.pos)
        self.pos += 1
        return t.value

    # ------------------------------------------------------------ module

    def parse_module(self) -> ModuleDecl:
        while not self.peek().kind == "EOF":
            t = self.peek()
            if self.at_kw("domain"):
                self.parse_domain()
            elif self.at_kw("table"):
                self.parse_table()
            elif self.at_kw("global"):
                self.parse_global_decl()
            elif self.at_kw("type"):
                self.parse_type_decl()
            elif self.at_kw("process"):
                self.parse_process_decl()
            elif self.at_kw("system"):
                self.parse_system_decl()
            else:
                raise self.error(f"expected a declaration, found {t.value!r}", self.pos)
        return self.module

    def _declare(self, table: dict, name: str, value, at: int):
        if name in self.module.globals_ or name in self.module.types \
                or name in self.module.processes or name in self.module.systems:
            raise self.error(f"duplicate declaration of {name!r}", at, InvariantError)
        table[name] = value

    def parse_domain(self):
        self.expect_kw("domain")
        at = self.pos
        var = self.expect_ident("variable name")
        self.expect_sym(":")
        sort = self.parse_sort()
        if sort == BOOL:
            values = frozenset({TRUE_LIT, FALSE_LIT})
        elif sort in (INT, STR):
            self.expect_kw("in")
            values = self.parse_domain_values(sort)
        else:
            raise self.error(f"only Int, Bool, and Str admit domains, not {sort}",
                             self.pos, InvariantError)
        if not values:
            raise self.error("empty domain", self.pos, InvariantError)
        if var in self.module.domains:
            raise self.error(f"duplicate domain for {var!r}", at, InvariantError)
        self.module.domains[var] = frozenset(values)

    def parse_domain_values(self, sort: Sort) -> frozenset:
        if self.at_sym("{"):
            self.next()
            values = set()
            while not self.at_sym("}"):
                values.add(self.parse_value(sort))
                if self.at_sym(","):
                    self.next()
            self.expect_sym("}")
            return frozenset(values)
        lo = self.parse_value(INT)
        self.expect_sym("..")
        hi = self.parse_value(INT)
        return frozenset(int_lit(v) for v in range(lo.value, hi.value + 1))

    def parse_table(self):
        self.expect_kw("table")
        at = self.pos
        name = self.expect_ident("table name")
        self.expect_sym(":")
        arg = self.parse_sort()
        self.expect_sym("->")
        ret = self.parse_sort()
        self.expect_sym("=")
        self.expect_sym("{")
        mapping = []
        default = None
        while not self.at_sym("}"):
            if self.peek().kind == "IDENT" and self.peek().value == "_":
                self.next()
                self.expect_sym("->")
                default = self.parse_value(ret)
            else:
                key = self.parse_value(arg)
                self.expect_sym("->")
                mapping.append((key, self.parse_value(ret)))
            if self.at_sym(","):
                self.next()
        self.expect_sym("}")
        if default is None:
            raise self.error(f"table {name!r} needs a default entry '_ -> v'",
                             at, InvariantError)
        if name in self.module.tables:
            raise self.error(f"duplicate table {name!r}", at, InvariantError)
        self.module.tables[name] = Table(name, arg, ret, tuple(mapping), default)

    def parse_value(self, expected: Sort | None = None) -> Lit:
        at = self.pos
        t = self.next()
        if t.kind == "INT":
            lit = int_lit(int(t.value))
        elif t.kind == "STRING":
            lit = str_lit(t.value)
        elif t.kind == "DATA":
            lit = Lit(DATA, bytes.fromhex(t.value))
        elif t.kind == "KEYWORD" and t.value in ("true", "false"):
            lit = bool_lit(t.value == "true")
        elif t.kind == "SYM" and t.value == "(":
            self.expect_sym(")")
            lit = UNIT_LIT
        elif t.kind == "SYM" and t.value == "[":
            items = []
            while not self.at_sym("]"):
                items.append(self.parse_value(expected.elem if expected else None))
                if self.at_sym(","):
                    self.next()
            self.expect_sym("]")
            elem = expected.elem if expected and expected.kind == "List" else \
                (items[0].sort if items else UNIT)
            lit = Lit(list_sort(elem), tuple(items))
        elif t.kind == "SYM" and t.value == "-":
            inner = self.parse_value(INT)
            lit = int_lit(-inner.value)
        else:
            raise self.error(f"expected a literal, found {t.value!r}", at)
        if expected is not None and lit.sort != expected:
            raise self.error(f"literal {lit} does not have sort {expected}", at)
        return lit

    def parse_sort(self) -> Sort:
        at = self.pos
        t = self.next()
        if t.kind == "KEYWORD" and t.value in ("Int", "Bool", "Str", "Unit", "Data"):
            return Sort(t.value)
        if t.kind == "SYM" and t.value == "[":
            elem = self.parse_sort()
            self.expect_sym("]")
            return list_sort(elem)
        raise self.error(f"expected a sort, found {t.value!r}", at)

    # ------------------------------------------------------ expressions

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        e = self.parse_and()
        while self.at_kw("or"):
            self.next()
            e = BinOp("or", e, self.parse_and())
        return e

    def parse_and(self) -> Expr:
        e = self.parse_not()
        while self.at_kw("and"):
            self.next()
            e = BinOp("and", e, self.parse_not())
        return e

    def parse_not(self) -> Expr:
        if self.at_kw("not"):
            self.next()
            return UnOp("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        e = self.parse_range()
        if self.at_sym("=", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            return BinOp(op, e, self.parse_range())
        return e

    def parse_range(self) -> Expr:
        e = self.parse_add()
        if self.at_sym(".."):
            self.next()
            return Range(e, self.parse_add())
        return e

    def parse_add(self) -> Expr:
        e = self.parse_mul()
        while self.at_sym("+", "-"):
            op = self.next().value
            e = BinOp(op, e, self.parse_mul())
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_unary()
        while self.at_sym("*"):
            self.next()
            e = BinOp("*", e, self.parse_unary())
        return e

    def parse_unary(self) -> Expr:
        if self.at_sym("-"):
            self.next()
            if self.peek().kind == "INT":
                return Const(int_lit(-int(self.next().value)))
            return UnOp("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Const(int_lit(int(t.value)))
        if t.kind == "STRING":
            self.next()
            return Const(str_lit(t.value))
        if t.kind == "DATA":
            self.next()
            return Const(Lit(DATA, bytes.fromhex(t.value)))
        if t.kind == "KEYWORD" and t.value in ("true", "false"):
            self.next()
            return Const(bool_lit(t.value == "true"))
        if t.kind == "KEYWORD" and t.value in ("hd", "tl"):
            self.next()
            self.expect_sym("(")
            arg = self.parse_expr()
            self.expect_sym(")")
            return UnOp(t.value, arg)
        if t.kind == "IDENT":
            self.next()
            if self.at_sym("("):
                self.next()
                arg = self.parse_expr()
                self.expect_sym(")")
                return UnOp(t.value, arg)
            return Var(t.value)
        if self.at_sym("["):
            self.next()
            items = []
            while not self.at_sym("]"):
                items.append(self.parse_expr())
                if self.at_sym(","):
                    self.next()
            self.expect_sym("]")
            return ListLit(tuple(items))
        if self.at_sym("("):
            self.next()
            if self.at_sym(")"):
                self.next()
                return Const(UNIT_LIT)
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        raise self.error(f"expected an expression, found {t.value!r}", self.pos)

    # ----------------------------------------------------- global types

    def parse_global_decl(self):
        self.expect_kw("global")
        at = self.pos
        name = self.expect_ident("global type name")
        params: tuple = ()
        if self.at_sym("("):
            self.next()
            names = []
            while not self.at_sym(")"):
                names.append(self.expect_ident("channel"))
                if self.at_sym(","):
                    self.next()
            self.expect_sym(")")
            params = tuple(names)
            if len(set(params)) != len(params):
                raise self.error("duplicate channel parameters", at, InvariantError)
        self.expect_sym("=")
        body = self.parse_global()
        self._declare(self.module.globals_, name, GlobalDef(name, params, body), at)

    def parse_global(self) -> GlobalType:
        g = self.parse_global_atom()
        if self.at_sym(";"):
            self.next()
            return GSeq(g, self.parse_global())
        return g

    def parse_global_atom(self) -> GlobalType:
        t = self.peek()
        if self.at_kw("end"):
            self.next()
            return GEnd()
        if self.at_kw("loop"):
            return self.parse_giter()
        if self.at_sym("("):
            self.next()
            g = self.parse_global()
            self.expect_sym(")")
            return g
        if t.kind == "IDENT":
            if self.peek(1).kind == "SYM" and self.peek(1).value == "->":
                return self.parse_gchoice()
            gdef = self.module.globals_.get(t.value)
            if gdef is None:
                raise self.error(f"unknown global type {t.value!r}", self.pos)
            self.next()
            return gdef.body
        raise self.error(f"expected a global type, found {t.value!r}", self.pos)

    def parse_gchoice(self) -> GChoice:
        sender = self.expect_ident("participant")
        self.expect_sym("->")
        default_receiver = None
        if self.peek().kind == "IDENT":
            default_receiver = self.expect_ident("participant")
            self.expect_sym(":")
        brace = self.pos
        self.expect_sym("{")
        branches = []
        seen = set()
        while True:
            if default_receiver is None:
                receiver = self.expect_ident("participant")
                self.expect_sym("@")
            else:
                receiver = default_receiver
            at = self.pos
            chan = self.expect_ident("channel")
            self.expect_sym("(")
            sort = UNIT if self.at_sym(")") else self.parse_sort()
            self.expect_sym(")")
            self.expect_sym(".")
            cont = self.parse_global()
            if chan in seen:
                raise self.error(f"duplicate channel {chan!r} in choice", at, InvariantError)
            seen.add(chan)
            branches.append(GBranch(receiver, chan, sort, cont))
            if self.at_sym("+"):
                self.next()
                continue
            break
        self.expect_sym("}")
        if not branches:
            raise self.error("empty choice", brace, InvariantError)
        return GChoice(sender, tuple(branches))

    def parse_giter(self) -> GIter:
        self.expect_kw("loop")
        controller = self.expect_ident("participant")
        self.expect_sym("{")
        body = self.parse_global()
        self.expect_sym("}")
        self.expect_kw("until")
        self.expect_sym("(")
        term = []
        while not self.at_sym(")"):
            p = self.expect_ident("participant")
            self.expect_sym("@")
            chan = self.expect_ident("channel")
            self.expect_sym("(")
            sort = UNIT if self.at_sym(")") else self.parse_sort()
            self.expect_sym(")")
            term.append((p, chan, sort))
            if self.at_sym(","):
                self.next()
        self.expect_sym(")")
        return GIter(body, controller, tuple(term))

    # ----------------------------------------------------- pseudo-types

    def parse_type_decl(self):
        self.expect_kw("type")
        at = self.pos
        name = self.expect_ident("type name")
        self.expect_sym("=")
        body = self.parse_type()
        self._declare(self.module.types, name, body, at)

    def parse_type(self) -> PseudoType:
        t = self.parse_type_atom()
        if self.at_sym(";"):
            self.next()
            return TSeq(t, self.parse_type())
        return t

    def parse_type_atom(self) -> PseudoType:
        tok = self.peek()
        if self.at_sym("("):
            self.next()
            inner = self.parse_type()
            self.expect_sym(")")
            if self.at_sym("*"):
                self.next()
                return TIter(inner)
            return inner
        if self.at_sym("[") or self.at_kw("end") \
                or (tok.kind == "IDENT" and self.peek(1).kind == "SYM"
                    and self.peek(1).value in ("!", "?")):
            return self.parse_tchoice()
        if tok.kind == "IDENT":
            body = self.module.types.get(tok.value)
            if body is None:
                raise self.error(f"unknown type {tok.value!r}", self.pos)
            self.next()
            return body
        raise self.error(f"expected a pseudo-type, found {tok.value!r}", self.pos)

    def parse_tchoice(self) -> PseudoType:
        branches = []
        kind = None
        while True:
            guard: Expr = TRUE
            if self.at_sym("["):
                self.next()
                guard = self.parse_expr()
                self.expect_sym("]")
            if self.at_kw("end"):
                if branches:
                    raise self.error("'end' cannot appear as a choice branch", self.pos)
                self.next()
                return TEnd(guard)
            chan = self.expect_ident("channel")
            pol = self.peek()
            if pol.kind != "SYM" or pol.value not in ("!", "?"):
                raise self.error(f"expected '!' or '?', found {pol.value!r}", self.pos)
            this_kind = "internal" if pol.value == "!" else "external"
            if kind is None:
                kind = this_kind
            elif kind != this_kind:
                raise self.error("cannot mix '!' and '?' branches in one choice", self.pos)
            self.next()
            self.expect_sym("(")
            sort = UNIT if self.at_sym(")") else self.parse_sort()
            self.expect_sym(")")
            self.expect_sym(".")
            cont = self.parse_type_atom()
            branches.append(TBranch(guard, chan, sort, cont))
            if self.at_sym("(+)") and kind == "internal":
                self.next()
                continue
            if self.at_sym("(&)") and kind == "external":
                self.next()
                continue
            # a non-matching separator belongs to an enclosing choice
            break
        cls = TInternal if kind == "internal" else TExternal
        return cls(tuple(branches))

    # -------------------------------------------------------- processes

    def parse_process_decl(self):
        self.expect_kw("process")
        at = self.pos
        name = self.expect_ident("process name")
        role = None
        global_name = None
        if self.at_kw("plays"):
            self.next()
            role = self.expect_ident("participant")
            self.expect_kw("of")
            global_at = self.pos
            global_name = self.expect_ident("global type name")
            if global_name not in self.module.globals_:
                raise self.error(f"unknown global type {global_name!r}", global_at)
        self.expect_sym("=")
        body = self.parse_process()
        body = freshen(body, self.module.domain_aliases, self.fresh)
        self._declare(self.module.processes, name,
                      ProcessDef(name, body, role, global_name), at)

    def parse_process(self) -> Process:
        p = self.parse_process_atom()
        if self.at_sym(";"):
            self.next()
            return Seq(p, self.parse_process())
        return p

    def parse_process_atom(self) -> Process:
        t = self.peek()
        if t.kind == "INT" and t.value == "0":
            self.next()
            return NIL
        if self.at_kw("request"):
            return self.parse_request()
        if self.at_kw("accept"):
            return self.parse_accept()
        if self.at_kw("sum"):
            return self.parse_sum()
        if self.at_kw("if"):
            return self.parse_if()
        if self.at_kw("for"):
            return self.parse_for()
        if self.at_kw("repeat"):
            return self.parse_repeat()
        if self.at_sym("{"):
            self.next()
            p = self.parse_process()
            self.expect_sym("}")
            return p
        if self.at_sym("("):
            self.next()
            p = self.parse_process()
            self.expect_sym(")")
            return p
        if t.kind == "IDENT":
            nxt = self.peek(1)
            if nxt.kind == "SYM" and nxt.value == "!":
                return self.parse_send()
            if nxt.kind == "SYM" and nxt.value == "?":
                arm = self.parse_arm()
                return Branch((arm,))
            pdef = self.module.processes.get(t.value)
            if pdef is None:
                raise self.error(f"unknown process {t.value!r}", self.pos)
            self.next()
            return pdef.body
        raise self.error(f"expected a process, found {t.value!r}", self.pos)

    def parse_send(self) -> Send:
        chan = self.expect_ident("channel")
        self.expect_sym("!")
        self.expect_sym("(")
        if self.at_sym(")"):
            self.next()
            return Send(chan, Const(UNIT_LIT))
        payload = self.parse_expr()
        self.expect_sym(")")
        return Send(chan, payload)

    def parse_arm(self) -> Arm:
        chan = self.expect_ident("channel")
        self.expect_sym("?")
        self.expect_sym("(")
        binder = "_" if self.at_sym(")") else self.expect_ident("binder")
        self.expect_sym(")")
        self.expect_sym(".")
        cont = self.parse_process_atom()
        return Arm(chan, binder, cont)

    def parse_sum(self) -> Branch:
        self.expect_kw("sum")
        brace = self.pos
        self.expect_sym("{")
        arms = []
        seen = set()
        while not self.at_sym("}"):
            arm = self.parse_arm()
            if arm.channel in seen:
                raise self.error(f"duplicate channel {arm.channel!r} in sum",
                                 brace, InvariantError)
            seen.add(arm.channel)
            arms.append(arm)
            if self.at_sym("+"):
                self.next()
        self.expect_sym("}")
        return Branch(tuple(arms))

    def parse_request(self) -> Request:
        self.expect_kw("request")
        shared = self.expect_ident("shared name")
        self.expect_sym("[")
        n = self.peek()
        if n.kind != "INT":
            raise self.error(f"expected arity, found {n.value!r}", self.pos)
        self.next()
        self.expect_sym("]")
        chans = self.parse_chan_tuple()
        self.expect_sym(".")
        cont = self.parse_process_atom()
        return Request(shared, int(n.value), chans, cont)

    def parse_accept(self) -> Accept:
        self.expect_kw("accept")
        shared = self.expect_ident("shared name")
        self.expect_sym("[")
        role = self.expect_ident("participant")
        self.expect_sym("]")
        chans = self.parse_chan_tuple()
        self.expect_sym(".")
        cont = self.parse_process_atom()
        return Accept(shared, role, chans, cont)

    def parse_chan_tuple(self) -> tuple:
        lparen = self.pos
        self.expect_sym("(")
        names = []
        while not self.at_sym(")"):
            names.append(self.expect_ident("channel"))
            if self.at_sym(","):
                self.next()
        self.expect_sym(")")
        if len(set(names)) != len(names):
            raise self.error("duplicate session channels", lparen, InvariantError)
        return tuple(names)

    def parse_if(self) -> If:
        self.expect_kw("if")
        cond = self.parse_expr()
        self.expect_kw("then")
        then = self.parse_process_atom()
        self.expect_kw("else")
        orelse = self.parse_process_atom()
        return If(cond, then, orelse)

    def parse_for(self) -> For:
        self.expect_kw("for")
        binder = self.expect_ident("binder")
        self.expect_kw("in")
        items = self.parse_expr()
        self.expect_sym("{")
        body = self.parse_process()
        self.expect_sym("}")
        return For(binder, items, body)

    def parse_repeat(self) -> RepeatUntil:
        self.expect_kw("repeat")
        body = self.parse_branch_block("repeat body")
        self.expect_kw("until")
        exit_ = self.parse_branch_block("until guard")
        return RepeatUntil(body, exit_)

    def parse_branch_block(self, what: str) -> Branch:
        """{ y1?(x1). P1 + y2?(x2). P2 } -- an input-guarded choice."""
        brace = self.pos
        self.expect_sym("{")
        if self.peek().kind == "INT" and self.peek().value == "0":
            self.next()
            self.expect_sym("}")
            return NIL
        if self.at_kw("sum"):
            arms = self.parse_sum()
            self.expect_sym("}")
            return arms
        arms = []
        seen = set()
        while True:
            arm = self.parse_arm()
            if arm.channel in seen:
                raise self.error(f"duplicate channel {arm.channel!r} in {what}",
                                 brace, InvariantError)
            seen.add(arm.channel)
            arms.append(arm)
            if self.at_sym("+"):
                self.next()
                continue
            break
        self.expect_sym("}")
        return Branch(tuple(arms))

    # ---------------------------------------------------------- systems

    def parse_system_decl(self):
        self.expect_kw("system")
        at = self.pos
        name = self.expect_ident("system name")
        self.expect_sym("=")
        body = self.parse_system()
        body = freshen(body, self.module.domain_aliases, self.fresh)
        self._declare(self.module.systems, name, SystemDef(name, body), at)

    def parse_system(self) -> System:
        s = self.parse_system_atom()
        if self.at_sym("||"):
            self.next()
            return Par(s, self.parse_system())
        return s

    def parse_system_atom(self) -> System:
        t = self.peek()
        if self.at_kw("queue"):
            self.next()
            chan = self.expect_ident("channel")
            self.expect_sym("=")
            self.expect_sym("[")
            values = []
            while not self.at_sym("]"):
                values.append(self.parse_value())
                if self.at_sym(","):
                    self.next()
            self.expect_sym("]")
            return Queue(chan, tuple(values))
        if self.at_kw("new"):
            self.next()
            chans = self.parse_chan_tuple()
            self.expect_sym("@")
            shared = self.expect_ident("shared name")
            self.expect_kw("in")
            return Restrict(chans, shared, self.parse_system())
        if self.at_sym("{"):
            self.next()
            s = self.parse_system()
            self.expect_sym("}")
            return s
        nxt = self.peek(1)
        if t.kind == "IDENT" and (nxt.kind != "SYM" or nxt.value not in ("!", "?", ";")):
            # bare name: a declared system or process
            if t.value in self.module.systems:
                self.next()
                return self.module.systems[t.value].body
            if t.value in self.module.processes:
                self.next()
                return Proc(self.module.processes[t.value].body)
            raise self.error(f"unknown system or process {t.value!r}", self.pos)
        return Proc(self.parse_process())


def parse_module(text: str) -> ModuleDecl:
    """Parse a .chor module; see the module docstring for the grammar."""
    return _parse_all(Parser(text), Parser.parse_module)


def parse_global(text: str, module: ModuleDecl | None = None) -> GlobalType:
    return _parse_all(Parser(text, module), Parser.parse_global)


def parse_type(text: str, module: ModuleDecl | None = None) -> PseudoType:
    return _parse_all(Parser(text, module), Parser.parse_type)


def parse_process(text: str, module: ModuleDecl | None = None) -> Process:
    return _parse_all(Parser(text, module), Parser.parse_process)


def parse_system(text: str, module: ModuleDecl | None = None) -> System:
    return _parse_all(Parser(text, module), Parser.parse_system)


def parse_expr(text: str) -> Expr:
    return _parse_all(Parser(text), Parser.parse_expr)


def _parse_all(p: Parser, parse):
    """What `parse(p)` reads, which must be all of p's text.  Input
    nested deeper than the interpreter's stack allows is an error at the
    token where the stack ran out."""
    try:
        term = parse(p)
    except RecursionError:
        raise p.error("nesting too deep", p.pos) from None
    t = p.peek()
    if t.kind != "EOF":
        raise p.error(f"unexpected trailing input {t.value!r}", p.pos)
    return term
