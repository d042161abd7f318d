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
alpha-freshened so bound names are globally unique.

The tokenizer is one compiled regex, each match of which skips blanks
and comments and yields one token.  A token carries its offset into the
text; the line and column of an error are worked out from it only when
a `ParseError` is raised.
"""

from __future__ import annotations

import re
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

# One match skips blanks and comments, then takes one token: the first
# alternative that matches, in this order.  BAD takes any other single
# character, so each match starts where the last one ended; EOF matches
# only at the end of the text.
_TOKEN_RE = re.compile(r"""(?:[ \t\r\n]|//[^\n]*)*(?:
    (?P<STRING>"(?:[^"\\]|\\[\s\S])*")
  | (?P<DATA>0x(?:[0-9a-fA-F][0-9a-fA-F])*)
  | (?P<INT>[0-9]+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<SYM>""" + "|".join(re.escape(sym) for sym in _SYMBOLS) + r""")
  | (?P<EOF>\Z)
  | (?P<BAD>[\s\S]))""", re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_KINDS = {i: kind for kind, i in _TOKEN_RE.groupindex.items()}


class Token(NamedTuple):
    kind: str  # IDENT KEYWORD INT STRING DATA SYM EOF
    value: str
    offset: int  # into the text; line:col is worked out only for errors


def line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list:
    """The tokens of `text`, then two EOF tokens, so that looking one
    token past the end needs no bounds check."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        kind, value, offset = _KINDS[i], m[i], m.start(i)
        if kind == "IDENT":
            if value in KEYWORDS:
                kind = "KEYWORD"
        elif kind == "STRING":
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
        elif kind == "DATA":
            value = value[2:]
        elif kind == "EOF":
            break
        elif kind == "BAD":
            message = "unterminated string literal" if value == '"' \
                else f"unexpected character {value!r}"
            raise ParseError(message, *line_col(text, offset))
        toks.append(Token(kind, value, offset))
    eof = Token("EOF", "", len(text))
    toks += (eof, eof)
    return toks


class Parser:
    def __init__(self, text: str, module: ModuleDecl | None = None):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.module = module or ModuleDecl()

    # ------------------------------------------------------- primitives

    def error(self, message: str, tok: Token, cls=ParseError) -> ParseError:
        return cls(message, *line_col(self.text, tok.offset))

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

    def expect_sym(self, sym: str) -> Token:
        t = self.next()
        if t.kind != "SYM" or t.value != sym:
            raise self.error(f"expected {sym!r}, found {t.value!r}", t)
        return t

    def expect_kw(self, word: str) -> Token:
        t = self.next()
        if t.kind != "KEYWORD" or t.value != word:
            raise self.error(f"expected {word!r}, found {t.value!r}", t)
        return t

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.next()
        if t.kind != "IDENT":
            raise self.error(f"expected {what}, found {t.value!r}", t)
        return t

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
                raise self.error(f"expected a declaration, found {t.value!r}", t)
        return self.module

    def _declare(self, table: dict, name: str, value, tok: Token):
        if name in self.module.globals_ or name in self.module.types \
                or name in self.module.processes or name in self.module.systems:
            raise self.error(f"duplicate declaration of {name!r}", tok, InvariantError)
        table[name] = value

    def parse_domain(self):
        self.expect_kw("domain")
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
                             self.peek(), InvariantError)
        if not values:
            raise self.error("empty domain", self.peek(), InvariantError)
        if var.value in self.module.domains:
            raise self.error(f"duplicate domain for {var.value!r}", var, InvariantError)
        self.module.domains[var.value] = frozenset(values)

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
            raise self.error(f"table {name.value!r} needs a default entry '_ -> v'",
                             name, InvariantError)
        if name.value in self.module.tables:
            raise self.error(f"duplicate table {name.value!r}", name, InvariantError)
        self.module.tables[name.value] = Table(name.value, arg, ret, tuple(mapping), default)

    def parse_value(self, expected: Sort | None = None) -> Lit:
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
            raise self.error(f"expected a literal, found {t.value!r}", t)
        if expected is not None and lit.sort != expected:
            raise self.error(f"literal {lit} does not have sort {expected}", t)
        return lit

    def parse_sort(self) -> Sort:
        t = self.next()
        if t.kind == "KEYWORD" and t.value in ("Int", "Bool", "Str", "Unit", "Data"):
            return Sort(t.value)
        if t.kind == "SYM" and t.value == "[":
            elem = self.parse_sort()
            self.expect_sym("]")
            return list_sort(elem)
        raise self.error(f"expected a sort, found {t.value!r}", t)

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
        raise self.error(f"expected an expression, found {t.value!r}", t)

    # ----------------------------------------------------- global types

    def parse_global_decl(self):
        self.expect_kw("global")
        name = self.expect_ident("global type name")
        params: tuple = ()
        if self.at_sym("("):
            self.next()
            names = []
            while not self.at_sym(")"):
                names.append(self.expect_ident("channel").value)
                if self.at_sym(","):
                    self.next()
            self.expect_sym(")")
            params = tuple(names)
            if len(set(params)) != len(params):
                raise self.error("duplicate channel parameters", name, InvariantError)
        self.expect_sym("=")
        body = self.parse_global()
        self._declare(self.module.globals_, name.value,
                      GlobalDef(name.value, params, body), name)

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
            self.next()
            gdef = self.module.globals_.get(t.value)
            if gdef is None:
                raise self.error(f"unknown global type {t.value!r}", t)
            return gdef.body
        raise self.error(f"expected a global type, found {t.value!r}", t)

    def parse_gchoice(self) -> GChoice:
        sender = self.expect_ident("participant").value
        self.expect_sym("->")
        default_receiver = None
        if self.peek().kind == "IDENT":
            default_receiver = self.expect_ident("participant").value
            self.expect_sym(":")
        brace = self.expect_sym("{")
        branches = []
        seen = set()
        while True:
            if default_receiver is None:
                receiver = self.expect_ident("participant").value
                self.expect_sym("@")
            else:
                receiver = default_receiver
            chan = self.expect_ident("channel")
            self.expect_sym("(")
            sort = UNIT if self.at_sym(")") else self.parse_sort()
            self.expect_sym(")")
            self.expect_sym(".")
            cont = self.parse_global()
            if chan.value in seen:
                raise self.error(
                    f"duplicate channel {chan.value!r} in choice", chan, InvariantError)
            seen.add(chan.value)
            branches.append(GBranch(receiver, chan.value, sort, cont))
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
        controller = self.expect_ident("participant").value
        self.expect_sym("{")
        body = self.parse_global()
        self.expect_sym("}")
        self.expect_kw("until")
        self.expect_sym("(")
        term = []
        while not self.at_sym(")"):
            p = self.expect_ident("participant").value
            self.expect_sym("@")
            chan = self.expect_ident("channel").value
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
        name = self.expect_ident("type name")
        self.expect_sym("=")
        body = self.parse_type()
        self._declare(self.module.types, name.value, body, name)

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
            self.next()
            body = self.module.types.get(tok.value)
            if body is None:
                raise self.error(f"unknown type {tok.value!r}", tok)
            return body
        raise self.error(f"expected a pseudo-type, found {tok.value!r}", tok)

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
                endtok = self.next()
                if branches:
                    raise self.error("'end' cannot appear as a choice branch", endtok)
                return TEnd(guard)
            chan = self.expect_ident("channel")
            pol = self.next()
            if pol.kind != "SYM" or pol.value not in ("!", "?"):
                raise self.error(f"expected '!' or '?', found {pol.value!r}", pol)
            this_kind = "internal" if pol.value == "!" else "external"
            if kind is None:
                kind = this_kind
            elif kind != this_kind:
                raise self.error("cannot mix '!' and '?' branches in one choice", pol)
            self.expect_sym("(")
            sort = UNIT if self.at_sym(")") else self.parse_sort()
            self.expect_sym(")")
            self.expect_sym(".")
            cont = self.parse_type_atom()
            branches.append(TBranch(guard, chan.value, sort, cont))
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
        name = self.expect_ident("process name")
        role = None
        global_name = None
        if self.at_kw("plays"):
            self.next()
            role = self.expect_ident("participant").value
            self.expect_kw("of")
            gtok = self.expect_ident("global type name")
            if gtok.value not in self.module.globals_:
                raise self.error(f"unknown global type {gtok.value!r}", gtok)
            global_name = gtok.value
        self.expect_sym("=")
        body = self.parse_process()
        body = freshen(body, renames=self.module.domain_aliases)
        self._declare(self.module.processes, name.value,
                      ProcessDef(name.value, body, role, global_name), name)

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
            self.next()
            pdef = self.module.processes.get(t.value)
            if pdef is None:
                raise self.error(f"unknown process {t.value!r}", t)
            return pdef.body
        raise self.error(f"expected a process, found {t.value!r}", t)

    def parse_send(self) -> Send:
        chan = self.expect_ident("channel")
        self.expect_sym("!")
        self.expect_sym("(")
        if self.at_sym(")"):
            self.next()
            return Send(chan.value, Const(UNIT_LIT))
        payload = self.parse_expr()
        self.expect_sym(")")
        return Send(chan.value, payload)

    def parse_arm(self) -> Arm:
        chan = self.expect_ident("channel")
        self.expect_sym("?")
        self.expect_sym("(")
        binder = "_" if self.at_sym(")") else self.expect_ident("binder").value
        self.expect_sym(")")
        self.expect_sym(".")
        cont = self.parse_process_atom()
        return Arm(chan.value, binder, cont)

    def parse_sum(self) -> Branch:
        self.expect_kw("sum")
        brace = self.expect_sym("{")
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
        n = self.next()
        if n.kind != "INT":
            raise self.error(f"expected arity, found {n.value!r}", n)
        self.expect_sym("]")
        chans = self.parse_chan_tuple()
        self.expect_sym(".")
        cont = self.parse_process_atom()
        return Request(shared.value, int(n.value), chans, cont)

    def parse_accept(self) -> Accept:
        self.expect_kw("accept")
        shared = self.expect_ident("shared name")
        self.expect_sym("[")
        role = self.expect_ident("participant")
        self.expect_sym("]")
        chans = self.parse_chan_tuple()
        self.expect_sym(".")
        cont = self.parse_process_atom()
        return Accept(shared.value, role.value, chans, cont)

    def parse_chan_tuple(self) -> tuple:
        lparen = self.expect_sym("(")
        names = []
        while not self.at_sym(")"):
            names.append(self.expect_ident("channel").value)
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
        binder = self.expect_ident("binder").value
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
        brace = self.expect_sym("{")
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
        name = self.expect_ident("system name")
        self.expect_sym("=")
        body = self.parse_system()
        body = freshen(body, renames=self.module.domain_aliases)
        self._declare(self.module.systems, name.value, SystemDef(name.value, body), name)

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
            return Queue(chan.value, tuple(values))
        if self.at_kw("new"):
            self.next()
            chans = self.parse_chan_tuple()
            self.expect_sym("@")
            shared = self.expect_ident("shared name")
            self.expect_kw("in")
            return Restrict(chans, shared.value, self.parse_system())
        if self.at_sym("{"):
            self.next()
            s = self.parse_system()
            self.expect_sym("}")
            return s
        if t.kind == "IDENT" and self.peek(1).kind != "SYM":
            # bare name: a declared system or process
            self.next()
            if t.value in self.module.systems:
                return self.module.systems[t.value].body
            if t.value in self.module.processes:
                return Proc(self.module.processes[t.value].body)
            raise self.error(f"unknown system or process {t.value!r}", t)
        if t.kind == "IDENT" and self.peek(1).kind == "SYM" \
                and self.peek(1).value not in ("!", "?", ";"):
            self.next()
            if t.value in self.module.systems:
                return self.module.systems[t.value].body
            if t.value in self.module.processes:
                return Proc(self.module.processes[t.value].body)
            raise self.error(f"unknown system or process {t.value!r}", t)
        return Proc(self.parse_process())


def parse_module(text: str) -> ModuleDecl:
    """Parse a .chor module; see the module docstring for the grammar."""
    return Parser(text).parse_module()


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
    """What `parse(p)` reads, which must be all of p's text."""
    term = parse(p)
    t = p.peek()
    if t.kind != "EOF":
        raise p.error(f"unexpected trailing input {t.value!r}", t)
    return term
