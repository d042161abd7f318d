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
    e ::= e OP e | not e | - e | x | f(e) | hd(e) | tl(e) | literal
        | [e, ...] | () | ( e )

An expression's operators bind by the levels of `ast.PREC`, which the
printer follows too:

    1  or                  nests to the left
    2  and                 nests to the left
    3  not e               prefix; e is read at level 4
    4  = != < <= > >=      does not chain: `x = 1 = 2` is an error
    5  ..                  does not chain: `1..2..3` is an error
    6  + -                 nest to the left
    7  *                   nests to the left
    8  - e                 prefix; `- INT` is a negative literal

`not` stands only where an operand of `and` may (`x = not y` is an
error).  `parse_expr(floor)` reads by precedence climbing: one call per
operand, so an atom costs two calls (`parse_expr`, `parse_atom`) rather
than one per level, and a parenthesis two stack frames.  Each call keeps
the level from which no operator may follow what it has read, so that
an enclosing level never takes up a comparison or range after another
one, nor anything but `and` and `or` after a `not`.

Within one parse, equal expressions are one object: every expression
node the reader builds goes through a table kept on the `Parser`, keyed
by the class, the operator, name or literal, and the `id`s of the
operands, which are shared already.  So the values a node keeps
(`ast.DERIVED`) are computed once per distinct expression, and sharing
never hashes or compares a record.  The table dies with its `Parser`:
two parses share no expression node.

The four languages share their small forms, and one reader takes each.
Every comma-separated list (domain values, table entries, list literals
and values, channel parameters, session channels, loop exits, queues) is
read by `listed`, which makes each comma optional: `{1 2}`, `{1, 2}` and
`{1, 2,}` are one domain.  The branches of a choice, of a `sum` and of a
`repeat`/`until` block are read by `branches`, which rejects a repeated
channel.  A `sum` may be empty and may leave out any '+' between its
arms, as in `sum { a?(x). 0 b?(y). 0 }`; a choice has at least one
branch and needs '+' between branches, and so does a `repeat`/`until`
block other than `{ 0 }` and `{ sum { ... } }`.  `literal` reads an
integer, string, data or Boolean token, as a value and in an expression,
and `payload` the sort of a message, `()` being Unit.

Comments run from // to end of line.  Names declared earlier in the
module may be referenced later (no recursion).  A module's parse reads
and checks every declaration, but keeps each process and system body as
read, with an `ast.Ref` wherever it names an earlier one (`Bodies`).
`ModuleDecl.processes` and `.systems` freshen a body the first time it
is read, after the bodies it names, which then stand where its `Ref`s
were: so bound names are globally unique in every body read, and each
body is what freshening it right after inlining the bodies it names
gives.  A request that judges only global types and pseudo-types reads
no body and freshens none.  Each node keeps its binders and free names
(`ast.names`), so freshening a body that names an earlier one need not
walk that one again where that would change nothing (see subst.py).  A
body nested deeper than the freshening walk can go is a `ParseError` at
its declaration's name, raised when the body is read.

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
from collections.abc import Mapping
from itertools import islice
from typing import NamedTuple

from .ast import (
    Accept, Arm, BinOp, BOOL, Branch, Const, DATA, Expr, FALSE_LIT, For,
    GBranch, GChoice, GEnd, GIter, GSeq, GlobalDef, GlobalType, If, INT,
    Lit, ListLit, ModuleDecl, Names, NIL, Par, Proc, Process, ProcessDef,
    PseudoType, Queue, Range, Ref, RepeatUntil, Request, Restrict, Send, Seq,
    Sort, STR, System, SystemDef, Table, TBranch, TEnd, TExternal,
    TInternal, TIter, TRUE, TRUE_LIT, TSeq, UNIT, UNIT_LIT, UnOp, Var,
    MINUS_PREC, PREC, bool_lit, int_lit, list_sort, names, replace, str_lit,
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


# The expression reader's levels (see `PREC`): each infix operator's
# token and level, the levels that do not chain (comparisons and `..`),
# and a level above all of them.
_INFIX = {Token("KEYWORD" if op.isalpha() else "SYM", op): level
          for op, level in PREC.items() if op != "not"}
_NOT, _RANGE, _TOP = PREC["not"], PREC[".."], MINUS_PREC + 1
_UNCHAINED = (PREC["="], _RANGE)
_NOT_TOKEN, _MINUS_TOKEN = Token("KEYWORD", "not"), Token("SYM", "-")
_OPEN, _CLOSE, _LIST = Token("SYM", "("), Token("SYM", ")"), Token("SYM", "[")
# The pseudo-type reader's tokens, and each polarity's choice class with
# the separator of its branches.
_SEMI, _STAR, _END = Token("SYM", ";"), Token("SYM", "*"), Token("KEYWORD", "end")
_CHOICES = {Token("SYM", "!"): (TInternal, Token("SYM", "(+)")),
            Token("SYM", "?"): (TExternal, Token("SYM", "(&)"))}


class Bodies:
    """The process and system bodies of one parsed module.  Each is kept
    as read, with a `Ref` wherever it names an earlier declaration, and
    freshened the first time it is read, after the bodies it names: so a
    freshened body depends only on its own text and on those bodies, and
    bodies read in any order are the bodies read in source order.  A
    declaration keeps its own renames."""

    def __init__(self, text: str):
        self.text = text
        # name -> (the declaration as read, the index of its name's token,
        # the names its body refers to), in source order
        self.read = {}
        self.fresh = {}   # name -> (the declaration freshened, its renames)
        self.bodies = {}  # name -> the freshened body (see `subst.freshen`)
        self.refs = {}    # name -> the one `Ref` to it
        self.named = {}   # the names referred to since the last declaration

    def ref(self, name: str) -> Ref:
        self.named[name] = None
        ref = self.refs.get(name)
        if ref is None:
            ref = self.refs[name] = Ref(name)
        return ref

    def declare(self, table: Declared, name: str, decl, at: int) -> None:
        table.names[name] = None
        self.read[name] = (decl, at, tuple(self.named))
        self.named = {}

    def freshened(self, name: str):
        """The declaration `name` with its body freshened, and so, before
        it, every declaration that it names and is not yet freshened.  A
        body nested deeper than the interpreter's stack allows is an
        error at its declaration's name."""
        done = self.fresh.get(name)
        if done is not None:
            return done[0]
        todo = [name]
        while todo:
            last = todo[-1]
            if last in self.fresh:
                todo.pop()
                continue
            decl, at, named = self.read[last]
            missing = [n for n in named if n not in self.fresh]
            if missing:
                todo += missing
                continue
            todo.pop()
            renames = {}
            try:
                body = freshen(decl.body, renames, self.bodies)
            except RecursionError:
                raise ParseError("nesting too deep",
                                 *token_line_col(self.text, at)) from None
            if body is not decl.body:
                decl = replace(decl, body=body)
            self.fresh[last] = (decl, renames)
            self.bodies[last] = body
            ref = self.refs.get(last)
            if ref is not None:  # see `ast.Names`
                free, variables, shared = names(body)[2:5]
                object.__setattr__(ref, "_names", Names(
                    frozenset(), False, free, variables, shared, True))
        return self.fresh[name][0]

    def aliases(self) -> dict:
        """Every body's renames, in source order, read from every body."""
        out = {}
        for name in self.read:
            self.freshened(name)
            out.update(self.fresh[name][1])
        return out


class Declared(Mapping):
    """Process or system declarations by name, in source order.  Their
    `Bodies` freshens a declaration's body when it is first read."""

    def __init__(self, bodies: Bodies):
        self.bodies = bodies
        self.names = {}  # the names declared here, in source order

    def __getitem__(self, name: str):
        if name not in self.names:
            raise KeyError(name)
        return self.bodies.freshened(name)

    def __contains__(self, name) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


class Parser:
    def __init__(self, text: str, module: ModuleDecl | None = None):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        # the bodies of the module this parse reads; None when it reads a
        # term against a module given to it
        self.bodies = None
        if module is None:
            self.bodies = Bodies(text)
            module = ModuleDecl(processes=Declared(self.bodies),
                                systems=Declared(self.bodies),
                                domain_aliases=self.bodies)
        self.module = module
        # every expression read in this parse, by its key (see `share`)
        self.exprs = {}

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

    def literal(self) -> Lit | None:
        """The integer, string, data or Boolean literal that the next
        token spells, taking the token; None, taking nothing, for any
        other token."""
        t = self.toks[self.pos]
        if t.kind == "INT":
            lit = int_lit(int(t.value))
        elif t.kind == "STRING":
            lit = str_lit(t.value)
        elif t.kind == "DATA":
            lit = Lit(DATA, bytes.fromhex(t.value))
        elif t.kind == "KEYWORD" and t.value in ("true", "false"):
            lit = bool_lit(t.value == "true")
        else:
            return None
        self.pos += 1
        return lit

    def listed(self, close: str, item) -> tuple:
        """What `item()` reads, again and again up to the symbol `close`,
        which is taken too; a comma may follow each item."""
        items = []
        while not self.at_sym(close):
            items.append(item())
            if self.at_sym(","):
                self.pos += 1
        self.pos += 1
        return tuple(items)

    def branches(self, read, what: str, loose: bool = False) -> tuple:
        """The branches `read()` reads up to and with the closing '}',
        separated by '+'.  `read` returns the token index at which a
        repeated channel is reported, and the branch.  A `loose` list (a
        `sum`) may be empty and leave out any '+'."""
        out, seen = [], set()
        while not (loose and self.at_sym("}")):
            at, branch = read()
            if branch.channel in seen:
                raise self.error(f"duplicate channel {branch.channel!r} in {what}",
                                 at, InvariantError)
            seen.add(branch.channel)
            out.append(branch)
            if self.at_sym("+"):
                self.pos += 1
            elif not loose:
                break
        self.expect_sym("}")
        return tuple(out)

    def payload(self) -> Sort:
        """A message's payload sort in parentheses; `()` is Unit."""
        self.expect_sym("(")
        if self.toks[self.pos] == _CLOSE:
            self.pos += 1
            return UNIT
        sort = self.parse_sort()
        self.expect_sym(")")
        return sort

    # ------------------------------------------------------------ module

    def parse_module(self) -> ModuleDecl:
        while self.peek().kind != "EOF":
            t = self.peek()
            read = self.DECLARATIONS.get(t.value) if t.kind == "KEYWORD" else None
            if read is None:
                raise self.error(f"expected a declaration, found {t.value!r}", self.pos)
            read(self)
        return self.module

    def _declare(self, name: str, at: int) -> None:
        """Refuse `name` at token `at` if the module declares it already."""
        if name in self.module.globals_ or name in self.module.types \
                or name in self.bodies.read:
            raise self.error(f"duplicate declaration of {name!r}", at, InvariantError)

    def named(self, table: Mapping, name: str):
        """What a body that names `name` holds in its place, where `table`
        (the module's processes or systems) declares it: a `Ref` when
        this parse reads the module, else the declared body.  None where
        `table` does not declare `name`."""
        if self.bodies is None:
            return table[name].body if name in table else None
        return self.bodies.ref(name) if name in table.names else None

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
            return frozenset(self.listed("}", lambda: self.parse_value(sort)))
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
        seen = set()

        def entry() -> tuple:  # (key, value), with key None for '_'
            t, key_at = self.peek(), self.pos
            if t.kind == "IDENT" and t.value == "_":
                self.next()
                key = None
            else:
                key = self.parse_value(arg)
            if key in seen:
                what = "default entry" if key is None else f"entry for {key}"
                raise self.error(f"table {name!r} repeats its {what}",
                                 key_at, InvariantError)
            seen.add(key)
            self.expect_sym("->")
            return key, self.parse_value(ret)

        entries = self.listed("}", entry)
        defaults = [value for key, value in entries if key is None]
        if not defaults:
            raise self.error(f"table {name!r} needs a default entry '_ -> v'",
                             at, InvariantError)
        if name in self.module.tables:
            raise self.error(f"duplicate table {name!r}", at, InvariantError)
        mapping = tuple(entry for entry in entries if entry[0] is not None)
        self.module.tables[name] = Table(name, arg, ret, mapping, defaults[0])

    def parse_value(self, expected: Sort | None = None) -> Lit:
        at = self.pos
        lit = self.literal()
        if lit is None:
            t = self.next()
            if t.kind == "SYM" and t.value == "(":
                self.expect_sym(")")
                lit = UNIT_LIT
            elif t.kind == "SYM" and t.value == "[":
                items = self.listed("]", lambda: self.parse_value(
                    expected.elem if expected else None))
                elem = expected.elem if expected and expected.kind == "List" else \
                    (items[0].sort if items else UNIT)
                lit = Lit(list_sort(elem), items)
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

    def share(self, key: tuple, *fields) -> Expr:
        """The expression `key[0](*fields)`, one object per `key` in this
        parse.  A key is the class, then the operator, name or literal
        value, then the `id` of each operand, itself already shared: so
        sharing never hashes or compares a record."""
        e = self.exprs.get(key)
        if e is None:
            e = self.exprs[key] = key[0](*fields)
        return e

    def parse_expr(self, floor: int = 1) -> Expr:
        """An expression whose operators bind at least as tightly as
        `floor`, a level of `PREC` (1, the loosest, by default).  No
        operator of level `limit` or above may follow what is read so
        far: after a comparison or a range none of its own level, and
        after a prefix `not` only `and` and `or`."""
        toks = self.toks
        t = toks[self.pos]
        limit = _TOP
        if t == _NOT_TOKEN and floor <= _NOT:
            self.pos += 1
            arg = self.parse_expr(_NOT)
            left = self.share((UnOp, "not", id(arg)), "not", arg)
            limit = _NOT
        elif t == _MINUS_TOKEN:
            self.pos += 1
            t = toks[self.pos]
            if t.kind == "INT":
                self.pos += 1
                left = self.share((Const, "-", t), int_lit(-int(t.value)))
            else:
                arg = self.parse_expr(MINUS_PREC)
                left = self.share((UnOp, "-", id(arg)), "-", arg)
        else:
            left = self.parse_atom()
        while True:
            t = toks[self.pos]
            level = _INFIX.get(t, 0)
            if not floor <= level < limit:
                return left
            self.pos += 1
            right = self.parse_expr(level + 1)
            if level == _RANGE:
                left = self.share((Range, id(left), id(right)), left, right)
            else:
                op = t.value
                left = self.share((BinOp, op, id(left), id(right)), op, left, right)
            limit = level if level in _UNCHAINED else level + 1

    def parse_atom(self) -> Expr:
        t = self.toks[self.pos]
        kind = t.kind
        if kind == "IDENT" or kind == "KEYWORD" and t.value in ("hd", "tl"):
            self.pos += 1
            if kind == "IDENT" and self.toks[self.pos] != _OPEN:
                return self.share((Var, t.value), t.value)
            self.expect_sym("(")  # a table's argument, or hd's or tl's
            arg = self.parse_expr()
            self.expect_sym(")")
            return self.share((UnOp, t.value, id(arg)), t.value, arg)
        if t == _OPEN:
            self.pos += 1
            if self.toks[self.pos] == _CLOSE:
                self.pos += 1
                return self.share((Const, "Unit", None), UNIT_LIT)
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if t == _LIST:
            self.pos += 1
            items = self.listed("]", self.parse_expr)
            return self.share((ListLit, *map(id, items)), items)
        e = self.exprs.get((Const, t))
        if e is not None:  # a literal read before
            self.pos += 1
            return e
        lit = self.literal()
        if lit is None:
            raise self.error(f"expected an expression, found {t.value!r}", self.pos)
        return self.share((Const, t), lit)

    # ----------------------------------------------------- global types

    def parse_global_decl(self):
        self.expect_kw("global")
        at = self.pos
        name = self.expect_ident("global type name")
        params: tuple = ()
        if self.at_sym("("):
            self.next()
            params = self.listed(")", lambda: self.expect_ident("channel"))
            if len(set(params)) != len(params):
                raise self.error("duplicate channel parameters", at, InvariantError)
        self.expect_sym("=")
        body = self.parse_global()
        self._declare(name, at)
        self.module.globals_[name] = GlobalDef(name, params, body)

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
        self.expect_sym("{")

        def branch() -> tuple:  # a repeated channel is an error at its token
            receiver = default_receiver
            if receiver is None:
                receiver = self.expect_ident("participant")
                self.expect_sym("@")
            at = self.pos
            chan = self.expect_ident("channel")
            sort = self.payload()
            self.expect_sym(".")
            return at, GBranch(receiver, chan, sort, self.parse_global())

        return GChoice(sender, self.branches(branch, "choice"))

    def parse_giter(self) -> GIter:
        self.expect_kw("loop")
        controller = self.expect_ident("participant")
        self.expect_sym("{")
        body = self.parse_global()
        self.expect_sym("}")
        self.expect_kw("until")
        self.expect_sym("(")

        def exit_message() -> tuple:
            p = self.expect_ident("participant")
            self.expect_sym("@")
            return p, self.expect_ident("channel"), self.payload()

        return GIter(body, controller, self.listed(")", exit_message))

    # ----------------------------------------------------- pseudo-types

    def parse_type_decl(self):
        self.expect_kw("type")
        at = self.pos
        name = self.expect_ident("type name")
        self.expect_sym("=")
        body = self.parse_type()
        self._declare(name, at)
        self.module.types[name] = body

    def parse_type(self) -> PseudoType:
        t = self.parse_type_atom()
        if self.toks[self.pos] == _SEMI:
            self.pos += 1
            return TSeq(t, self.parse_type())
        return t

    def parse_type_atom(self) -> PseudoType:
        toks, at = self.toks, self.pos
        tok = toks[at]
        if tok == _OPEN:
            self.pos += 1
            inner = self.parse_type()
            self.expect_sym(")")
            if toks[self.pos] == _STAR:
                self.pos += 1
                return TIter(inner)
            return inner
        if tok == _LIST or tok == _END \
                or tok.kind == "IDENT" and toks[at + 1] in _CHOICES:
            return self.parse_tchoice()
        if tok.kind == "IDENT":
            body = self.module.types.get(tok.value)
            if body is None:
                raise self.error(f"unknown type {tok.value!r}", at)
            self.pos += 1
            return body
        raise self.error(f"expected a pseudo-type, found {tok.value!r}", at)

    def parse_tchoice(self) -> PseudoType:
        toks, branches = self.toks, []
        choice = None  # the class and separator of the first branch's polarity
        while True:
            guard: Expr = TRUE
            if toks[self.pos] == _LIST:
                self.pos += 1
                guard = self.parse_expr()
                self.expect_sym("]")
            if toks[self.pos] == _END:
                if branches:
                    raise self.error("'end' cannot appear as a choice branch", self.pos)
                self.pos += 1
                return TEnd(guard)
            chan = self.expect_ident("channel")
            pol = toks[self.pos]
            this = _CHOICES.get(pol)
            if this is None:
                raise self.error(f"expected '!' or '?', found {pol.value!r}", self.pos)
            if choice is None:
                choice = this
            elif choice is not this:
                raise self.error("cannot mix '!' and '?' branches in one choice", self.pos)
            self.pos += 1
            sort = self.payload()
            self.expect_sym(".")
            branches.append(TBranch(guard, chan, sort, self.parse_type_atom()))
            if toks[self.pos] != choice[1]:
                # a non-matching separator belongs to an enclosing choice
                return choice[0](tuple(branches))
            self.pos += 1

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
        self._declare(name, at)
        self.bodies.declare(self.module.processes, name,
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
        if t.kind == "KEYWORD" and t.value in self.PROCESS_FORMS:
            return self.PROCESS_FORMS[t.value](self)
        if self.at_sym("{", "("):
            close = "}" if self.next().value == "{" else ")"
            p = self.parse_process()
            self.expect_sym(close)
            return p
        if t.kind == "IDENT":
            nxt = self.peek(1)
            if nxt.kind == "SYM" and nxt.value == "!":
                return self.parse_send()
            if nxt.kind == "SYM" and nxt.value == "?":
                return Branch((self.parse_arm(),))
            body = self.named(self.module.processes, t.value)
            if body is None:
                raise self.error(f"unknown process {t.value!r}", self.pos)
            self.next()
            return body
        raise self.error(f"expected a process, found {t.value!r}", self.pos)

    def parse_send(self) -> Send:
        chan = self.expect_ident("channel")
        self.expect_sym("!")
        self.expect_sym("(")
        payload = Const(UNIT_LIT) if self.at_sym(")") else self.parse_expr()
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
        brace = self.pos  # where a repeated channel is reported
        self.expect_sym("{")
        return Branch(self.branches(lambda: (brace, self.parse_arm()), "sum",
                                    loose=True))

    def parse_request(self) -> Request:
        """`request u[n](ys). P`."""
        self.expect_kw("request")
        shared = self.expect_ident("shared name")
        self.expect_sym("[")
        n = self.peek()
        if n.kind != "INT":
            raise self.error(f"expected arity, found {n.value!r}", self.pos)
        self.next()
        return Request(shared, int(n.value), *self.open_tail())

    def parse_accept(self) -> Accept:
        """`accept u[p](ys). P`."""
        self.expect_kw("accept")
        shared = self.expect_ident("shared name")
        self.expect_sym("[")
        return Accept(shared, self.expect_ident("participant"), *self.open_tail())

    def open_tail(self) -> tuple:
        """The `](ys). P` that ends a request or an accept."""
        self.expect_sym("]")
        chans = self.parse_chan_tuple()
        self.expect_sym(".")
        return chans, self.parse_process_atom()

    def parse_chan_tuple(self) -> tuple:
        lparen = self.pos
        self.expect_sym("(")
        names = self.listed(")", lambda: self.expect_ident("channel"))
        if len(set(names)) != len(names):
            raise self.error("duplicate session channels", lparen, InvariantError)
        return names

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
        brace = self.pos  # where a repeated channel is reported
        self.expect_sym("{")
        if self.peek().kind == "INT" and self.peek().value == "0":
            self.next()
            self.expect_sym("}")
            return NIL
        if self.at_kw("sum"):
            arms = self.parse_sum()
            self.expect_sym("}")
            return arms
        return Branch(self.branches(lambda: (brace, self.parse_arm()), what))

    # the reader of each process that a keyword starts
    PROCESS_FORMS = {"request": parse_request, "accept": parse_accept,
                     "sum": parse_sum, "if": parse_if, "for": parse_for,
                     "repeat": parse_repeat}

    # ---------------------------------------------------------- systems

    def parse_system_decl(self):
        self.expect_kw("system")
        at = self.pos
        name = self.expect_ident("system name")
        self.expect_sym("=")
        body = self.parse_system()
        self._declare(name, at)
        self.bodies.declare(self.module.systems, name, SystemDef(name, body), at)

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
            return Queue(chan, self.listed("]", self.parse_value))
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
            body = self.named(self.module.systems, t.value)
            if body is None:
                body = self.named(self.module.processes, t.value)
                if body is None:
                    raise self.error(f"unknown system or process {t.value!r}",
                                     self.pos)
                body = Proc(body)
            self.next()
            return body
        return Proc(self.parse_process())

    # the reader of each declaration, by its keyword
    DECLARATIONS = {"domain": parse_domain, "table": parse_table,
                    "global": parse_global_decl, "type": parse_type_decl,
                    "process": parse_process_decl, "system": parse_system_decl}


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
