"""Slow reference versions of the parser's front end, kept as oracles.

`tokenize_by_chars` is the tokenizer as a loop over characters that
counts lines and columns as it goes; it returns (kind, value, line,
col) tuples.  `freshen_by_subst` freshens by running a substitution
over each binder's whole continuation, starting from the free names
that `names_by_parts` finds.  `names_by_parts` finds the free names by
recursion, four frozensets per node (all, channels, variables, shared),
and `binders_by_walk` lists a term's binders, one entry per binder, so
neither reads the name summaries (`ast.names`) they are compared
against.  `parse_nested` reads an
expression by nine nested methods, one per precedence level, building a
fresh tree for every occurrence, as the parser did before it read by
precedence climbing.  The fast paths in `chorus_wsi.syntax` must agree
with them (see test_front_oracle.py).

The substitution does not avoid capture: when an inner binder is
written with a name that an outer binder was freshened to, the outer
binder's occurrences below it are captured (the parser did so until
freshening became one walk; test_syntax pins the right answer).  No
term the differential tests use has such a binder.
"""

from __future__ import annotations

import re

from chorus_wsi.syntax.ast import (
    Accept, Arm, BinOp, Branch, Const, For, If, ListLit, Par, Proc, Queue,
    Range, RepeatUntil, Request, Restrict, Send, Seq, UNIT_LIT, UnOp, Var,
    expr_vars, int_lit,
)
from chorus_wsi.syntax.parser import (
    KEYWORDS, ParseError, Parser, _FIXED, _SYMBOLS, _parse_all,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_HEX_RE = re.compile(r"0x([0-9a-fA-F][0-9a-fA-F])*")


def tokenize_by_chars(text: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, col)
            toks.append(("STRING", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _HEX_RE.match(text, i)
        if m and m.group(0) != "0":
            toks.append(("DATA", m.group(0)[2:], line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _INT_RE.match(text, i)
        if m:
            toks.append(("INT", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            toks.append((kind, word, line, col))
            col += len(word)
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(("SYM", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("EOF", "", line, col))
    return toks


def _subst_expr(e, mapping: dict):
    match e:
        case Var(name):
            return Var(mapping.get(name, name))
        case Const():
            return e
        case BinOp(op, left, right):
            return BinOp(op, _subst_expr(left, mapping), _subst_expr(right, mapping))
        case UnOp(op, arg):
            return UnOp(op, _subst_expr(arg, mapping))
        case ListLit(items):
            return ListLit(tuple(_subst_expr(i, mapping) for i in items))
        case Range(lo, hi):
            return Range(_subst_expr(lo, mapping), _subst_expr(hi, mapping))
    raise TypeError(f"not an expression: {e!r}")


def _subst(t, vmap: dict, cmap: dict):
    """Rename free variables (vmap) and free channels (cmap) in a process
    or system; binders shadow."""
    if not vmap and not cmap:
        return t

    def chan(y: str) -> str:
        return cmap.get(y, y)

    match t:
        case Request(shared, arity, chans, cont):
            inner_c = {k: v for k, v in cmap.items() if k not in chans}
            return Request(shared, arity, chans, _subst(cont, vmap, inner_c))
        case Accept(shared, role, chans, cont):
            inner_c = {k: v for k, v in cmap.items() if k not in chans}
            return Accept(shared, role, chans, _subst(cont, vmap, inner_c))
        case Send(channel, payload):
            return Send(chan(channel), _subst_expr(payload, vmap))
        case Branch(arms):
            return Branch(tuple(
                Arm(chan(a.channel), a.binder,
                    _subst(a.cont, {k: v for k, v in vmap.items() if k != a.binder}, cmap))
                for a in arms))
        case Seq(first, second):
            return Seq(_subst(first, vmap, cmap), _subst(second, vmap, cmap))
        case If(cond, then, orelse):
            return If(_subst_expr(cond, vmap), _subst(then, vmap, cmap),
                      _subst(orelse, vmap, cmap))
        case For(binder, items, body):
            inner_v = {k: v for k, v in vmap.items() if k != binder}
            return For(binder, _subst_expr(items, vmap), _subst(body, inner_v, cmap))
        case RepeatUntil(body, exit):
            return RepeatUntil(_subst(body, vmap, cmap), _subst(exit, vmap, cmap))
        case Proc(process):
            return Proc(_subst(process, vmap, cmap))
        case Par(left, right):
            return Par(_subst(left, vmap, cmap), _subst(right, vmap, cmap))
        case Queue(channel, values):
            return Queue(chan(channel), values)
        case Restrict(chans, shared, scope):
            inner_c = {k: v for k, v in cmap.items() if k not in chans}
            return Restrict(chans, shared, _subst(scope, vmap, inner_c))
    raise TypeError(f"not a process or system: {t!r}")


def freshen_by_subst(term, renames: dict | None = None):
    used = set(names_by_parts(term)[0])

    def claim(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        i = 2
        while f"{name}_{i}" in used:
            i += 1
        fresh = f"{name}_{i}"
        used.add(fresh)
        if renames is not None:
            renames[fresh] = name
        return fresh

    def rebind(chans, cont):
        new_chans = tuple(claim(y) for y in chans)
        cmap = {o: n for o, n in zip(chans, new_chans) if o != n}
        return new_chans, walk(_subst(cont, {}, cmap))

    def walk(t):
        match t:
            case Request(shared, arity, chans, cont):
                return Request(shared, arity, *rebind(chans, cont))
            case Accept(shared, role, chans, cont):
                return Accept(shared, role, *rebind(chans, cont))
            case Send() | Queue():
                return t
            case Branch(arms):
                new_arms = []
                for a in arms:
                    b = claim(a.binder)
                    new_arms.append(Arm(a.channel, b,
                                        walk(_subst(a.cont, {a.binder: b}, {}))))
                return Branch(tuple(new_arms))
            case Seq(first, second):
                return Seq(walk(first), walk(second))
            case If(cond, then, orelse):
                return If(cond, walk(then), walk(orelse))
            case For(binder, items, body):
                b = claim(binder)
                return For(b, items, walk(_subst(body, {binder: b}, {})))
            case RepeatUntil(body, exit):
                return RepeatUntil(walk(body), walk(exit))
            case Proc(process):
                return Proc(walk(process))
            case Par(left, right):
                return Par(walk(left), walk(right))
            case Restrict(chans, shared, scope):
                new_chans, scope2 = rebind(chans, scope)
                return Restrict(new_chans, shared, scope2)
        raise TypeError(f"not a process or system: {t!r}")

    return walk(term)


def names_by_parts(term) -> tuple:
    """(all free names, free channels, free variables, shared names)."""
    none = frozenset()

    def union(*parts):
        return tuple(frozenset().union(*column) for column in zip(*parts))

    match term:
        case Request(shared, _, chans, cont) | Accept(shared, _, chans, cont):
            role = term.role if isinstance(term, Accept) else 0
            names, channels, variables, shared_names = names_by_parts(cont)
            return (names - frozenset(chans) | {shared, f"{shared}[{role}]"},
                    channels - frozenset(chans), variables,
                    shared_names | {shared})
        case Send(channel, payload):
            vs = expr_vars(payload)
            return {channel} | vs, frozenset({channel}), vs, none
        case Branch(arms):
            out = (none, none, none, none)
            for arm in arms:
                names, channels, variables, shared_names = names_by_parts(arm.cont)
                out = union(out, ({arm.channel}, {arm.channel}, none, none),
                            (names - {arm.binder}, channels,
                             variables - {arm.binder}, shared_names))
            return out
        case Seq(first, second) | Par(first, second) | RepeatUntil(first, second):
            return union(names_by_parts(first), names_by_parts(second))
        case If(cond, then, orelse):
            vs = expr_vars(cond)
            return union((vs, none, vs, none), names_by_parts(then),
                         names_by_parts(orelse))
        case For(binder, items, body):
            names, channels, variables, shared_names = names_by_parts(body)
            vs = expr_vars(items)
            return (names - {binder} | vs, channels, variables - {binder} | vs,
                    shared_names)
        case Proc(process):
            return names_by_parts(process)
        case Queue(channel, _):
            return frozenset({channel}), frozenset({channel}), none, none
        case Restrict(chans, _, scope):
            names, channels, variables, shared_names = names_by_parts(scope)
            return (names - frozenset(chans), channels - frozenset(chans),
                    variables, shared_names)
    raise TypeError(f"not a process or system: {term!r}")


def binders_by_walk(term) -> list:
    """Every binder in a process or system, one entry per binder."""
    match term:
        case Request(_, _, chans, cont) | Accept(_, _, chans, cont) \
                | Restrict(chans, _, cont):
            return [*chans, *binders_by_walk(cont)]
        case Branch(arms):
            return [y for arm in arms for y in (arm.binder, *binders_by_walk(arm.cont))]
        case Seq(first, second) | Par(first, second) | RepeatUntil(first, second) \
                | If(_, first, second):
            return binders_by_walk(first) + binders_by_walk(second)
        case For(binder, _, body):
            return [binder, *binders_by_walk(body)]
        case Proc(process):
            return binders_by_walk(process)
        case Send() | Queue():
            return []
    raise TypeError(f"not a process or system: {term!r}")


class NestedReader(Parser):
    """The parser with its expression reader as it was: one method per
    precedence level, nine calls deep for every atom, each testing the
    current token by its kind and spelling."""

    def peek(self):
        return self.toks[self.pos]

    def next(self):
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
        self.expect(_FIXED[sym])

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        e = self.parse_and()
        while self.at_kw("or"):
            self.next()
            e = BinOp("or", e, self.parse_and())
        return e

    def parse_and(self):
        e = self.parse_not()
        while self.at_kw("and"):
            self.next()
            e = BinOp("and", e, self.parse_not())
        return e

    def parse_not(self):
        if self.at_kw("not"):
            self.next()
            return UnOp("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self):
        e = self.parse_range()
        if self.at_sym("=", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            return BinOp(op, e, self.parse_range())
        return e

    def parse_range(self):
        e = self.parse_add()
        if self.at_sym(".."):
            self.next()
            return Range(e, self.parse_add())
        return e

    def parse_add(self):
        e = self.parse_mul()
        while self.at_sym("+", "-"):
            op = self.next().value
            e = BinOp(op, e, self.parse_mul())
        return e

    def parse_mul(self):
        e = self.parse_unary()
        while self.at_sym("*"):
            self.next()
            e = BinOp("*", e, self.parse_unary())
        return e

    def parse_unary(self):
        if self.at_sym("-"):
            self.next()
            if self.peek().kind == "INT":
                return Const(int_lit(-int(self.next().value)))
            return UnOp("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        t = self.peek()
        if t.kind == "IDENT" or t.kind == "KEYWORD" and t.value in ("hd", "tl"):
            self.next()
            if t.kind == "IDENT" and not self.at_sym("("):
                return Var(t.value)
            self.expect_sym("(")  # a table's argument, or hd's or tl's
            arg = self.parse_expr()
            self.expect_sym(")")
            return UnOp(t.value, arg)
        lit = self.literal()
        if lit is not None:
            return Const(lit)
        if self.at_sym("["):
            self.next()
            return ListLit(self.listed(_FIXED["]"], self.parse_expr))
        if self.at_sym("("):
            self.next()
            if self.at_sym(")"):
                self.next()
                return Const(UNIT_LIT)
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        raise self.error(f"expected an expression, found {t.value!r}", self.pos)


def parse_nested(text: str, form: str = "parse_expr"):
    """What `syntax.<form>` reads from `text`, by the nested reader."""
    return _parse_all(NestedReader(text), getattr(NestedReader, form))
