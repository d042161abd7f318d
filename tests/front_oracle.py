"""Slow reference versions of the parser's front end, kept as oracles.

`tokenize_by_chars` is the tokenizer as a loop over characters that
counts lines and columns as it goes; it returns (kind, value, line,
col) tuples.  `freshen_by_subst` freshens by running a substitution
over each binder's whole continuation.  `names_by_parts` finds the free
names bottom up, four frozensets per node (all, channels, variables,
shared), as `fn`, `fX` and `fU` once did.  The fast paths in
`chorus_wsi.syntax` must agree with them (see test_front_oracle.py).

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
    Range, RepeatUntil, Request, Restrict, Send, Seq, UnOp, Var, expr_vars,
    fn,
)
from chorus_wsi.syntax.parser import KEYWORDS, ParseError, _SYMBOLS

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
    used = set(fn(term))

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
