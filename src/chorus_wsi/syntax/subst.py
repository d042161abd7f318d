"""Channel substitution and binder freshening.

The parser freshens every binder (variables bound by receives and
for-loops, session channels bound by request/accept/new) so that later
passes may assume bound names are globally unique and disjoint from
free names.  Renaming is conservative: a binder keeps its name unless
it collides with a name already in scope, which keeps freshening
idempotent and render/parse round-trips exact.

Freshening rebuilds the term in one walk.  The walk carries the active
renames, one map for variables and one for channels, so each occurrence
is renamed where it is met and no continuation is walked twice.  The
names in use start as the term's free names, read from its name
summary (`ast.names`), because a binder must also avoid the free names
that occur after it.

The summary is kept on every node, so the walk returns a subterm B as
it is, unwalked, where
  (1) B's binders are pairwise distinct,
  (2) none of B's binders is in use, and
  (3) none of B's free names is renamed in scope.
This is sound.  Walking B claims its binders in order.  By (2) none is
in use when B is met, and by (1) none is claimed twice in B, so every
claim keeps its name and none enters `renames`.  A rename map holds
only names that were in use when their binder moved, and nothing
leaves use, so by (2) no binder of B shadows a rename and no bound
occurrence in B moves.  By (3) no free occurrence moves.  The walk
would rebuild B as it is, and its one effect, putting B's binders in
use, is done without it.  Every free name of B is in use when B is
met: it is free in the whole term, or its binder above B was claimed,
under its own name or, if that was in use, under a new one.  So (2)
also keeps B's binders apart from its free names.  A body freshened
before and inlined again meets (1), so it is kept unless the term
around it claimed its binders first (as `P || P` does for the second
P) or renames one of its free names.  Where (1), (2) or (3) fails, B is
walked as any other term.
"""

from __future__ import annotations

from .ast import (
    Accept, Arm, BinOp, Branch, Const, For, If, ListLit, Par, Proc, Process,
    Queue, Range, RepeatUntil, Request, Restrict, Send, Seq, UnOp, Var,
    names,
)


def subst_process(p: Process, cmap: dict) -> Process:
    """Rename the free channels of p according to cmap.

    Binders shadow: occurrences bound inside p are left alone.
    """
    if not cmap:
        return p
    match p:
        case Request(shared, arity, chans, cont):
            inner = {k: v for k, v in cmap.items() if k not in chans}
            return Request(shared, arity, chans, subst_process(cont, inner))
        case Accept(shared, role, chans, cont):
            inner = {k: v for k, v in cmap.items() if k not in chans}
            return Accept(shared, role, chans, subst_process(cont, inner))
        case Send(channel, payload):
            return Send(cmap.get(channel, channel), payload)
        case Branch(arms):
            return Branch(tuple(Arm(cmap.get(a.channel, a.channel), a.binder,
                                    subst_process(a.cont, cmap)) for a in arms))
        case Seq(first, second):
            return Seq(subst_process(first, cmap), subst_process(second, cmap))
        case If(cond, then, orelse):
            return If(cond, subst_process(then, cmap), subst_process(orelse, cmap))
        case For(binder, items, body):
            return For(binder, items, subst_process(body, cmap))
        case RepeatUntil(body, exit):
            return RepeatUntil(subst_process(body, cmap), subst_process(exit, cmap))
    raise TypeError(f"not a process: {p!r}")


def freshen(term, renames: dict | None = None):
    """Rename binders in a process or system so all are pairwise distinct
    and disjoint from free names.  When `renames` is given it collects
    fresh-name -> original-name for every binder that had to move."""
    used = set(names(term).free)

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

    def bind(ys: tuple, env: dict) -> tuple:
        """Claim `ys` in order: their new names, and `env` with the moved
        ones rebound (a name that kept itself was unused, so is in no env)."""
        fresh = tuple(claim(y) for y in ys)
        moved = {y: f for y, f in zip(ys, fresh) if y != f}
        return fresh, ({**env, **moved} if moved else env)

    def walk(t, vmap: dict, cmap: dict):
        """t rebuilt; vmap and cmap map each variable and channel name in
        scope to the name its binder now has.  `names(term)` summarized
        every subterm of `term`."""
        binders, repeats, free, _, _ = t._names
        if not repeats and used.isdisjoint(binders) \
                and free.isdisjoint(vmap) and free.isdisjoint(cmap):
            used.update(binders)
            return t
        match t:
            case Request(shared, arity, chans, cont):
                chans, inner = bind(chans, cmap)
                return Request(shared, arity, chans, walk(cont, vmap, inner))
            case Accept(shared, role, chans, cont):
                chans, inner = bind(chans, cmap)
                return Accept(shared, role, chans, walk(cont, vmap, inner))
            case Send(channel, payload):
                return Send(cmap.get(channel, channel), _rename(payload, vmap))
            case Branch(arms):
                new_arms = []
                for a in arms:
                    (b,), inner = bind((a.binder,), vmap)
                    new_arms.append(Arm(cmap.get(a.channel, a.channel), b,
                                        walk(a.cont, inner, cmap)))
                return Branch(tuple(new_arms))
            case Seq(first, second):
                return Seq(walk(first, vmap, cmap), walk(second, vmap, cmap))
            case If(cond, then, orelse):
                return If(_rename(cond, vmap), walk(then, vmap, cmap),
                          walk(orelse, vmap, cmap))
            case For(binder, items, body):
                items = _rename(items, vmap)
                (b,), inner = bind((binder,), vmap)
                return For(b, items, walk(body, inner, cmap))
            case RepeatUntil(body, exit):
                return RepeatUntil(walk(body, vmap, cmap), walk(exit, vmap, cmap))
            case Proc(process):
                return Proc(walk(process, vmap, cmap))
            case Par(left, right):
                return Par(walk(left, vmap, cmap), walk(right, vmap, cmap))
            case Queue(channel, values):
                return Queue(cmap.get(channel, channel), values)
            case Restrict(chans, shared, scope):
                chans, inner = bind(chans, cmap)
                return Restrict(chans, shared, walk(scope, vmap, inner))
        raise TypeError(f"not a process or system: {t!r}")

    return walk(term, {}, {})


def _rename(e, vmap: dict):
    """e with its variables renamed by vmap."""
    if not vmap:
        return e
    match e:
        case Var(name):
            return Var(vmap[name]) if name in vmap else e
        case Const():
            return e
        case BinOp(op, left, right):
            return BinOp(op, _rename(left, vmap), _rename(right, vmap))
        case UnOp(op, arg):
            return UnOp(op, _rename(arg, vmap))
        case ListLit(items):
            return ListLit(tuple(_rename(i, vmap) for i in items))
        case Range(lo, hi):
            return Range(_rename(lo, vmap), _rename(hi, vmap))
    raise TypeError(f"not an expression: {e!r}")
