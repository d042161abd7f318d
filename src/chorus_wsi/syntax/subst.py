"""Binder freshening.

A module's bodies are freshened as they are read (see parser.py): every
binder (variables bound by receives and for-loops, session channels
bound by request/accept/new) is renamed so that later passes may assume
bound names are globally unique and disjoint from free names.  Renaming
is conservative: a binder keeps its name unless it collides with a name
already in scope, which keeps freshening idempotent and render/parse
round-trips exact.

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

A body as read holds a `Ref` where it names an earlier declaration, and
the walk puts that declaration's freshened body in its place: the result
is the result for the term with the body inlined.  A `Ref` has the free
names of its body, so the root's free names are the inlined term's, and
it makes every term above it `pending`.  The walk never returns a
pending term unwalked, since that would leave the `Ref` in the result;
it walks it as it would walk the inlined term, which gives the same
term wherever the inlined one could be kept (the argument above).  The
body in a `Ref`'s place is not pending, so the rule applies to it.

Where the walk rebuilds the body in a `Ref`'s place and renames none of
its free names, the rebuilt root keeps that declared body as `_origin`
(an `ast.DERIVED` slot).  The copy is that body renamed by a bijection
of its binders that is the identity on its free names, so a whole-module
`typecheck` gives it its origin's judgement (see typecheck.py).  A copy
whose free names the scope renames (a channel bound by a `new` that had
to move) keeps no origin, and where the rule keeps the body unwalked,
the copy is the body itself.  No declared body is such a copy at its
root: a body that is only a `Ref` meets the rule there, as nothing is in
use but its free names and nothing is renamed, so it is the named body
itself, and an origin is always a declaration's own freshened body.
"""

from __future__ import annotations

from .ast import (
    Accept, Arm, BinOp, Branch, Const, For, If, ListLit, Par, Proc,
    Queue, Range, Ref, RepeatUntil, Request, Restrict, Send, Seq, UnOp, Var,
    names,
)


def freshen(term, renames: dict | None = None, bodies=None):
    """Rename binders in a process or system so all are pairwise distinct
    and disjoint from free names.  When `renames` is given it collects
    fresh-name -> original-name for every binder that had to move.
    `bodies` is the module's `parser.Bodies`: each `Ref` in `term` gives
    way to the freshened body `bodies[name]`, walked where it stands, and
    a binder that moves takes no name of `bodies.domains`, which has a
    domain of its own, as `DomainDecl.from_module` gives the moved
    binder the domain of the name it moved from."""
    used = set(names(term).free)
    declared = () if bodies is None else bodies.domains

    def claim(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        i = 2
        while f"{name}_{i}" in used or f"{name}_{i}" in declared:
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
        origin = None
        if t.__class__ is Ref:  # its body is walked where it stands
            t = origin = bodies[t.name]
        binders, repeats, free, _, _, pending = t._names
        kept = free.isdisjoint(vmap) and free.isdisjoint(cmap)  # its free names
        if not (repeats or pending) and used.isdisjoint(binders) and kept:
            used.update(binders)
            return t
        match t:
            case Request(shared, arity, chans, cont):
                chans, inner = bind(chans, cmap)
                new = Request(shared, arity, chans, walk(cont, vmap, inner))
            case Accept(shared, role, chans, cont):
                chans, inner = bind(chans, cmap)
                new = Accept(shared, role, chans, walk(cont, vmap, inner))
            case Send(channel, payload):
                new = Send(cmap.get(channel, channel), _rename(payload, vmap))
            case Branch(arms):
                new_arms = []
                for a in arms:
                    (b,), inner = bind((a.binder,), vmap)
                    new_arms.append(Arm(cmap.get(a.channel, a.channel), b,
                                        walk(a.cont, inner, cmap)))
                new = Branch(tuple(new_arms))
            case Seq(first, second):
                new = Seq(walk(first, vmap, cmap), walk(second, vmap, cmap))
            case If(cond, then, orelse):
                new = If(_rename(cond, vmap), walk(then, vmap, cmap),
                         walk(orelse, vmap, cmap))
            case For(binder, items, body):
                items = _rename(items, vmap)
                (b,), inner = bind((binder,), vmap)
                new = For(b, items, walk(body, inner, cmap))
            case RepeatUntil(body, exit):
                new = RepeatUntil(walk(body, vmap, cmap), walk(exit, vmap, cmap))
            case Proc(process):
                new = Proc(walk(process, vmap, cmap))
            case Par(left, right):
                new = Par(walk(left, vmap, cmap), walk(right, vmap, cmap))
            case Queue(channel, values):
                new = Queue(cmap.get(channel, channel), values)
            case Restrict(chans, shared, scope):
                chans, inner = bind(chans, cmap)
                new = Restrict(chans, shared, walk(scope, vmap, inner))
            case _:
                raise TypeError(f"not a process or system: {t!r}")
        if origin is not None and kept:
            object.__setattr__(new, "_origin", origin)
        return new

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
