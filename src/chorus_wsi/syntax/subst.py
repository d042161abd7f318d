"""Channel substitution and binder freshening.

The parser freshens every binder (variables bound by receives and
for-loops, session channels bound by request/accept/new) so that later
passes may assume bound names are globally unique and disjoint from
free names.  Renaming is conservative: a binder keeps its name unless
it collides with a name already in scope, which keeps freshening
idempotent and render/parse round-trips exact.

Freshening rebuilds the term in one walk.  The walk carries the active
renames, one map for variables and one for channels, so each occurrence
is renamed where it is met and no continuation is walked twice; before
it, one pass gathers the free names into a plain set, because a binder
must also avoid the free names that occur after it.

A declaration's body inlines the bodies of earlier declarations, and
each of those is fresh: `freshen` returned it, so its binders are
pairwise distinct and disjoint from its free names.  Given such a body
B's binders and free names (the `fresh` summaries that the parser keeps
for one parse), the walk returns B itself, unwalked, where
  (1) none of B's binders is in use, and
  (2) none of B's free names is renamed in scope.
This is sound.  Walking B claims its binders in order.  By (1) none is
in use when B is met, and by distinctness none is claimed twice in B,
so every claim keeps its name and none enters `renames`.  A rename map
holds only names that were in use when their binder moved, so by (1) no
binder of B shadows a rename, and no bound occurrence in B moves.  By
(2) no free occurrence moves.  The walk would rebuild B as it is, and
its one effect, putting B's binders in use, is done without it.
Disjointness is what lets (1) hold where B is inlined: B's free names
are in use there, and its binders are none of them, so they are in use
only if the term around B claimed them first (as `P || P` does for the
second P).  Where (1) or (2) fails, B is walked as any other term.  The
free-names pass stops at B in the same way: the names free in B outside
a set `bound` are B's free names minus `bound`.
"""

from __future__ import annotations

from .ast import (
    Accept, Arm, BinOp, Branch, Const, For, If, ListLit, Par, Proc, Process,
    Queue, Range, RepeatUntil, Request, Restrict, Send, Seq, UnOp, Var,
    expr_vars,
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


def freshen(term, renames: dict | None = None, fresh: dict | None = None):
    """Rename binders in a process or system so all are pairwise distinct
    and disjoint from free names.  When `renames` is given it collects
    fresh-name -> original-name for every binder that had to move.

    `fresh` maps id(B) to (B, B's binders, B's free names) for bodies B
    that `freshen` returned before; such a B met in `term` is kept as it
    is where that gives the same result as walking it (see the module
    docstring).  The result is added to `fresh`."""
    if fresh is None:
        fresh = {}
    used = set()
    _free_names(term, frozenset(), used, fresh)
    free = frozenset(used)

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

    def bind(names: tuple, env: dict) -> tuple:
        """Claim `names` in order: their new names, and `env` with the moved
        ones rebound (a name that kept itself was unused, so is in no env)."""
        fresh = tuple(claim(y) for y in names)
        moved = {y: f for y, f in zip(names, fresh) if y != f}
        return fresh, ({**env, **moved} if moved else env)

    def walk(t, vmap: dict, cmap: dict):
        """t rebuilt; vmap and cmap map each variable and channel name in
        scope to the name its binder now has."""
        known = fresh.get(id(t))
        if known is not None:
            _, binders, names = known
            if used.isdisjoint(binders) and names.isdisjoint(vmap) \
                    and names.isdisjoint(cmap):
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

    out = walk(term, {}, {})
    # every claim put one new name in use, and that name is a binder of
    # `out`; its free names are those of `term`
    fresh[id(out)] = (out, frozenset(used - free), free)
    return out


def _free_names(term, bound: frozenset, out: set, fresh: dict) -> None:
    """Add to `out` the names free in `term` outside `bound`, in one
    namespace: a binder hides its name from every position below it.
    A body summarised in `fresh` adds its free names without a walk."""
    known = fresh.get(id(term))
    if known is not None:
        out.update(known[2] - bound)
        return
    match term:
        case Request(shared, _, chans, cont) | Accept(shared, _, chans, cont):
            out.update({shared} - bound)
            _free_names(cont, bound.union(chans), out, fresh)
        case Send(channel, payload):
            out.update(({channel} | expr_vars(payload)) - bound)
        case Branch(arms):
            for a in arms:
                out.update({a.channel} - bound)
                _free_names(a.cont, bound | {a.binder}, out, fresh)
        case Seq(first, second) | Par(first, second) | RepeatUntil(first, second):
            _free_names(first, bound, out, fresh)
            _free_names(second, bound, out, fresh)
        case If(cond, then, orelse):
            out.update(expr_vars(cond) - bound)
            _free_names(then, bound, out, fresh)
            _free_names(orelse, bound, out, fresh)
        case For(binder, items, body):
            out.update(expr_vars(items) - bound)
            _free_names(body, bound | {binder}, out, fresh)
        case Proc(process):
            _free_names(process, bound, out, fresh)
        case Queue(channel, _):
            out.update({channel} - bound)
        case Restrict(chans, _, scope):
            _free_names(scope, bound.union(chans), out, fresh)
        case _:
            raise TypeError(f"not a process or system: {term!r}")


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
