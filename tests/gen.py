"""Random term generators shared by the property tests.

Everything is driven by a seeded random.Random so the suites are
reproducible and the acceptance harness can count cases exactly.
"""

from __future__ import annotations

import itertools
import random

from chorus_wsi.guards import DomainDecl, Store, UndeclaredVariable
from chorus_wsi.projection import NonProjectable, project, well_formed
from chorus_wsi.pseudotype import normal_form
from chorus_wsi.semantics import SysState, push, system_steps
from chorus_wsi.syntax.ast import (
    Accept, Arm, BinOp, Branch, Const, DATA, Event, FALSE, For, GBranch,
    GChoice, GEnd, GIter, GSeq, GlobalDef, If, INT, Lit, Par, Proc, Process,
    PseudoType, Queue, Range, RepeatUntil, Request, Restrict, Send, Seq, STR,
    TBranch, TEnd, TExternal, TInternal, TIter, TRUE, TSeq, UNIT, UnOp, Var,
    bool_lit, g_channels, int_lit, replace, str_lit,
)
from chorus_wsi.traces import Opt
from chorus_wsi.typecheck import instantiate, participants_ordered

CHANNELS = ("a", "b", "c")
SORTS = (INT, UNIT, STR)

# the domain every generated guard ranges over: x in 0..2, flag boolean
GUARD_DOMAINS = DomainDecl({
    "x": frozenset({int_lit(0), int_lit(1), int_lit(2)}),
    "flag": frozenset({bool_lit(True), bool_lit(False)}),
})



def stores(domains, names=None):
    """Every total store over the names (every declared variable if none
    are given) drawn from the declared domains: the names sorted, each
    pool sorted by its printed values, the last name varying fastest."""
    names = sorted(domains.domains if names is None else names)
    missing = [n for n in names if n not in domains.domains]
    if missing:
        raise UndeclaredVariable(missing)
    pools = [sorted(domains.domains[n], key=str) for n in names]
    for combo in itertools.product(*pools):
        yield Store(dict(zip(names, combo)), tables=domains.tables)


_ATOMS = (
    TRUE,
    FALSE,
    Var("flag"),
    BinOp("=", Var("x"), Const(int_lit(0))),
    BinOp(">", Var("x"), Const(int_lit(0))),
    BinOp(">=", Var("x"), Const(int_lit(1))),
    BinOp("<=", Var("x"), Const(int_lit(1))),
    BinOp("!=", Var("x"), Const(int_lit(2))),
)


def gen_guard(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(_ATOMS)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return UnOp("not", gen_guard(rng, depth - 1))
    return BinOp(op, gen_guard(rng, depth - 1), gen_guard(rng, depth - 1))


def gen_pseudotype(rng: random.Random, depth: int = 4, guards: bool = True):
    """A random pseudo-type: depth <= 4, choices of <= 3 branches."""
    guard = (lambda: gen_guard(rng)) if guards else (lambda: TRUE)
    if depth == 0:
        return TEnd(guard())
    kind = rng.choice(("end", "internal", "external", "seq", "iter"))
    if kind == "end":
        return TEnd(guard())
    if kind in ("internal", "external"):
        n = rng.randint(1, 3)
        chans = rng.sample(CHANNELS, n)
        branches = tuple(
            TBranch(guard(), chan, rng.choice(SORTS),
                    gen_pseudotype(rng, depth - 1, guards))
            for chan in chans)
        return (TInternal if kind == "internal" else TExternal)(branches)
    if kind == "seq":
        return TSeq(gen_pseudotype(rng, depth - 1, guards),
                    gen_pseudotype(rng, depth - 1, guards))
    return TIter(gen_pseudotype(rng, depth - 1, guards))


def reguard(rng: random.Random, t):
    """The same skeleton as t with fresh random guards: pairs
    (t, reguard(t)) exercise the merge clauses often."""
    match t:
        case TEnd(_):
            return TEnd(gen_guard(rng))
        case TInternal(branches):
            return TInternal(tuple(
                TBranch(gen_guard(rng), b.channel, b.sort, reguard(rng, b.cont))
                for b in branches))
        case TExternal(branches):
            return TExternal(tuple(
                TBranch(gen_guard(rng), b.channel, b.sort, reguard(rng, b.cont))
                for b in branches))
        case TSeq(first, second):
            return TSeq(reguard(rng, first), reguard(rng, second))
        case TIter(body):
            return TIter(reguard(rng, body))


# ------------------------------------------------------ round-trip generators

_PARTICIPANTS = ("p", "q", "r")
_NAMES = ("m0", "m1", "m2", "m3", "m4")


# one sort per channel, so generated global types use channels
# sort-consistently and stay well-formed more often
_CHANNEL_SORT = {"a": INT, "b": STR, "c": UNIT}


def gen_global(rng: random.Random, depth: int = 3):
    if depth == 0:
        return GEnd()
    kind = rng.choice(("end", "choice", "seq", "iter", "choice"))
    if kind == "end":
        return GEnd()
    if kind == "choice":
        sender, receiver = rng.sample(_PARTICIPANTS, 2)
        n = rng.randint(1, 3)
        chans = rng.sample(CHANNELS, n)
        return GChoice(sender, tuple(
            GBranch(receiver, chan, _CHANNEL_SORT[chan], gen_global(rng, depth - 1))
            for chan in chans))
    if kind == "seq":
        return GSeq(gen_global(rng, depth - 1), gen_global(rng, depth - 1))
    controller, other = rng.sample(_PARTICIPANTS, 2)
    chan = rng.choice(CHANNELS)
    body = GChoice(controller, (
        GBranch(other, chan, _CHANNEL_SORT[chan], GEnd()),))
    return GIter(body, controller, ((other, "t", UNIT),))


def gen_expr(rng: random.Random, depth: int = 3):
    if depth == 0:
        return rng.choice((Const(int_lit(rng.randint(-2, 9))), Var("x"),
                           Const(bool_lit(True)), Const(Lit(STR, "s"))))
    kind = rng.randrange(5)
    if kind == 0:
        return BinOp(rng.choice(("+", "-", "*", "=", "<", "and", "or")),
                     gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    if kind == 1:
        return UnOp(rng.choice(("not", "-", "hd", "tl")), gen_expr(rng, depth - 1))
    if kind == 2:
        from chorus_wsi.syntax.ast import ListLit
        return ListLit(tuple(gen_expr(rng, depth - 1)
                             for _ in range(rng.randint(0, 2))))
    if kind == 3:
        from chorus_wsi.syntax.ast import Range
        return Range(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    return gen_expr(rng, depth - 1)


def gen_process(rng: random.Random, depth: int = 3):
    if depth == 0:
        return rng.choice((Branch(()), Send("a", Const(int_lit(1)))))
    kind = rng.randrange(8)
    if kind == 0:
        return Branch(())
    if kind == 1:
        return Send(rng.choice(CHANNELS), gen_expr(rng, 1))
    if kind == 2:
        n = rng.randint(1, 3)
        chans = rng.sample(CHANNELS, n)
        return Branch(tuple(
            Arm(chan, rng.choice(("v", "w", "_")), gen_process(rng, depth - 1))
            for chan in chans))
    if kind == 3:
        return Seq(gen_process(rng, depth - 1), gen_process(rng, depth - 1))
    if kind == 4:
        from chorus_wsi.syntax.ast import If
        return If(gen_guard(rng, 1), gen_process(rng, depth - 1),
                  gen_process(rng, depth - 1))
    if kind == 5:
        from chorus_wsi.syntax.ast import For, Range as ERange
        return For("i", ERange(Const(int_lit(1)), Const(int_lit(2))),
                   gen_process(rng, depth - 1))
    if kind == 6:
        from chorus_wsi.syntax.ast import RepeatUntil
        body = Branch((Arm("a", "v", gen_process(rng, depth - 1)),))
        exit_ = Branch((Arm("b", "w", gen_process(rng, depth - 1)),))
        return RepeatUntil(body, exit_)
    opener = rng.choice((
        Request("u", 1, ("a", "b"), gen_process(rng, depth - 1)),
        Accept("u", "q", ("a", "b"), gen_process(rng, depth - 1)),
    ))
    return opener


def gen_system(rng: random.Random, depth: int = 2):
    if depth == 0:
        return rng.choice((
            Proc(gen_process(rng, 1)),
            Queue(rng.choice(CHANNELS), (int_lit(1), int_lit(2))),
        ))
    kind = rng.randrange(4)
    if kind == 0:
        return Proc(gen_process(rng, depth))
    if kind == 1:
        return Par(gen_system(rng, depth - 1), gen_system(rng, depth - 1))
    if kind == 2:
        return Queue(rng.choice(CHANNELS), tuple(
            int_lit(i) for i in range(rng.randint(0, 3))))
    return Restrict(("z1", "z2"), "u", gen_system(rng, depth - 1))


def gen_event(rng: random.Random, participants=("p", "q"),
              channels=("a", "b", "c")) -> Event:
    return Event(rng.choice(participants), rng.choice(("!", "?")),
                 rng.choice(channels), UNIT)


def gen_run(rng: random.Random, events_left: int, depth: int = 2) -> tuple:
    """An annotated run with at most events_left events."""
    items = []
    while events_left > 0:
        if depth > 0 and rng.random() < 0.25:
            take = rng.randint(1, events_left)
            inner = gen_run(rng, take, depth - 1)
            if inner:
                items.append(Opt(inner))
            events_left -= take
        else:
            items.append(gen_event(rng))
            events_left -= 1
        if rng.random() < 0.3:
            break
    return tuple(items)


# ------------------------------------------- implementations of projections

def _value_for(sort) -> Const:
    return Const({
        "Int": int_lit(1), "Bool": bool_lit(True), "Str": str_lit("v"),
        "Unit": Lit(UNIT, None), "Data": Lit(DATA, b""),
    }[sort.kind])


class Builder:
    """Builds a process following a local type; multi-branch internal
    choices are resolved by fresh boolean selector variables, which get
    domains so both sides of every if stay satisfiable."""

    def __init__(self):
        self.selectors = []
        self.binders = 0

    def fresh_selector(self) -> str:
        name = f"sel{len(self.selectors)}"
        self.selectors.append(name)
        return name

    def fresh_binder(self) -> str:
        self.binders += 1
        return f"b{self.binders}"

    def build(self, t: PseudoType) -> Process:
        match t:
            case TEnd():
                return Branch(())
            case TExternal(branches):
                return Branch(tuple(
                    Arm(b.channel, self.fresh_binder(), self.build(b.cont))
                    for b in branches))
            case TInternal(branches):
                sends = [Seq(Send(b.channel, _value_for(b.sort)),
                             self.build(b.cont)) for b in branches]
                sends = [s.first if isinstance(s.second, Branch)
                         and not s.second.arms else s for s in sends]
                out = sends[-1]
                for send in reversed(sends[:-1]):
                    out = If(Var(self.fresh_selector()), send, out)
                return out
            case TSeq(TIter(body), cont) if isinstance(body, TInternal):
                # the controller iterates a fixed number of times
                return Seq(For(self.fresh_binder(),
                               Range(Const(int_lit(1)), Const(int_lit(2))),
                               self.build(body)),
                           self.build(cont))
            case TSeq(TIter(body), cont) if isinstance(body, TExternal):
                # a passive participant loops until the termination signal
                assert isinstance(cont, TExternal)
                loop_body = self.build(body)
                assert isinstance(loop_body, Branch)
                exit_ = self.build(cont)
                assert isinstance(exit_, Branch)
                return RepeatUntil(loop_body, exit_)
            case TSeq(first, second):
                return Seq(self.build(first), self.build(second))
        raise AssertionError(f"unexpected local type shape: {t!r}")


def role_implementations(seed: int) -> list:
    """(global, role, process, domains) for the roles of the random
    global type of `seed`, each process built by `Builder` from the
    role's projection and opening the session on the shared name u.
    Empty when the global type is ill-formed; the roles stop at the
    first one the global type does not project on."""
    rng = random.Random(seed * 101 + 13)
    g = gen_global(rng, depth=3)
    if well_formed(g):
        return []
    parts = participants_ordered(g)
    gdef = GlobalDef("G", tuple(sorted(g_channels(g))), g)
    g_inst = instantiate(gdef, gdef.params)
    out = []
    for role in parts:
        builder = Builder()
        try:
            local = project(g_inst, role)
        except NonProjectable:
            break
        body = builder.build(normal_form(local))
        if role == parts[0]:
            proc = Request("u", len(parts) - 1, gdef.params, body)
        else:
            proc = Accept("u", role, gdef.params, body)
        domains = DomainDecl({name: frozenset({bool_lit(True), bool_lit(False)})
                              for name in builder.selectors})
        out.append((gdef, role, proc, domains))
    return out


def pruned(node):
    """The branch-pruning mutants of node (the paper's B2/CDep pattern):
    each process that replaces one `If` of node by one of its sides."""
    if isinstance(node, If):
        yield node.then
        yield node.orelse
    for name in getattr(type(node), "__match_args__", ()):
        value = getattr(node, name)
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                for m in pruned(item):
                    yield replace(node, **{name: value[:i] + (m,) + value[i + 1:]})
        else:
            for m in pruned(value):
                yield replace(node, **{name: m})


# ------------------------------------------------- runs of a system

def system_runs(procs: dict, gdef, shared: str, store) -> dict:
    """The event sequences of the maximal runs, in the system semantics,
    of the system that plays each role (a key of procs) by its process,
    each mapped to whether one of its runs is complete: the session on
    `shared` opened, every process terminated and the session's queues
    drained.  Events name the channels of gdef."""
    tags = dict(enumerate(procs))
    out = {}

    def explore(state, store, session, acc):
        succ = system_steps(state, store)
        if not succ:
            out[acc] = out.get(acc, False) or (
                session is not None and state.is_terminated()
                and not any(dict(state.queues).get(y) for y in session))
        for component, act, state2, store2 in succ:
            session2, event = session, ()
            if act.kind == "req" and act.shared == shared and session is None:
                session2 = act.chans
            elif act.kind in ("out", "in") and session \
                    and act.channel in session:
                names = dict(zip(session, gdef.params))
                event = (Event(tags[component],
                               "!" if act.kind == "out" else "?",
                               names[act.channel], act.value.sort),)
            explore(state2, store2, session2, acc + event)

    explore(SysState(tuple((i, push(p), ()) for i, p in enumerate(procs.values())),
                     (), ()), store, None, ())
    return out
