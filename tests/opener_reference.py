"""The system stepper as it was before session starts were read off the
process LTS and before a component kept a session map, kept as a
reference.

`opener_peeking_steps` finds requesters and acceptors by peeking at the
head of each component (the first term of its stack) and builds the
session start from the `Request` and `Accept` nodes it finds there.  So
it misses a session opened under an `if`, a `for` or a loop body, which
`semantics.system_steps` opens.  It gives a session's channels to its
processes by substitution: each continuation gets the opened channels
replaced by the actuals (`subst_process`), where `system_steps` keeps
the terms and maps the names.  It steps the `view` of a state, each
component's map applied to its terms and dropped, and its successors
are views.  On systems whose every opener is such a head the two must
agree step for step, up to the view (see test_semantics.py).
"""

from __future__ import annotations

from itertools import combinations

from chorus_wsi.guards import Store
from chorus_wsi.semantics import (
    Label, SysState, _set_proc, _set_queues, push, step_process,
)
from chorus_wsi.syntax.ast import (
    Accept, Arm, Branch, For, If, Process, RepeatUntil, Request, Send, Seq,
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


def view(state: SysState) -> SysState:
    """state with each component's session map applied to each term of
    its stack, and the map dropped."""
    return SysState(tuple((pid, tuple(subst_process(t, dict(chans)) for t in stack), ())
                          for pid, stack, chans in state.procs),
                    state.queues, state.restricted)


def opener_peeking_steps(state: SysState, store: Store) -> list:
    """The successors (component, action, view, store) of the view of
    state."""
    state = view(state)
    out: list = []
    queues = state.queue_map()

    def queue_head(channel):
        return queues.get(channel, ())[:1]

    requests: list = []
    accepts: dict = {}
    for pid, p, _ in state.procs:
        opener = p[0] if p else None
        if isinstance(opener, Request):
            requests.append(pid)
        if isinstance(opener, Accept):
            accepts.setdefault(opener.shared, []).append(pid)

        for action, cont, store2 in step_process(p, store, queue_head):
            if action.kind in ("req", "acc"):
                continue
            new_queues = state.queues
            if action.channel in queues:
                q = queues[action.channel]
                q = q[1:] if action.kind == "in" else q + (action.value,)
                new_queues = _set_queues(state.queues, {action.channel: q})
            out.append((pid, action,
                        SysState(_set_proc(state.procs, pid, cont), new_queues,
                                 state.restricted),
                        store2))

    out.extend(_init_steps(state, store, requests, accepts))
    return out


def _init_steps(state: SysState, store: Store, requests: list,
                accepts: dict) -> list:
    out = []
    procs = {pid: stack for pid, stack, _ in state.procs}
    for pid in requests:
        p, prefix = procs[pid][0], procs[pid][1:]
        assert isinstance(p, Request)
        # each choice of `arity` acceptors with distinct roles and the
        # request's channel count, in process order, starts a session
        ready = [q for q in accepts.get(p.shared, [])
                 if q != pid and len(procs[q][0].chans) == len(p.chans)]
        session_no = len(state.restricted)
        actuals = tuple(f"{y}@{p.shared}{session_no}" for y in p.chans)
        for partners in combinations(ready, p.arity):
            if len({procs[q][0].role for q in partners}) != p.arity:
                continue
            new_procs = list(state.procs)
            cont0 = subst_process(p.cont, cmap=dict(zip(p.chans, actuals)))
            new_procs[pid] = (pid, push(cont0, prefix), ())
            for q in partners:
                acc, acc_prefix = procs[q][0], procs[q][1:]
                cont = subst_process(acc.cont, cmap=dict(zip(acc.chans, actuals)))
                new_procs[q] = (q, push(cont, acc_prefix), ())
            queues = _set_queues(state.queues, dict.fromkeys(actuals, ()))
            new_state = SysState(tuple(new_procs), queues,
                                 state.restricted + ((actuals, p.shared),))
            out.append((pid, Label("req", shared=p.shared, arity=p.arity,
                                   chans=actuals),
                        new_state, store))
    return out
