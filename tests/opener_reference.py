"""The system stepper as it was before session starts were read off the
process LTS, kept as a reference.

`opener_peeking_steps` finds requesters and acceptors by peeking at the
head of each component (the process itself, or the first part of a
`Seq`) and builds the session start from the `Request` and `Accept`
nodes it finds there.  So it misses a session opened under an `if`, a
`for` or a loop body, which `semantics.system_steps` opens.  On systems
whose every opener is such a head the two must agree step for step (see
test_semantics.py).
"""

from __future__ import annotations

from chorus_wsi.guards import Store
from chorus_wsi.semantics import (
    Label, SysState, _set_proc, _set_queues, proc_canon, step_process,
)
from chorus_wsi.syntax.ast import Accept, Request, Seq
from chorus_wsi.syntax.subst import subst_process


def opener_peeking_steps(state: SysState, store: Store) -> list:
    out: list = []
    queues = state.queue_map()

    def queue_head(channel):
        return queues.get(channel, ())[:1]

    requests: list = []
    accepts: dict = {}
    for pid, p in state.procs:
        head = proc_canon(p)
        opener = head.first if isinstance(head, Seq) else head
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
    procs = dict(state.procs)
    for pid in requests:
        p = procs[pid]
        prefix = None
        if isinstance(p, Seq):
            p, prefix = p.first, p.second
        assert isinstance(p, Request)
        partners = [q for q in accepts.get(p.shared, []) if q != pid]
        roles = []
        arity_ok = True
        for q in partners:
            acc = procs[q]
            acc = acc.first if isinstance(acc, Seq) else acc
            roles.append(acc.role)
            arity_ok = arity_ok and len(acc.chans) == len(p.chans)
        if not arity_ok or len(set(roles)) != len(roles):
            continue
        if len(partners) != p.arity:
            continue
        session_no = len(state.restricted)
        actuals = tuple(f"{y}@{p.shared}{session_no}" for y in p.chans)
        new_procs = list(state.procs)
        cont0 = subst_process(p.cont, cmap=dict(zip(p.chans, actuals)))
        if prefix is not None:
            cont0 = proc_canon(Seq(cont0, prefix))
        new_procs[pid] = (pid, cont0)
        for q in partners:
            acc = procs[q]
            acc_prefix = None
            if isinstance(acc, Seq):
                acc, acc_prefix = acc.first, acc.second
            cont = subst_process(acc.cont, cmap=dict(zip(acc.chans, actuals)))
            if acc_prefix is not None:
                cont = proc_canon(Seq(cont, acc_prefix))
            new_procs[q] = (q, cont)
        queues = _set_queues(state.queues, dict.fromkeys(actuals, ()))
        new_state = SysState(tuple(new_procs), queues,
                             state.restricted + ((actuals, p.shared),))
        out.append((pid, Label("req", shared=p.shared, arity=p.arity,
                               chans=actuals),
                    new_state, store.with_session(p.shared, actuals)))
    return out
