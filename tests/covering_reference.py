"""The covering search as it was before the product graph was interned,
kept as a reference.

`reference_wsi_by_covering` steps the process afresh in every product
state, keys the visited set and the heap on frozen `_State` nodes, and
checks each target against every earlier searched one with `trace_leq`
alone.  `wsi.wsi_by_covering` must agree with it on every verdict,
context, missing skeleton, `inconclusive` flag and reason (see
test_wsi.py).
"""

from __future__ import annotations

import heapq
from dataclasses import field

from chorus_wsi.guards import DomainDecl, EMPTY_DOMAINS, EvalError, Store, Undefined
from chorus_wsi.projection import participants_ordered
from chorus_wsi.pseudotype import normal_form
from chorus_wsi.semantics import push, step_process, type_steps
from chorus_wsi.syntax.ast import (
    Event, GlobalDef, Lit, Process, TEnd, TSeq, fX, g_channels,
)
from chorus_wsi.traces import trace_leq
from chorus_wsi.typecheck import instantiate
from chorus_wsi.wsi import (
    QUEUE_BOUND, CoveringVerdict, _DEFAULTS, _role_problem, _search_inputs,
)
from covers_reference import independent
from record_reference import reference_node

_PENDING = object()  # the value of a peer's payload, not drawn yet


@reference_node
class _State:
    """A product state without its mask; `chans` is None until the
    process opens its session."""

    proc: tuple         # the stack of the process (`push`)
    store: Store = field(compare=False)
    bindings: tuple     # store.key()
    pending: frozenset  # of (variable, payload sort, or None if declared)
    chans: tuple | None  # of (session channel, channel of the global type)
    peers: tuple        # of (role, normalized projection)
    queues: tuple       # of (channel of the global type, messages)


def _with_queue(queues: tuple, chan: str, messages: tuple) -> tuple | None:
    if len(messages) > QUEUE_BOUND:
        return None
    return tuple((y, messages if y == chan else q) for y, q in queues)


class _Product:
    def __init__(self, gdef: GlobalDef, g, role: str, proc: Process,
                 domains: DomainDecl, shared_name: str, peers: tuple):
        self.role, self.domains, self.shared_name = role, domains, shared_name
        self.params, self.peers = gdef.params, peers
        self.opens = ("req", len(peers)) if role == participants_ordered(g)[0] \
            else ("acc", None)
        self.queues = tuple((y, ()) for y in sorted(set(gdef.params)
                                                    | g_channels(g)))
        store = Store({}, domains.tables)
        self.start = _State(
            push(proc), store, store.key(),
            frozenset((x, None) for x in fX(proc) if x in domains.domains),
            None, (), ())
        self.moves: dict = {}
        self.type_moves: dict = {}

    def process_steps(self, proc, store, pending, oracle) -> list:
        try:
            return [(label, cont, store2, pending)
                    for label, cont, store2 in step_process(proc, store, oracle)]
        except Undefined as exc:
            drawn = next((p for p in pending if p[0] in exc.missing), None)
            if drawn is None:
                raise
            name, sort = drawn
            values = sorted(self.domains.domains[name], key=str) if sort is None \
                else dict.fromkeys([*self.domains.values_of_sort(sort),
                                    Lit(sort, _DEFAULTS[sort.kind])])
            return [step for value in values for step in self.process_steps(
                proc, store.with_var(name, value), pending - {drawn}, oracle)]

    def successors(self, state: _State) -> tuple:
        out, skipped = [], False
        queues, session = dict(state.queues), dict(state.chans or ())

        def head(channel):
            return queues.get(session.get(channel), ())[:1]

        for label, cont, store, pending in self.process_steps(
                state.proc, state.store, state.pending, head):
            event, chans, peers, new_queues = None, state.chans, state.peers, \
                state.queues
            if label.kind in ("req", "acc"):
                if label.shared != self.shared_name or chans is not None \
                        or (label.kind, label.arity) != self.opens \
                        or len(label.chans) != len(self.params):
                    continue
                chans = tuple(zip(label.chans, self.params))
                peers, new_queues = self.peers, self.queues
            elif label.kind in ("out", "in") and label.channel in session:
                chan, value = session[label.channel], label.value
                event = Event(self.role, "!" if label.kind == "out" else "?",
                              chan, value.sort)
                if label.kind == "out":
                    new_queues = _with_queue(state.queues, chan, queues[chan] + (value,))
                    if new_queues is None:
                        skipped = True
                        continue
                else:
                    new_queues = _with_queue(state.queues, chan, queues[chan][1:])
                if value.value is _PENDING:
                    name = next(x for x, v in store.vars.items() if v is value)
                    store = Store({x: v for x, v in store.vars.items()
                                   if x != name}, store.tables)
                    pending = frozenset(p for p in pending if p[0] != name) \
                        | {(name, value.sort)}
            out.append((event, _State(
                cont, store, store.key(),
                frozenset(p for p in pending if p[0] not in store.vars),
                chans, peers, new_queues)))

        for i, (peer, t) in enumerate(state.peers):
            for pol, chan, sort, after in self.steps_of(t):
                if pol == "out":
                    new_queues = _with_queue(state.queues, chan,
                                             queues[chan] + (Lit(sort, _PENDING),))
                    if new_queues is None:
                        skipped = True
                        continue
                elif queues[chan][:1] and queues[chan][0].sort == sort:
                    new_queues = _with_queue(state.queues, chan, queues[chan][1:])
                else:
                    continue
                peers = state.peers[:i] + ((peer, after),) + state.peers[i + 1:]
                out.append((Event(peer, "!" if pol == "out" else "?", chan, sort),
                            _State(state.proc, state.store, state.bindings,
                                   state.pending, state.chans, peers, new_queues)))
        return out, skipped

    def steps_of(self, t) -> list:
        found = self.type_moves.get(t)
        if found is None:
            found = self.type_moves[t] = [
                (pol, chan, sort, normal_form(cont, self.domains)
                 if isinstance(cont, TSeq) else cont)
                for pol, chan, sort, cont in type_steps(t)]
        return found

    def witness(self, target: tuple) -> tuple:
        copies = {ev: [i for i, e in enumerate(target) if e == ev]
                  for ev in set(target)}
        needs = [sum(1 << j for j in range(i) if not independent(target[j], ev))
                 for i, ev in enumerate(target)]
        full = (1 << len(target)) - 1
        parent = {(self.start, 0): None}
        frontier = [(0, 0, 0, self.start, 0)]
        skipped = False
        while frontier:
            _, extra, _, state, mask = heapq.heappop(frontier)
            if mask == full and state.chans is not None and not state.proc \
                    and all(isinstance(t, TEnd) for _, t in state.peers) \
                    and not any(messages for _, messages in state.queues):
                run = _path(parent, (state, mask))
                if trace_leq(target, run):
                    return run, skipped, True
            if state not in self.moves:
                self.moves[state] = self.successors(state)
            moves, skip = self.moves[state]
            skipped = skipped or skip
            for ev, after in moves:
                mask2, extra2 = mask, extra
                if ev is not None:
                    i = next((i for i in copies.get(ev, ()) if not mask >> i & 1),
                             None)
                    if i is not None and not needs[i] & ~mask:
                        mask2 = mask | 1 << i
                    else:
                        extra2 += 1
                if (after, mask2) not in parent:
                    parent[(after, mask2)] = ((state, mask), ev)
                    heapq.heappush(frontier, (-mask2.bit_count(), extra2,
                                              len(parent), after, mask2))
        return None, skipped, any(mask == full for _, mask in parent)


def _path(parent: dict, key) -> tuple:
    events = []
    while parent[key] is not None:
        key, ev = parent[key]
        if ev is not None:
            events.append(ev)
    return tuple(reversed(events))


def reference_wsi_by_covering(gdef: GlobalDef, role: str, proc: Process,
                              domains: DomainDecl = EMPTY_DOMAINS,
                              shared_name: str = "u") -> CoveringVerdict:
    g = instantiate(gdef, gdef.params)
    found = _role_problem(gdef, role, proc, shared_name) \
        or _search_inputs(gdef, role)
    if isinstance(found, str):
        return CoveringVerdict(False, missing=(), reason=found)
    targets, peers = found
    product = _Product(gdef, g, role, proc, domains, shared_name, peers)
    witnesses = []
    for target in targets:
        if any(trace_leq(target, done) for done, _ in witnesses):
            continue
        try:
            run, skipped, matched = product.witness(target)
        except EvalError as exc:
            return CoveringVerdict(False, missing=target,
                                   reason=f"evaluation error: {exc}")
        if run is None:
            return CoveringVerdict(False, missing=target, reason=(
                f"no witness with at most {QUEUE_BOUND} messages per queue"
                if skipped else "every event of the target was matched, but no "
                "run ended with every party done" if matched
                else "branch unreachable under declared domains"),
                inconclusive=skipped)
        witnesses.append((target, run))
    return CoveringVerdict(True, contexts=tuple(witnesses))
