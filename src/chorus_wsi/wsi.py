"""The two whole-spectrum-implementation verdict paths.

By typing: a process that typechecks against the global type is a WSI
of its role.

By covering: for every branch of the global type, some context makes
the process follow it.  The branches are the skeletons of the global
type's runs, its runs at unfold bound 1, so no verdict depends on an
unfold bound.  For each target skeleton s, a best-first search (most
events of s matched, then fewest extra events) runs over the product of
the process and its store, its pending variables, its session-channel
map, the other roles' normalized projections (stepped by
`semantics.type_steps`), the queues, and the bitmask of the events of s
matched so far.  A complete state with all of s matched is a witness.
As in the system semantics, the session opens on a request with one
acceptor per other role by the first participant, or on an accept by
any other, naming as many channels as the global type.  A free variable
with a declared domain starts pending, and so does a variable that
receives a peer's payload; it takes each candidate value at the first
step that raises `Undefined` on it.  Any other evaluation error stops
the search, as in the system semantics, and is the reason given for the
target's `MissingRun`.  An emitted event matches the first unmatched
copy of its label in s if every earlier event of s it depends on
(`traces.independent`) is matched, and is extra otherwise.  Copies of a
label depend on each other, so this greedy matching keeps up with any
embedding: it matches all of s on a run iff s embeds into the run, and
one visited set of (state, mask) loses none.

A witness is a context: along it each other role makes moves of its
projection, and the straight-line process making them, sending on each
send the value later read from it, is a deterministic context refining
the projection.  No step reads a pending value before it is drawn, so
fixing the drawn values from the start gives the same path, a complete
run that covers s (`trace_leq` confirms it before the witness counts):
the paper's "some context makes the process follow the branch".
Conversely every complete run with peers that follow the projections is
a path, unless it needs a payload outside the candidates or more than
`QUEUE_BOUND` messages in a queue; a search that skipped a send for
that bound and found no witness is `Inconclusive`, not a `MissingRun`.
Targets are searched in sorted order, each unless it is below an
earlier searched one, whose witness covers it too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .guards import DomainDecl, EMPTY_DOMAINS, EvalError, Store, Undefined
from .projection import NonProjectable, participants_ordered, project
from .pseudotype import normal_form, viable
from .semantics import proc_canon, step_process, type_steps
from .syntax.ast import (
    Event, GlobalDef, Lit, Process, TEnd, TRUE, TSeq, fU, fX, frozen_node,
    g_channels, is_nil,
)
from .traces import IllFormed, independent, run_str, runs_global, trace_leq
from .typecheck import (
    TypingError, gamma_from_domains, instantiate, typecheck_process,
    unique_role,
)


QUEUE_BOUND = 4  # messages one queue may hold in the covering search


@dataclass(frozen=True)
class TypingVerdict:
    ok: bool
    role: str
    error: TypingError | None = None

    def holds(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"Holds (typing validates the role {self.role!r})"
        return f"Rejected: {self.error}"


@dataclass(frozen=True)
class CoveringVerdict:
    """Holds, or the skeleton `missing` has no witness; `inconclusive`
    when the search for one skipped a send onto a full queue, so that a
    longer queue might give one."""

    ok: bool
    missing: tuple | None = None
    reason: str | None = None
    contexts: tuple = ()  # of (target skeleton, witness run)
    inconclusive: bool = False

    def holds(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"Holds ({len(self.contexts)} contexts)"
        detail = f": {self.reason}" if self.reason else ""
        verdict = "Inconclusive" if self.inconclusive else "MissingRun"
        return f"{verdict} {run_str(self.missing)}{detail}"


def _role_problem(gdef: GlobalDef, role: str, proc: Process,
                 shared_name: str) -> str | None:
    """Why proc does not uniquely play the participant `role`, or None."""
    parts = participants_ordered(instantiate(gdef, gdef.params))
    if role not in parts:
        return f"{role!r} is not a participant of {gdef.name}"
    if shared_name not in fU(proc):
        return f"the process opens no session of {gdef.name}"
    if not unique_role(proc, shared_name, role, role0=parts[0]):
        return f"the process does not uniquely play {role!r} in {shared_name!r}"
    return None


def wsi_by_typing(gdef: GlobalDef, role: str, proc: Process,
                  domains: DomainDecl = EMPTY_DOMAINS,
                  shared_name: str = "u") -> TypingVerdict:
    """WSI by typing: a well-typed process that plays the role covers
    the role's whole spectrum."""
    problem = _role_problem(gdef, role, proc, shared_name)
    if problem is not None:
        return TypingVerdict(False, role, TypingError("role", problem))
    gamma = gamma_from_domains(domains)
    try:
        typecheck_process(gamma, TRUE, proc, {shared_name: gdef}, domains)
    except TypingError as exc:
        return TypingVerdict(False, role, exc)
    return TypingVerdict(True, role)


# ------------------------------------------------------------ product search

_PENDING = object()  # the value of a peer's payload, not drawn yet

_DEFAULTS = {"Int": 0, "Bool": False, "Str": "", "Unit": None, "Data": b"",
             "List": ()}


@frozen_node
class _State:
    """A product state without its mask; `chans` is None until the
    process opens its session."""

    proc: Process
    store: Store = field(compare=False)
    bindings: tuple     # store.key()
    pending: frozenset  # of (variable, payload sort, or None if declared)
    chans: tuple | None  # of (session channel, channel of the global type)
    peers: tuple        # of (role, normalized projection)
    queues: tuple       # of (channel of the global type, messages)


def _with_queue(queues: tuple, chan: str, messages: tuple) -> tuple | None:
    """The queues with chan's set to messages; None past `QUEUE_BOUND`."""
    if len(messages) > QUEUE_BOUND:
        return None
    return tuple((y, messages if y == chan else q) for y, q in queues)


class _Product:
    """One process with its peers, and the successors of each state."""

    def __init__(self, gdef: GlobalDef, g, role: str, proc: Process,
                 domains: DomainDecl, shared_name: str, peers: tuple):
        self.role, self.domains, self.shared_name = role, domains, shared_name
        self.params, self.peers = gdef.params, peers
        self.opens = ("req", len(peers)) if role == participants_ordered(g)[0] \
            else ("acc", None)  # the label, with its arity, that opens
        self.queues = tuple((y, ()) for y in sorted(set(gdef.params)
                                                    | g_channels(g)))
        store = Store(tables=domains.tables)
        self.start = _State(
            proc_canon(proc), store, store.key(),
            frozenset((x, None) for x in fX(proc) if x in domains.domains),
            None, (), ())
        self.moves: dict = {}  # state -> ([(event or None, state)], skipped)
        self.type_moves: dict = {}  # projection -> its normalized steps

    def process_steps(self, proc: Process, store: Store, pending: frozenset,
                      oracle) -> list:
        """(label, continuation, store, pending) for each step of the
        process, drawing each pending variable the step reads."""
        try:
            return [(label, cont, store2, pending)
                    for label, cont, store2 in step_process(proc, store, oracle)]
        except Undefined as exc:
            drawn = next((p for p in pending if p[0] in exc.missing), None)
            if drawn is None:
                raise  # as in the system semantics
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
                    continue  # no partner ever joins
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
                if value.value is _PENDING:  # the binder waits for its draw
                    name = next(x for x, v in store.vars.items() if v is value)
                    store = Store({x: v for x, v in store.vars.items()
                                   if x != name}, store.sessions, store.tables)
                    pending = frozenset(p for p in pending if p[0] != name) \
                        | {(name, value.sort)}
            # a variable the step bound is no longer pending
            out.append((event, _State(
                proc_canon(cont), store, store.key(),
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
        """The steps of the normal form t, each into a normal form: the
        continuation of a choice in a normal form is one already, and
        only a sequence that `type_steps` builds needs normalizing."""
        found = self.type_moves.get(t)
        if found is None:
            found = self.type_moves[t] = [
                (pol, chan, sort, normal_form(cont, self.domains)
                 if isinstance(cont, TSeq) else cont)
                for pol, chan, sort, cont in type_steps(t)]
        return found

    def witness(self, target: tuple) -> tuple:
        """(a complete run that covers target, or None; whether a send
        was skipped at the queue bound)."""
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
            if mask == full and state.chans is not None and is_nil(state.proc) \
                    and all(isinstance(t, TEnd) for _, t in state.peers) \
                    and not any(messages for _, messages in state.queues):
                run = _path(parent, (state, mask))
                if trace_leq(target, run):
                    return run, skipped
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
        return None, skipped


def _path(parent: dict, key) -> tuple:
    """The events on the way from the start to `key`."""
    events = []
    while parent[key] is not None:
        key, ev = parent[key]
        if ev is not None:
            events.append(ev)
    return tuple(reversed(events))


def _search_inputs(gdef: GlobalDef, g, role: str, domains: DomainDecl):
    """(sorted target skeletons, (role, normalized projection) of every
    other role) for the search, or a string that says why there are none."""
    try:
        # a run at bound 1 has no optional segment: it is its own skeleton
        targets = sorted(runs_global(g, 1), key=run_str)
    except IllFormed as exc:
        return f"{gdef.name} is ill-formed: {exc}"
    peers = []
    for q in participants_ordered(g):
        if q == role:
            continue
        try:
            local = project(g, q)
        except NonProjectable as exc:
            return f"{gdef.name} is not projectable on {q!r}: {exc}"
        if not viable(local, domains):
            return f"projection of {gdef.name} on {q!r} is not viable"
        peers.append((q, normal_form(local, domains)))
    return targets, tuple(peers)


def wsi_by_covering(gdef: GlobalDef, role: str, proc: Process,
                    domains: DomainDecl = EMPTY_DOMAINS,
                    shared_name: str = "u") -> CoveringVerdict:
    """WSI by covering: Holds once every target skeleton has a witness."""
    g = instantiate(gdef, gdef.params)
    found = _role_problem(gdef, role, proc, shared_name) \
        or _search_inputs(gdef, g, role, domains)
    if isinstance(found, str):
        return CoveringVerdict(False, missing=(), reason=found)
    targets, peers = found
    product = _Product(gdef, g, role, proc, domains, shared_name, peers)
    witnesses = []
    for target in targets:
        if any(trace_leq(target, done) for done, _ in witnesses):
            continue
        try:
            run, skipped = product.witness(target)
        except EvalError as exc:  # a step of the process went wrong
            return CoveringVerdict(False, missing=target,
                                   reason=f"evaluation error: {exc}")
        if run is None:
            return CoveringVerdict(False, missing=target, reason=(
                f"no witness with at most {QUEUE_BOUND} messages per queue"
                if skipped else "branch unreachable under declared domains"),
                inconclusive=skipped)
        witnesses.append((target, run))
    return CoveringVerdict(True, contexts=tuple(witnesses))
