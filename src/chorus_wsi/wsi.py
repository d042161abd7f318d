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
target's `MissingRun`.  An emitted event advances the mask by one step
of the greedy matcher of `traces` (over `matching_tables(s)`), or is
extra.  The matcher matches all of s on a run iff s is below the run,
so one visited set of (state, mask) loses no witness.

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
earlier searched one, whose witness covers it too.  `trace_leq` is
asked that only when the target's events are a sub-multiset of the
earlier one's: an embedding maps events injectively onto equal events,
so a target outside that multiset is never below.

The searches of one verdict share one product graph, built as far as
they reach.  The process's own moves in a state depend on its process,
bindings, pending variables and session map, and on the queues only
through their heads: `step_process` reads the queues through its oracle
alone, which gives at most a queue's head, and what a move does to the
queues (push a value, pop a head, or open the session with empty ones)
is kept as an effect applied to each state's own queues.  So the
process is stepped once per distinct (process, bindings, pending,
session map, queue heads), and states that differ only in their peers
or in messages behind the heads share its moves.  A move that receives
a payload not drawn yet carries no value of the state it was computed
in: its binder leaves the store for the pending variables.  States,
their parts and events are interned to integers, the first one seen
standing for every equal one, so two states share an id exactly when
their parts are equal; equal bindings give equal steps, since
evaluation reads the bindings alone.  The visited set, the successor
order and the priority with its insertion-counter tie-break are those
of a search over the states themselves, so interning pops the same
states in the same order and changes no witness, count or verdict.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .guards import DomainDecl, EMPTY_DOMAINS, EvalError, Store, Undefined
from .projection import NonProjectable, participants_ordered, project
from .pseudotype import normal_form, viable
from .semantics import proc_canon, step_process, type_steps
from .syntax.ast import (
    Event, GlobalDef, Lit, Process, TEnd, TRUE, TSeq, fU, fX, g_channels,
    is_nil,
)
from .traces import IllFormed, matching_tables, run_str, runs_global, trace_leq
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

_OPEN = "open"  # the queue effect of the step that opens the session


class _Ids(dict):
    """Hash-consing: `ids[value]` is the id of value, the next integer the
    first time it is asked for, and `ids.values[i]` is the value of id i
    (the first one interned)."""

    def __init__(self):
        super().__init__()
        self.values: list = []

    def __missing__(self, value) -> int:
        self[value] = i = len(self.values)
        self.values.append(value)
        return i


class _Product:
    """One process with its peers, and the product graph they span, built
    as far as the searches reach and shared by them.

    A state is the tuple of the ids of its parts (process, bindings,
    pending, session map, peers, queues), and the id of that tuple in
    `states`; `parts` interns every part, so two equal parts of any kind
    share one id, which is harmless as each position of a key fixes the
    kind.  The peers are the ids of their normalized projections, the
    queues one tuple of messages per channel, indexed by `chan_index`."""

    def __init__(self, gdef: GlobalDef, g, role: str, proc: Process,
                 domains: DomainDecl, shared_name: str, peers: tuple):
        self.role, self.domains, self.shared_name = role, domains, shared_name
        self.params, self.roles = gdef.params, tuple(q for q, _ in peers)
        self.opens = ("req", len(peers)) if role == participants_ordered(g)[0] \
            else ("acc", None)  # the label, with its arity, that opens
        self.chan_index = {y: i for i, y in enumerate(
            sorted(set(gdef.params) | g_channels(g)))}
        self.parts, self.states, self.events = _Ids(), _Ids(), _Ids()
        self.stores: dict = {}  # bindings id -> a Store with those bindings
        ids = self.parts
        self.no_chans = ids[None]
        self.start_peers = ids[tuple(ids[t] for _, t in peers)]
        self.start_queues = ids[tuple(() for _ in self.chan_index)]
        store = Store(tables=domains.tables)
        self.stores[ids[store.key()]] = store
        self.start = self.states[(
            ids[proc_canon(proc)], ids[store.key()],
            ids[frozenset((x, None) for x in fX(proc) if x in domains.domains)],
            self.no_chans, ids[()], ids[()])]
        self.moves: dict = {}  # state id -> ([(event id or None, state id)], skipped)
        # (process, bindings, pending, chans ids, queue heads) -> own moves
        self.proc_moves: dict = {}
        self.queue_moves: dict = {}  # (queues, channel index, value) -> queues
        self.type_moves: dict = {}  # (peer index, projection id) -> its steps

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

    def own_moves(self, proc: int, bindings: int, pending: int, chans: int,
                  queues: int) -> list:
        """The process's moves, each (event id or None, queue effect, the
        ids of the process, bindings, pending and session map after it).
        The effect is None, `_OPEN`, or (channel index, value pushed, or
        None to pop the head)."""
        ids = self.parts
        messages = ids.values[queues]
        session = dict(ids.values[chans] or ())
        index = self.chan_index

        def head(channel):
            y = session.get(channel)
            return () if y is None else messages[index[y]][:1]

        out = []
        for label, cont, store, pending_set in self.process_steps(
                ids.values[proc], self.stores[bindings], ids.values[pending], head):
            event, effect, chans2 = None, None, chans
            if label.kind in ("req", "acc"):
                if label.shared != self.shared_name or chans != self.no_chans \
                        or (label.kind, label.arity) != self.opens \
                        or len(label.chans) != len(self.params):
                    continue  # no partner ever joins
                effect, chans2 = _OPEN, ids[tuple(zip(label.chans, self.params))]
            elif label.kind in ("out", "in") and label.channel in session:
                chan, value = session[label.channel], label.value
                event = self.events[Event(
                    self.role, "!" if label.kind == "out" else "?", chan, value.sort)]
                effect = (index[chan], value if label.kind == "out" else None)
                if value.value is _PENDING:  # the binder waits for its draw
                    name = next(x for x, v in store.vars.items() if v is value)
                    store = Store({x: v for x, v in store.vars.items()
                                   if x != name}, store.sessions, store.tables)
                    pending_set = frozenset(p for p in pending_set if p[0] != name) \
                        | {(name, value.sort)}
            bindings2 = ids[store.key()]
            self.stores.setdefault(bindings2, store)
            # a variable the step bound is no longer pending
            out.append((event, effect, ids[proc_canon(cont)], bindings2,
                        ids[frozenset(p for p in pending_set if p[0] not in store.vars)],
                        chans2))
        return out

    def successors(self, sid: int) -> tuple:
        """([(event id or None, state id)], whether a send was skipped at
        the queue bound) of the state sid."""
        proc, bindings, pending, chans, peers, queues = self.states.values[sid]
        messages = self.parts.values[queues]
        key = (proc, bindings, pending, chans, tuple(q[:1] for q in messages))
        own = self.proc_moves.get(key)
        if own is None:
            own = self.proc_moves[key] = self.own_moves(
                proc, bindings, pending, chans, queues)
        out, skipped = [], False
        for event, effect, proc2, bindings2, pending2, chans2 in own:
            peers2, queues2 = peers, queues
            if effect is _OPEN:
                peers2, queues2 = self.start_peers, self.start_queues
            elif effect is not None:
                queues2 = self.queue_move(queues, *effect)
                if queues2 is None:
                    skipped = True
                    continue
            out.append((event, self.states[
                (proc2, bindings2, pending2, chans2, peers2, queues2)]))

        types = self.parts.values[peers]
        for i, t in enumerate(types):
            for event, push, chan, sort, after in self.steps_of(i, t):
                if push is not None:
                    queues2 = self.queue_move(queues, chan, push)
                    if queues2 is None:
                        skipped = True
                        continue
                elif messages[chan][:1] and messages[chan][0].sort == sort:
                    queues2 = self.queue_move(queues, chan, None)
                else:
                    continue
                peers2 = self.parts[types[:i] + (after,) + types[i + 1:]]
                out.append((event, self.states[
                    (proc, bindings, pending, chans, peers2, queues2)]))
        return out, skipped

    def queue_move(self, queues: int, chan: int, value) -> int | None:
        """The queues after pushing value onto the channel of index chan,
        or popping its head if value is None; None past `QUEUE_BOUND`."""
        key = (queues, chan, value)
        if key not in self.queue_moves:
            messages = self.parts.values[queues]
            q = messages[chan][1:] if value is None else messages[chan] + (value,)
            self.queue_moves[key] = None if len(q) > QUEUE_BOUND else \
                self.parts[messages[:chan] + (q,) + messages[chan + 1:]]
        return self.queue_moves[key]

    def steps_of(self, i: int, t: int) -> list:
        """The steps of peer i at the normal form of id t, each (event id,
        the message it pushes or None if it pops, channel index, sort,
        id of the normal form after it).  The continuation of a choice
        in a normal form is one already, and only a sequence that
        `type_steps` builds needs normalizing."""
        found = self.type_moves.get((i, t))
        if found is None:
            found = self.type_moves[(i, t)] = [
                (self.events[Event(self.roles[i], "!" if pol == "out" else "?",
                                   chan, sort)],
                 Lit(sort, _PENDING) if pol == "out" else None, self.chan_index[chan],
                 sort,
                 self.parts[normal_form(cont, self.domains)
                            if isinstance(cont, TSeq) else cont])
                for pol, chan, sort, cont in type_steps(self.parts.values[t])]
        return found

    def complete(self, sid: int) -> bool:
        """Has the state's session opened, and have the process and every
        peer ended with every queue empty?"""
        proc, _, _, chans, peers, queues = self.states.values[sid]
        return chans != self.no_chans and queues == self.start_queues \
            and is_nil(self.parts.values[proc]) \
            and all(isinstance(self.parts.values[t], TEnd)
                    for t in self.parts.values[peers])

    def witness(self, target: tuple) -> tuple:
        """(a complete run that covers target, or None; whether a send
        was skipped at the queue bound)."""
        n = len(target)
        copies, needs = matching_tables(target)
        copies = {self.events[ev]: bits for ev, bits in copies.items()}
        full = (1 << n) - 1
        # a search key is state id << n | mask
        parent = {self.start << n: None}
        frontier = [(0, 0, 0, self.start << n)]
        skipped = False
        moves = self.moves
        while frontier:
            _, extra, _, key = heapq.heappop(frontier)
            sid, mask = key >> n, key & full
            if mask == full and self.complete(sid):
                run = self.path(parent, key)
                if trace_leq(target, run):
                    return run, skipped
            found = moves.get(sid)
            if found is None:
                found = moves[sid] = self.successors(sid)
            steps, skip = found
            skipped = skipped or skip
            for ev, after in steps:
                mask2, extra2 = mask, extra
                if ev is not None:
                    free = copies.get(ev, 0) & ~mask
                    first = free & -free  # the first unmatched copy
                    if first and not needs[first] & ~mask:
                        mask2 = mask | first
                    else:
                        extra2 += 1
                key2 = after << n | mask2
                if key2 not in parent:
                    parent[key2] = (key, ev)
                    heapq.heappush(frontier, (-mask2.bit_count(), extra2,
                                              len(parent), key2))
        return None, skipped

    def path(self, parent: dict, key: int) -> tuple:
        """The events on the way from the start to `key`."""
        events = []
        while parent[key] is not None:
            key, ev = parent[key]
            if ev is not None:
                events.append(self.events.values[ev])
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
    witnesses, bags = [], []  # bags: the event multiset of each searched target
    for target in targets:
        bag = Counter(target)
        # an embedding maps events injectively: below means a smaller multiset
        if any(bag <= done_bag and trace_leq(target, done)
               for (done, _), done_bag in zip(witnesses, bags)):
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
        bags.append(bag)
    return CoveringVerdict(True, contexts=tuple(witnesses))
