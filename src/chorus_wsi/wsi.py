"""The two whole-spectrum-implementation verdict paths.

By typing: a process that typechecks against the global type is a WSI
of its role.

By covering: for every branch of the global type, some context makes
the process follow it.  The branches are the skeletons of the global
type's runs, its runs at unfold bound 1, so no verdict depends on an
unfold bound.  For each target skeleton s, a best-first search (most
events of s matched, then fewest extra events) runs over the product of
the running process (its stack of terms, `semantics.push`, empty once
it has ended) and its store, its pending variables, its session-channel
map, the other roles' projections (normalized once, then stepped by
`semantics.type_steps`), the queues, and the bitmask of the events of s
matched so far.  A complete state with all of s matched is a witness.
The session checked is the one on the least shared name the process
opens, and the process must uniquely play the role in it.  The other
roles' projections are checked only for well-formedness and
projectability: a peer that dead-ends never reaches end, which every
complete state needs, so the search alone refuses it.
As in the system semantics, the session opens on a request with one
acceptor per other role by the first participant, or on an accept by
any other, naming as many channels as the global type: the side
conditions of VReq and VAcc, which `typecheck.open_problem` states, with
one more that both paths share, that the global type uses no channel
but its parameters.  A global that breaks it is answered first, and a
process with an open on the shared name that breaks the others is
answered with typing's reason, before any search.  A free variable with a
declared domain starts pending, and so does a variable that receives a
peer's payload; it takes each candidate value at the first step that
raises `Undefined` on it.  Any other evaluation error stops the search,
as in the system semantics, and is the reason given for the target's
`MissingRun`.  An emitted event advances the mask by one step
of the greedy matcher of `traces` (over `matching_tables(s)`, built
once per target for the search, the check of its witness and the
subsumption test below), or is extra.  The matcher matches all of s on
a run iff s is below the run, so one visited set of (state, mask)
loses no witness.

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
earlier searched one, whose witness covers it too (`_Seen`).  An
embedding maps events injectively onto equal events, so a target is
never below a shorter one, below one of its own length only when the
embedding is onto, that is when the two are the same trace, and below
a longer one only when that one holds each of its events at least as
often.  Two distinct targets are never the same trace.  The walk that
builds the runs of a global type at bound 1 decides only at choices,
so two distinct runs agree up to the first choice they resolve apart,
where the choice's sender sends on two different channels
(well-formedness);
the sender's events then differ at the same position, and a trace
never reorders one participant's events, which all depend on each
other.  So `trace_leq` is asked only of longer targets that hold the
target's events; on n sequential choices, whose 2^n targets have one
length, no target is compared with another.

`projections_cover` runs the same search with no process to check: the
session starts open, every role is a projection peer, and a witness is
a run of the specification made of the projections, so the search
decides whether they cover the global type (`cover`).  As in that
specification, peers communicate only on the global type's session
channels, its parameters.

The searches of one verdict share one product graph, built as far as
they reach.  The process's own moves in a state depend on its process,
bindings, pending variables and session map, and on the queues only
through the heads of the channels its next step reads: `step_process`
reads the queues through its oracle alone, which gives at most a
queue's head, and what a move does to the queues (push a value, pop a
head, or open the session with empty ones) is kept as an effect applied
to each state's own queues.  A head is either a value the process sent
itself or a peer's payload `Lit(sort, _PENDING)`, and a well-formed
global type uses each channel at one sort (`projection.channel_sorts`),
the sort of every message a peer sends on it.  So the process is
stepped once per distinct (process, bindings, pending, session map,
heads it sent on the channels it reads), with an input on a channel
offered the head the process sent there, or else the payload of the
channel's sort, and a state enables such an input only where its head
is the value offered.  The steps the oracle gives for a state's own
heads are then exactly the enabled ones, in the same order, so each
state gets the successors of stepping the process on its own heads,
and states that differ only in their peers, in messages behind the
heads, or in the heads of channels the process does not read share its
moves.  A move that receives a payload not drawn yet carries no value
of the state it was computed in: its binder leaves the store for the
pending variables.  States, their parts and events are interned to
integers, the first one seen standing for every equal one, so two
states share an id exactly when their parts are equal; equal bindings
give equal steps, since evaluation reads the bindings alone.  The
visited set, the successor order and the priority with its
insertion-counter tie-break are those of a search over the states
themselves, so interning pops the same states in the same order and
changes no witness, count or verdict.

A peer is its projection, normalized once, and each continuation that
`type_steps` builds after a step with a sequel is the one that
normalizing `continuation ; sequel` gives, but for guards (`_then`
drops a leading end, pushes the sequel into the branches of a choice
and reassociates to the right, as normalization does).  A projection's
guards are all built from the literal true, so normalizing it prunes
no branch and only conjoins guards, whatever the declared domains, and
it is normalized under none; `type_steps` reads no guard, and a
peer's state is complete when it is end, whatever its guard.  So each
continuation steps into the same events, channels and sorts, into
continuations that normalize alike in turn, and is complete when the
normalized one is: the events, the masks and the sends skipped at
`QUEUE_BOUND` are those of stepping each normal form.  Two
continuations whose normal form differs only in guards may be one state
here, which merges only states with the same moves; the tests check
that the verdicts, contexts and numbers of states expanded are those of
normalizing each continuation.

A peer at a loop followed by a continuation that offers only inputs
steps into the loop again and not also past it (`type_steps`), and
every (complete state, full mask) pair that the search could reach
before stays reachable.  For a loop `(B)* ; C` whose C offers only
inputs, the peer at `X ; (B)* ; C` can follow the peer at `X ; C`, for
any X, step for step: a step within X leads to `X' ; C` and is made by
the other into `X' ; (B)* ; C`; a step of C is an input, which `(B)* ;
C` offers too, into the same continuation; and neither is complete,
since C is not end.  The dropped step led from the loop into `B' ; C`,
and the unfolded one leads into `B' ; (B)* ; C`.  So every path through
a dropped step has a twin with the same events, and so the same masks,
that reaches the same state at the first input of C, or never leaves
B'; the twin pushes every message the path pushes, so it skips a send
at the queue bound where the path does, and the search gives the same
answer.

After each step of the process, the bindings and pending variables that
its continuation does not read are dropped: those outside the `fX` of
every term of its stack, which each term keeps on its node.
A binding the residual never reads changes no step: evaluation reads
only the variables of the expression evaluated, and every later step
evaluates an expression of the residual.  So states that differ only in
dead values have the same moves, events and queue effects, and the
search keeps one state for each class of them, where a search that kept
every binding would visit each member (on 8 sequential choices, each
resolved by its own declared variable, 894 states against 2,814).
Whether a target has a witness, and whether a search that found none
skipped a send, depends only on the classes reachable from the start:
so `Holds`, `MissingRun` and `Inconclusive` are those of that search.
Only the order in which classes are first reached may differ, and with
it which of several witnesses is found, or whether a step that fails
is reached before one.
"""

from __future__ import annotations

import heapq
from collections import Counter

from .guards import DomainDecl, EMPTY_DOMAINS, EvalError, Store, Undefined
from .projection import (
    NonProjectable, channel_sorts, participants_ordered, project, well_formed,
)
from .pseudotype import normal_form
from .semantics import push, step_process, type_steps
from .syntax.ast import (
    NIL, Accept, Branch, Event, For, GlobalDef, If, Lit, Process, RepeatUntil,
    Request, Seq, TEnd, TRUE, fU, fX, frozen_node,
)
from .traces import (
    IllFormed, matching_tables, run_str, runs_global, sorted_runs,
    trace_leq,
)
from .typecheck import (
    TypingError, fragment_problem, gamma_from_domains, open_problem,
    shared_env, typecheck_process, unique_role,
)


QUEUE_BOUND = 4  # messages one queue may hold in the covering search


@frozen_node
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


@frozen_node
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
                 shared_name: str | None) -> str | None:
    """Why proc does not uniquely play the participant `role`, or None."""
    parts = participants_ordered(gdef.body)
    if role not in parts:
        return f"{role!r} is not a participant of {gdef.name}"
    if shared_name not in fU(proc):
        return f"the process opens no session of {gdef.name}"
    if not unique_role(proc, shared_name, role, role0=parts[0]):
        return f"the process does not uniquely play {role!r} in {shared_name!r}"
    return None


def _open_problem(gdef: GlobalDef, proc: Process, shared_name: str) -> str | None:
    """Why no partner would ever join a request or accept of proc on the
    shared name, the first that breaks VReq or VAcc, or None."""
    return next(filter(None, (open_problem(gdef, p)
                              for p in _opens(proc, shared_name))), None)


def _opens(p: Process, u: str) -> list:
    """The requests and accepts on u in p."""
    match p:
        case Request(shared, _, _, cont) | Accept(shared, _, _, cont):
            return ([p] if shared == u else []) + _opens(cont, u)
        case For(_, _, cont):
            return _opens(cont, u)
        case Branch(arms):
            return [r for arm in arms for r in _opens(arm.cont, u)]
        case Seq(first, second) | RepeatUntil(first, second) | If(_, first, second):
            return _opens(first, u) + _opens(second, u)
    return []


def wsi_by_typing(gdef: GlobalDef, role: str, proc: Process,
                  domains: DomainDecl = EMPTY_DOMAINS) -> TypingVerdict:
    """WSI by typing: a well-typed process that plays the role covers
    the role's whole spectrum.  As `typecheck` does, it types the
    process with `gdef` for every shared name it opens; the opens on the
    least of those names must play the role."""
    problem = _role_problem(gdef, role, proc, min(fU(proc), default=None))
    if problem is not None:
        return TypingVerdict(False, role, TypingError("role", problem))
    gamma = gamma_from_domains(domains)
    try:
        typecheck_process(gamma, TRUE, proc, shared_env(gdef, proc), domains)
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
    kind.  The process is its stack, the peers are the ids of their
    projections, the queues one tuple of messages per channel, indexed
    by `chan_index`."""

    def __init__(self, gdef: GlobalDef, role: str | None,
                 proc: Process | None, domains: DomainDecl,
                 shared_name: str | None, peers: tuple):
        self.role, self.domains, self.shared_name = role, domains, shared_name
        self.params, self.roles = gdef.params, tuple(q for q, _ in peers)
        # the session channels: as in the specification, a peer's step on
        # any other channel has no queue to use
        self.chan_index = index = {y: i for i, y in enumerate(sorted(gdef.params))}
        self.payloads: dict = {}  # sort -> the payload of it a peer sends
        # by channel index, what an input of the process is offered where
        # the process sent no head (`process_moves`)
        sorts = channel_sorts(gdef.body) if proc is not None else {}
        self.offers = [(self.payload(sorts[y]),) if y in sorts else ()
                       for y in index]
        self.parts, self.states, self.events = _Ids(), _Ids(), _Ids()
        self.stores: dict = {}  # bindings id -> a Store with those bindings
        ids = self.parts
        self.no_chans = ids[None]
        self.start_peers = ids[tuple(ids[t] for _, t in peers)]
        self.start_queues = ids[tuple(() for _ in index)]
        store = Store({}, domains.tables)
        self.stores[ids[store.key()]] = store
        # with no process, the session starts open among the peers
        session = (self.no_chans, ids[()], ids[()]) if proc is not None \
            else (ids[()], self.start_peers, self.start_queues)
        proc = NIL if proc is None else proc
        self.start = self.states[(
            ids[push(proc)], ids[store.key()],
            ids[frozenset((x, None) for x in fX(proc) if x in domains.domains)],
            *session)]
        self.moves: dict = {}  # state id -> ([(event id or None, state id)], skipped)
        # (process, bindings, pending, chans) -> the channel indexes it reads
        self.reads: dict = {}
        # (process, bindings, pending, chans, heads it sent on those
        # channels) -> its moves
        self.proc_moves: dict = {}
        self.queue_moves: dict = {}  # (queues, channel index, value) -> queues
        self.type_moves: dict = {}  # (peer index, projection id) -> its steps

    def process_steps(self, stack: tuple, store: Store, pending: frozenset,
                      oracle) -> list:
        """(label, continuation, store, pending) for each step of the
        process `stack`, drawing each pending variable the step reads."""
        try:
            return [(label, cont, store2, pending)
                    for label, cont, store2 in step_process(stack, store, oracle)]
        except Undefined as exc:
            drawn = next((p for p in pending if p[0] in exc.missing), None)
            if drawn is None:
                raise  # as in the system semantics
            name, sort = drawn
            values = sorted(self.domains.domains[name], key=str) if sort is None \
                else dict.fromkeys([*self.domains.values_of_sort(sort),
                                    Lit(sort, _DEFAULTS[sort.kind])])
            return [step for value in values for step in self.process_steps(
                stack, store.with_var(name, value), pending - {drawn}, oracle)]

    def own_moves(self, proc: int, bindings: int, pending: int, chans: int,
                  heads) -> list:
        """The process's moves when an input on the channel of index i
        may receive `heads(i)`, each (event id or None, queue effect, the
        ids of the process, bindings, pending and session map after it).
        The effect is None, `_OPEN`, or (channel index, value pushed or
        None, value popped or None)."""
        ids = self.parts
        session = dict(ids.values[chans] or ())
        index = self.chan_index

        def oracle(channel):
            y = session.get(channel)
            return () if y is None else heads(index[y])

        out = []
        for label, cont, store, pending_set in self.process_steps(
                ids.values[proc], self.stores[bindings], ids.values[pending], oracle):
            event, effect, chans2 = None, None, chans
            if label.kind in ("req", "acc"):
                # each open on the shared name plays the role and meets
                # VReq or VAcc (`_role_problem`, `_open_problem`)
                if label.shared != self.shared_name or chans != self.no_chans:
                    continue  # no partner ever joins
                effect, chans2 = _OPEN, ids[tuple(zip(label.chans, self.params))]
            elif label.kind in ("out", "in") and label.channel in session:
                chan, value = session[label.channel], label.value
                event = self.events[Event(
                    self.role, "!" if label.kind == "out" else "?", chan, value.sort)]
                effect = (index[chan], value, None) if label.kind == "out" \
                    else (index[chan], None, value)
                if value.value is _PENDING:  # the binder waits for its draw
                    name = next(x for x, v in store.vars.items() if v is value)
                    store = Store({x: v for x, v in store.vars.items()
                                   if x != name}, store.tables)
                    pending_set = frozenset(p for p in pending_set if p[0] != name) \
                        | {(name, value.sort)}
            proc2 = ids[cont]
            # each term of the first equal stack interned keeps its
            # variables already
            live = frozenset().union(*map(fX, ids.values[proc2]))
            if not live.issuperset(store.vars):  # drop what it never reads
                store = Store({x: v for x, v in store.vars.items() if x in live},
                              store.tables)
            bindings2 = ids[store.key()]
            self.stores.setdefault(bindings2, store)
            # a variable the step bound is no longer pending
            out.append((event, effect, proc2, bindings2,
                        ids[frozenset(p for p in pending_set
                                      if p[0] in live and p[0] not in store.vars)],
                        chans2))
        return out

    def process_moves(self, proc: int, bindings: int, pending: int, chans: int,
                      messages: tuple) -> list:
        """The process's moves (`own_moves`) in a state with these parts
        and these queues, stepped once per (process, bindings, pending,
        session map, heads the process sent on the channels it reads).
        An input on a channel whose head the process sent receives that
        head; on any other it receives each payload a peer may send
        there, and `successors` enables it only where the head is that
        payload."""
        base = (proc, bindings, pending, chans)
        reads = self.reads.get(base)
        if reads is not None:
            own = self.proc_moves.get(
                (*base, tuple([_sent(messages[i]) for i in reads])))
            if own is not None:
                return own
        read: dict = {}  # the channel indexes the oracle is asked, in order

        def heads(i):
            read[i] = None
            return _sent(messages[i]) or self.offers[i]

        own = self.own_moves(proc, bindings, pending, chans, heads)
        self.reads[base] = reads = tuple(read)
        self.proc_moves[(*base, tuple([_sent(messages[i]) for i in reads]))] = own
        return own

    def successors(self, sid: int) -> tuple:
        """([(event id or None, state id)], whether a send was skipped at
        the queue bound) of the state sid."""
        proc, bindings, pending, chans, peers, queues = self.states.values[sid]
        messages = self.parts.values[queues]
        out, skipped = [], False
        for event, effect, proc2, bindings2, pending2, chans2 in self.process_moves(
                proc, bindings, pending, chans, messages):
            peers2, queues2 = peers, queues
            if effect is _OPEN:
                peers2, queues2 = self.start_peers, self.start_queues
            elif effect is not None:
                chan, push, pop = effect
                if pop is not None and messages[chan][:1] != (pop,):
                    continue  # the head is another payload, or none
                queues2 = self.queue_move(queues, chan, push)
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
        """The steps of peer i at the projection of id t, each (event id,
        the payload it pushes or None if it pops, channel index, sort,
        id of the projection after it)."""
        found = self.type_moves.get((i, t))
        if found is None:
            found = self.type_moves[(i, t)] = [
                (self.events[Event(self.roles[i], "!" if pol == "out" else "?",
                                   chan, sort)],
                 self.payload(sort) if pol == "out" else None,
                 self.chan_index[chan], sort, self.parts[cont])
                for pol, chan, sort, cont in type_steps(self.parts.values[t])
                if chan in self.chan_index]
        return found

    def payload(self, sort) -> Lit:
        """The payload of the sort that a peer sends, not drawn yet."""
        found = self.payloads.get(sort)
        if found is None:
            found = self.payloads[sort] = Lit(sort, _PENDING)
        return found

    def complete(self, sid: int) -> bool:
        """Has the state's session opened, and have the process and every
        peer ended with every queue empty?"""
        proc, _, _, chans, peers, queues = self.states.values[sid]
        return chans != self.no_chans and queues == self.start_queues \
            and not self.parts.values[proc] \
            and all(isinstance(self.parts.values[t], TEnd)
                    for t in self.parts.values[peers])

    def witness(self, target: tuple, tables: tuple) -> tuple:
        """(a complete run that covers target, or None; whether a send
        was skipped at the queue bound; whether the search matched every
        event of target), searched with `tables`, the `matching_tables`
        of target."""
        n = len(target)
        copies, needs, full = tables
        copies = {self.events[ev]: bits for ev, bits in copies.items()}
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
                if trace_leq(target, run, tables):
                    return run, skipped, True
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
        return None, skipped, any(key & full == full for key in parent)

    def path(self, parent: dict, key: int) -> tuple:
        """The events on the way from the start to `key`."""
        events = []
        while parent[key] is not None:
            key, ev = parent[key]
            if ev is not None:
                events.append(self.events.values[ev])
        return tuple(reversed(events))


def _sent(queue: tuple) -> tuple:
    """The queue's head if the process sent it (it is no peer's pending
    payload), or ()."""
    return queue[:1] if queue and queue[0].value is not _PENDING else ()


class _Seen:
    """The targets searched so far, and the test whether a target is
    below one of them.  Distinct targets are distinct traces (see the
    module docstring), so only a longer one can be above it, and it is
    asked (`trace_leq`) only when it holds each event of the target at
    least as often (`_within`).  An event count is made only when a
    test needs it."""

    def __init__(self):
        self.seen: dict = {}  # length -> [[target, event ids, counts or None]]

    def below(self, target: tuple, ids: list, tables: tuple) -> bool:
        """Is target, whose events have the ids `ids`, below a target
        seen before?  If not, it counts as seen from now on."""
        n, counts = len(ids), None
        for m, longer in self.seen.items():
            if m > n:
                counts = counts or Counter(ids)
                for entry in longer:
                    entry[2] = entry[2] or Counter(entry[1])
                    if _within(counts, entry[2]) and trace_leq(target, entry[0], tables):
                        return True
        self.seen.setdefault(n, []).append([target, ids, counts])
        return False


def _within(counts: Counter, other: Counter) -> bool:
    """Does `other` count each event at least as often as `counts`?  An
    embedding maps events injectively onto equal events, so a target is
    below an earlier one only if so."""
    return all(other.get(e, 0) >= k for e, k in counts.items())


def _search_inputs(gdef: GlobalDef, role: str):
    """(sorted target skeletons, (role, normalized projection) of every
    other role) for the search, or a string that says why there are none."""
    g = gdef.body
    violations = well_formed(g)
    if violations:
        return f"{gdef.name} is ill-formed: {IllFormed(violations)}"
    peers = []
    for q in participants_ordered(g):
        if q == role:
            continue
        try:
            peers.append((q, normal_form(project(g, q))))
        except NonProjectable as exc:
            return f"{gdef.name} is not projectable on {q!r}: {exc}"
    # a run at bound 1 has no optional segment: it is its own skeleton
    return sorted_runs(runs_global(g, 1)), tuple(peers)


def wsi_by_covering(gdef: GlobalDef, role: str, proc: Process,
                    domains: DomainDecl = EMPTY_DOMAINS) -> CoveringVerdict:
    """WSI by covering: Holds once every target skeleton has a witness.
    The session checked is the one on the least shared name the process
    opens."""
    shared_name = min(fU(proc), default=None)
    found = fragment_problem(gdef) or _role_problem(gdef, role, proc, shared_name) \
        or _open_problem(gdef, proc, shared_name) \
        or _search_inputs(gdef, role)
    if isinstance(found, str):
        return CoveringVerdict(False, missing=(), reason=found)
    targets, peers = found
    return _cover(_Product(gdef, role, proc, domains, shared_name, peers), targets)


def projections_cover(gdef: GlobalDef, spec: dict, targets: list) -> CoveringVerdict:
    """Do the projections of gdef realise it: has every target skeleton,
    in sorted order, a witness run of spec, the specification made of
    the projections (`traces.projection_env`, role -> normal form)?  The
    same search with no process to check: the session starts open and
    every role is a peer."""
    peers = tuple(spec.items())
    return _cover(_Product(gdef, None, None, EMPTY_DOMAINS, None, peers), targets)


def _cover(product: _Product, targets: list) -> CoveringVerdict:
    """Holds once every target has a witness in the product."""
    events = product.events
    witnesses, seen = [], _Seen()
    for target in targets:
        ids = [events[ev] for ev in target]
        # over the interned events, those of the search's paths, so that
        # the matcher finds each one by identity
        tables = matching_tables(tuple([events.values[e] for e in ids]))
        if seen.below(target, ids, tables):
            continue
        try:
            run, skipped, matched = product.witness(target, tables)
        except EvalError as exc:  # a step of the process went wrong
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
