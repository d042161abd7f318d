"""The three labelled transition systems and the bounded conditional
simulation checker.

Process steps carry conditional labels <e>alpha; the guard records the
conjunction of the conditions taken by if-statements on the way to the
action.  System steps resolve communication against per-channel queues
(send appends, receive consumes the head).  Only `step_process` decides
which process can open a session: a session start joins one component's
`req` step with exactly `arity` `acc` steps of other components on the
same shared name, with pairwise-distinct roles and as many channels as
the request.  Each step's continuation gets its label's channels
replaced by fresh actuals `y@u<n>` (n counts the sessions opened); the
store is the requester's step store (a `for` binder stays bound) plus
the acceptors' bindings, with the session bound to the actuals; the
label is the requester's, guard kept.  The substitution covers the rest
of a `Seq` too, so a session binder must differ from the free names
that follow it, as the parser's freshening makes it.  A system step is
reported as the component that moved and its process-level label, which
is all that the system explorers (`conditional_simulation` and
`chorus-wsi simulate`) read.  Covering's search (`wsi`) steps the
checked process by `step_process` and its peers' projections by
`type_steps`.

Specification steps rewrite normalized session pseudo-types;
queue-mediated specification steps are silent but record the
communication they perform, which is what the simulation checker
matches system communications against.

Structural congruence is applied as a normalization to canonical form
(flattened parallel components, restrictions hoisted, idle processes
dropped) rather than searched.
"""

from __future__ import annotations

from .guards import DomainDecl, EMPTY_DOMAINS, Store, eval_expr
from .projection import NonProjectable, participants_ordered, project
from .pseudotype import normal_form
from .syntax.ast import (
    Accept, Branch, Const, Expr, For, If, Lit, Par, Proc, Process, Queue,
    RepeatUntil, Request, Restrict, Send, Seq, Sort, System, TEnd,
    TExternal, TInternal, TIter, TRUE, TSeq, conj, frozen_node, is_nil, is_true,
    neg, replace,
)
from .syntax.subst import subst_process
from .typecheck import SpecEnv, instantiate


# ----------------------------------------------------------------- labels

@frozen_node
class Label:
    """A conditional action <guard>alpha."""

    kind: str  # "req" | "acc" | "out" | "in" | "tau"
    guard: Expr = TRUE
    shared: str | None = None
    arity: int | None = None
    role: str | None = None
    chans: tuple | None = None
    channel: str | None = None
    value: Lit | None = None

    def with_guard(self, e: Expr) -> "Label":
        return replace(self, guard=conj(e, self.guard))

    def __str__(self) -> str:
        body = {
            "req": lambda: f"req {self.shared}[{self.arity}]({', '.join(self.chans)})",
            "acc": lambda: f"acc {self.shared}[{self.role}]({', '.join(self.chans)})",
            "out": lambda: f"{self.channel}!{self.value}",
            "in": lambda: f"{self.channel}?{self.value}",
            "tau": lambda: "tau",
        }[self.kind]()
        from .syntax.printer import render_expr
        return body if is_true(self.guard) else f"<{render_expr(self.guard)}>{body}"


@frozen_node
class SpecLabel:
    """A specification action; values are replaced by sorts and
    conditions do not occur.  Queue-mediated steps are tau but record
    the communication performed (comm = (polarity, channel, sort))."""

    kind: str  # "req" | "acc" | "out" | "in" | "tau"
    shared: str | None = None
    role: str | None = None
    chans: tuple | None = None
    channel: str | None = None
    sort: Sort | None = None
    comm: tuple | None = None


# --------------------------------------------------------- process stepping

def proc_canon(p: Process) -> Process:
    """Quotient by the sequential monoid laws: drop idle units and
    reassociate to the right.

    Only a `Seq` changes.  Its canonical form is kept on it
    (`frozen_node`), and a canonical `Seq` is marked as its own, so a
    body stepped again and again is walked once; the entries die with
    their nodes."""
    if not isinstance(p, Seq):
        return p
    kept = p._canon
    if kept is None:
        kept = _reassociate(proc_canon(p.first), proc_canon(p.second))
        object.__setattr__(p, "_canon", kept)
        if isinstance(kept, Seq):
            object.__setattr__(kept, "_canon", _CANONICAL)
    return p if kept is _CANONICAL else kept


_CANONICAL = "canonical"  # the `_canon` of a Seq in canonical form


def _reassociate(first: Process, second: Process) -> Process:
    """The canonical form of `first; second`, both canonical."""
    if is_nil(first):
        return second
    if is_nil(second):
        return first
    if isinstance(first, Seq):
        return proc_canon(Seq(first.first, Seq(first.second, second)))
    return Seq(first, second)


def step_process(p: Process, store: Store, oracle) -> list:
    """All one-step successors (label, process, store); `oracle(channel)`
    gives the values an input on the channel may receive."""
    p = proc_canon(p)
    out: list = []
    match p:
        case Branch(arms) if not arms:
            return []
        case Request(shared, arity, chans, cont):
            chans, cont = _fresh_session_names(chans, cont, store)
            label = Label("req", shared=shared, arity=arity, chans=chans)
            out.append((label, cont, store.with_session(shared, chans)))
        case Accept(shared, role, chans, cont):
            chans, cont = _fresh_session_names(chans, cont, store)
            label = Label("acc", shared=shared, role=role, chans=chans)
            out.append((label, cont, store.with_session(shared, chans)))
        case Send(channel, payload):
            value = eval_expr(payload, store)
            out.append((Label("out", channel=channel, value=value),
                        Branch(()), store))
        case Branch(arms):
            for arm in arms:
                for value in oracle(arm.channel):
                    out.append((Label("in", channel=arm.channel, value=value),
                                arm.cont, store.with_var(arm.binder, value)))
        case Seq(first, second):
            for label, cont, store2 in step_process(first, store, oracle):
                out.append((label, proc_canon(Seq(cont, second)), store2))
        case If(cond, then, orelse):
            test = eval_expr(cond, store)
            branch, guard = (then, cond) if test.value else (orelse, neg(cond))
            for label, cont, store2 in step_process(branch, store, oracle):
                out.append((label.with_guard(guard), cont, store2))
        case For(binder, items, body):
            value = eval_expr(items, store)
            if not value.value:
                out.append((Label("tau"), Branch(()), store))
            else:
                head, tail = value.value[0], Lit(value.sort, value.value[1:])
                inner = store.with_var(binder, head)
                rest = For(binder, Const(tail), body)
                for label, cont, store2 in step_process(body, inner, oracle):
                    out.append((label, proc_canon(Seq(cont, rest)), store2))
        case RepeatUntil(body, exit):
            exit_chans = {a.channel for a in exit.arms}
            for label, cont, store2 in step_process(body, store, oracle):
                if label.channel in exit_chans:
                    continue
                out.append((label, proc_canon(Seq(cont, p)), store2))
            for label, cont, store2 in step_process(exit, store, oracle):
                out.append((label, cont, store2))
    return out


def _fresh_session_names(chans: tuple, cont: Process, store: Store):
    taken = store.domain() | frozenset(
        y for ys in store.sessions.values() for y in ys)
    if not (set(chans) & taken):
        return chans, cont
    mapping = {}
    for y in chans:
        fresh = y
        i = 1
        while fresh in taken or fresh in mapping.values():
            fresh = f"{y}#{i}"
            i += 1
        mapping[y] = fresh
    new = tuple(mapping[y] for y in chans)
    return new, subst_process(cont, cmap={k: v for k, v in mapping.items() if k != v})


# ---------------------------------------------------------- system stepping

@frozen_node
class SysState:
    """Canonical runtime form of a system: numbered parallel components,
    channel queues, and the restrictions hoisted to the top."""

    procs: tuple = ()        # of (component id, Process)
    queues: tuple = ()       # sorted tuple of (chan, tuple[Lit])
    restricted: tuple = ()   # of (chans, shared)

    def queue_map(self) -> dict:
        return dict(self.queues)

    def is_terminated(self) -> bool:
        return all(is_nil(p) for _, p in self.procs)


def to_state(s: System) -> SysState:
    procs: list = []
    queues: dict = {}
    restricted: list = []

    def walk(node: System):
        match node:
            case Proc(p):
                p = proc_canon(p)
                procs.append((len(procs), p))
            case Par(left, right):
                walk(left)
                walk(right)
            case Queue(chan, values):
                queues[chan] = tuple(values)
            case Restrict(chans, shared, scope):
                restricted.append((tuple(chans), shared))
                walk(scope)

    walk(s)
    return SysState(tuple(procs), tuple(sorted(queues.items())),
                    tuple(restricted))


def _set_queues(queues: tuple, updates: dict) -> tuple:
    qs = dict(queues)
    qs.update(updates)
    return tuple(sorted(qs.items()))


def _set_proc(procs: tuple, pid: int, p: Process) -> tuple:
    return tuple((i, proc_canon(p) if i == pid else q) for i, q in procs)


def system_steps(state: SysState, store: Store) -> list:
    """All one-step successors (component, action, state, store): the
    component that moved and its process-level label.  An output
    appends to its channel's queue and an input consumes the head; a
    session start is the requester's `req` over the actual channels."""
    out: list = []
    queues = state.queue_map()

    def queue_head(channel):
        return queues.get(channel, ())[:1]

    opens: list = []
    for pid, p in state.procs:
        for action, cont, store2 in step_process(p, store, queue_head):
            if action.kind in ("req", "acc"):
                # a lone req or acc does not fire at system level: it
                # joins a session start below
                opens.append((pid, action, cont, store2))
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

    for pid, req, cont, store2 in opens:
        if req.kind != "req":
            continue
        cohort = [o for o in opens if o[1].kind == "acc"
                  and o[1].shared == req.shared and o[0] != pid]
        roles = {acc.role for _, acc, _, _ in cohort}
        if len(cohort) != req.arity or len(roles) != len(cohort) \
                or any(len(acc.chans) != len(req.chans) for _, acc, _, _ in cohort):
            continue  # incomplete or ambiguous cohorts do not synchronize
        actuals = tuple(f"{y}@{req.shared}{len(state.restricted)}"
                        for y in req.chans)
        procs = dict(state.procs)
        new_vars = dict(store2.vars)  # keeps what the step bound (a `for` binder)
        for q, label, q_cont, q_store in [(pid, req, cont, store2)] + cohort:
            procs[q] = proc_canon(subst_process(
                q_cont, cmap=dict(zip(label.chans, actuals))))
            new_vars.update((k, v) for k, v in q_store.vars.items()
                            if store.vars.get(k) != v)
        new_state = SysState(tuple(procs.items()),
                             _set_queues(state.queues, dict.fromkeys(actuals, ())),
                             state.restricted + ((actuals, req.shared),))
        sessions = {**store2.sessions, req.shared: actuals}
        out.append((pid, replace(req, chans=actuals), new_state,
                    Store(new_vars, sessions, store2.tables)))
    return out


# ----------------------------------------------------- specification stepping

def type_steps(t) -> list:
    """Head communications of a normalized pseudo-type: a list of
    (polarity, channel, sort, continuation)."""
    out: list = []
    match t:
        case TEnd():
            return []
        case TInternal(branches):
            return [("out", b.channel, b.sort, b.cont) for b in branches]
        case TExternal(branches):
            return [("in", b.channel, b.sort, b.cont) for b in branches]
        case TIter(body):
            for pol, chan, sort, cont in type_steps(body):
                out.append((pol, chan, sort, cont))                  # once
                out.append((pol, chan, sort, TSeq(cont, t)))         # unfold
            return out
        case TSeq(first, second):
            for pol, chan, sort, cont in type_steps(first):
                out.append((pol, chan, sort, TSeq(cont, second)))
            if isinstance(first, TIter):
                # the loop may be skipped on an input of the continuation
                for pol, chan, sort, cont in type_steps(second):
                    if pol == "in":
                        out.append((pol, chan, sort, cont))
            return out
    raise TypeError(f"not a pseudo-type: {t!r}")


def step_spec(delta: SpecEnv, domains: DomainDecl = EMPTY_DOMAINS,
              init_chans: dict | None = None) -> list:
    """All one-step successors (SpecLabel, SpecEnv), working up to
    normal forms of the session pseudo-types."""
    out: list = []
    queues = delta.queue_map()
    sessions = {k: normal_form(t, domains) for k, t in delta.sessions}
    shared = delta.shared_map()

    for key, t in sessions.items():
        chans, role = key
        for pol, chan, sort, cont in type_steps(t):
            new_sessions = dict(sessions)
            new_sessions[key] = normal_form(cont, domains)
            if chan in queues:
                if pol == "out":
                    new_queues = dict(queues)
                    new_queues[chan] = queues[chan] + (sort,)
                    out.append((SpecLabel("tau", role=role, channel=chan,
                                          sort=sort, comm=("out", chan, sort)),
                                SpecEnv.make(shared, new_sessions, new_queues)))
                else:
                    q = queues[chan]
                    if q and q[0] == sort:
                        new_queues = dict(queues)
                        new_queues[chan] = q[1:]
                        out.append((SpecLabel("tau", role=role, channel=chan,
                                              sort=sort, comm=("in", chan, sort)),
                                    SpecEnv.make(shared, new_sessions, new_queues)))
            else:
                kind = "out" if pol == "out" else "in"
                out.append((SpecLabel(kind, role=role, channel=chan, sort=sort),
                            SpecEnv.make(shared, new_sessions, queues)))

    for u, gdef in shared.items():
        hint = (init_chans or {}).get(u)
        chans = hint or tuple(f"{y}@{u}{len(delta.session_channels())}"
                              for y in gdef.params)
        g = instantiate(gdef, chans)
        parts = participants_ordered(g)
        if any(set(chans) & set(k[0]) for k in sessions):
            continue
        projections = {}
        for p in parts:
            try:
                projections[p] = normal_form(project(g, p), domains)
            except NonProjectable:
                continue
        # TReq / TAcc: a single endpoint joins (only its own projection
        # needs to exist)
        for p, proj in projections.items():
            kind = "req" if p == parts[0] else "acc"
            new_sessions = dict(sessions)
            new_sessions[(chans, p)] = proj
            out.append((SpecLabel(kind, shared=u, role=p, chans=chans),
                        SpecEnv.make(shared, new_sessions, queues)))
        # TInit: the whole session starts, queues included
        if len(projections) == len(parts):
            new_sessions = dict(sessions)
            for p in parts:
                new_sessions[(chans, p)] = projections[p]
            new_queues = dict(queues)
            for y in chans:
                new_queues[y] = ()
            out.append((SpecLabel("tau", shared=u, chans=chans),
                        SpecEnv.make(shared, new_sessions, new_queues)))
    return out


# ------------------------------------------------------ conditional simulation

@frozen_node
class Holds:
    states: int

    def holds(self) -> bool:
        return True


@frozen_node
class Counterexample:
    trace: tuple
    action: object
    reason: str

    def holds(self) -> bool:
        return False


def conditional_simulation(system: System | SysState, store: Store,
                           delta: SpecEnv, domains: DomainDecl = EMPTY_DOMAINS,
                           depth: int = 40) -> Holds | Counterexample:
    """Bounded check that the specification conditionally simulates the
    system: inputs must be answered for well-sorted payloads only, all
    other actions must be matched.  Communications are matched one to
    one (session starts against session starts, queue operations
    against queue operations on the same channel), which instantiates
    the tau-closure of the simulation clauses without chasing the
    specification's unbounded freedom to open unrelated sessions."""
    from collections import deque

    state = system if isinstance(system, SysState) else to_state(system)
    visited: set = set()
    frontier = deque([(state, store, frozenset([delta]), (), depth)])
    explored = 0
    while frontier:
        state, store, candidates, trace, fuel = frontier.popleft()
        if fuel <= 0:
            continue
        key = (state, store.key(), candidates)
        if key in visited:
            continue
        visited.add(key)
        explored += 1
        for _, action, state2, store2 in system_steps(state, store):
            answers = set()
            for d in candidates:
                answers |= _spec_answers(d, action, domains)
            if not answers:
                return Counterexample(trace, action,
                                      f"specification offers no matching step "
                                      f"for {action}")
            if action.kind == "in" and action.value is not None:
                sorts = {s.sort for s, _ in answers if s.sort is not None}
                if sorts and action.value.sort not in sorts:
                    # ill-sorted input: the pair needs no continuation
                    continue
                survivors = frozenset(d for s, d in answers
                                      if s.sort in (None, action.value.sort))
            else:
                survivors = frozenset(d for _, d in answers)
            frontier.append((state2, store2, survivors,
                             trace + (action,), fuel - 1))
    return Holds(explored)


def _init_hint(action: Label) -> dict | None:
    if action.kind == "req" and action.chans:
        return {action.shared: action.chans}
    return None


def _spec_answers(d: SpecEnv, action: Label, domains: DomainDecl) -> set:
    """Spec steps matching one system action, as (spec label, successor)."""
    out = set()
    for label, d2 in step_spec(d, domains, _init_hint(action)):
        if action.kind in ("out", "in"):
            pol = action.kind
            if label.comm is not None:
                lpol, lchan, _ = label.comm
                if lpol == pol and lchan == action.channel:
                    if pol == "in" or label.sort == action.value.sort:
                        out.add((label, d2))
            elif label.kind == pol and label.channel == action.channel:
                if pol == "in" or label.sort == action.value.sort:
                    out.add((label, d2))
        elif action.kind == "req":
            if label.kind == "tau" and label.shared == action.shared:
                out.add((label, d2))
            if label.kind == "req" and label.shared == action.shared:
                out.add((label, d2))
        elif action.kind == "acc":
            if label.kind == "acc" and label.shared == action.shared \
                    and label.role == action.role:
                out.add((label, d2))
    if action.kind == "tau":
        # a purely administrative system step (loop bookkeeping) is
        # answered by the specification staying put; session starts and
        # communications are handled by their own action kinds
        out.add((SpecLabel("tau"), d))
    return out
