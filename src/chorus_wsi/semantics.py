"""The process and system labelled transition systems, and the head
steps of a session pseudo-type.

Process steps carry conditional labels <e>alpha; the guard records the
conjunction of the conditions taken by if-statements on the way to the
action.  System steps resolve communication against per-channel queues
(send appends, receive consumes the head).  Only `step_process` decides
which process can open a session: a session start joins one component's
`req` step with `arity` `acc` steps of other components on the same
shared name, with pairwise-distinct roles and as many channels as the
request, and each such choice among the ready acceptors, taken in
component order, is a start of its own.  Each component keeps a
session map, as typing's context and covering's product state do:
pairs of a channel name it opened and the actual channel `y@u<n>` (n
counts the sessions opened).  A session start maps its label's
channels to fresh actuals in the map of the requester and of each
acceptor and pushes their continuations as they are; an input reads
the queue of the actual channel its name maps to, and an input or
output is reported over that channel.  The store is the requester's
step store (a `for` binder stays bound) plus the acceptors' bindings,
and binds no channel, since the session maps do; the label is the
requester's over the actuals, guard kept.

The map holds for the rest of the stack too, so a session binder must
differ from every free name that follows it.  The parser's freshening
makes it so: it renames a binder that meets a name in scope, so a
nested open that would rebind its session's names gets fresh ones
(`request u[1](a). { request v[1](a). a!(1) ; a!(2) }` reads as
`... v[1](a_2). a_2!(1) ; a!(2)`).  A later open of the same names,
the next round of a loop, comes after the terms of the earlier session
and remaps them, and each session's own actuals keep its queues apart
from every other session's, whatever names the store holds.  A system
step is reported as the component that moved and its process-level
label, which is all that `chorus-wsi simulate` reads.  Covering's
search (`wsi`) steps the checked process by `step_process` and its
peers' projections by `type_steps`.  The
specification stepper and the conditional simulation checker that the
tests hold these against are in tests/conformance_reference.py.

Structural congruence is applied as a normalization to canonical form
(flattened parallel components, restrictions hoisted) rather than
searched.  Sequential composition is associative with the idle process
0 as its unit, so a running process is kept as its stack (`push`): the
tuple of the terms still to run, head first, none of them a `Seq` or 0.
Two processes equal up to those laws have one stack, and the process
has ended when its stack is empty.  A step steps the head: a prefix
pushes its continuation onto the rest, an `if` branch or a `for`
iteration is stepped as a stack run before the rest, and a loop puts
itself back.  An `if` whose branch is idle, and a `for` iteration whose
body is, steps silently into the rest (`<guard>tau`), as a `for` over
an empty list does.  A `for` puts back the rest of its list, and the
rest of a range `lo..hi` is the range of constants `lo+1..hi`, so
stepping a range builds no list.
"""

from __future__ import annotations

from itertools import combinations

from .guards import SortMismatch, Store, eval_expr, range_bounds
from .syntax.ast import (
    Accept, Branch, Const, Expr, For, If, Lit, Par, Proc, Process, Queue,
    Range, RepeatUntil, Request, Restrict, Send, Seq, System, TBranch, TEnd,
    TExternal, TInternal, TIter, TRUE, TSeq, conj, frozen_node, int_lit,
    is_nil, is_true, neg, replace,
)
from .syntax.printer import render_expr


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
        return body if is_true(self.guard) else f"<{render_expr(self.guard)}>{body}"


# --------------------------------------------------------- process stepping

def push(p: Process, rest: tuple = ()) -> tuple:
    """The stack of `p ; rest`: the terms of p's sequential spine, head
    first, with every `Seq` flattened and every 0 dropped, on top of the
    stack rest."""
    todo, terms = [p], []
    while todo:
        p = todo.pop()
        if isinstance(p, Seq):
            todo += (p.second, p.first)
        elif not is_nil(p):
            terms.append(p)
    return (*terms, *rest)


def step_process(stack: tuple, store: Store, oracle) -> list:
    """All one-step successors (label, stack, store) of the running
    process `stack` (see `push`); `oracle(channel)` gives the values an
    input on the channel may receive."""
    if not stack:
        return []
    p, rest = stack[0], stack[1:]
    out: list = []
    match p:
        case Request(shared, arity, chans, cont):
            label = Label("req", shared=shared, arity=arity, chans=chans)
            out.append((label, push(cont, rest), store))
        case Accept(shared, role, chans, cont):
            label = Label("acc", shared=shared, role=role, chans=chans)
            out.append((label, push(cont, rest), store))
        case Send(channel, payload):
            value = eval_expr(payload, store)
            out.append((Label("out", channel=channel, value=value), rest, store))
        case Branch(arms):
            for arm in arms:
                for value in oracle(arm.channel):
                    out.append((Label("in", channel=arm.channel, value=value),
                                push(arm.cont, rest),
                                store.with_var(arm.binder, value)))
        case If(cond, then, orelse):
            test = eval_expr(cond, store)
            branch, guard = (then, cond) if test.value else (orelse, neg(cond))
            out += _enter(push(branch), rest, store, oracle, guard)
        case For(binder, items, body):
            if isinstance(items, Range):  # its rest is a range: no list is built
                lo, hi = range_bounds(items, store)
                head = lo if lo.value <= hi.value else None
                tail = Range(Const(int_lit(lo.value + 1)), Const(hi))
            else:
                value = eval_expr(items, store)
                if value.sort.kind != "List":
                    raise SortMismatch(f"iterating over non-list {value.sort}")
                head = value.value[0] if value.value else None
                tail = Const(Lit(value.sort, value.value[1:]))
            if head is None:
                out.append((Label("tau"), rest, store))
            else:
                out += _enter(push(body), (For(binder, tail, body), *rest),
                              store.with_var(binder, head), oracle)
        case RepeatUntil(body, exit):
            exit_chans = {a.channel for a in exit.arms}
            for label, cont, store2 in step_process(push(body), store, oracle):
                if label.channel in exit_chans:
                    continue
                out.append((label, cont + stack, store2))
            for label, cont, store2 in step_process(push(exit), store, oracle):
                out.append((label, cont + rest, store2))
    return out


def _enter(inner: tuple, rest: tuple, store: Store, oracle,
           guard: Expr = TRUE) -> list:
    """The steps of the stack `inner` run before rest, each under guard:
    an `if` branch or a `for` iteration.  An idle one steps silently
    into rest."""
    if not inner:
        return [(Label("tau", guard=guard), rest, store)]
    return [(label.with_guard(guard), cont + rest, store2)
            for label, cont, store2 in step_process(inner, store, oracle)]


# ---------------------------------------------------------- system stepping

@frozen_node
class SysState:
    """Canonical runtime form of a system: numbered parallel components,
    channel queues, and the restrictions hoisted to the top."""

    procs: tuple = ()        # of (component id, stack of the process,
                             #     session map: (name, actual) pairs)
    queues: tuple = ()       # sorted tuple of (chan, tuple[Lit])
    restricted: tuple = ()   # of (chans, shared)

    def queue_map(self) -> dict:
        return dict(self.queues)

    def is_terminated(self) -> bool:
        return not any(stack for _, stack, _ in self.procs)


def to_state(s: System) -> SysState:
    procs: list = []
    queues: dict = {}
    restricted: list = []

    def walk(node: System):
        match node:
            case Proc(p):
                procs.append((len(procs), push(p), ()))
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


def _set_proc(procs: tuple, pid: int, stack: tuple) -> tuple:
    return tuple((i, stack if i == pid else q, chans) for i, q, chans in procs)


def system_steps(state: SysState, store: Store) -> list:
    """All one-step successors (component, action, state, store): the
    component that moved and its process-level label.  An output
    appends to its channel's queue and an input consumes the head, each
    over the actual channel that the component's session map gives its
    channel name; a session start, one for each cohort of acceptors that
    can join the request, is the requester's `req` over the actual
    channels."""
    out: list = []
    queues = state.queue_map()
    opens: list = []
    for pid, stack, chans in state.procs:
        actual = dict(chans)

        def queue_head(channel):
            return queues.get(actual.get(channel, channel), ())[:1]

        for action, cont, store2 in step_process(stack, store, queue_head):
            if action.kind in ("req", "acc"):
                # a lone req or acc does not fire at system level: it
                # joins a session start below
                opens.append((pid, action, cont, store2))
                continue
            if action.channel in actual:
                action = replace(action, channel=actual[action.channel])
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
        ready = [o for o in opens if o[1].kind == "acc" and o[1].shared == req.shared
                 and o[0] != pid and len(o[1].chans) == len(req.chans)]
        actuals = tuple(f"{y}@{req.shared}{len(state.restricted)}"
                        for y in req.chans)
        for cohort in combinations(ready, req.arity):
            if len({acc.role for _, acc, _, _ in cohort}) != req.arity:
                continue  # two acceptors of one role do not join one session
            procs = {q: (stack, chans) for q, stack, chans in state.procs}
            new_vars = dict(store2.vars)  # keeps what the step bound (a `for` binder)
            for q, label, q_cont, q_store in [(pid, req, cont, store2), *cohort]:
                chans = {**dict(procs[q][1]), **dict(zip(label.chans, actuals))}
                procs[q] = (q_cont, tuple(chans.items()))
                new_vars.update((k, v) for k, v in q_store.vars.items()
                                if store.vars.get(k) != v)
            new_state = SysState(tuple((q, *proc) for q, proc in procs.items()),
                                 _set_queues(state.queues, dict.fromkeys(actuals, ())),
                                 state.restricted + ((actuals, req.shared),))
            out.append((pid, replace(req, chans=actuals), new_state,
                        Store(new_vars, store2.tables)))
    return out


# ------------------------------------------------------ pseudo-type stepping

def type_steps(t, once: bool = True) -> list:
    """Head communications of a normalized pseudo-type: a list of
    (polarity, channel, sort, continuation).  A loop's step continues
    into the loop again ("unfold"), or, where `once`, also into what
    follows the loop ("once").  A loop followed by a continuation that
    offers inputs and nothing else has no "once" steps: the unfolded
    step reaches the loop again, which may be skipped on each of those
    inputs, into the same continuations.  A continuation that follows
    a step with a sequel is built by `_then`, so it is in normal form
    but for its guards."""
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
                if once:
                    out.append((pol, chan, sort, cont))              # once
                out.append((pol, chan, sort, _then(cont, t)))        # unfold
            return out
        case TSeq(first, second):
            # the loop may be skipped on an input of the continuation
            skips = type_steps(second) if isinstance(first, TIter) else []
            inputs = [step for step in skips if step[0] == "in"]
            for pol, chan, sort, cont in type_steps(
                    first, not inputs or len(inputs) < len(skips)):
                out.append((pol, chan, sort, _then(cont, second)))
            return out + inputs
    raise TypeError(f"not a pseudo-type: {t!r}")


def _then(first, second):
    """`first ; second` for two normalized pseudo-types, with the shape
    of its normal form: as normalization does, it drops a leading `end`,
    pushes the sequel into the branches of a choice and reassociates a
    sequence to the right; unlike it, it conjoins no guard and prunes no
    branch, so each branch keeps its guard and `end` its own."""
    match first:
        case TEnd():
            return second
        case TInternal(branches) | TExternal(branches):
            return type(first)(tuple(
                TBranch(b.guard, b.channel, b.sort, _then(b.cont, second))
                for b in branches))
        case TSeq(loop, rest):  # a normal form's sequence starts with a loop
            return TSeq(loop, _then(rest, second))
    return TSeq(first, second)
