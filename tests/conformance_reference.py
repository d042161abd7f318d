"""The paper's specification semantics, kept as a test oracle.

No request reaches these: `cover` and `wsi` decide by the covering
product of `wsi`, whose projection peers step by `semantics.type_steps`.
The tests check the system semantics and the typing against them:

- `step_spec`, the specification stepper.  Specification steps rewrite
  normalized session pseudo-types; queue-mediated steps are silent but
  record the communication they perform (`SpecLabel.comm`), which is
  what system communications are matched against.  The subject-reduction
  fuzzer (srcheck.py, acceptance criterion 5) and test_cover.py's replay
  of witnesses step by it;
- `conditional_simulation`, the bounded check that a specification
  conditionally simulates a system (acceptance criterion 6);
- `consistent`, the consistency relation between a store, a sort
  environment, an assumption and a specification (criterion 5).
"""

from __future__ import annotations

from collections import deque

from chorus_wsi.guards import (
    DomainDecl, EMPTY_DOMAINS, EvalError, Store, Undefined, eval_expr,
)
from chorus_wsi.projection import NonProjectable, participants_ordered, project
from chorus_wsi.pseudotype import normal_form
from chorus_wsi.semantics import Label, SysState, system_steps, to_state, type_steps
from chorus_wsi.syntax.ast import (
    BOOL, Expr, PseudoType, Sort, System, TEnd, TExternal, TInternal, TIter,
    TSeq, frozen_node,
)
from chorus_wsi.typecheck import SpecEnv, instantiate


# ----------------------------------------------------- specification stepping

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


def session_channels(delta: SpecEnv) -> frozenset:
    """The channels of every session of `delta`."""
    return frozenset(y for (chans, _), _ in delta.sessions for y in chans)


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
        chans = hint or tuple(f"{y}@{u}{len(session_channels(delta))}"
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


# -------------------------------------------------------------- consistency

def _cons_expr(e: Expr, store: Store) -> bool:
    """true, or undefined, counts as consistent."""
    try:
        v = eval_expr(e, store)
    except Undefined:
        return True
    except EvalError:
        return False
    return v.sort == BOOL and bool(v.value)


def _cons_type(store: Store, t: PseudoType) -> bool:
    match t:
        case TEnd(g):
            return _cons_expr(g, store)
        case TSeq(first, second):
            return _cons_type(store, first) and _cons_type(store, second)
        case TIter(body):
            return _cons_type(store, body)
        case TInternal(branches):
            return any(_cons_expr(b.guard, store) and _cons_type(store, b.cont)
                       for b in branches)
        case TExternal(branches):
            return all(_cons_expr(b.guard, store) and _cons_type(store, b.cont)
                       for b in branches)
    raise TypeError(f"not a pseudo-type: {t!r}")


def consistent(store: Store, gamma: dict, e: Expr, delta: SpecEnv) -> tuple:
    """The four consistency clauses; returns (ok, list of failures)."""
    problems = []
    bound = store.domain() | frozenset(
        y for chans in store.sessions.values() for y in chans)
    missing = (session_channels(delta) | set(delta.queue_map()) | set(gamma)) - bound
    if missing:
        problems.append(f"store does not bind {sorted(missing)}")
    for x, sort in gamma.items():
        v = store.vars.get(x)
        if v is not None and v.sort != sort:
            problems.append(f"{x} has sort {v.sort}, expected {sort}")
    try:
        if not bool(eval_expr(e, store).value):
            problems.append("assumption evaluates to false")
    except EvalError as exc:
        problems.append(f"assumption not evaluable: {exc}")
    for (chans, role), t in delta.sessions:
        if not _cons_type(store, t):
            problems.append(f"store inconsistent with session ({role}) type")
    return (not problems, problems)
