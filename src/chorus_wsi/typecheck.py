"""Specification environments and the guard-sensitive typing engine.

The typing rules are checking rules; this engine synthesizes the
specification bottom-up (every Request/Accept rule quantifies over
"some pseudo-type whose guard erasure matches the projection", and
synthesis followed by one equality check decides that quantifier).
Synthesized pseudo-types carry the judgement assumption as guards, so
an unsatisfiable assumption collapses every session to a false-guarded
end and unreachable code is visibly dead.

Failures raise TypingError carrying the violated rule name and the
path into the term, so a rejection like the ATM's deny-all bank reads
"VSend against an internal choice with 2 live branches".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .guards import (
    DomainDecl, EMPTY_DOMAINS, EvalError, Store, Undefined, eval_expr,
    is_unsat, list_condition_satisfiable,
)
from .projection import (
    NonProjectable, channel_sorts, participants_ordered, project,
)
from .pseudotype import NotMergeable, merge, normal_form, normalize, remove_guards
from .syntax.ast import (
    Accept, BOOL, Branch, Expr, For, GBranch, GChoice, GEnd, GIter, GSeq,
    GlobalDef, GlobalType, If, INT, ListLit, Par, Proc, Process,
    PseudoType, Queue, Range, RepeatUntil, Request, Restrict, Send, Seq,
    Sort, System, TBranch, TEnd, TExternal, TInternal, TIter, TRUE, TSeq,
    UnOp, Var, BinOp, Const, conj, fn, neg, pt_vars,
)


class TypingError(Exception):
    """A typing failure: rule name, path into the term, explanation."""

    def __init__(self, rule: str, message: str, path: tuple = ()):
        where = " / ".join(path) or "<top>"
        super().__init__(f"{rule}: {message} (at {where})")
        self.rule = rule
        self.message = message
        self.path = path

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": list(self.path), "message": self.message}


# ------------------------------------------------------------- environments

@dataclass(frozen=True)
class SpecEnv:
    """A specification: shared names to global types, participant
    sessions to pseudo-types, session channels to queues of sorts."""

    shared: tuple = ()    # sorted tuple of (name, GlobalDef)
    sessions: tuple = ()  # tuple of ((chans, role), PseudoType)
    queues: tuple = ()    # sorted tuple of (chan, tuple[Sort])

    @classmethod
    def make(cls, shared=None, sessions=None, queues=None) -> "SpecEnv":
        env = cls(
            tuple(sorted((shared or {}).items())),
            tuple((sessions or {}).items()),
            tuple(sorted((queues or {}).items())),
        )
        env.check_sanity()
        return env

    def shared_map(self) -> dict:
        return dict(self.shared)

    def session_map(self) -> dict:
        return dict(self.sessions)

    def queue_map(self) -> dict:
        return dict(self.queues)

    def check_sanity(self):
        keys = [k for k, _ in self.sessions]
        if len(set(keys)) != len(keys):
            raise TypingError("sanity", "duplicate session key")
        for i, (chans1, _) in enumerate(keys):
            for chans2, _ in keys[i + 1:]:
                if set(chans1) & set(chans2) and chans1 != chans2:
                    raise TypingError(
                        "sanity", f"channel tuples {chans1} and {chans2} overlap "
                        "without being equal")

    def session_channels(self) -> frozenset:
        out = set()
        for (chans, _), _ in self.sessions:
            out |= set(chans)
        return frozenset(out)


def independent(d1: SpecEnv, d2: SpecEnv) -> bool:
    if d1.shared != d2.shared:
        return False
    if set(d1.queue_map()) & set(d2.queue_map()):
        return False
    for (chans1, p1), _ in d1.sessions:
        for (chans2, p2), _ in d2.sessions:
            if set(chans1) & set(chans2):
                if chans1 != chans2 or p1 == p2:
                    return False
    return True


def env_union(d1: SpecEnv, d2: SpecEnv) -> SpecEnv:
    if not independent(d1, d2):
        raise TypingError("VPar", "environments are not independent")
    sessions = d1.session_map()
    sessions.update(d2.session_map())
    queues = d1.queue_map()
    queues.update(d2.queue_map())
    return SpecEnv.make(d1.shared_map(), sessions, queues)


def env_restrict(d: SpecEnv, chans) -> SpecEnv:
    """Delta |_{-chans}: drop sessions and queues over the given names."""
    chans = set(chans)
    sessions = {k: t for k, t in d.sessions if not (set(k[0]) & chans)}
    queues = {y: q for y, q in d.queues if y not in chans}
    return SpecEnv.make(d.shared_map(), sessions, queues)


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
    missing = (delta.session_channels() | set(delta.queue_map()) | set(gamma)) - bound
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


# ------------------------------------------------------------- sort inference

def gamma_from_domains(domains: DomainDecl) -> dict:
    out = {}
    for var, values in domains.domains.items():
        out[var] = next(iter(values)).sort
    return out


def infer_sort(e: Expr, gamma: dict, domains: DomainDecl,
               path: tuple = ()) -> Sort:
    match e:
        case Var(name):
            if name not in gamma:
                raise TypingError("sort", f"unbound variable {name!r}", path)
            return gamma[name]
        case Const(value):
            return value.sort
        case BinOp(op, left, right):
            ls = infer_sort(left, gamma, domains, path)
            rs = infer_sort(right, gamma, domains, path)
            if op in ("and", "or"):
                _need(ls, BOOL, op, path)
                _need(rs, BOOL, op, path)
                return BOOL
            if op in ("=", "!="):
                if ls != rs:
                    raise TypingError("sort", f"{op} compares {ls} with {rs}", path)
                return BOOL
            _need(ls, INT, op, path)
            _need(rs, INT, op, path)
            return BOOL if op in ("<", "<=", ">", ">=") else INT
        case UnOp("not", arg):
            _need(infer_sort(arg, gamma, domains, path), BOOL, "not", path)
            return BOOL
        case UnOp("-", arg):
            _need(infer_sort(arg, gamma, domains, path), INT, "-", path)
            return INT
        case UnOp("hd", arg):
            s = infer_sort(arg, gamma, domains, path)
            if s.kind != "List":
                raise TypingError("sort", f"hd of non-list {s}", path)
            return s.elem
        case UnOp("tl", arg):
            s = infer_sort(arg, gamma, domains, path)
            if s.kind != "List":
                raise TypingError("sort", f"tl of non-list {s}", path)
            return s
        case UnOp(op, arg):
            table = domains.tables.get(op)
            if table is None:
                raise TypingError("sort", f"unknown operator or table {op!r}", path)
            _need(infer_sort(arg, gamma, domains, path), table.arg_sort, op, path)
            return table.ret_sort
        case ListLit(items):
            sorts = {infer_sort(i, gamma, domains, path) for i in items}
            if len(sorts) > 1:
                raise TypingError("sort", "mixed-sort list literal", path)
            from .syntax.ast import UNIT, list_sort
            return list_sort(next(iter(sorts)) if sorts else UNIT)
        case Range(lo, hi):
            _need(infer_sort(lo, gamma, domains, path), INT, "range", path)
            _need(infer_sort(hi, gamma, domains, path), INT, "range", path)
            from .syntax.ast import list_sort
            return list_sort(INT)
    raise TypeError(f"not an expression: {e!r}")


def _need(actual: Sort, wanted: Sort, what: str, path: tuple):
    if actual != wanted:
        raise TypingError("sort", f"{what}: expected {wanted}, got {actual}", path)


# ----------------------------------------------------------- typing engine

def instantiate(gdef: GlobalDef, chans: tuple) -> GlobalType:
    """The global type with its channel parameters replaced by chans."""
    if len(gdef.params) != len(chans):
        raise TypingError(
            "VReq", f"global {gdef.name} has {len(gdef.params)} session "
            f"channels, got {len(chans)}")
    mapping = dict(zip(gdef.params, chans))

    def walk(node):
        match node:
            case GEnd():
                return node
            case GChoice(sender, branches):
                return GChoice(sender, tuple(
                    GBranch(b.receiver, mapping.get(b.channel, b.channel),
                            b.sort, walk(b.cont)) for b in branches))
            case GSeq(first, second):
                return GSeq(walk(first), walk(second))
            case GIter(body, controller, term):
                return GIter(walk(body), controller, tuple(
                    (p, mapping.get(c, c), d) for p, c, d in term))

    return walk(gdef.body)


@dataclass
class _Ctx:
    gamma: dict
    assumption: Expr
    shared: dict              # u -> GlobalDef
    domains: DomainDecl
    chans: dict = field(default_factory=dict)  # chan -> (session key, sort)
    path: tuple = ()

    def at(self, step: str) -> "_Ctx":
        return _Ctx(self.gamma, self.assumption, self.shared, self.domains,
                    self.chans, self.path + (step,))

    def with_gamma(self, extra: dict) -> "_Ctx":
        g = dict(self.gamma)
        g.update(extra)
        return _Ctx(g, self.assumption, self.shared, self.domains,
                    self.chans, self.path)

    def with_assumption(self, e: Expr) -> "_Ctx":
        return _Ctx(self.gamma, e, self.shared, self.domains, self.chans, self.path)

    def with_session(self, key: tuple, sorts: dict) -> "_Ctx":
        chans = dict(self.chans)
        for y, d in sorts.items():
            chans[y] = (key, d)
        return _Ctx(self.gamma, self.assumption, self.shared, self.domains,
                    chans, self.path)

    def chan(self, y: str, rule: str):
        if y not in self.chans:
            raise TypingError(rule, f"channel {y!r} is not bound by any open "
                              "session", self.path)
        return self.chans[y]

    def err(self, rule: str, message: str) -> TypingError:
        return TypingError(rule, message, self.path)


def _pad(sessions: dict, keys) -> dict:
    # a session absent on one side behaves as a guarded end there; the
    # normalization in the caller supplies the branch assumption
    out = dict(sessions)
    for k in keys:
        out.setdefault(k, TEnd(TRUE))
    return out


def _seq_sessions(s1: dict, s2: dict) -> dict:
    out = {}
    for k in set(s1) | set(s2):
        if k in s1 and k in s2:
            out[k] = TSeq(s1[k], s2[k])
        else:
            out[k] = s1.get(k) or s2[k]
    return out


def _synth_process(ctx: _Ctx, p: Process) -> dict:
    """Synthesize the session map of the minimal specification."""
    e = ctx.assumption
    match p:
        case Branch(arms) if not arms:  # VEnd
            return {}
        case Send(y, payload):  # VSend
            key, want = ctx.chan(y, "VSend")
            got = infer_sort(payload, ctx.gamma, ctx.domains, ctx.path)
            if got != want:
                raise ctx.err("VSend", f"payload on {y!r} has sort {got}, "
                              f"channel carries {want}")
            return {key: TInternal((TBranch(e, y, want, TEnd(e)),))}
        case Branch(arms):  # VRcv
            keys = {ctx.chan(a.channel, "VRcv")[0] for a in arms}
            if len(keys) != 1:
                raise ctx.err("VRcv", "branch mixes channels of different sessions")
            key = next(iter(keys))
            branches = []
            rest: dict | None = None
            for a in arms:
                _, sort = ctx.chan(a.channel, "VRcv")
                inner = _synth_process(
                    ctx.with_gamma({a.binder: sort}).at(f"arm {a.channel}"), a.cont)
                t = inner.pop(key, TEnd(e))
                if rest is None:
                    rest = inner
                elif rest != inner:
                    raise ctx.err("VRcv", "arms disagree on other sessions")
                branches.append(TBranch(e, a.channel, sort, t))
            out = dict(rest or {})
            out[key] = TExternal(tuple(branches))
            return out
        case Seq(first, second):  # VSeq
            s1 = _synth_process(ctx.at("seq-left"), first)
            s2 = _synth_process(ctx.at("seq-right"), second)
            return _seq_sessions(s1, s2)
        case If(cond, then, orelse):  # VIf
            sort = infer_sort(cond, ctx.gamma, ctx.domains, ctx.path)
            if sort != BOOL:
                raise ctx.err("VIf", f"condition has sort {sort}, expected Bool")
            e_then = conj(e, cond)
            e_else = conj(e, neg(cond))
            for name, cond_e in (("then", e_then), ("else", e_else)):
                if is_unsat(cond_e, ctx.domains):
                    raise ctx.err("VIf", f"assumption for the {name}-branch is "
                                  "inconsistent")
            s1 = _synth_process(ctx.with_assumption(e_then).at("then"), then)
            s2 = _synth_process(ctx.with_assumption(e_else).at("else"), orelse)
            keys = set(s1) | set(s2)
            s1 = _pad(s1, keys)
            s2 = _pad(s2, keys)
            out = {}
            for k in keys:
                try:
                    out[k] = merge(normalize(e_then, s1[k], ctx.domains),
                                   normalize(e_else, s2[k], ctx.domains),
                                   ctx.domains)
                except NotMergeable as exc:
                    raise ctx.err("VIf", f"branch types not mergeable: {exc}")
            return out
        case For(binder, items, body):  # VFor / VForEnd
            sort = infer_sort(items, ctx.gamma, ctx.domains, ctx.path)
            if sort.kind != "List":
                raise ctx.err("VFor", f"iterating over non-list {sort}")
            try:
                can_run = list_condition_satisfiable(e, items, True, ctx.domains)
            except EvalError as exc:
                raise ctx.err("VFor", f"cannot decide emptiness of the list: {exc}")
            if not can_run:
                return {}  # VForEnd: the loop is provably skipped
            inner = ctx.with_gamma({binder: sort.elem}).at("for-body")
            sessions = _synth_process(inner, body)
            for k, t in sessions.items():
                if not isinstance(normal_form(t, ctx.domains), TInternal):
                    raise ctx.err("VFor", f"loop body for session {k[1]} is not "
                                  "active (must start with an output choice)")
                if binder in pt_vars(t):
                    raise ctx.err("VFor", f"guards depend on the iteration "
                                  f"variable {binder!r}")
            return {k: TIter(t) for k, t in sessions.items()}
        case RepeatUntil(body, exit):  # VLoop
            s1 = _synth_process(ctx.at("repeat-body"), body)
            s2 = _synth_process(ctx.at("until"), exit)
            if set(s1) != set(s2) or len(s1) != 1:
                raise ctx.err("VLoop", "repeat and until must use exactly one "
                              "common session")
            (key,) = s1
            t1, t2 = s1[key], s2[key]
            if not (isinstance(t1, TExternal) and isinstance(t2, TExternal)):
                raise ctx.err("VLoop", "repeat body and until guard must be "
                              "input choices")
            if {b.channel for b in t1.branches} & {b.channel for b in t2.branches}:
                raise ctx.err("VLoop", "repeat body and until guard must use "
                              "disjoint channels (passive compatibility)")
            return {key: TSeq(TIter(t1), t2)}
        case Request() | Accept():  # VReq / VAcc
            return _synth_open(ctx, p)
    raise TypeError(f"not a process: {p!r}")


def _open_session(ctx: _Ctx, p: Request | Accept) -> tuple:
    """VReq/VAcc up to the session body: (rule, gdef, g, key, body context)."""
    rule = "VAcc" if isinstance(p, Accept) else "VReq"
    gdef = ctx.shared.get(p.shared)
    if gdef is None:
        raise ctx.err(rule, f"shared name {p.shared!r} has no global type")
    g = instantiate(gdef, p.chans)
    parts = participants_ordered(g)
    if isinstance(p, Request):
        if not parts:
            raise ctx.err(rule, f"{gdef.name} has no participant to request")
        role = parts[0]
        if p.arity != len(parts) - 1:
            raise ctx.err(rule, f"request arity {p.arity}, but {gdef.name} has "
                          f"{len(parts) - 1} other participants")
    else:
        role = p.role
        if role not in parts:
            raise ctx.err(rule, f"{role!r} is not a participant of {gdef.name}")
        if role == parts[0]:
            raise ctx.err(rule, f"role {role!r} initiates {gdef.name} and must "
                          "request, not accept")
    key = (tuple(p.chans), role)
    inner = ctx.with_session(key, channel_sorts(g))
    return rule, gdef, g, key, inner.at(f"{rule.lower()} {p.shared}[{role}]")


def _synth_open(ctx: _Ctx, p: Request | Accept) -> dict:
    rule, gdef, g, key, inner = _open_session(ctx, p)
    role = key[1]
    sessions = _synth_process(inner, p.cont)
    t = sessions.pop(key, TEnd(ctx.assumption))
    for other_key in sessions:
        if set(other_key[0]) & set(p.chans):
            raise ctx.err(rule, "session channels leak into an enclosing session")
    try:
        expected = project(g, role)
    except NonProjectable as exc:
        raise ctx.err(rule, f"{gdef.name} is not projectable on {role!r}: {exc}")
    got_local = remove_guards(normal_form(t, ctx.domains))
    want_local = remove_guards(normal_form(expected, EMPTY_DOMAINS))
    _match_local(got_local, want_local, ctx.at(f"session of {role}"))
    return sessions


# ----------------------------------------------- local-type conformance check

def _head_rule(t: PseudoType) -> str:
    match t:
        case TInternal(_):
            return "VSend"
        case TExternal(_):
            return "VRcv"
        case TEnd():
            return "VEnd"
        case TIter(_) | TSeq(_, _):
            return "VLoop"
    return "V?"


def _match_local(got: PseudoType, want: PseudoType, ctx: _Ctx):
    """Compare guard-erased session behaviour against the projection."""
    match (got, want):
        case (TEnd(), TEnd()):
            return
        case (TInternal(gb), TInternal(wb)):
            gmap = {b.channel: b for b in gb}
            wmap = {b.channel: b for b in wb}
            if set(gmap) - set(wmap):
                raise ctx.err("VSend", "process outputs on "
                              f"{sorted(set(gmap) - set(wmap))}, which the "
                              "specification does not allow")
            if set(wmap) - set(gmap):
                raise ctx.err(
                    "VSend", f"VSend against an internal choice with "
                    f"{len(wb)} live branches: the process only ever sends on "
                    f"{sorted(gmap)}, the specification also allows "
                    f"{sorted(set(wmap) - set(gmap))}")
            for chan, b in gmap.items():
                w = wmap[chan]
                if b.sort != w.sort:
                    raise ctx.err("VSend", f"payload on {chan!r} has sort "
                                  f"{b.sort}, specification says {w.sort}")
                _match_local(b.cont, w.cont, ctx.at(f"!{chan}"))
            return
        case (TExternal(gb), TExternal(wb)):
            gmap = {b.channel: b for b in gb}
            wmap = {b.channel: b for b in wb}
            if set(gmap) != set(wmap):
                raise ctx.err(
                    "VRcv", f"process offers inputs on {sorted(gmap)}, "
                    f"specification requires {sorted(wmap)}")
            for chan, b in gmap.items():
                w = wmap[chan]
                if b.sort != w.sort:
                    raise ctx.err("VRcv", f"binder on {chan!r} has sort "
                                  f"{b.sort}, specification says {w.sort}")
                _match_local(b.cont, w.cont, ctx.at(f"?{chan}"))
            return
        case (TSeq(g1, g2), TSeq(w1, w2)):
            _match_local(g1, w1, ctx.at("loop"))
            _match_local(g2, w2, ctx.at("after-loop"))
            return
        case (TIter(g1), TIter(w1)):
            _match_local(g1, w1, ctx.at("loop-body"))
            return
    raise ctx.err(_head_rule(got),
                  f"{_describe(got)} where the specification expects "
                  f"{_describe(want)}")


def _describe(t: PseudoType) -> str:
    match t:
        case TEnd():
            return "the process stops"
        case TInternal(bs):
            return f"an output on {sorted({b.channel for b in bs})}"
        case TExternal(bs):
            return f"an input on {sorted({b.channel for b in bs})}"
        case TIter(_):
            return "an iteration"
        case TSeq(_, _):
            return "an iteration followed by a continuation"
    return "?"


# ------------------------------------------------------------- entry points

def typecheck_process(gamma: dict, e: Expr, p: Process, shared: dict,
                      domains: DomainDecl = EMPTY_DOMAINS,
                      session: tuple | None = None) -> SpecEnv:
    """Synthesize the minimal specification validating Gamma; e |- P.

    For an open process term whose session channels are already bound,
    `session` is ((chans, role), chan->sort); that session's synthesized
    pseudo-type stays in the result instead of being checked against a
    projection."""
    ctx = _Ctx(dict(gamma), e, dict(shared), domains)
    if session is not None:
        key, sorts = session
        ctx = ctx.with_session((tuple(key[0]), key[1]), dict(sorts))
    sessions = _synth_process(ctx, p)
    return SpecEnv.make(dict(shared), sessions, {})


def session_type_of(gamma: dict, e: Expr, p: Process, shared: dict,
                    domains: DomainDecl = EMPTY_DOMAINS) -> tuple:
    """For a request- or accept-rooted process, the session key and the
    synthesized pseudo-type of its body (the T of the VReq/VAcc premiss,
    before the projection equation is checked)."""
    if not isinstance(p, (Request, Accept)):
        raise TypingError("VReq", "process does not open a session at its root")
    _, _, _, key, inner = _open_session(_Ctx(dict(gamma), e, dict(shared), domains), p)
    sessions = _synth_process(inner, p.cont)
    return key, sessions.pop(key, TEnd(e))


def typecheck_system(gamma: dict, e: Expr, s: System, shared: dict,
                     domains: DomainDecl = EMPTY_DOMAINS) -> SpecEnv:
    ctx = _Ctx(dict(gamma), e, dict(shared), domains)
    return _synth_system(ctx, s)


def _synth_system(ctx: _Ctx, s: System) -> SpecEnv:
    match s:
        case Proc(p):
            return SpecEnv.make(ctx.shared, _synth_process(ctx, p), {})
        case Par(left, right):  # VPar
            d1 = _synth_system(ctx.at("par-left"), left)
            d2 = _synth_system(ctx.at("par-right"), right)
            if not independent(d1, d2):
                raise ctx.err("VPar", "parallel components are not independent")
            return env_union(d1, d2)
        case Queue(chan, values):  # VQueue / VEmpty
            return SpecEnv.make(ctx.shared, {},
                                {chan: tuple(v.sort for v in values)})
        case Restrict(chans, _, scope):  # VNew
            inner = _synth_system(ctx.at("new"), scope)
            return env_restrict(inner, chans)
    raise TypeError(f"not a system: {s!r}")


# --------------------------------------------------------------- unique role

def unique_role(p: Process, u: str, role: str, role0: str | None = None) -> bool:
    """Does p uniquely play the given role in sessions on u?"""
    match p:
        case Request(shared, _, _, cont):
            return (shared == u and u not in fn(cont)
                    and (role0 is None or role == role0))
        case Accept(shared, r, _, cont):
            return shared == u and r == role and u not in fn(cont)
        case Branch(arms):
            # the idle process 0 never plays the role
            return bool(arms) and all(unique_role(a.cont, u, role, role0)
                                      for a in arms)
        case If(_, then, orelse):
            return (unique_role(then, u, role, role0)
                    and unique_role(orelse, u, role, role0))
        case Seq(first, second):
            if unique_role(first, u, role, role0) and u not in fn(second):
                return True
            return unique_role(second, u, role, role0) and u not in fn(first)
        case RepeatUntil(body, exit):
            return unique_role(exit, u, role, role0) and u not in fn(body)
        case Send() | For():
            return False
    raise TypeError(f"not a process: {p!r}")
