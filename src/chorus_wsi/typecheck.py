"""The guard-sensitive typing engine.

The typing rules are checking rules; this engine synthesizes the
specification bottom-up (every Request/Accept rule quantifies over
"some pseudo-type whose guard erasure matches the projection", and
synthesis followed by one equality check decides that quantifier).
Synthesized pseudo-types carry the judgement assumption as guards, so
an unsatisfiable assumption collapses every session to a false-guarded
end and unreachable code is visibly dead.

The specification is kept as plain maps.  Its shared names are the
`shared` argument, which no rule changes.  A process synthesizes its
session map, (chans, role) -> pseudo-type, holding only sessions whose
channels its context had bound: VReq and VAcc check and drop the
session they open.  So a process at the top of a system has an empty
session map, and a system synthesizes only its free queues, channel ->
tuple of sorts.  VPar then asks that the two sides have no free queue
in common, and VNew drops its channels from the map.

Failures raise TypingError carrying the violated rule name and the
path into the term, so a rejection like the ATM's deny-all bank reads
"VSend against an internal choice with 2 live branches".

The judgement table.  A whole-module `typecheck` judges each process and
then each system, whose components are copies of those processes with
every binder renamed by the parser.  `typecheck_process` and
`typecheck_system` take a table (a dict) that the command makes once per
request.  A session-opening process p judged under the true assumption
with no session channel in scope is looked up there by its origin (the
declared body that freshening copied it from, `p._origin`, or else p),
Gamma and the shared-name map; the entry names the `DomainDecl`.  A hit
succeeds at once and leaves no session open, as the judgement did.  Only
a success is stored: a failure is judged again, so its message names the
copy's own channels and path.

Why a copy takes its origin's judgement.  Freshening gives a copy an
origin only where it renamed none of the copy's free names (see
subst.py), so a copy is its origin renamed by a bijection s of its
binders that is the identity on free names.
`DomainDecl.from_module(module, targets)` gives each renamed variable
binder the domain of the name it was renamed from, and `typecheck`
passes every target, so s keeps each variable's declared domain.  The
rules read names in four ways, and each commutes with s: lookups in
Gamma and in the channel map, which are extended at the binders;
equality of guards and pseudo-types (merge, the arms of a receive) and
`pt_vars`, as s is a bijection; guard decisions, since whether a query
holds or raises is fixed by its set of stores over the declared domains
(see `guards`), which s maps onto those of the matching query (only
which error is raised follows the order of the variables, and a failure
is not stored); and instantiation of a global type, which puts the
channels of an open in place of the global's parameters, as a session
opens only on a global that uses no other channel (`open_problem`).
Session keys are iterated in set order, but a success handles each one
without error, whatever the order.  So a copy succeeds in the same
context exactly when its origin does.
"""

from __future__ import annotations

from .guards import (
    DomainDecl, EMPTY_DOMAINS, EvalError, Store, is_unsat,
    list_condition_satisfiable, list_length,
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
    UNIT, UnOp, Var, BinOp, Const, conj, expr_vars, fU, fn,
    g_channels, is_true, list_sort, neg, pt_vars,
)


class TypingError(Exception):
    """A typing failure: rule name, path into the term, explanation."""

    def __init__(self, rule: str, message: str, path: tuple = ()):
        where = " / ".join(path) or "<top>"
        super().__init__(f"{rule}: {message} (at {where})")
        self.rule = rule
        self.message = message
        self.path = path

    # compared, hashed and pickled by (rule, message, path), so that a
    # verdict holding one is a value like any other record; pickling by
    # `self.args`, the formatted text alone, could not rebuild it
    def __reduce__(self):
        return (self.__class__, (self.rule, self.message, self.path))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": list(self.path), "message": self.message}


# ------------------------------------------------------------- sort inference

def gamma_from_domains(domains: DomainDecl) -> dict:
    return {var: next(iter(values)).sort for var, values in domains.domains.items()}


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
            return list_sort(next(iter(sorts)) if sorts else UNIT)
        case Range(lo, hi):
            _need(infer_sort(lo, gamma, domains, path), INT, "range", path)
            _need(infer_sort(hi, gamma, domains, path), INT, "range", path)
            return list_sort(INT)
    raise TypeError(f"not an expression: {e!r}")


def _need(actual: Sort, wanted: Sort, what: str, path: tuple):
    if actual != wanted:
        raise TypingError("sort", f"{what}: expected {wanted}, got {actual}", path)


# ----------------------------------------------------------- typing engine

def exposed_channels(gdef: GlobalDef) -> frozenset:
    """The channels of gdef's body that are not its parameters; kept on
    the declaration."""
    found = gdef._exposed
    if found is None:
        found = frozenset(g_channels(gdef.body).difference(gdef.params))
        object.__setattr__(gdef, "_exposed", found)
    return found


def shared_env(gdef: GlobalDef, term) -> dict:
    """The shared environment that types `term` against `gdef`: each
    shared name of the term has the global type `gdef`."""
    return {u: gdef for u in fU(term)}


def instantiate(gdef: GlobalDef, chans: tuple) -> GlobalType:
    """The global type with its channel parameters replaced by chans:
    the declared body itself when chans are the parameters.  It raises
    nothing; `open_problem` says whether gdef uses no other channel and
    chans has one channel per parameter."""
    if chans == gdef.params:
        return gdef.body
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


class _Ctx:
    def __init__(self, gamma: dict, assumption: Expr, shared: dict,
                 domains: DomainDecl, judged: dict | None = None):
        self.gamma = gamma
        self.assumption = assumption
        self.shared = shared  # u -> GlobalDef
        self.domains = domains
        self.judged = judged  # the judgement table, or None
        self.chans = {}  # chan -> (session key, sort)
        self.path = ()

    def _but(self, **changes) -> "_Ctx":
        ctx = object.__new__(_Ctx)
        ctx.__dict__ = {**self.__dict__, **changes}
        return ctx

    def at(self, step: str) -> "_Ctx":
        return self._but(path=self.path + (step,))

    def with_gamma(self, extra: dict) -> "_Ctx":
        return self._but(gamma={**self.gamma, **extra})

    def with_assumption(self, e: Expr) -> "_Ctx":
        return self._but(assumption=e)

    def with_session(self, key: tuple, sorts: dict) -> "_Ctx":
        chans = dict(self.chans)
        for y, d in sorts.items():
            chans[y] = (key, d)
        return self._but(chans=chans)

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
    return {**dict.fromkeys(keys, TEnd(TRUE)), **sessions}


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
                try:
                    unsat = is_unsat(cond_e, ctx.domains)
                except EvalError as exc:
                    raise ctx.err("VIf", f"cannot decide the assumption for the "
                                  f"{name}-branch: {exc}")
                if unsat:
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
                except EvalError as exc:
                    raise ctx.err("VIf", f"cannot decide the branch guards: {exc}")
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


def fragment_problem(gdef: GlobalDef) -> str:
    """Why gdef is no session, as it uses channels that it does not take
    as parameters (a fragment that other globals inline), or ""."""
    kept = ", ".join(sorted(exposed_channels(gdef)))
    return kept and f"{gdef.name} uses channels that are not its parameters: {kept}"


def open_problem(gdef: GlobalDef, p: Request | Accept) -> str | None:
    """Why p breaks the side conditions of VReq or VAcc on a session of
    gdef, or None.  gdef uses no channel but its parameters, a request
    comes from gdef's first participant and names an acceptor for each
    other one, an accept comes from any other participant, and each
    names one channel per parameter of gdef.  Typing raises the reason
    under its rule, and covering gives it as the reason why no context
    joins p."""
    if problem := fragment_problem(gdef):
        return problem
    if len(p.chans) != len(gdef.params):
        return (f"global {gdef.name} has {len(gdef.params)} session channels, "
                f"got {len(p.chans)}")
    parts = participants_ordered(gdef.body)
    if isinstance(p, Request):
        if not parts:
            return f"{gdef.name} has no participant to request"
        if p.arity != len(parts) - 1:
            return (f"request arity {p.arity}, but {gdef.name} has "
                    f"{len(parts) - 1} other participants")
    elif p.role not in parts:
        return f"{p.role!r} is not a participant of {gdef.name}"
    elif p.role == parts[0]:
        return (f"role {p.role!r} initiates {gdef.name} and must request, "
                "not accept")
    return None


def _open_session(ctx: _Ctx, p: Request | Accept) -> tuple:
    """VReq/VAcc up to the session body: (rule, gdef, g, key, body context)."""
    rule = "VAcc" if isinstance(p, Accept) else "VReq"
    gdef = ctx.shared.get(p.shared)
    if gdef is None:
        raise ctx.err(rule, f"shared name {p.shared!r} has no global type")
    problem = open_problem(gdef, p)
    if problem is not None:
        raise ctx.err(rule, problem)
    g = instantiate(gdef, p.chans)
    role = p.role if isinstance(p, Accept) else participants_ordered(gdef.body)[0]
    key = (tuple(p.chans), role)
    try:  # gdef's body may use one parameter at two sorts
        inner = ctx.with_session(key, channel_sorts(g))
    except NonProjectable as exc:
        raise ctx.err(rule, f"{gdef.name} is not projectable: {exc}") from None
    return rule, gdef, g, key, inner.at(f"{rule.lower()} {p.shared}[{role}]")


def _synth_open(ctx: _Ctx, p: Request | Accept) -> dict:
    entry = None
    if ctx.judged is not None and not ctx.chans and is_true(ctx.assumption):
        entry = _table_key(p, ctx.gamma, ctx.shared)
        if ctx.judged.get(entry) is ctx.domains:
            return {}
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
    if entry is not None and not sessions:
        ctx.judged[entry] = ctx.domains
    return sessions


def _table_key(p: Process, gamma: dict, shared: dict) -> tuple:
    """The key under which the judgement table keeps a success of the
    session-opening p."""
    return p._origin or p, frozenset(gamma.items()), tuple(sorted(shared.items()))


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
    """Compare guard-erased session behaviour against the projection.
    Sorts need no comparison: both sides take each channel's sort from
    the one global type, whose `channel_sorts` gives every channel one."""
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
                _match_local(b.cont, wmap[chan].cont, ctx.at(f"!{chan}"))
            return
        case (TExternal(gb), TExternal(wb)):
            gmap = {b.channel: b for b in gb}
            wmap = {b.channel: b for b in wb}
            if set(gmap) != set(wmap):
                raise ctx.err(
                    "VRcv", f"process offers inputs on {sorted(gmap)}, "
                    f"specification requires {sorted(wmap)}")
            for chan, b in gmap.items():
                _match_local(b.cont, wmap[chan].cont, ctx.at(f"?{chan}"))
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
                      session: tuple | None = None,
                      judged: dict | None = None) -> dict:
    """Synthesize the session map of the minimal specification validating
    Gamma; e |- P, (chans, role) -> pseudo-type.  VReq and VAcc check and
    drop each session that P opens, so the map holds at most the session
    given as `session`, and is empty without one.

    For an open process term whose session channels are already bound,
    `session` is ((chans, role), chan->sort); that session's synthesized
    pseudo-type stays in the result instead of being checked against a
    projection.  `judged` is a judgement table (see the module's
    docstring), or None to judge every session-opening afresh."""
    ctx = _Ctx(dict(gamma), e, dict(shared), domains, judged)
    if session is not None:
        key, sorts = session
        ctx = ctx.with_session((tuple(key[0]), key[1]), dict(sorts))
    return _synth_process(ctx, p)


def typecheck_system(gamma: dict, e: Expr, s: System, shared: dict,
                     domains: DomainDecl = EMPTY_DOMAINS,
                     judged: dict | None = None) -> dict:
    """Check Gamma; e |- S and return the free queues of S, channel ->
    tuple of sorts.  A process at the top of a system binds no session
    channel, so its session map is empty, and the specification of S is
    its shared names and these queues."""
    ctx = _Ctx(dict(gamma), e, dict(shared), domains, judged)
    return _synth_system(ctx, s)


def _synth_system(ctx: _Ctx, s: System) -> dict:
    match s:
        case Proc(p):
            _synth_process(ctx, p)
            return {}
        case Par(left, right):  # VPar
            q1 = _synth_system(ctx.at("par-left"), left)
            q2 = _synth_system(ctx.at("par-right"), right)
            if not q1.keys().isdisjoint(q2):
                raise ctx.err("VPar", "parallel components are not independent")
            return {**q1, **q2}
        case Queue(chan, values):  # VQueue / VEmpty
            return {chan: tuple(v.sort for v in values)}
        case Restrict(chans, _, scope):  # VNew
            queues = _synth_system(ctx.at("new"), scope)
            return {y: q for y, q in queues.items() if y not in chans}
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
        case For(_, items, body):
            # the body runs exactly once only over a constant one-item list
            return _one_item(items) and unique_role(body, u, role, role0)
        case Send():
            return False
    raise TypeError(f"not a process: {p!r}")


def _one_item(items: Expr) -> bool:
    """Is items a constant expression whose value is a one-item list?"""
    if expr_vars(items):
        return False
    try:
        return list_length(items, Store({}, {})) == 1
    except EvalError:
        return False
