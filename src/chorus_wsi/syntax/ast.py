"""Abstract syntax for the five object languages.

Expressions, global types (choreographies), pseudo-types (guarded local
types), processes, and systems.  All nodes are frozen dataclasses: trees
are immutable, hashable, and safely shareable.

Conventions:
- participants, channels, shared names, and variables are plain strings
  drawn from disjoint syntactic positions;
- a local type is a pseudo-type whose guards are all the literal true
  (see `is_local`);
- the empty process 0 is the input choice with no arms (`NIL`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union


_NONE_HASH = 0x6E6F6E65  # stands for None in a node's hash

# The values a node derives from itself and keeps: its hash, its normal
# form under the true guard (`pseudotype.normalize`) and its canonical
# process (`semantics.proc_canon`).
DERIVED = ("_hash", "_nf", "_canon")


def frozen_node(cls):
    """`@dataclass(frozen=True)` whose derived values are computed once
    per instance.

    The generated hash walks the whole tree on every call.  This one is
    the hash of the tuple of the compared fields, kept on the instance.
    A field that is None hashes as a fixed constant rather than as
    `hash(None)`, which follows the object's address on some Python
    versions: so under a fixed `PYTHONHASHSEED` a node hashes the same
    in every process, and so do the orders of sets of nodes.

    Every name in `DERIVED` is such a per-instance cache, None until its
    owner fills it with `object.__setattr__`.  A cache lives exactly as
    long as its node: nothing is kept at module level, so a value
    computed for one parsed module never serves another one, even an
    equal one parsed later in the same process.  Caches are left out of
    pickled state, since string hashes differ between processes and a
    cached normal form names the `DomainDecl` it was computed under.
    """
    cls = dataclass(frozen=True)(cls)
    names = [f.name for f in fields(cls) if f.compare]

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple([_NONE_HASH if v is None else v
                            for v in (getattr(self, n) for n in names)]))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in DERIVED}

    for name in DERIVED:
        setattr(cls, name, None)
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------- sorts

@frozen_node
class Sort:
    """Payload sort: Int, Bool, Str, Unit, Data, or List(elem)."""

    kind: str
    elem: Optional["Sort"] = None

    def __post_init__(self):
        assert self.kind in ("Int", "Bool", "Str", "Unit", "Data", "List")
        assert (self.elem is not None) == (self.kind == "List")

    def __str__(self) -> str:
        if self.kind == "List":
            return f"[{self.elem}]"
        return self.kind


INT = Sort("Int")
BOOL = Sort("Bool")
STR = Sort("Str")
UNIT = Sort("Unit")
DATA = Sort("Data")


def list_sort(elem: Sort) -> Sort:
    return Sort("List", elem)


# ------------------------------------------------------------- literals

@frozen_node
class Lit:
    """A typed literal value.

    value is int for Int, bool for Bool, str for Str, None for Unit,
    bytes for Data, and a tuple of Lit for List sorts.
    """

    sort: Sort
    value: object

    def __str__(self) -> str:
        if self.sort == UNIT:
            return "()"
        if self.sort == BOOL:
            return "true" if self.value else "false"
        if self.sort == STR:
            return '"%s"' % str(self.value).replace('"', '\\"')
        if self.sort == DATA:
            return "0x%s" % bytes(self.value).hex()
        if self.sort.kind == "List":
            return "[%s]" % ", ".join(str(v) for v in self.value)
        return str(self.value)


UNIT_LIT = Lit(UNIT, None)
TRUE_LIT = Lit(BOOL, True)
FALSE_LIT = Lit(BOOL, False)


def int_lit(n: int) -> Lit:
    return Lit(INT, n)


def str_lit(s: str) -> Lit:
    return Lit(STR, s)


def bool_lit(b: bool) -> Lit:
    return TRUE_LIT if b else FALSE_LIT


# ---------------------------------------------------------- expressions

@frozen_node
class Var:
    name: str


@frozen_node
class Const:
    value: Lit


@frozen_node
class BinOp:
    op: str  # + - * and or = != < <= > >=
    left: "Expr"
    right: "Expr"


@frozen_node
class UnOp:
    """Unary operator application.

    op is one of the built-ins (not, -, hd, tl) or the name of a table
    declared in the enclosing module.
    """

    op: str
    arg: "Expr"


@frozen_node
class ListLit:
    items: tuple


@frozen_node
class Range:
    """Numerical range lo..hi, inclusive on both ends; endpoints are Int."""

    lo: "Expr"
    hi: "Expr"


Expr = Union[Var, Const, BinOp, UnOp, ListLit, Range]

TRUE = Const(TRUE_LIT)
FALSE = Const(FALSE_LIT)


def expr_vars(e: Expr) -> frozenset:
    """var(e): the variables occurring in e.  An inner node shared by
    several parents is visited once, so a guard built up by repeated
    conjunction costs its number of distinct nodes, not its tree size.
    This is on the path of every guard query, hence the dispatch on the
    exact node type instead of `match`."""
    names = set()
    seen = set()
    todo = [e]
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is Var:
            names.add(e.name)
        elif kind is Const or id(e) in seen:
            continue
        else:
            seen.add(id(e))
            if kind is BinOp:
                todo += (e.left, e.right)
            elif kind is UnOp:
                todo.append(e.arg)
            elif kind is Range:
                todo += (e.lo, e.hi)
            elif kind is ListLit:
                todo += e.items
            else:
                raise TypeError(f"not an expression: {e!r}")
    return frozenset(names)


def is_true(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == TRUE_LIT


def is_false(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == FALSE_LIT


def conj(e1: Expr, e2: Expr) -> Expr:
    """e1 and e2, eliding literal-true units."""
    if is_true(e1):
        return e2
    if is_true(e2):
        return e1
    return BinOp("and", e1, e2)


def disj(e1: Expr, e2: Expr) -> Expr:
    """e1 or e2, eliding literal-false units."""
    if is_false(e1):
        return e2
    if is_false(e2):
        return e1
    return BinOp("or", e1, e2)


def neg(e: Expr) -> Expr:
    if is_true(e):
        return FALSE
    if is_false(e):
        return TRUE
    return UnOp("not", e)


# --------------------------------------------------------- global types

@frozen_node
class GBranch:
    receiver: str
    channel: str
    sort: Sort
    cont: "GlobalType"


@frozen_node
class GChoice:
    """sender -> receivers over pairwise-distinct channels."""

    sender: str
    branches: tuple  # of GBranch, nonempty


@frozen_node
class GSeq:
    first: "GlobalType"
    second: "GlobalType"


@frozen_node
class GIter:
    """Controlled iteration (body)*^{controller -> term}.

    term lists, in declaration order, the termination signal (channel,
    sort) the controller sends to every other participant of the body.
    """

    body: "GlobalType"
    controller: str
    term: tuple  # of (participant, channel, Sort)


@frozen_node
class GEnd:
    pass


GlobalType = Union[GChoice, GSeq, GIter, GEnd]


def g_channels(g: GlobalType) -> frozenset:
    match g:
        case GChoice(_, branches):
            out = frozenset(b.channel for b in branches)
            for b in branches:
                out |= g_channels(b.cont)
            return out
        case GSeq(first, second):
            return g_channels(first) | g_channels(second)
        case GIter(body, _, term):
            return g_channels(body) | frozenset(t[1] for t in term)
        case GEnd():
            return frozenset()
    raise TypeError(f"not a global type: {g!r}")


# --------------------------------------------------------- pseudo-types

@frozen_node
class TBranch:
    guard: Expr
    channel: str
    sort: Sort
    cont: "PseudoType"


@frozen_node
class TInternal:
    """Guarded internal choice (+) over output prefixes.

    Unlike process branches, channels may repeat across branches: guard
    removal quotients branches by channel equality.
    """

    branches: tuple  # of TBranch, nonempty


@frozen_node
class TExternal:
    """Guarded external choice (&) over input prefixes."""

    branches: tuple  # of TBranch, nonempty


@frozen_node
class TSeq:
    first: "PseudoType"
    second: "PseudoType"


@frozen_node
class TIter:
    body: "PseudoType"


@frozen_node
class TEnd:
    guard: Expr = TRUE


PseudoType = Union[TInternal, TExternal, TSeq, TIter, TEnd]


def is_local(t: PseudoType) -> bool:
    """True when every guard in t is the literal true."""
    match t:
        case TEnd(guard):
            return is_true(guard)
        case TInternal(branches) | TExternal(branches):
            return all(is_true(b.guard) and is_local(b.cont) for b in branches)
        case TSeq(first, second):
            return is_local(first) and is_local(second)
        case TIter(body):
            return is_local(body)
    raise TypeError(f"not a pseudo-type: {t!r}")


def pt_vars(t: PseudoType) -> frozenset:
    """var(T): variables occurring in the guards of t."""
    match t:
        case TEnd(guard):
            return expr_vars(guard)
        case TInternal(branches) | TExternal(branches):
            out: frozenset = frozenset()
            for b in branches:
                out |= expr_vars(b.guard) | pt_vars(b.cont)
            return out
        case TSeq(first, second):
            return pt_vars(first) | pt_vars(second)
        case TIter(body):
            return pt_vars(body)
    raise TypeError(f"not a pseudo-type: {t!r}")


def dual(t: PseudoType) -> PseudoType:
    """Swap internal and external choices throughout."""
    match t:
        case TEnd():
            return t
        case TInternal(branches):
            return TExternal(tuple(
                TBranch(b.guard, b.channel, b.sort, dual(b.cont)) for b in branches))
        case TExternal(branches):
            return TInternal(tuple(
                TBranch(b.guard, b.channel, b.sort, dual(b.cont)) for b in branches))
        case TSeq(first, second):
            return TSeq(dual(first), dual(second))
        case TIter(body):
            return TIter(dual(body))
    raise TypeError(f"not a pseudo-type: {t!r}")


# ------------------------------------------------------------ processes

@frozen_node
class Request:
    shared: str
    arity: int
    chans: tuple  # of channel names
    cont: "Process"


@frozen_node
class Accept:
    shared: str
    role: str
    chans: tuple
    cont: "Process"


@frozen_node
class Send:
    channel: str
    payload: Expr


@frozen_node
class Arm:
    channel: str
    binder: str
    cont: "Process"


@frozen_node
class Branch:
    """Input-guarded choice; arms use pairwise-distinct channels.

    The empty branch is the terminated process 0.
    """

    arms: tuple = ()


@frozen_node
class Seq:
    first: "Process"
    second: "Process"


@frozen_node
class If:
    cond: Expr
    then: "Process"
    orelse: "Process"


@frozen_node
class For:
    binder: str
    items: Expr
    body: "Process"


@frozen_node
class RepeatUntil:
    body: "Branch"
    exit: "Branch"


Process = Union[Request, Accept, Send, Branch, Seq, If, For, RepeatUntil]

NIL = Branch(())


def is_nil(p: Process) -> bool:
    return isinstance(p, Branch) and not p.arms


# -------------------------------------------------------------- systems

@frozen_node
class Proc:
    process: Process


@frozen_node
class Par:
    left: "System"
    right: "System"


@frozen_node
class Queue:
    channel: str
    values: tuple  # of Lit


@frozen_node
class Restrict:
    chans: tuple
    shared: str
    scope: "System"


System = Union[Proc, Par, Queue, Restrict]


# ------------------------------------------------------------ free names

def free_names(term) -> tuple:
    """The free names of a process or system in one walk, as three plain
    sets: all of them, the variables, and the shared names.  A shared name
    opened with a role also adds the name "u[p]" to the first (a request
    with role 0).  A session binder hides its channels from the first set
    only; an input or loop binder hides its variable from the first two."""
    names, variables, shared = set(), set(), set()
    todo = [(term, frozenset(), frozenset())]
    while todo:
        term, bound, bound_vars = todo.pop()
        heard, read = (), frozenset()
        match term:
            case Request(u, _, chans, cont) | Accept(u, _, chans, cont):
                role = term.role if isinstance(term, Accept) else 0
                heard = (u, f"{u}[{role}]")
                shared.add(u)
                todo.append((cont, bound.union(chans), bound_vars))
            case Send(channel, payload):
                heard, read = (channel,), expr_vars(payload)
            case Branch(arms):
                heard = tuple(arm.channel for arm in arms)
                todo += [(arm.cont, bound | {arm.binder},
                          bound_vars | {arm.binder}) for arm in arms]
            case Seq(first, second) | Par(first, second) \
                    | RepeatUntil(first, second):
                todo += [(first, bound, bound_vars), (second, bound, bound_vars)]
            case If(cond, then, orelse):
                read = expr_vars(cond)
                todo += [(then, bound, bound_vars), (orelse, bound, bound_vars)]
            case For(binder, items, body):
                read = expr_vars(items)
                todo.append((body, bound | {binder}, bound_vars | {binder}))
            case Proc(process):
                todo.append((process, bound, bound_vars))
            case Queue(channel, _):
                heard = (channel,)
            case Restrict(chans, _, scope):
                todo.append((scope, bound.union(chans), bound_vars))
            case _:
                raise TypeError(f"not a process or system: {term!r}")
        names.update(n for n in heard if n not in bound)
        names.update(x for x in read if x not in bound)
        variables.update(x for x in read if x not in bound_vars)
    return names, variables, shared


def fn(term) -> set:
    return free_names(term)[0]


def fX(term) -> set:
    return free_names(term)[1]


def fU(term) -> set:
    return free_names(term)[2]


# --------------------------------------------------------------- events

@frozen_node
class Event:
    """A send (!) or receive (?) by a participant, with the payload sort."""

    participant: str
    polarity: str  # "!" or "?"
    channel: str
    sort: Sort

    def __str__(self) -> str:
        return f"({self.participant},{self.channel}{self.polarity}{self.sort})"


# ---------------------------------------------------------- module decls

@frozen_node
class Table:
    """A finite unary function on literals with a default result."""

    name: str
    arg_sort: Sort
    ret_sort: Sort
    mapping: tuple  # of (Lit, Lit)
    default: Lit

    def lookup(self, v: Lit) -> Lit:
        for k, r in self.mapping:
            if k == v:
                return r
        return self.default


@frozen_node
class GlobalDef:
    name: str
    params: tuple  # session channel tuple, in declaration order
    body: GlobalType


@frozen_node
class ProcessDef:
    name: str
    body: Process
    role: Optional[str] = None  # from "plays p of GNAME"
    global_name: Optional[str] = None


@frozen_node
class SystemDef:
    name: str
    body: System


@dataclass
class ModuleDecl:
    """A parsed .chor module: declarations by kind, in source order."""

    domains: dict = field(default_factory=dict)   # var -> frozenset[Lit]
    tables: dict = field(default_factory=dict)    # name -> Table
    globals_: dict = field(default_factory=dict)  # name -> GlobalDef
    types: dict = field(default_factory=dict)     # name -> PseudoType
    processes: dict = field(default_factory=dict)  # name -> ProcessDef
    systems: dict = field(default_factory=dict)   # name -> SystemDef
    # binders moved by alpha-freshening: fresh name -> declared name,
    # so domain declarations follow renamed variables
    domain_aliases: dict = field(default_factory=dict)
