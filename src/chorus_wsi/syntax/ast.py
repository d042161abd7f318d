"""Abstract syntax for the five object languages.

Expressions, global types (choreographies), pseudo-types (guarded local
types), processes, and systems.  All nodes are records built by
`frozen_node`: trees are immutable, hashable, and safely shareable.
Their methods are copies of functions written out in this module
(`_Templates`), so importing it compiles no source.
The parser shares them: within one parse, equal expressions are one
object (see parser.py), so what a node keeps (`DERIVED`) is computed
once per distinct expression of the parse.  An expression keeps its
variables, its decision diagram if it is an `and`, `or` or `not` node
that a guard query read, and its printed text (`_text`, which
`printer.render_expr` fills); a process or system keeps its binders and
free names (`_names`, see `names`).  A parsed module keeps its process
and system bodies as read, with a `Ref` for each earlier declaration
they name, until they are read (see parser.py).

Conventions:
- participants, channels, shared names, and variables are plain strings
  drawn from disjoint syntactic positions;
- a local type is a pseudo-type whose guards are all the literal true
  (see `is_local` in tests/pseudotype_laws.py);
- the empty process 0 is the input choice with no arms (`NIL`).
"""

from __future__ import annotations

from collections import namedtuple
from types import FunctionType


_NONE_HASH = 0x6E6F6E65  # stands for None in a node's hash

# The values a node derives from itself and keeps: its hash, its normal
# form under the true guard (`pseudotype.normalize`), an expression's
# variables (`expr_vars`), the decision diagram of an `and`, `or` or
# `not` node with its `DomainDecl` (`guards.DomainDecl._diagram`), an
# expression's printed text, unparenthesized (`printer.render_expr`), a
# process's or system's name summary (`names`; covering reads the live
# variables of a running process off the terms of its stack), the
# channels of a global declaration's body that are not its parameters
# (`typecheck.exposed_channels`), a global type's participants
# (`projection.participants_ordered`) and its violations of
# well-formedness (`projection.well_formed`), and the declared body that
# a body rebuilt by freshening in place of a `Ref` is a copy of
# (`subst.freshen`).
DERIVED = ("_hash", "_nf", "_vars", "_diagram", "_text", "_names",
           "_exposed", "_parts", "_violations", "_origin")

_set = object.__setattr__  # how the templates set a field of a frozen record


class _Templates:
    """The `__init__` and `__eq__` of each record shape that `frozen_node`
    builds, over the placeholder fields `_f0`, `_f1`, ...: `init<n>` and
    `eq<n>` are those of a plain record of n fields, for each n that a
    record of the package has, and `init_post2` calls `__post_init__`
    after setting two fields (`Sort`); test_records.py checks that each
    serves a record of the package.  Each compiles to the bytecode of the
    method written out for such a class with its own field names, flags
    included, as test_records.py checks: so the templates keep this
    module's `from __future__ import annotations`."""

    def init0(self): pass

    def eq0(self, other):
        if other.__class__ is self.__class__:
            return () == ()
        return NotImplemented

    def init1(self, _f0):
        _set(self, "_f0", _f0)

    def eq1(self, other):
        if other.__class__ is self.__class__:
            return (self._f0,) == (other._f0,)
        return NotImplemented

    def init2(self, _f0, _f1):
        _set(self, "_f0", _f0)
        _set(self, "_f1", _f1)

    def eq2(self, other):
        if other.__class__ is self.__class__:
            return (self._f0, self._f1) == (other._f0, other._f1)
        return NotImplemented

    def init3(self, _f0, _f1, _f2):
        _set(self, "_f0", _f0)
        _set(self, "_f1", _f1)
        _set(self, "_f2", _f2)

    def eq3(self, other):
        if other.__class__ is self.__class__:
            return (self._f0, self._f1, self._f2) == (other._f0, other._f1, other._f2)
        return NotImplemented

    def init4(self, _f0, _f1, _f2, _f3):
        _set(self, "_f0", _f0)
        _set(self, "_f1", _f1)
        _set(self, "_f2", _f2)
        _set(self, "_f3", _f3)

    def eq4(self, other):
        if other.__class__ is self.__class__:
            return ((self._f0, self._f1, self._f2, self._f3)
                    == (other._f0, other._f1, other._f2, other._f3))
        return NotImplemented

    def init5(self, _f0, _f1, _f2, _f3, _f4):
        _set(self, "_f0", _f0)
        _set(self, "_f1", _f1)
        _set(self, "_f2", _f2)
        _set(self, "_f3", _f3)
        _set(self, "_f4", _f4)

    def eq5(self, other):
        if other.__class__ is self.__class__:
            return ((self._f0, self._f1, self._f2, self._f3, self._f4)
                    == (other._f0, other._f1, other._f2, other._f3, other._f4))
        return NotImplemented

    def init8(self, _f0, _f1, _f2, _f3, _f4, _f5, _f6, _f7):
        _set(self, "_f0", _f0)
        _set(self, "_f1", _f1)
        _set(self, "_f2", _f2)
        _set(self, "_f3", _f3)
        _set(self, "_f4", _f4)
        _set(self, "_f5", _f5)
        _set(self, "_f6", _f6)
        _set(self, "_f7", _f7)

    def eq8(self, other):
        if other.__class__ is self.__class__:
            return ((self._f0, self._f1, self._f2, self._f3, self._f4, self._f5, self._f6,
                     self._f7)
                    == (other._f0, other._f1, other._f2, other._f3, other._f4, other._f5,
                        other._f6, other._f7))
        return NotImplemented

    def init_post2(self, _f0, _f1):
        _set(self, "_f0", _f0)
        _set(self, "_f1", _f1)
        self.__post_init__()

    # the templates by shape: the number of fields, and whether there is
    # a `__post_init__`
    by_shape = {(0, False): (init0, eq0), (1, False): (init1, eq1),
                (2, False): (init2, eq2), (3, False): (init3, eq3),
                (4, False): (init4, eq4), (5, False): (init5, eq5),
                (8, False): (init8, eq8), (2, True): (init_post2, eq2)}


def frozen_node(cls):
    """An immutable record class whose derived values are computed once
    per instance.

    The fields are the names annotated in the class body, in order, and
    `__match_args__` is their tuple.  A field's default is the value the
    body assigns to it.
    Only `__init__` and `__eq__` are generated, as `dataclass(frozen=True)`
    generates them: `__init__` sets each field with `object.__setattr__`
    (writing `__dict__` instead would slow every later read of a field)
    and calls `__post_init__` if the class has one; `__eq__` compares the
    field tuples of two instances of one class, reading the fields by
    name, about twice as fast as through `operator.attrgetter`.  The
    other methods are shared by every record: `__repr__` reads
    `Name(field=value, ...)`, and assigning or deleting an attribute
    raises AttributeError.  `replace` copies a record with some fields
    changed.

    The two methods are not compiled per class: their code depends only
    on the record's shape, its number of fields and whether it has a
    `__post_init__`.  `_Templates` writes out the methods of each shape a
    record of the package has (plain records of 0 to 5 and of 8 fields,
    and `Sort`'s) over placeholder field names, and this module's `.pyc`
    holds them compiled.  A class gets copies of its shape's template
    functions whose code has the placeholders renamed to its fields in
    the names and constants it reads (its bytecode names them by index),
    with the method's name and the class's defaults and qualified name.
    So the methods run the same bytecode as if compiled from their own
    source, and building a record class compiles nothing; a class of a
    shape with no template is refused with a TypeError when it is built.

    The hash is the hash of the tuple of field values, kept on the
    instance.  A field that is None hashes as a fixed constant rather
    than as `hash(None)`, which follows the object's address on some
    Python versions: so under a fixed `PYTHONHASHSEED` a record hashes
    the same in every process, and so do the orders of sets of records.

    Every name in `DERIVED` is such a per-instance cache, None until its
    owner fills it with `object.__setattr__`.  A cache lives exactly as
    long as its node: nothing is kept at module level, so a value
    computed for one parsed module never serves another one, even an
    equal one parsed later in the same process.  A process's or system's
    `_names` (its binders and free names, see `names`; a `Ref`'s is its
    body's, which the parser fills in), a global declaration's
    `_exposed` and a global type's `_parts` hold only strings, and its
    `_violations` only records of two strings.  Neither
    of the two values kept for guard decisions outlives its node either:
    `_vars` is a set of names, and `_diagram`, kept on an `and`, `or` or
    `not` node, is one `(domains, diagram)` pair whose `DomainDecl` holds
    no reference back to such a node, so a node queried against the
    long-lived `guards.EMPTY_DOMAINS` is still freed with its tree.  A
    body that freshening rebuilt where a `Ref` stood keeps `_origin`, the
    declared body of that module that it is a renamed copy of, so a
    whole-module `typecheck` judges the two once (see `typecheck`).
    Caches are left out of pickled state, since string hashes differ
    between processes and a cached normal form or diagram names the
    `DomainDecl` it was computed under; a copy unpickled alone is judged
    as any other body.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    # a KeyError names a field without a default that follows a default
    required = sum(n not in cls.__dict__ for n in names)
    defaults = tuple(cls.__dict__[n] for n in names[required:])
    shape = (len(names), hasattr(cls, "__post_init__"))
    if shape not in _Templates.by_shape:
        raise TypeError(f"no record template for {cls.__qualname__} of shape {shape} "
                        "(fields, __post_init__)")
    rename = {f"_f{i}": n for i, n in enumerate(names)}
    for name, template, argdefs in zip(("__init__", "__eq__"), _Templates.by_shape[shape],
                                       (defaults or None, None)):
        code = template.__code__
        code = code.replace(co_name=name, **{
            part: tuple(rename.get(x, x) for x in getattr(code, part))
            for part in ("co_varnames", "co_consts", "co_names")})
        method = FunctionType(code, template.__globals__, name, argdefs)
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    for name in ("__hash__", "__repr__", "__setattr__", "__delattr__",
                 "__getstate__"):
        setattr(cls, name, vars(_Record)[name])
    for name in DERIVED:
        setattr(cls, name, None)
    return cls


class _Record:
    """The methods that `frozen_node` gives every record class."""

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple([_NONE_HASH if v is None else v
                            for v in map(self.__getattribute__, self.__match_args__)]))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self.__match_args__) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign {type(value).__name__} to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in DERIVED}


def replace(record, **changes):
    """A copy of the record with the given fields changed, built through
    its class, so `__post_init__` checks it again."""
    kept = {n: getattr(record, n) for n in record.__match_args__}
    return record.__class__(**{**kept, **changes})


# ---------------------------------------------------------------- sorts

@frozen_node
class Sort:
    """Payload sort: Int, Bool, Str, Unit, Data, or List(elem)."""

    kind: str
    elem: Sort | None = None

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
        kind = self.sort.kind
        if kind == "Unit":
            return "()"
        if kind == "Bool":
            return "true" if self.value else "false"
        if kind == "Str":
            return '"%s"' % str(self.value).replace('"', '\\"')
        if kind == "Data":
            return "0x%s" % bytes(self.value).hex()
        if kind == "List":
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


Expr = Var | Const | BinOp | UnOp | ListLit | Range

# How tightly each expression operator binds, loosest first; the reader
# (parser.py) and the printer (printer.py) both follow this one table.
# `not` is a prefix, `..` builds a `Range`, and `-` is also the prefix
# minus, which binds tightest of all.
PREC = {
    "or": 1, "and": 2, "not": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "..": 5, "+": 6, "-": 6, "*": 7,
}
MINUS_PREC = 8

TRUE = Const(TRUE_LIT)
FALSE = Const(FALSE_LIT)


_NO_VARS = frozenset()


def _operands(e: Expr) -> tuple:
    kind = type(e)
    if kind is BinOp:
        return (e.left, e.right)
    if kind is UnOp:
        return (e.arg,)
    if kind is Range:
        return (e.lo, e.hi)
    if kind is ListLit:
        return e.items
    raise TypeError(f"not an expression: {e!r}")


def expr_vars(e: Expr) -> frozenset:
    """var(e): the variables occurring in e, kept on each node of e as
    `_vars`.  The nodes are visited with an explicit stack, children
    first, so a guard conjoined thousands of times needs no recursion,
    and a node shared by several parents, or met again in a later query,
    is visited once.  A parent reuses its larger child's set when that
    one holds the other's, so a chain over a few variables keeps a few
    sets, not one per node."""
    found = e._vars
    if found is not None:
        return found
    todo = [e]
    while todo:
        node = todo[-1]
        if node._vars is not None:
            todo.pop()
            continue
        kind = type(node)
        if kind is Var:
            found = frozenset((node.name,))
        elif kind is Const:
            found = _NO_VARS
        else:
            parts = _operands(node)
            missing = [p for p in parts if p._vars is None]
            if missing:
                todo += missing
                continue
            found = _NO_VARS
            for part in parts:
                more = part._vars
                if not more <= found:
                    found = more if found <= more else found | more
        object.__setattr__(node, "_vars", found)
        todo.pop()
    return e._vars


def is_true(e: Expr) -> bool:
    # `==` on records never short-cuts identity, and most literals here are
    # the shared TRUE_LIT and FALSE_LIT themselves
    return isinstance(e, Const) and (e.value is TRUE_LIT or e.value == TRUE_LIT)


def is_false(e: Expr) -> bool:
    return isinstance(e, Const) and (e.value is FALSE_LIT or e.value == FALSE_LIT)


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


GlobalType = GChoice | GSeq | GIter | GEnd


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


PseudoType = TInternal | TExternal | TSeq | TIter | TEnd


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


Process = Request | Accept | Send | Branch | Seq | If | For | RepeatUntil

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


System = Proc | Par | Queue | Restrict


@frozen_node
class Ref:
    """An earlier declaration that a process or system body names, where
    a parsed module keeps the body as read (see parser.py).  It never
    leaves a freshened body: freshening puts the named body in its
    place (see subst.py)."""

    name: str


# -------------------------------------------------------- name summaries

class Names(namedtuple("Names", "binders repeats free variables shared pending")):
    """The names of a process or system term, kept on it as `_names`:
    `binders`, every name bound somewhere in the term; `repeats`,
    whether two binders in the term bind one name; `free` (fn),
    `variables` (fX) and `shared` (fU); and `pending`, whether the term
    holds a `Ref`.  A shared name u opened with role p (a request with
    role 0) is free as "u[p]" too, a name that no binder can have.  A
    session binder hides its channels from `free` only; an input or loop
    binder hides its variable from `free` and `variables`.  A `Ref` has
    the free names of the body it stands for, which is summarized before
    it (see parser.py), and makes every term that holds it `pending`.
    Freshening walks a pending term whatever it binds (see subst.py), so
    a `Ref` lists no binders, and summarizing a body as read does not
    join the binders of the bodies it names."""

    __slots__ = ()


# What a term itself contributes, by its class: the names it uses, the
# variables it reads and the shared names it opens, and each direct
# subterm with the names the term binds over it and whether those are
# variables.
_SCOPES = {
    Request: lambda t: ((t.shared, f"{t.shared}[0]"), _NO_VARS, (t.shared,),
                        ((t.cont, t.chans, False),)),
    Accept: lambda t: ((t.shared, f"{t.shared}[{t.role}]"), _NO_VARS, (t.shared,),
                       ((t.cont, t.chans, False),)),
    Send: lambda t: ((t.channel,), expr_vars(t.payload), (), ()),
    Branch: lambda t: (tuple(arm.channel for arm in t.arms), _NO_VARS, (),
                       tuple((arm.cont, (arm.binder,), True) for arm in t.arms)),
    Seq: lambda t: ((), _NO_VARS, (), ((t.first, (), False), (t.second, (), False))),
    If: lambda t: ((), expr_vars(t.cond), (),
                   ((t.then, (), False), (t.orelse, (), False))),
    For: lambda t: ((), expr_vars(t.items), (), ((t.body, (t.binder,), True),)),
    RepeatUntil: lambda t: ((), _NO_VARS, (),
                            ((t.body, (), False), (t.exit, (), False))),
    Proc: lambda t: ((), _NO_VARS, (), ((t.process, (), False),)),
    Par: lambda t: ((), _NO_VARS, (), ((t.left, (), False), (t.right, (), False))),
    Queue: lambda t: ((t.channel,), _NO_VARS, (), ()),
    Restrict: lambda t: ((), _NO_VARS, (), ((t.scope, t.chans, False),)),
}


def _summary(heard: tuple, read: frozenset, opened: tuple, scopes: tuple) -> Names:
    """The summary of a term from its own parts (see `_SCOPES`) and the
    summaries its subterms keep.  An empty set is never joined, since
    most terms bind nothing and open nothing."""
    free = read.union(heard) if heard else read
    shared = frozenset(opened) if opened else _NO_VARS
    binders, variables, repeats, pending, count = _NO_VARS, read, False, False, 0
    for sub, bound, binds_variables in scopes:
        inner_binders, inner_repeats, inner_free, inner_variables, inner_shared, \
            inner_pending = sub._names
        repeats = repeats or inner_repeats
        pending = pending or inner_pending
        if bound:
            inner_free = inner_free.difference(bound)
            if binds_variables:
                inner_variables = inner_variables.difference(bound)
        if bound or inner_binders:
            count += len(bound) + len(inner_binders)
            binders = binders.union(bound, inner_binders)
        free = free | inner_free if free else inner_free
        variables = variables | inner_variables if variables else inner_variables
        if inner_shared:
            shared = shared | inner_shared if shared else inner_shared
    return Names(binders, repeats or count > len(binders), free, variables, shared,
                 pending)


def names(term) -> Names:
    """The name summary of a process or system, kept on each node of it
    as `_names`.  The nodes are visited with an explicit stack, subterms
    first, and a node already summarized (an inlined declaration, or a
    subterm of a term summarized before) is not visited again."""
    todo = [(term, None)]
    while todo:
        node, parts = todo.pop()
        if node._names is not None:
            continue
        if parts is None:
            parts = _SCOPES[type(node)](node)
            missing = [(sub, None) for sub, _, _ in parts[3] if sub._names is None]
            if missing:
                todo.append((node, parts))  # again once its subterms are done
                todo += missing
                continue
        object.__setattr__(node, "_names", _summary(*parts))
    return term._names


def fn(term) -> frozenset:
    return names(term).free


def fX(term) -> frozenset:
    return names(term).variables


def fU(term) -> frozenset:
    return names(term).shared


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
    role: str | None = None  # from "plays p of GNAME"
    global_name: str | None = None


@frozen_node
class SystemDef:
    name: str
    body: System


class ModuleDecl:
    """A parsed .chor module: declarations by kind, in source order.

    `processes` and `systems` are mappings; a parsed module's freshen
    each body when it is first read (see parser.py).  `bodies` is a
    parsed module's `parser.Bodies`, whose `aliases(names)` reads the
    bodies of the declarations named, and of those they name, for the
    binders that freshening moved; it is None for a module built from
    its declarations, whose bodies no freshening moved."""

    def __init__(self, domains=None, tables=None, globals_=None, types=None,
                 processes=None, systems=None, bodies=None):
        self.domains = {} if domains is None else domains  # var -> frozenset[Lit]
        self.tables = {} if tables is None else tables     # name -> Table
        self.globals_ = {} if globals_ is None else globals_  # name -> GlobalDef
        self.types = {} if types is None else types        # name -> PseudoType
        self.processes = {} if processes is None else processes  # name -> ProcessDef
        self.systems = {} if systems is None else systems  # name -> SystemDef
        self.bodies = bodies
