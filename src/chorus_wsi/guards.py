"""Expression evaluation over stores and decidable guard reasoning.

Validity questions about guards ("is e /\\ e' unsatisfiable?") are
decided over the finite domains declared in the module, exactly.  A
variable that occurs in a validity check without a declared domain is
an error, never a guess.  String-sorted domains are extended with one
fresh "other" value so that equality tests against literals outside the
declared set stay sound.

A query is decided on the truth table of its own variables: the total
stores over them, numbered in enumeration order, form one space per
sorted variable tuple, built lazily on the `DomainDecl`.  Each
expression gets an integer mask over its space, bit i set iff it is true
on store i.  An atom (a Bool expression whose head is not `and`, `or` or
`not`) is evaluated on the stores over its own variables only, and its
mask is lifted into the query's space through per-value selector masks
of those variables.  `and`, `or` and `not` are `&`, `|` and the
complement, and a query is unsatisfiable iff its mask is 0.  Masks are
memoized per subexpression in each space, so `conj(e, b)` reuses the
mask of e.  The emptiness of a loop's list is one more atom.

Enumeration store by store, stopping at the first satisfying store,
remains the answer in two cases: a space of more than `_MAX_STORES`
stores, and a query with an atom that raises or is not Bool on some
store.  In the second case a mask could not tell whether the error lies
before the first satisfying store, where enumeration raises it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .syntax.ast import (
    BinOp, BOOL, Const, DATA, Expr, INT, Lit, ListLit, ModuleDecl, Range,
    Sort, STR, UnOp, UNIT, Var, bool_lit, conj, expr_vars, int_lit,
    list_sort, neg, str_lit,
)


class EvalError(Exception):
    pass


class Undefined(EvalError):
    """Evaluation hit a variable outside the store (or hd/tl of [])."""

    def __init__(self, message, missing=frozenset()):
        super().__init__(message)
        self.missing = frozenset(missing)


class SortMismatch(EvalError):
    pass


class UndeclaredVariable(EvalError):
    def __init__(self, missing):
        super().__init__("no declared domain for: " + ", ".join(sorted(missing)))
        self.missing = frozenset(missing)


@dataclass(frozen=True)
class Store:
    """Runtime store: variable values plus session bindings per shared name.

    Expression evaluation depends only on the variable part, so session
    bindings never influence eval results.  Tables interpret the unary
    operators declared in the module.
    """

    vars: dict = field(default_factory=dict)
    sessions: dict = field(default_factory=dict)  # shared name -> channel tuple
    tables: dict = field(default_factory=dict)

    def with_var(self, name: str, value: Lit) -> "Store":
        new = dict(self.vars)
        new[name] = value
        return Store(new, self.sessions, self.tables)

    def with_session(self, shared: str, chans: tuple) -> "Store":
        new = dict(self.sessions)
        new[shared] = chans
        return Store(self.vars, new, self.tables)

    def domain(self) -> frozenset:
        return frozenset(self.vars) | frozenset(self.sessions)

    def key(self) -> tuple:
        """A hashable form of the variable and session bindings."""
        return (tuple(sorted(self.vars.items(), key=lambda kv: kv[0])),
                tuple(sorted(self.sessions.items())))


def _expect(lit: Lit, sort: Sort, what: str) -> Lit:
    if lit.sort != sort:
        raise SortMismatch(f"{what}: expected {sort}, got {lit.sort}")
    return lit


def eval_expr(e: Expr, store: Store) -> Lit:
    """Evaluate e; defined iff vars(e) are all bound in the store."""
    match e:
        case Var(name):
            if name not in store.vars:
                raise Undefined(f"unbound variable {name!r}", {name})
            return store.vars[name]
        case Const(value):
            return value
        case BinOp(op, left, right):
            lv = eval_expr(left, store)
            rv = eval_expr(right, store)
            return _eval_binop(op, lv, rv)
        case UnOp("not", arg):
            v = _expect(eval_expr(arg, store), BOOL, "not")
            return bool_lit(not v.value)
        case UnOp("-", arg):
            v = _expect(eval_expr(arg, store), INT, "negation")
            return int_lit(-v.value)
        case UnOp("hd", arg):
            v = eval_expr(arg, store)
            if v.sort.kind != "List":
                raise SortMismatch(f"hd of non-list {v.sort}")
            if not v.value:
                raise Undefined("hd of empty list")
            return v.value[0]
        case UnOp("tl", arg):
            v = eval_expr(arg, store)
            if v.sort.kind != "List":
                raise SortMismatch(f"tl of non-list {v.sort}")
            if not v.value:
                raise Undefined("tl of empty list")
            return Lit(v.sort, v.value[1:])
        case UnOp(op, arg):
            table = store.tables.get(op)
            if table is None:
                raise Undefined(f"unknown operator or table {op!r}")
            v = _expect(eval_expr(arg, store), table.arg_sort, f"table {op}")
            return table.lookup(v)
        case ListLit(items):
            values = tuple(eval_expr(i, store) for i in items)
            elem = values[0].sort if values else UNIT
            for v in values:
                _expect(v, elem, "list element")
            return Lit(list_sort(elem), values)
        case Range(lo, hi):
            lv = _expect(eval_expr(lo, store), INT, "range")
            hv = _expect(eval_expr(hi, store), INT, "range")
            return Lit(list_sort(INT),
                       tuple(int_lit(i) for i in range(lv.value, hv.value + 1)))
    raise TypeError(f"not an expression: {e!r}")


def _eval_binop(op: str, lv: Lit, rv: Lit) -> Lit:
    if op in ("and", "or"):
        _expect(lv, BOOL, op)
        _expect(rv, BOOL, op)
        return bool_lit(lv.value and rv.value if op == "and" else lv.value or rv.value)
    if op in ("=", "!="):
        if lv.sort != rv.sort:
            raise SortMismatch(f"comparing {lv.sort} with {rv.sort}")
        return bool_lit((lv == rv) == (op == "="))
    if op in ("<", "<=", ">", ">="):
        _expect(lv, INT, op)
        _expect(rv, INT, op)
        table = {"<": lv.value < rv.value, "<=": lv.value <= rv.value,
                 ">": lv.value > rv.value, ">=": lv.value >= rv.value}
        return bool_lit(table[op])
    if op in ("+", "-", "*"):
        _expect(lv, INT, op)
        _expect(rv, INT, op)
        fn = {"+": int.__add__, "-": int.__sub__, "*": int.__mul__}[op]
        return int_lit(fn(lv.value, rv.value))
    raise SortMismatch(f"unknown operator {op!r}")


# --------------------------------------------------------- finite domains

_OTHER_STR = "<other>"

# A query over more stores than this is decided by enumeration alone.
_MAX_STORES = 1 << 16


class _Space:
    """The total stores over one sorted tuple of variables, numbered in
    the order `stores` yields them, and the mask of each expression asked
    about them: bit i is set iff the expression is true on store i.  The
    mask None marks an expression with an atom that raises or is not Bool
    on some store; only enumeration answers for it."""

    def __init__(self, names: tuple, pools: list, tables: dict):
        self.names = names
        self.pools = pools
        self.tables = tables
        self.size = math.prod(len(pool) for pool in pools)
        self.full = (1 << self.size) - 1 if self.size <= _MAX_STORES else None
        self.masks = {}
        self._selectors = {}

    def stores(self):
        for combo in itertools.product(*self.pools):
            yield Store(dict(zip(self.names, combo)), tables=self.tables)

    def selectors(self, position: int) -> list:
        """Per value index d of the variable at `position`, the mask of
        the stores that give it its d-th value."""
        found = self._selectors.get(position)
        if found is None:
            radix = len(self.pools[position])
            stride = math.prod(len(pool) for pool in self.pools[position + 1:])
            period, repeats = radix * stride, self.size // (radix * stride)
            found = self._selectors[position] = [
                int(("0" * (period - (d + 1) * stride) + "1" * stride
                     + "0" * (d * stride)) * repeats, 2)
                for d in range(radix)]
        return found


@dataclass
class DomainDecl:
    """Declared finite domains for variables, plus the module's tables."""

    domains: dict = field(default_factory=dict)  # var -> frozenset[Lit]
    tables: dict = field(default_factory=dict)
    _spaces: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_module(cls, module: ModuleDecl) -> "DomainDecl":
        domains = {}
        for var, values in module.domains.items():
            sorts = {v.sort for v in values}
            if len(sorts) != 1:
                raise SortMismatch(f"mixed-sort domain for {var!r}")
            if next(iter(sorts)) == STR:
                other = _OTHER_STR
                while str_lit(other) in values:
                    other += "'"
                values = values | {str_lit(other)}
            domains[var] = frozenset(values)
        # domain declarations follow binders that freshening had to move
        for fresh, base in module.domain_aliases.items():
            if base in domains:
                domains[fresh] = domains[base]
        return cls(domains, dict(module.tables))

    def _space(self, names) -> _Space:
        """The stores over the given variables, with their masks."""
        key = tuple(sorted(names))
        space = self._spaces.get(key)
        if space is None:
            missing = [n for n in key if n not in self.domains]
            if missing:
                raise UndeclaredVariable(missing)
            pools = [sorted(self.domains[n], key=str) for n in key]
            space = self._spaces[key] = _Space(key, pools, self.tables)
        return space

    def assignments(self, names):
        """All total stores over the given variables, in a fixed order."""
        return self._space(names).stores()

    def values_of_sort(self, sort: Sort):
        """Candidate literals of a sort, drawn from declared domains
        where possible; used by exploration drivers."""
        pool = []
        for values in self.domains.values():
            pool.extend(v for v in values if v.sort == sort)
        if pool:
            return sorted(set(pool), key=str)
        defaults = {
            "Int": [int_lit(0), int_lit(1)],
            "Bool": [bool_lit(False), bool_lit(True)],
            "Str": [str_lit(_OTHER_STR)],
            "Unit": [Lit(UNIT, None)],
            "Data": [Lit(DATA, b"")],
        }
        if sort.kind == "List":
            inner = self.values_of_sort(sort.elem)
            return [Lit(sort, ()), Lit(sort, (inner[0],))]
        return defaults[sort.kind]


EMPTY_DOMAINS = DomainDecl()

_UNKNOWN = object()


def _mask(domains: DomainDecl, space: _Space, e: Expr):
    """The mask of the Bool expression e in space, or None."""
    if not 0 < space.size <= _MAX_STORES:
        return None
    mask = space.masks.get(e, _UNKNOWN)
    if mask is not _UNKNOWN:
        return mask
    match e:
        case BinOp("and" | "or" as op, left, right):
            mask = _mask(domains, space, left)
            other = None if mask is None else _mask(domains, space, right)
            if other is None:
                mask = None
            elif op == "and":
                mask &= other
            else:
                mask |= other
        case UnOp("not", arg):
            mask = _mask(domains, space, arg)
            if mask is not None:
                mask ^= space.full
        case _:
            mask = _atom_mask(domains, space, e, e, _bool_value)
    space.masks[e] = mask
    return mask


def _bool_value(e: Expr, store: Store):
    v = eval_expr(e, store)
    return v.value if v.sort == BOOL else None


def _nonempty(items: Expr, store: Store):
    v = eval_expr(items, store)
    return bool(v.value) if v.sort.kind == "List" else None


def _atom_mask(domains: DomainDecl, space: _Space, key, e: Expr, test):
    """The mask in space of test(e, store), which is True, False, or None
    when e is of the wrong sort.  It is found by enumerating the stores
    over e's own variables, memoized under key there, and lifted into
    space by the selectors of those variables' values."""
    own = domains._space(expr_vars(e))
    bits = own.masks.get(key, _UNKNOWN)
    if bits is _UNKNOWN:
        bits = 0
        for i, store in enumerate(own.stores()):
            try:
                value = test(e, store)
            except EvalError:
                value = None
            if value is None:
                bits = None
                break
            if value:
                bits |= 1 << i
        own.masks[key] = bits
    if own is space or not bits:
        return bits
    if bits == own.full:
        return space.full
    selectors = [(len(pool), space.selectors(space.names.index(name)))
                 for name, pool in zip(own.names, own.pools)][::-1]
    mask = 0
    for i in range(own.size):
        if bits >> i & 1:
            term = space.full
            for radix, by_value in selectors:
                i, digit = divmod(i, radix)
                term &= by_value[digit]
            mask |= term
    return mask


def is_unsat(e: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    """True iff e evaluates to false under every total assignment drawn
    from the declared domains (exact for declared domains)."""
    space = domains._space(expr_vars(e))
    mask = _mask(domains, space, e)
    if mask is not None:
        return not mask
    for store in space.stores():
        v = eval_expr(e, store)
        if v.sort != BOOL:
            raise SortMismatch(f"guard of sort {v.sort}, expected Bool")
        if v.value:
            return False
    return True


def satisfiable(e: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    return not is_unsat(e, domains)


def implies(e1: Expr, e2: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    return is_unsat(conj(e1, neg(e2)), domains)


def mutually_exclusive(e1: Expr, e2: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    return is_unsat(conj(e1, e2), domains)


def equivalent(e1: Expr, e2: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    return implies(e1, e2, domains) and implies(e2, e1, domains)


def list_condition_satisfiable(e: Expr, items: Expr, nonempty: bool,
                               domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    """Is e /\\ (items != eps) (or e /\\ (items = eps)) satisfiable?

    Decided over the declared domains of the variables of both
    expressions, with the emptiness of items as one more atom.
    """
    space = domains._space(expr_vars(e) | expr_vars(items))
    guard = _mask(domains, space, e)
    if guard is not None:
        filled = _atom_mask(domains, space, ("nonempty", items), items, _nonempty)
        if filled is not None:
            return bool(guard & (filled if nonempty else space.full ^ filled))
    for store in space.stores():
        if not eval_expr(e, store).value:
            continue
        value = eval_expr(items, store)
        if value.sort.kind != "List":
            raise SortMismatch(f"iterating over non-list {value.sort}")
        if bool(value.value) == nonempty:
            return True
    return False
