"""Expression evaluation over stores and decidable guard reasoning.

Validity questions about guards ("is e /\\ e' unsatisfiable?") are
decided by exhaustive enumeration over the finite domains declared in
the module.  Enumeration is exact for declared domains; a variable that
occurs in a validity check without a declared domain is an error, never
a guess.  String-sorted domains are extended with one fresh "other"
value so that equality tests against literals outside the declared set
stay sound.
"""

from __future__ import annotations

import itertools
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


@dataclass
class DomainDecl:
    """Declared finite domains for variables, plus the module's tables."""

    domains: dict = field(default_factory=dict)  # var -> frozenset[Lit]
    tables: dict = field(default_factory=dict)
    _unsat_cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    def assignments(self, names):
        """All total stores over the given variables, in a fixed order."""
        names = sorted(names)
        missing = [n for n in names if n not in self.domains]
        if missing:
            raise UndeclaredVariable(missing)
        pools = [sorted(self.domains[n], key=str) for n in names]
        for combo in itertools.product(*pools):
            yield Store(dict(zip(names, combo)), tables=self.tables)

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


def is_unsat(e: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    """True iff e evaluates to false under every total assignment drawn
    from the declared domains (exact for declared domains)."""
    key = e
    cached = domains._unsat_cache.get(key)
    if cached is not None:
        return cached
    names = expr_vars(e)
    result = True
    for store in domains.assignments(names):
        v = eval_expr(e, store)
        if v.sort != BOOL:
            raise SortMismatch(f"guard of sort {v.sort}, expected Bool")
        if v.value:
            result = False
            break
    domains._unsat_cache[key] = result
    return result


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

    Decided by enumeration over the declared domains of the variables of
    both expressions.
    """
    names = expr_vars(e) | expr_vars(items)
    for store in domains.assignments(names):
        if not eval_expr(e, store).value:
            continue
        value = eval_expr(items, store)
        if value.sort.kind != "List":
            raise SortMismatch(f"iterating over non-list {value.sort}")
        if bool(value.value) == nonempty:
            return True
    return False
