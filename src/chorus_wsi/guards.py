"""Expression evaluation over stores and decidable guard reasoning.

Validity questions about guards ("is e /\\ e' unsatisfiable?") are
decided over the finite domains declared in the module, exactly.  A
variable that occurs in a validity check without a declared domain is
an error, never a guess.  String-sorted domains are extended with one
fresh "other" value so that equality tests against literals outside the
declared set stay sound.

Every query is decided on a multi-valued decision diagram over the
stores of the `DomainDecl` (Bryant, "Graph-based algorithms for Boolean
function manipulation", IEEE Trans. Computers C-35, 1986; Srinivasan,
Kam, Malik and Brayton, "Algorithms for discrete function
manipulation", ICCAD 1990).  The levels are the declared variables in
declaration order, the aliases after them.  A diagram is one of three
leaves, true, false and "this store raises", or a node with one child
per value of its level's variable, the values in the order of their
printed forms.  Nodes are reduced and hash-consed on the `DomainDecl`,
keyed by the level and the ids of the children, so each function of
the stores has one diagram, and each node records which leaves lie
below it.

An atom (a Bool expression whose head is not `and`, `or` or `not`) gets
its diagram by evaluation on the stores over its own variables, once
per `DomainDecl`: atoms are memoized by structural equality, so equal
atoms of different trees, or of different parses, share one
enumeration.  `EMPTY_DOMAINS`, which declares no variable, makes no
node, and memoizes only the constant atoms asked about it (the guard
`true`).  `and`, `or` and `not` are one memoized `apply`, and an operand
that raises makes the result raise, as `eval_expr` evaluates both
operands.  The emptiness of a loop's list is one more atom.

The error rule.  A query is satisfiable iff some store makes it true.
It raises only if no store makes it true and some store raises, and it
then raises what `eval_expr` raises on the store of the diagram's
leftmost raising path, where a variable the path skips takes its first
value.  So whether a query raises does not depend on any order of the
stores or of the variables.  `list_condition_satisfiable` reads the
list only where the guard is true, so the list can raise only on a
store where the guard is true.

Diagrams are kept per node.  Each `and`, `or` and `not` node keeps its
diagram as a derived value (`syntax.ast.DERIVED`), paired with its
`DomainDecl` and found by identity, so `conj(e, b)` reuses the diagram
of e; as the levels are fixed per `DomainDecl`, that diagram serves a
later query over more variables too.  Every walk, over an expression or
over the levels of a diagram, uses an explicit stack or a loop, so a
guard of thousands of conjuncts, or over thousands of variables, is
decided without recursion.
"""

from __future__ import annotations

import itertools

from .syntax.ast import (
    BinOp, BOOL, Const, DATA, Expr, INT, Lit, ListLit, ModuleDecl, Range,
    Sort, STR, UnOp, UNIT, Var, bool_lit, conj, expr_vars,
    frozen_node, int_lit, list_sort, neg, str_lit,
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


@frozen_node
class Store:
    """Runtime store: the value of each bound variable, and the tables
    that interpret the unary operators declared in the module.

    A session's channels are bound by its components' session maps (see
    `semantics`), not here: evaluation reads variables and tables only.
    """

    vars: dict
    tables: dict

    def with_var(self, name: str, value: Lit) -> "Store":
        new = dict(self.vars)
        new[name] = value
        return Store(new, self.tables)

    def key(self) -> tuple:
        """A hashable form of the variable bindings."""
        return tuple(sorted(self.vars.items(), key=lambda kv: kv[0]))


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
        case Range():
            lv, hv = range_bounds(e, store)
            return Lit(list_sort(INT),
                       tuple(int_lit(i) for i in range(lv.value, hv.value + 1)))
    raise TypeError(f"not an expression: {e!r}")


def range_bounds(r: Range, store: Store) -> tuple:
    """The Int literals (lo, hi) that the bounds of r evaluate to."""
    return (_expect(eval_expr(r.lo, store), INT, "range"),
            _expect(eval_expr(r.hi, store), INT, "range"))


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


class _Node:
    """A diagram: a leaf, whose level is below every variable's, or the
    node of one level with one child per value of its variable.  Its
    reach has the bit _SAT set iff a true leaf lies below it, and the bit
    _RAISES iff a raising leaf does.  Nodes hash and compare by identity,
    so a tuple of children hashes by the ids of the children."""

    __slots__ = ("level", "children", "reach")

    def __init__(self, level, children, reach):
        self.level, self.children, self.reach = level, children, reach


_SAT, _RAISES = 1, 2
_TRUE = _Node(float("inf"), None, _SAT)
_FALSE = _Node(float("inf"), None, 0)
_RAISE = _Node(float("inf"), None, _RAISES)
_NOT = {_TRUE: _FALSE, _FALSE: _TRUE, _RAISE: _RAISE}


def _shortcut(op: str, a, b):
    """op ("and", "or", "not" of a, or "then", which reads b only where a
    is true) on the diagrams a and b when a leaf or equal operands decide
    it, else None."""
    if op == "not":
        return _NOT.get(a)
    if op == "then":
        return b if a is _TRUE else a if b is _TRUE or not a.reach & _SAT else None
    if a is _RAISE or b is _RAISE:
        return _RAISE
    unit, zero = (_TRUE, _FALSE) if op == "and" else (_FALSE, _TRUE)
    if a is unit or a is b:
        return b
    if b is unit:
        return a
    return zero if zero in (a, b) and not (a.reach | b.reach) & _RAISES else None


class DomainDecl:
    """Declared finite domains for variables, plus the module's tables,
    and the decision diagrams of the guards asked about them."""

    def __init__(self, domains=None, tables=None):
        self.domains = {} if domains is None else domains  # var -> frozenset[Lit]
        self.tables = {} if tables is None else tables
        # the level of each variable, and the values of each level in order
        self._names = list(self.domains)
        self._levels = {name: i for i, name in enumerate(self._names)}
        self._pools = [sorted(values, key=str) for values in self.domains.values()]
        self._nodes = [{} for _ in self._pools]  # per level: children -> node
        self._atoms = {}  # atom -> diagram

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domains, self.tables) == (other.domains, other.tables)

    @classmethod
    def from_module(cls, module: ModuleDecl, names=()) -> "DomainDecl":
        """The module's domains and tables.  A binder that freshening
        moved in the process or system declarations `names`, or in one
        they name, has its declared name's domain too; only those bodies
        are read.  A request names the declarations it judges: none when
        it judges only global types and pseudo-types, which bind no
        process variable."""
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
        # domain declarations follow binders that freshening had to move,
        # through every rename of a rename: a base is shorter than its
        # renames, so it is resolved first, and the aliases stay in order
        aliases = module.bodies.aliases(names) if module.bodies else {}
        moved = dict(domains)
        for fresh in sorted(aliases, key=len):
            if aliases[fresh] in moved:
                moved[fresh] = moved[aliases[fresh]]
        domains.update((fresh, moved[fresh]) for fresh in aliases if fresh in moved)
        return cls(domains, dict(module.tables))

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

    # ------------------------------------------------- decision diagrams

    def _node(self, level: int, children: tuple):
        """The one node with these children, or their common child."""
        if children.count(children[0]) == len(children):
            return children[0]
        nodes = self._nodes[level]
        node = nodes.get(children)
        if node is None:
            reach = 0
            for child in children:
                reach |= child.reach
            node = nodes[children] = _Node(level, children, reach)
        return node

    def _apply(self, op: str, a, b=_TRUE):
        """The diagram of op on a and b (see `_shortcut`), by one walk over
        pairs of nodes with an explicit stack, each pair done once."""
        done = _shortcut(op, a, b)
        if done is not None:
            return done
        memo = {}
        todo = [(a, b)]
        while todo:
            pair = x, y = todo[-1]
            if pair in memo:  # pushed twice
                todo.pop()
                continue
            level = x.level if x.level <= y.level else y.level
            children, waiting = [], False
            for part in zip(x.children if x.level == level else itertools.repeat(x),
                            y.children if y.level == level else itertools.repeat(y)):
                done = _shortcut(op, *part) or memo.get(part)
                if done is None:
                    todo.append(part)
                    waiting = True
                children.append(done)
            if not waiting:
                todo.pop()
                memo[pair] = self._node(level, tuple(children))
        return memo[a, b]

    def _atom(self, key, e: Expr, test):
        """The diagram of test(e, store), which is True or False or raises
        an EvalError, found by evaluating it on the stores over e's own
        variables and memoized under key."""
        found = self._atoms.get(key)
        if found is None:
            levels = sorted(self._levels[name] for name in expr_vars(e))
            names = [self._names[level] for level in levels]
            found = []
            for combo in itertools.product(*[self._pools[level] for level in levels]):
                store = Store(dict(zip(names, combo)), tables=self.tables)
                try:
                    found.append(_TRUE if test(e, store) else _FALSE)
                except EvalError:
                    found.append(_RAISE)
            for level in reversed(levels):
                radix = len(self._pools[level])
                found = [self._node(level, tuple(found[i:i + radix]))
                         for i in range(0, len(found), radix)]
            found = self._atoms[key] = found[0]
        return found

    def _known(self, e: Expr):
        """The diagram of e if e keeps one or is an atom, else None."""
        kept = e._diagram
        if kept is not None and kept[0] is self:
            return kept[1]
        return self._atom(e, e, _guard) if _connective(e) is None else None

    def _diagram(self, e: Expr):
        """The diagram of e.  The nodes are visited with an explicit stack,
        operands first, and an `and`, `or` or `not` node keeps its diagram
        on itself as `_diagram`, the pair (self, diagram); a query against
        another `DomainDecl` replaces it."""
        found = self._known(e)
        todo = [e] if found is None else []
        while todo:
            node = todo[-1]
            kept = node._diagram
            if kept is not None and kept[0] is self:  # pushed twice
                todo.pop()
                continue
            parts = _connective(node)
            values = [self._known(part) for part in parts]
            if None in values:
                todo += [part for part, value in zip(parts, values) if value is None]
                continue
            todo.pop()
            found = self._apply(node.op, *values)
            object.__setattr__(node, "_diagram", (self, found))
        return found

    def _satisfiable(self, e: Expr, names, items=None, nonempty=True) -> bool:
        """Is e true on some store over names, with items nonempty (or
        empty) there if given?  Where no store is and some store raises,
        raise what evaluation raises on the store of the leftmost raising
        path; a variable the path skips takes its first value."""
        if not names <= self._levels.keys():
            raise UndeclaredVariable(names - self._levels.keys())
        found = self._diagram(e)
        if items is not None:
            filled = self._atom(("nonempty", items), items,
                                lambda items, store: list_length(items, store) > 0)
            found = self._apply("then", found,
                                filled if nonempty else self._apply("not", filled))
        if found.reach == _RAISES:
            values = {name: self._pools[self._levels[name]][0] for name in names}
            while found.children is not None:
                i = next(i for i, child in enumerate(found.children)
                         if child.reach & _RAISES)
                values[self._names[found.level]] = self._pools[found.level][i]
                found = found.children[i]
            store = Store(values, tables=self.tables)  # evaluation raises here
            if _guard(e, store) and items is not None:
                list_length(items, store)
        return bool(found.reach & _SAT)


EMPTY_DOMAINS = DomainDecl()


def _connective(e: Expr):
    """The operands of an `and`, `or` or `not` node; None for an atom."""
    kind = type(e)
    if kind is BinOp:
        if e.op == "and" or e.op == "or":
            return (e.left, e.right)
    elif kind is UnOp and e.op == "not":
        return (e.arg,)
    return None


def _guard(e: Expr, store: Store) -> bool:
    """The value of the guard e on store; an error if it is not Bool."""
    v = eval_expr(e, store)
    if v.sort != BOOL:
        raise SortMismatch(f"guard of sort {v.sort}, expected Bool")
    return v.value


def list_length(items: Expr, store: Store) -> int:
    """The length of the list items evaluates to; a range's comes from
    its bounds, without building the range."""
    if isinstance(items, Range):
        lo, hi = range_bounds(items, store)
        return max(0, hi.value - lo.value + 1)
    value = eval_expr(items, store)
    if value.sort.kind != "List":
        raise SortMismatch(f"iterating over non-list {value.sort}")
    return len(value.value)


def is_unsat(e: Expr, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    """True iff e evaluates to false under every total assignment drawn
    from the declared domains (exact for declared domains); when it
    raises, see the module docstring."""
    return not domains._satisfiable(e, expr_vars(e))


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
    expressions, with the emptiness of items as one more atom, read only
    where e is true.
    """
    return domains._satisfiable(e, expr_vars(e) | expr_vars(items), items, nonempty)
