import itertools
import random

import pytest

from chorus_wsi import guards
from chorus_wsi.guards import (
    DomainDecl, EvalError, SortMismatch, Store, UndeclaredVariable, Undefined,
    equivalent, eval_expr, implies, is_unsat, list_condition_satisfiable,
    mutually_exclusive,
)
from chorus_wsi.semantics import push, step_process, system_steps, to_state
from chorus_wsi.syntax import parse_expr, parse_module, parse_process
from chorus_wsi.syntax.ast import (
    BOOL, BinOp, FALSE, FALSE_LIT, INT, Lit, TRUE, TRUE_LIT, UnOp, bool_lit,
    conj, expr_vars, int_lit, list_sort, neg, str_lit,
)

import gen

X03 = DomainDecl({"x": frozenset(int_lit(i) for i in range(4))})


def test_eval_comparison():
    assert eval_expr(parse_expr("x > 0"), Store({"x": int_lit(2)}, {})) == bool_lit(True)


def test_eval_head_of_list_literal():
    assert eval_expr(parse_expr("hd([1, 2])"), Store({}, {})) == int_lit(1)


def test_eval_table_lookup(pop2, pop2_domains):
    store = Store({"cred": str_lit("pw")}, tables=pop2_domains.tables)
    assert eval_expr(parse_expr("auth(cred)"), store) == bool_lit(True)
    store2 = Store({"cred": str_lit("nope")}, tables=pop2_domains.tables)
    assert eval_expr(parse_expr("auth(cred)"), store2) == bool_lit(False)


def test_eval_undefined_on_missing_variable():
    with pytest.raises(Undefined) as err:
        eval_expr(parse_expr("x + 1"), Store({}, {}))
    assert "x" in err.value.missing


def test_eval_sort_mismatch():
    with pytest.raises(SortMismatch):
        eval_expr(parse_expr("1 + true"), Store({}, {}))


def test_eval_range_inclusive():
    v = eval_expr(parse_expr("0..3"), Store({}, {}))
    assert [x.value for x in v.value] == [0, 1, 2, 3]


def test_eval_ignores_session_bindings():
    """A process's session opens bind its channels in its session map,
    not in the store: each open steps with the store it was given."""
    store = Store({"x": int_lit(1)}, {})
    stack = push(parse_process("request u[1](a, b). accept w[q](c). c!(x > 0)"))
    for kind in ("req", "acc"):
        [(label, stack, after)] = step_process(stack, store, lambda chan: [])
        assert label.kind == kind and after is store
    [(label, _, _)] = step_process(stack, store, lambda chan: [])
    assert label.value == eval_expr(parse_expr("x > 0"), store) == bool_lit(True)


_CLIENT_SERVER = parse_module("process Client = request w[1](c). c!(1)\n"
                              "process Server = accept w[p](c). c?(k). 0\n"
                              "system S = Client || Server\n")


@pytest.mark.parametrize("seed", range(30))
def test_eval_stable_under_session_part(seed):
    """A guard evaluates alike before and after a system starts a
    session: the start binds the session's channels in the session maps
    of its components and keeps the store's variables as they were."""
    rng = random.Random(seed)
    e = gen.gen_guard(rng, depth=2)
    base = {"x": int_lit(rng.randrange(3)), "flag": bool_lit(rng.random() < 0.5)}
    start = to_state(_CLIENT_SERVER.systems["S"].body)
    [(_, action, state, store)] = system_steps(start, Store(base, {}))
    assert action.kind == "req" and all(chans for _, _, chans in state.procs)
    assert store.vars == base
    assert eval_expr(e, store) == eval_expr(e, Store(base, {}))


def test_is_unsat_contradiction():
    assert is_unsat(parse_expr("x > 0 and x <= 0"), X03)


def test_is_unsat_false_literal():
    assert is_unsat(FALSE)


def test_is_unsat_satisfiable_conjunction():
    assert not is_unsat(parse_expr("x = 1 and x != 0"), X03)


def test_implies_example():
    assert implies(parse_expr("x = 1"), parse_expr("x > 0"), X03)


def test_implies_not_valid():
    assert not implies(TRUE, parse_expr("x > 0"), X03)


def test_mutually_exclusive_negation():
    e = parse_expr("x > 1")
    assert mutually_exclusive(e, neg(e), X03)


def test_undeclared_variable_raises():
    with pytest.raises(UndeclaredVariable):
        is_unsat(parse_expr("y > 0"), X03)


def _truth_table_unsat(e, domains):
    """An independent enumeration: reversed variable order, direct
    product materialization."""
    from chorus_wsi.syntax.ast import expr_vars
    names = sorted(expr_vars(e), reverse=True)
    pools = [sorted(domains.domains[n], key=str) for n in names]
    for combo in itertools.product(*pools):
        store = Store(dict(zip(names, combo)), tables=domains.tables)
        if eval_expr(e, store).value:
            return False
    return True


@pytest.mark.parametrize("seed", range(150))
def test_is_unsat_agrees_with_truth_table(seed):
    rng = random.Random(seed)
    e = gen.gen_guard(rng, depth=3)
    assert is_unsat(e, gen.GUARD_DOMAINS) == _truth_table_unsat(e, gen.GUARD_DOMAINS)


@pytest.mark.parametrize("seed", range(40))
def test_implies_reflexive(seed):
    e = gen.gen_guard(random.Random(seed), depth=2)
    assert implies(e, e, gen.GUARD_DOMAINS)


@pytest.mark.parametrize("seed", range(40))
def test_implies_transitive(seed):
    rng = random.Random(seed)
    e1, e2, e3 = (gen.gen_guard(rng, depth=2) for _ in range(3))
    if implies(e1, e2, gen.GUARD_DOMAINS) and implies(e2, e3, gen.GUARD_DOMAINS):
        assert implies(e1, e3, gen.GUARD_DOMAINS)


def test_str_domain_gets_other_value(pop2, pop2_domains):
    # equality with a literal outside the declared set must stay refutable
    e = parse_expr('cred = "pw" or cred = "bad"')
    assert not is_unsat(neg(e), pop2_domains)


def test_bool_domain_defaults(multiparty, multiparty_domains):
    assert multiparty_domains.domains["av"] == frozenset(
        {bool_lit(True), bool_lit(False)})


def test_domain_equality_ignores_the_guard_cache(pop2):
    answered = DomainDecl.from_module(pop2)
    fresh = DomainDecl.from_module(pop2)
    is_unsat(parse_expr('cred = "pw"'), answered)
    assert answered == fresh


def test_list_condition_satisfiable():
    nonempty = parse_expr("1..2")
    empty = parse_expr("1..0")
    assert list_condition_satisfiable(TRUE, nonempty, True)
    assert not list_condition_satisfiable(TRUE, nonempty, False)
    assert list_condition_satisfiable(TRUE, empty, False)
    assert not list_condition_satisfiable(TRUE, empty, True)


def test_list_condition_reads_a_range_by_its_bounds(monkeypatch):
    """The emptiness of a range comes from its two bounds, also where
    the guard raises on some store: none of its integer literals is
    built."""
    built = []
    monkeypatch.setattr(guards, "int_lit", lambda n: built.append(n) or int_lit(n))
    items = parse_expr("1..5000")
    assert list_condition_satisfiable(TRUE, items, True)
    assert not list_condition_satisfiable(TRUE, items, False)
    # undefined on the store with the empty list
    guard = parse_expr("hd(l) = 1")
    assert list_condition_satisfiable(guard, items, True, DomainDecl(_LISTS.domains))
    assert built == []


def test_equivalent_commuted_conjunction():
    a = parse_expr("x > 0 and x <= 2")
    b = parse_expr("x <= 2 and x > 0")
    assert equivalent(a, b, X03)


# ------------------------------------------ the decider against enumeration

class _Raises(Exception):
    """No store satisfies the query, and some store raises: the argument
    is the set of (class, message) of the errors those stores raise."""


def _exists(names, domains, holds):
    """Does holds hold on some store over names?  Where none does and
    some store raises, _Raises, whatever the order of the stores."""
    errors = set()
    for store in gen.stores(domains, names):
        try:
            if holds(store):
                return True
        except EvalError as exc:
            errors.add((type(exc), str(exc)))
    if errors:
        raise _Raises(errors)
    return False


def _guard_holds(e, store):
    v = eval_expr(e, store)
    if v.sort != BOOL:
        raise SortMismatch(f"guard of sort {v.sort}, expected Bool")
    return v.value


def _oracle_is_unsat(e, domains):
    return not _exists(expr_vars(e), domains, lambda store: _guard_holds(e, store))


def _oracle_implies(e1, e2, domains):
    return _oracle_is_unsat(conj(e1, neg(e2)), domains)


def _oracle_list_condition(e, items, nonempty, domains):
    def holds(store):
        if not _guard_holds(e, store):
            return False  # the list is read only where e is true
        value = eval_expr(items, store)
        if value.sort.kind != "List":
            raise SortMismatch(f"iterating over non-list {value.sort}")
        return bool(value.value) == nonempty
    return _exists(expr_vars(e) | expr_vars(items), domains, holds)


ORACLES = {
    "is_unsat": _oracle_is_unsat,
    "implies": _oracle_implies,
    "mutually_exclusive": lambda e1, e2, d: _oracle_is_unsat(conj(e1, e2), d),
    "equivalent": lambda e1, e2, d: (_oracle_implies(e1, e2, d)
                                     and _oracle_implies(e2, e1, d)),
    "list_condition_satisfiable": _oracle_list_condition,
}


def _assert_agrees(name, *args):
    """The decider answers as enumeration does, and where enumeration
    finds no satisfying store but a raising one, it raises what one of
    the raising stores raises.  The answer, or the class of the error."""
    try:
        got = getattr(guards, name)(*args)
    except EvalError as exc:
        got = (type(exc), str(exc))
    try:
        want = ORACLES[name](*args)
    except _Raises as exc:
        assert got in exc.args[0], (name, args[:-1], got)
        return got[0]
    except EvalError as exc:
        want = (type(exc), str(exc))
    assert got == want, (name, args[:-1])
    return got[0] if isinstance(got, tuple) else got


_ITEMS = tuple(parse_expr(s) for s in ("1..x", "x..1", "[x]", "0..2", "2..0"))


# atoms over two variables of different domain sizes, so that lifting an
# atom's own table into a query's table must place every digit right
_PAIR_ATOMS = tuple(parse_expr(s) for s in (
    "x < n", "x + n = 3", "flag = (n > 1)", "n * x >= 2"))


def test_decider_agrees_with_enumeration_on_generated_guards():
    domains = DomainDecl({**gen.GUARD_DOMAINS.domains,
                          "n": frozenset(int_lit(i) for i in range(4))})
    rng = random.Random(11)
    answers = set()
    for _ in range(1000):
        e1, e2 = gen.gen_guard(rng, depth=3), gen.gen_guard(rng, depth=3)
        if rng.random() < 0.5:
            e2 = BinOp(rng.choice(("and", "or")), e2, rng.choice(_PAIR_ATOMS))
        answers.add(_assert_agrees("is_unsat", e1, domains))
        for name in ("implies", "mutually_exclusive", "equivalent"):
            answers.add(_assert_agrees(name, e1, e2, domains))
        answers.add(_assert_agrees("list_condition_satisfiable", e1,
                                   rng.choice(_ITEMS), rng.random() < 0.5,
                                   domains))
    assert answers == {True, False}


# twenty variables of four kinds, for guards whose atoms raise: hd and
# tl of an empty list, and an `m` list whose head is Int on one store and
# Bool on another
_KINDS = {
    "b": (TRUE_LIT, FALSE_LIT),
    "n": tuple(int_lit(i) for i in range(3)),
    "l": (Lit(list_sort(INT), ()), Lit(list_sort(INT), (int_lit(1),)),
          Lit(list_sort(INT), (int_lit(2), int_lit(0)))),
    "m": (Lit(list_sort(INT), ()), Lit(list_sort(INT), (int_lit(1),)),
          Lit(list_sort(BOOL), (TRUE_LIT,))),
}
_KIND_NAMES = [f"b{i}" for i in range(8)] + [f"n{i}" for i in range(6)] \
    + [f"l{i}" for i in range(4)] + ["m0", "m1"]
# {v} is the atom's variable and {w} one of the same kind
_KIND_ATOMS = {
    "b": ("{v}", "{v} = {w}"),
    "n": ("{v} > 1", "{v} + {w} >= 2", "{v} = {w}"),
    "l": ("hd({v}) = 1", "hd(tl({v})) > 0", "{v} = [1]"),
    "m": ("hd({v}) > 0", "hd({v}) = hd({w})", "{v} = [true]"),
}
# sort errors on every store
_KIND_ERRORS = {"b": ("{v} + 1 > 0",), "n": ("{v} and true",), "l": ("{v} = 1",),
                "m": ("{v} > 0",)}
_KIND_ITEMS = {"b": ("1..2",), "n": ("0..{v}",), "l": ("tl({v})",), "m": ("{v}",)}


def _kind_text(rng, names, templates):
    v = rng.choice(names)
    w = rng.choice([n for n in names if n[0] == v[0]])
    return rng.choice(templates[v[0]]).format(v=v, w=w)


def _kind_guard(rng, names):
    """A random tree of `and`, `or` and `not` over atoms of each name and
    a few more, one atom in twenty a sort error."""
    def atom(names):
        templates = _KIND_ERRORS if rng.random() < 0.05 else _KIND_ATOMS
        return parse_expr(_kind_text(rng, names, templates))
    parts = [atom([n]) for n in names] + [atom(names) for _ in range(rng.randint(0, 3))]
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        part = BinOp(rng.choice(("and", "or")), parts[i], parts.pop(i + 1))
        parts[i] = UnOp("not", part) if rng.random() < 0.2 else part
    return parts[0]


def test_decider_agrees_with_enumeration_on_wide_guards_that_raise():
    """Guards over 1 to 20 variables declared in a random order, whose
    atoms raise on some stores or on all.  The pools of the variables
    past a thousand stores have one value each, so that enumeration
    stays quick; every variable is still a level of the diagram."""
    rng = random.Random(7)
    answers = set()
    for _ in range(80):
        names = rng.sample(_KIND_NAMES, rng.randint(1, 20))
        domains, size = {}, 1
        for name in names:
            pool = _KINDS[name[0]]
            if size * len(pool) > 1024:
                pool = (rng.choice(pool),)
            size *= len(pool)
            domains[name] = frozenset(pool)
        domains = DomainDecl(domains)
        e1, e2 = _kind_guard(rng, names), _kind_guard(rng, names)
        items = parse_expr(_kind_text(rng, names, _KIND_ITEMS))
        answers.add(_assert_agrees("is_unsat", e1, domains))
        answers.add(_assert_agrees("implies", e1, e2, domains))
        answers.add(_assert_agrees("list_condition_satisfiable", e1, items,
                                   rng.random() < 0.5, domains))
    assert answers == {True, False, Undefined, SortMismatch}


def test_decider_agrees_with_enumeration_on_corpus_queries(monkeypatch, capsys):
    """Every guard query `typecheck` makes on the three corpus modules
    with processes, replayed in order on fresh domains.  A whole-module
    request judges a system's copy of a process judged well typed before
    only once, so each system is also typechecked on its own, which
    judges its processes afresh."""
    from chorus_wsi import pseudotype, typecheck
    from chorus_wsi.cli import main
    import conftest
    queries = []

    def recording(module, name):
        original = getattr(module, name)

        def record(*args):
            queries.append((name, args))
            return original(*args)
        monkeypatch.setattr(module, name, record)

    for module, names in ((typecheck, ("is_unsat", "list_condition_satisfiable")),
                          (pseudotype, ("is_unsat", "mutually_exclusive",
                                        "equivalent"))):
        for name in names:
            recording(module, name)
    for corpus, systems in (("atm.chor", ("ATM_DEP", "ATM_B1C")),
                            ("pop2.chor", ("POP_QUIT", "POP_FULL")),
                            ("pop2_multiparty.chor", ("POP_M_RUN",))):
        main(["typecheck", str(conftest.CORPUS / corpus)])
        for system in systems:
            main(["typecheck", str(conftest.CORPUS / corpus), "--system", system])
    capsys.readouterr()
    monkeypatch.undo()

    fresh = {}
    for name, args in queries:
        domains = args[-1]
        domains = fresh.setdefault(id(domains), DomainDecl(domains.domains,
                                                           domains.tables))
        _assert_agrees(name, *args[:-1], domains)
    assert {name for name, _ in queries} >= {
        "is_unsat", "list_condition_satisfiable"}
    # 778: a branch whose guard is the literal true is kept with no query
    assert len(queries) > 750


_LISTS = DomainDecl({
    "l": frozenset({Lit(list_sort(INT), ()), Lit(list_sort(INT), (int_lit(1),))}),
    "x": frozenset(int_lit(i) for i in range(3)),
})
# a list variable whose values differ in element sort: the sort error of
# hd(l) > 0 depends on the store
_MIXED = DomainDecl({"l": frozenset({Lit(list_sort(INT), (int_lit(1),)),
                                     Lit(list_sort(BOOL), (TRUE_LIT,))})})
# 2^17 stores, more than enumeration would visit in a test
_WIDE = DomainDecl({f"v{i:02d}": frozenset({TRUE_LIT, FALSE_LIT})
                    for i in range(17)})


@pytest.mark.parametrize("name, texts, extra, domains, want", [
    # an atom undefined on some store
    ("is_unsat", ["hd(l) > 1"], (), _LISTS, Undefined),
    ("is_unsat", ["hd(l) > 0 or x > 5"], (), _LISTS, False),
    ("implies", ["x > 0", "hd(l) = 1"], (), _LISTS, Undefined),
    ("equivalent", ["hd(l) = 1", "hd(l) = 1"], (), _LISTS, Undefined),
    ("list_condition_satisfiable", ["x > 0", "tl(l)"], (True,), _LISTS,
     Undefined),
    ("list_condition_satisfiable", ["x > 0", "tl(l)"], (False,), _LISTS, True),
    ("list_condition_satisfiable", ["hd(l) = 1", "l"], (True,), _LISTS, True),
    # sort errors and undeclared variables
    ("is_unsat", ["hd(l) > 0"], (), _MIXED, False),
    ("is_unsat", ["hd(l) > 1"], (), _MIXED, SortMismatch),
    ("is_unsat", ["x and flag"], (), gen.GUARD_DOMAINS, SortMismatch),
    ("mutually_exclusive", ["x > 0", "x + 1"], (), gen.GUARD_DOMAINS,
     SortMismatch),
    ("list_condition_satisfiable", ["flag", "x"], (True,), gen.GUARD_DOMAINS,
     SortMismatch),
    ("is_unsat", ["y > 0"], (), gen.GUARD_DOMAINS, UndeclaredVariable),
    # a query over 17 variables
    ("is_unsat", [" or ".join(f"v{i:02d}" for i in range(17))], (), _WIDE,
     False),
    ("is_unsat", ["v00 + 1 > 0 and v16"], (), _WIDE, SortMismatch),
    # a store that raises comes before the satisfying one in every order
    # of the names: x = 0 opens an empty range
    ("is_unsat", ["hd(0..x - 1) = 0"], (), _LISTS, False),
    ("list_condition_satisfiable", ["hd(0..x - 1) = 0", "l"], (False,), _LISTS,
     True),
    # the list raises only where the guard is false, so it is never read
    ("list_condition_satisfiable", ["l = [1]", "tl(l)"], (True,), _LISTS,
     False),
    ("list_condition_satisfiable", ["l = [1]", "tl(l)"], (False,), _LISTS,
     True),
])
def test_decider_agrees_with_enumeration_on_edge_cases(name, texts, extra,
                                                       domains, want):
    args = [parse_expr(t) for t in texts] + list(extra)
    domains = DomainDecl(domains.domains, domains.tables)
    assert _assert_agrees(name, *args, domains) == want


def test_a_query_raises_the_error_of_its_leftmost_raising_store():
    """No store satisfies the guard: x = 2 opens an empty range, and a
    Bool head is compared with 1.  The error is the one of the leftmost
    raising path, the variables in declaration order and each one's
    values in the order of their printed forms."""
    x = ("x", frozenset(int_lit(i) for i in range(3)))
    l = ("l", frozenset({Lit(list_sort(INT), (int_lit(1),)),
                         Lit(list_sort(BOOL), (TRUE_LIT,))}))
    guard = parse_expr("hd(x..1) > 5 or hd(l) > 1")
    with pytest.raises(SortMismatch, match="^>: expected Int, got Bool$"):
        is_unsat(guard, DomainDecl(dict([x, l])))  # x = 0, l = [true]
    with pytest.raises(Undefined, match="^hd of empty list$"):
        is_unsat(guard, DomainDecl(dict([l, x])))  # l = [1], x = 2
    # every store raises, so the path skips x, which takes its first value
    with pytest.raises(SortMismatch, match="^[+]: expected Int, got Bool$"):
        is_unsat(parse_expr("hd(x..0) + true > 0"), DomainDecl(dict([x])))


def _nodes(e):
    todo, seen = [e], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            todo += [getattr(node, n) for n in ("left", "right", "arg", "lo", "hi")
                     if hasattr(node, n)] + list(getattr(node, "items", ()))


def test_kept_variables_equal_the_reference_walk():
    """`expr_vars` keeps each node's variables on the node.  On 2,000
    seeded guards, many sharing atoms and subtrees, and 500 seeded
    expressions with lists and ranges, the set kept on every node equals
    the one the reference walk computes afresh."""
    from vars_reference import reference_vars
    rng = random.Random(2024)
    exprs = [gen.gen_guard(rng, depth=rng.randint(0, 5)) for _ in range(2000)]
    exprs += [gen.gen_expr(rng, depth=4) for _ in range(500)]
    for e in exprs:
        assert expr_vars(e) == reference_vars(e), e
        for node in _nodes(e):
            assert node._vars == reference_vars(node), node


def test_deep_conjunctions_are_decided_without_recursion():
    """A chain of 5,000 conjuncts from the parser: its variables, its
    mask and its satisfiability are found with explicit stacks."""
    chain = " and ".join(["x > 0"] * 5000)
    assert expr_vars(parse_expr(chain)) == {"x"}
    assert not is_unsat(parse_expr(chain), X03)
    assert is_unsat(parse_expr(chain + " and x < 1"), X03)
    assert is_unsat(parse_expr("x < 1 and " + chain), X03)
    assert not is_unsat(parse_expr(" or ".join(["not (x > 0)"] * 5000)), X03)


def test_the_ring_diagram_grows_linearly_in_its_variables():
    """The ring (x0 or x1) and ... and (x31 or x0) over 32 Bool variables
    declared in order: its diagram has fewer than 4 nodes per variable."""
    v = 32
    domains = DomainDecl({f"x{i}": frozenset({TRUE_LIT, FALSE_LIT}) for i in range(v)})
    ring = parse_expr(" and ".join(f"(x{i} or x{(i + 1) % v})" for i in range(v)))
    assert not is_unsat(ring, domains)
    seen, todo = set(), [ring._diagram[1]]
    while todo:
        node = todo.pop()
        if node.children is not None and id(node) not in seen:
            seen.add(id(node))
            todo += node.children
    assert len(seen) < 4 * v


def test_connectives_keep_their_diagram_and_atoms_share_one_enumeration(monkeypatch):
    """An `and`, `or` or `not` node keeps its diagram on itself, and a
    later query over more variables reuses it as it is; equal atoms of
    two parses are enumerated once per `DomainDecl`."""
    domains = DomainDecl({**X03.domains, "flag": frozenset({TRUE_LIT, FALSE_LIT})})
    first, second = parse_expr("x > 0 and not (x = 2)"), parse_expr("x > 0 and not (x = 2)")
    assert first is not second and first.left is not second.left
    evaluated = []
    original = guards._guard
    monkeypatch.setattr(guards, "_guard",
                        lambda e, store: evaluated.append(e) or original(e, store))
    assert not is_unsat(first, domains)
    assert len(evaluated) == 8  # two atoms, four stores each
    assert not is_unsat(second, domains)
    assert len(evaluated) == 8
    owner, kept = first._diagram
    assert owner is domains and second._diagram[1] is kept
    # x in {1, 3}: the values of x in order are 0, 1, 2, 3
    assert [child is guards._TRUE for child in kept.children] == [False, True, False, True]
    applied = []
    apply = DomainDecl._apply
    monkeypatch.setattr(DomainDecl, "_apply",
                        lambda self, op, *operands: applied.append(operands)
                        or apply(self, op, *operands))
    wider = conj(first, parse_expr("flag"))
    assert not is_unsat(wider, domains)
    assert first._diagram == (domains, kept)
    assert len(applied) == 1 and applied[0][0] is kept  # only the new `and`
    assert len(evaluated) == 10  # flag's two stores


def test_empty_domains_do_not_grow_between_requests(capsys):
    """Requests query `EMPTY_DOMAINS`, which outlives each of them; it
    makes no node and memoizes only the constant atoms asked about it,
    so repeating the requests leaves it as it was."""
    from chorus_wsi.cli import main
    import conftest
    sizes = []
    for _ in range(3):
        for path in conftest.MODULES:
            for command in ("normalize", "typecheck"):
                main([command, str(path)])
        capsys.readouterr()
        sizes.append({name: len(value)
                      for name, value in vars(guards.EMPTY_DOMAINS).items()})
    assert sizes[0] == sizes[1] == sizes[2]
    assert guards.EMPTY_DOMAINS._nodes == []
