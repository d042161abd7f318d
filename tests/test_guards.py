import itertools
import random

import pytest

from chorus_wsi import guards
from chorus_wsi.guards import (
    DomainDecl, EvalError, SortMismatch, Store, UndeclaredVariable, Undefined,
    equivalent, eval_expr, implies, is_unsat, list_condition_satisfiable,
    mutually_exclusive, satisfiable,
)
from chorus_wsi.syntax import parse_expr
from chorus_wsi.syntax.ast import (
    BOOL, BinOp, FALSE, FALSE_LIT, INT, Lit, TRUE, TRUE_LIT, bool_lit, conj,
    expr_vars, int_lit, list_sort, neg, str_lit,
)

import gen

X03 = DomainDecl({"x": frozenset(int_lit(i) for i in range(4))})


def test_eval_comparison():
    assert eval_expr(parse_expr("x > 0"), Store({"x": int_lit(2)})) == bool_lit(True)


def test_eval_head_of_list_literal():
    assert eval_expr(parse_expr("hd([1, 2])"), Store()) == int_lit(1)


def test_eval_table_lookup(pop2, pop2_domains):
    store = Store({"cred": str_lit("pw")}, tables=pop2_domains.tables)
    assert eval_expr(parse_expr("auth(cred)"), store) == bool_lit(True)
    store2 = Store({"cred": str_lit("nope")}, tables=pop2_domains.tables)
    assert eval_expr(parse_expr("auth(cred)"), store2) == bool_lit(False)


def test_eval_undefined_on_missing_variable():
    with pytest.raises(Undefined) as err:
        eval_expr(parse_expr("x + 1"), Store())
    assert "x" in err.value.missing


def test_eval_sort_mismatch():
    with pytest.raises(SortMismatch):
        eval_expr(parse_expr("1 + true"), Store())


def test_eval_range_inclusive():
    v = eval_expr(parse_expr("0..3"), Store())
    assert [x.value for x in v.value] == [0, 1, 2, 3]


def test_eval_ignores_session_bindings():
    e = parse_expr("x > 0")
    a = Store({"x": int_lit(1)})
    b = Store({"x": int_lit(1)}, sessions={"u": ("a", "b")})
    assert eval_expr(e, a) == eval_expr(e, b)


@pytest.mark.parametrize("seed", range(30))
def test_eval_stable_under_session_part(seed):
    rng = random.Random(seed)
    e = gen.gen_guard(rng, depth=2)
    base = {"x": int_lit(rng.randrange(3)), "flag": bool_lit(rng.random() < 0.5)}
    with_sessions = Store(base, sessions={"u": ("y1",), "w": ("y2",)})
    assert eval_expr(e, Store(base)) == eval_expr(e, with_sessions)


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
    assert satisfiable(neg(e), pop2_domains)


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
    """The emptiness of a range comes from its two bounds, on the mask
    path and on the enumeration path alike: none of its integer literals
    is built."""
    built = []
    monkeypatch.setattr(guards, "int_lit", lambda n: built.append(n) or int_lit(n))
    items = parse_expr("1..5000")
    assert list_condition_satisfiable(TRUE, items, True)
    assert not list_condition_satisfiable(TRUE, items, False)
    # undefined on the store with the empty list: the enumeration fallback
    guard = parse_expr("hd(l) = 1")
    assert list_condition_satisfiable(guard, items, True, DomainDecl(_LISTS.domains))
    assert built == []


def test_equivalent_commuted_conjunction():
    a = parse_expr("x > 0 and x <= 2")
    b = parse_expr("x <= 2 and x > 0")
    assert equivalent(a, b, X03)


# ------------------------------------------ the decider against enumeration

def _enumerate(names, domains):
    """Every total store over the names, in the decider's order, so that
    the first satisfying store (and any error before it) is the same."""
    names = sorted(names)
    missing = [n for n in names if n not in domains.domains]
    if missing:
        raise UndeclaredVariable(missing)
    pools = [sorted(domains.domains[n], key=str) for n in names]
    for combo in itertools.product(*pools):
        yield Store(dict(zip(names, combo)), tables=domains.tables)


def _oracle_is_unsat(e, domains):
    for store in _enumerate(expr_vars(e), domains):
        v = eval_expr(e, store)
        if v.sort != BOOL:
            raise SortMismatch(f"guard of sort {v.sort}, expected Bool")
        if v.value:
            return False
    return True


def _oracle_implies(e1, e2, domains):
    return _oracle_is_unsat(conj(e1, neg(e2)), domains)


def _oracle_list_condition(e, items, nonempty, domains):
    for store in _enumerate(expr_vars(e) | expr_vars(items), domains):
        if not eval_expr(e, store).value:
            continue
        value = eval_expr(items, store)
        if value.sort.kind != "List":
            raise SortMismatch(f"iterating over non-list {value.sort}")
        if bool(value.value) == nonempty:
            return True
    return False


ORACLES = {
    "is_unsat": _oracle_is_unsat,
    "implies": _oracle_implies,
    "mutually_exclusive": lambda e1, e2, d: _oracle_is_unsat(conj(e1, e2), d),
    "equivalent": lambda e1, e2, d: (_oracle_implies(e1, e2, d)
                                     and _oracle_implies(e2, e1, d)),
    "list_condition_satisfiable": _oracle_list_condition,
}


def _outcome(fn, *args):
    """The answer, or the class of the evaluation error raised."""
    try:
        return fn(*args)
    except EvalError as exc:
        return type(exc)


def _assert_agrees(name, *args):
    got = _outcome(getattr(guards, name), *args)
    want = _outcome(ORACLES[name], *args)
    assert got == want, (name, args[:-1])
    return got


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
    assert len(queries) > 1000


_LISTS = DomainDecl({
    "l": frozenset({Lit(list_sort(INT), ()), Lit(list_sort(INT), (int_lit(1),))}),
    "x": frozenset(int_lit(i) for i in range(3)),
})
# a list variable whose values differ in element sort: the sort error of
# hd(l) > 0 depends on the store
_MIXED = DomainDecl({"l": frozenset({Lit(list_sort(INT), (int_lit(1),)),
                                     Lit(list_sort(BOOL), (TRUE_LIT,))})})
# 2^17 stores: above the largest space the decider builds masks for
_WIDE = DomainDecl({f"v{i:02d}": frozenset({TRUE_LIT, FALSE_LIT})
                    for i in range(17)})


@pytest.mark.parametrize("name, texts, extra, domains, want", [
    # an atom undefined on some store: the enumeration fallback
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
    # a query above the mask cap: enumeration
    ("is_unsat", [" or ".join(f"v{i:02d}" for i in range(17))], (), _WIDE,
     False),
    ("is_unsat", ["v00 + 1 > 0 and v16"], (), _WIDE, SortMismatch),
])
def test_decider_agrees_with_enumeration_on_edge_cases(name, texts, extra,
                                                       domains, want):
    if domains is _WIDE:
        assert 2 ** 17 > guards._MAX_STORES
    args = [parse_expr(t) for t in texts] + list(extra)
    domains = DomainDecl(domains.domains, domains.tables)
    assert _assert_agrees(name, *args, domains) == want


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


def test_connectives_keep_their_mask_and_atoms_share_one_enumeration(monkeypatch):
    """An `and`, `or` or `not` node keeps the mask of its last query on
    itself; equal atoms of two parses are enumerated once per space."""
    domains = DomainDecl(X03.domains)
    first, second = parse_expr("x > 0 and not (x = 2)"), parse_expr("x > 0 and not (x = 2)")
    assert first is not second and first.left is not second.left
    evaluated = []
    original = guards._bool_value
    monkeypatch.setattr(guards, "_bool_value",
                        lambda e, store: evaluated.append(e) or original(e, store))
    assert not is_unsat(first, domains)
    calls = len(evaluated)
    assert calls == 8  # two atoms, four stores each
    assert not is_unsat(second, domains)
    assert len(evaluated) == calls
    space, mask = first._mask
    assert second._mask == (space, mask) and mask == 0b1010  # x in {1, 3}
    assert first.right._mask == (space, 0b1011)
    # a query over more variables computes the mask again in its space
    wider = DomainDecl({**X03.domains, "flag": frozenset({TRUE_LIT, FALSE_LIT})})
    assert not is_unsat(conj(first, parse_expr("flag")), wider)
    assert first._mask[0] is not space
