import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import chorus_wsi.pseudotype as pt
from chorus_wsi.guards import DomainDecl, EMPTY_DOMAINS, is_unsat, implies
from chorus_wsi.pseudotype import (
    NotMergeable, equiv, merge, normal_form, normalize, remove_guards, viable,
)
from chorus_wsi.syntax import parse_expr, parse_type
from chorus_wsi.syntax.ast import (
    DERIVED, FALSE, TBranch, TEnd, TExternal, TInternal, TIter, TRUE, TSeq,
    UNIT, INT, bool_lit, conj, int_lit, is_true,
)
from chorus_wsi.projection import project, participants
from chorus_wsi.typecheck import instantiate

import gen
from pseudotype_laws import is_local, sort_branches, strip_end_units, weight

D = gen.GUARD_DOMAINS
XPOS = parse_expr("x > 0")
XNEG = parse_expr("x <= 0")
E1 = parse_expr("x = 1")


# ------------------------------------------------------------------ weight

def test_weight_guarded_end():
    assert weight(TEnd(XPOS)) == 1


def test_weight_seq_of_ends():
    assert weight(TSeq(TEnd(), TEnd())) == 3


def test_weight_iter_of_seq():
    t = TIter(TSeq(TEnd(), TEnd()))
    # 1 + (2*1 + 1)
    assert weight(t) == 4


def test_weight_choice():
    t = parse_type("a!(Int). end (+) b!(Int). (c!(Int). end)")
    assert weight(t) == 3


# --------------------------------------------------------------- normalize

def test_normalize_guarded_end():
    out = normalize(XPOS, TEnd(E1), D)
    assert isinstance(out, TEnd)
    assert out.guard == conj(XPOS, E1)


def test_normalize_identity_on_guard_free_choice():
    t = parse_type("a!(Int). end (+) b!(Str). end")
    assert normal_form(t, D) == t


def test_normalize_prunes_unsatisfiable_branch():
    t = TInternal((
        TBranch(XNEG, "y", INT, TEnd()),
        TBranch(XPOS, "z", INT, TEnd()),
    ))
    out = normalize(XPOS, t, D)
    assert isinstance(out, TInternal)
    assert [b.channel for b in out.branches] == ["z"]
    assert out.branches[0].guard == conj(XPOS, XPOS)
    assert isinstance(out.branches[0].cont, TEnd)


def test_normalizing_a_local_type_asks_the_decider_nothing(pop2, pop2_domains,
                                                           monkeypatch):
    """A branch whose guard is the literal true is kept without a query,
    so the projections of POP2's main global type are normalized with no
    query at all, while a guard that is not literally true is decided."""
    queries = []
    satisfiable = DomainDecl._satisfiable
    monkeypatch.setattr(DomainDecl, "_satisfiable", lambda self, *args:
                        queries.append(args[0]) or satisfiable(self, *args))
    g = pop2.globals_["G_POP"].body
    for role in sorted(participants(g)):
        local = project(g, role)
        assert is_local(local) and is_local(normal_form(local, pop2_domains))
    assert queries == []
    normalize(XPOS, parse_type("a!(Int). end (+) b!(Str). end"), D)
    assert queries == [XPOS, XPOS]


def test_normalize_collapses_fully_pruned_choice():
    t = TInternal((TBranch(XNEG, "y", INT, TEnd()),))
    out = normalize(XPOS, t, D)
    assert out == TEnd(FALSE)


def test_normalize_end_seq():
    t = TSeq(TEnd(E1), parse_type("a!(Int). end"))
    out = normalize(XPOS, t, D)
    assert isinstance(out, TInternal)
    assert out.branches[0].guard == conj(conj(XPOS, E1), TRUE) \
        or equiv(out, normalize(conj(XPOS, E1), parse_type("a!(Int). end"), D), D)


def test_normalize_pushes_seq_into_choice():
    t = parse_type("(a!(Int). end (+) b!(Str). end) ; c!(). end")
    out = normal_form(t, D)
    assert isinstance(out, TInternal)
    for b in out.branches:
        assert isinstance(b.cont, TInternal)
        assert b.cont.branches[0].channel == "c"


def test_normalize_iter_cases(norm_eqs):
    from chorus_wsi.guards import DomainDecl
    dd = DomainDecl.from_module(norm_eqs)
    keep = normal_form(norm_eqs.types["NF8_ITER_SEQ"], dd)
    assert isinstance(keep, TSeq) and isinstance(keep.first, TIter)
    collapsed = normal_form(norm_eqs.types["NF8_ITER_SEQ_COLLAPSE"], dd)
    assert isinstance(collapsed, TEnd)
    bare = normal_form(norm_eqs.types["NF9_ITER"], dd)
    assert isinstance(bare, TIter)
    gone = normal_form(norm_eqs.types["NF9_ITER_COLLAPSE"], dd)
    assert isinstance(gone, TEnd)


def test_normalize_remaining_equation_shapes(norm_eqs):
    from chorus_wsi.guards import DomainDecl, equivalent
    dd = DomainDecl.from_module(norm_eqs)
    # a guarded end on the left of ";" folds into the sequel's guards
    folded = normal_form(norm_eqs.types["NF4_END_SEQ"], dd)
    assert isinstance(folded, TInternal)
    assert equivalent(folded.branches[0].guard, XPOS, dd)
    # nested left-association is flattened before the seq is pushed in
    chain = normal_form(norm_eqs.types["NF7_REASSOC"], dd)
    assert isinstance(chain, TInternal)
    assert chain.branches[0].channel == "a"
    inner = chain.branches[0].cont
    assert isinstance(inner, TInternal) and inner.branches[0].channel == "b"
    # an exhausted choice collapses to an unsatisfiable end
    from chorus_wsi.guards import is_unsat as unsat
    dead = normal_form(norm_eqs.types["NF2_ALL_PRUNED"], dd)
    assert isinstance(dead, TEnd) and unsat(dead.guard, dd)


# ------------------------------------------------------------------- merge

def test_mergeable_ends():
    assert isinstance(merge(TEnd(XPOS), TEnd(XNEG), D), TEnd)


def test_merge_ends_disjoins_guards():
    out = merge(TEnd(XPOS), TEnd(XNEG), D)
    assert isinstance(out, TEnd)
    from chorus_wsi.guards import equivalent
    assert equivalent(out.guard, TRUE, D)


def test_mergeable_internal_disjoint_channels():
    t1 = parse_type("a!(Int). end")
    t2 = parse_type("b!(Str). end")
    out = merge(t1, t2, D)
    assert [b.channel for b in out.branches] == ["a", "b"]


def test_not_mergeable_external_overlapping_guards():
    t1 = normal_form(TExternal((TBranch(parse_expr("x > 0"), "y", INT, TEnd()),)), D)
    t2 = normal_form(TExternal((TBranch(parse_expr("x >= 1"), "y", INT, TEnd()),)), D)
    with pytest.raises(NotMergeable):
        merge(t1, t2, D)


def test_merge_idempotent_on_local_types():
    t = parse_type("a?(Int). b!(Str). end (&) c?(). end")
    assert merge(t, t, D) == t


def test_merge_of_guarded_branches_matches_mailbox_type(pop2, pop2_domains):
    """The mail server's conditional: the authenticated branch sends the
    message count and continues with the mailbox loop, the rejected
    branch signals an error and closes; their merge is the declared
    two-branch mailbox type up to guard erasure."""
    from chorus_wsi.syntax.ast import INT as TINT, UNIT as TUNIT
    e = parse_expr("auth(cred)")
    not_e = parse_expr("not auth(cred)")
    t_nmbr = pop2.types["T_NMBR"]
    t_exit = pop2.types["T_EXIT"]
    then = TSeq(TInternal((TBranch(e, "r", TINT, TEnd(e)),)),
                normalize(e, t_nmbr, pop2_domains))
    els = TSeq(TInternal((TBranch(not_e, "e", TUNIT, TEnd(not_e)),)),
               normalize(not_e, t_exit, pop2_domains))
    merged = merge(normal_form(then, pop2_domains),
                   normal_form(els, pop2_domains), pop2_domains)
    assert isinstance(merged, TInternal)
    assert [b.channel for b in merged.branches] == ["r", "e"]
    got = sort_branches(normal_form(remove_guards(merged), pop2_domains))
    want = sort_branches(normal_form(pop2.types["T_MBOX"], pop2_domains))
    assert equiv(got, want, pop2_domains)


def test_merge_mbox_shape():
    """The running example's conditional: guarded send branches merge
    into a two-branch internal choice with complementary guards."""
    e = XPOS
    then = TInternal((TBranch(e, "r", INT, TEnd(e)),))
    els = TInternal((
        TBranch(parse_expr("not x > 0"), "e", UNIT,
                TInternal((TBranch(parse_expr("not x > 0"), "bye", UNIT,
                                   TEnd(parse_expr("not x > 0"))),))),))
    out = merge(normal_form(then, D), normal_form(els, D), D)
    assert isinstance(out, TInternal)
    assert [b.channel for b in out.branches] == ["r", "e"]
    erased = remove_guards(out)
    assert is_local(erased)


# ----------------------------------------------------------- guard removal

def test_remove_guards_end():
    assert remove_guards(TEnd(XPOS)) == TEnd(TRUE)


def test_remove_guards_quotients_same_channel():
    t = TInternal((
        TBranch(XPOS, "y", INT, TEnd(XPOS)),
        TBranch(XNEG, "y", INT, TEnd(XNEG)),
    ))
    out = remove_guards(t)
    assert isinstance(out, TInternal)
    assert len(out.branches) == 1
    assert out.branches[0].guard == TRUE
    assert out.branches[0].cont == TEnd(TRUE)


def test_remove_guards_of_mbox_golden(pop2, pop2_domains):
    t_mbox = pop2.types["T_MBOX"]
    assert remove_guards(t_mbox) == t_mbox  # already guard-free
    assert is_local(remove_guards(normal_form(t_mbox, pop2_domains)))


def test_remove_guards_unmergeable_class():
    t = TInternal((
        TBranch(XPOS, "y", INT, parse_type("a!(Int). end")),
        TBranch(XNEG, "y", INT, parse_type("a?(Int). end")),
    ))
    with pytest.raises(NotMergeable):
        remove_guards(t)


# ---------------------------------------------------------------- viability

def test_viable_end():
    assert viable(TEnd(XPOS), D)


def test_viable_projections_of_pop(pop2, pop2_domains):
    gdef = pop2.globals_["G_POP"]
    g = instantiate(gdef, gdef.params)
    for p in participants(g):
        assert viable(project(g, p), pop2_domains)


def test_not_viable_overlapping_loop_exit():
    body = parse_type("a?(Int). end")
    cont = parse_type("a?(Str). end")  # same channel as the body
    assert not viable(TSeq(TIter(body), cont), D)


# ------------------------- algebraic laws of normalization and merge

def watch_recursion(monkeypatch, seen: list) -> None:
    """Wrap `pseudotype.normalize` so that a call made while another is
    open appends (parent, child) to `seen`: the type the open call
    normalizes and the type this call does."""
    unwatched = pt.normalize
    stack = []

    def watched(e, t, domains=EMPTY_DOMAINS):
        if stack:
            seen.append((stack[-1], t))
        stack.append(t)
        try:
            return unwatched(e, t, domains)
        finally:
            stack.pop()

    monkeypatch.setattr(pt, "normalize", watched)


@pytest.mark.parametrize("seed", range(5))
def test_normalize_terminates_with_decreasing_weight(seed, monkeypatch):
    rng = random.Random(seed)
    t = gen.gen_pseudotype(rng, depth=4)
    calls = []
    watch_recursion(monkeypatch, calls)
    out = pt.normalize(gen.gen_guard(rng), t, D)
    # only an end is answered without recursing: seed 2 draws `end`, and
    # seed 4's guard prunes every branch
    assert calls or isinstance(out, TEnd)
    assert all(weight(parent) > weight(child) for parent, child in calls)


def test_law_suite_sample():
    """A quick slice of the full law suite (the acceptance harness
    runs >= 1000 cases)."""
    failures = run_law_suite(120, seed=42)
    assert failures == []


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32))
def test_nf_aux_property(seed):
    rng = random.Random(seed)
    t = gen.gen_pseudotype(rng, depth=3)
    e = gen.gen_guard(rng)
    e2 = gen.gen_guard(rng)
    lhs = normalize(e, normalize(e2, t, D), D)
    rhs = normalize(conj(e, e2), t, D)
    assert equiv(lhs, rhs, D)


def run_law_suite(n_cases: int, seed: int = 0):
    """Check every normalization/merge law on n_cases random
    pseudo-types; returns a list of failure descriptions."""
    rng = random.Random(seed)
    failures = []
    recursions = 0
    for case in range(n_cases):
        t = gen.gen_pseudotype(rng, depth=4)
        e = gen.gen_guard(rng)
        e2 = gen.gen_guard(rng)

        # termination with the weight variant
        witnessed = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            watch_recursion(monkeypatch, witnessed)
            nf_t = pt.normalize(e, t, D)
        if not all(weight(p) > weight(c) for p, c in witnessed):
            failures.append(f"case {case}: normalization recursed on >= weight")
        recursions += len(witnessed)

        # nf-aux: nf_e(nf_e2(T)) = nf_(e and e2)(T)
        lhs = normalize(e, normalize(e2, t, D), D)
        rhs = normalize(conj(e, e2), t, D)
        if not equiv(lhs, rhs, D):
            failures.append(f"case {case}: nf-aux fails")

        # nf-seq-composition: nf_e(T; nf_e(T2)) = nf_e(T; T2)
        t2 = gen.gen_pseudotype(rng, depth=3)
        lhs = normalize(e, TSeq(t, normalize(e, t2, D)), D)
        rhs = normalize(e, TSeq(t, t2), D)
        if not equiv(lhs, rhs, D):
            failures.append(f"case {case}: nf-seq-composition fails")

        # nf-neutral-end-seq-right: e => e2 implies nf_e(T;[e2]end) = nf_e(T)
        # (equality holds up to the right unit law for ";")
        if implies(e, e2, D):
            lhs = normalize(e, TSeq(t, TEnd(e2)), D)
            rhs = normalize(e, t, D)
            if not equiv(strip_end_units(lhs), strip_end_units(rhs), D):
                failures.append(f"case {case}: nf-neutral-end-seq-right fails")

        # merge/normalization commutation where both merges succeed (merge is
        # defined on normal forms only, so both operands are normalized)
        left = normal_form(t, D)
        right = normal_form(gen.reguard(rng, left), D)
        try:
            raw = merge(left, right, D)
        except NotMergeable:
            raw = None
        try:
            cooked = merge(normal_form(left, D), normal_form(right, D), D)
        except NotMergeable:
            cooked = None
        if raw is not None and cooked is not None:
            if not equiv(normal_form(raw, D), cooked, D):
                failures.append(f"case {case}: merge/normalization fails")

        # false-guard collapse
        false_guard = conj(e, parse_expr("not x = x") if rng.random() < 0.5
                           else FALSE)
        if is_unsat(false_guard, D):
            out = normalize(false_guard, t, D)
            if not (isinstance(out, TEnd) and is_unsat(out.guard, D)):
                failures.append(f"case {case}: false-guard collapse fails")

        # idempotence of the normal form
        nf1 = normal_form(t, D)
        if not equiv(normal_form(nf1, D), nf1, D):
            failures.append(f"case {case}: normal form not idempotent")
    if not recursions:
        failures.append("normalization never recursed")
    return failures


# ------------------------------------------- normal forms kept on the node

def reference_normalize(e, t, domains):
    """`normalize` as a plain recursion that keeps nothing on the nodes:
    the oracle for the kept normal forms."""
    match t:
        case TEnd(g):
            return TEnd(conj(e, g))
        case TInternal(branches) | TExternal(branches):
            keep = tuple(b for b in branches
                         if not is_unsat(conj(e, b.guard), domains))
            if not keep:
                return TEnd(FALSE)
            return type(t)(tuple(
                TBranch(conj(b.guard, e), b.channel, b.sort,
                        reference_normalize(conj(b.guard, e), b.cont, domains))
                for b in keep))
        case TSeq(first, second):
            match first:
                case TEnd(g):
                    return reference_normalize(conj(e, g), second, domains)
                case TInternal(bs) | TExternal(bs):
                    pushed = type(first)(tuple(
                        TBranch(b.guard, b.channel, b.sort, TSeq(b.cont, second))
                        for b in bs))
                    return reference_normalize(e, pushed, domains)
                case TSeq(f2, s2):
                    return reference_normalize(e, TSeq(f2, TSeq(s2, second)),
                                               domains)
                case TIter(_):
                    head = reference_normalize(e, first, domains)
                    if isinstance(head, TEnd):
                        return head
                    return TSeq(head, reference_normalize(e, second, domains))
        case TIter(body):
            nb = reference_normalize(e, body, domains)
            if isinstance(nb, TEnd):
                return nb
            return TIter(nb)
    raise TypeError(f"not a pseudo-type: {t!r}")


# other domains for the generated guards: `x = 0` and `not flag` die here
OTHER_DOMAINS = DomainDecl({
    "x": frozenset({int_lit(1), int_lit(2), int_lit(3)}),
    "flag": frozenset({bool_lit(True)}),
})


def kept_normal_form_mismatches(n_cases: int = 500, seed: int = 0) -> list:
    """Normalize n_cases generated types under D, OTHER_DOMAINS and D
    again; list each result that is not the oracle's, or that a second
    call does not return as it is."""
    rng = random.Random(seed)
    out, differ = [], 0
    for case in range(n_cases):
        t = gen.gen_pseudotype(rng, depth=4)
        want = {id(d): reference_normalize(TRUE, t, d) for d in (D, OTHER_DOMAINS)}
        differ += want[id(D)] != want[id(OTHER_DOMAINS)]
        for d in (D, OTHER_DOMAINS, D):
            got = normal_form(t, d)
            if got != want[id(d)] or normal_form(got, d) is not got:
                out.append((case, t, d))
    assert differ > n_cases // 10  # the two domains tell the types apart
    return out


def test_kept_normal_forms_agree_with_the_recursion():
    assert kept_normal_form_mismatches() == []


def test_a_normal_form_is_its_own_up_to_equivalence():
    """The mark on a result stands for nf(nf(T)) = nf(T): normalizing a
    normal form again gives an equivalent type."""
    rng = random.Random(1)
    for _ in range(500):
        t = gen.gen_pseudotype(rng, depth=4)
        for d in (D, OTHER_DOMAINS):
            nf = normal_form(t, d)
            assert equiv(reference_normalize(TRUE, nf, d), nf, d)


def test_a_cache_blind_to_domains_is_caught(monkeypatch):
    """A copy of `normalize` whose kept entry answers under any
    `DomainDecl` fails the differential test above."""
    def blind(e, t, domains=EMPTY_DOMAINS):
        if not is_true(e):
            return pt._propagate(e, t, domains)
        kept = t._nf
        if kept is not None:
            return t if kept[1] is None else kept[1]
        nf = pt._propagate(TRUE, t, domains)
        object.__setattr__(t, "_nf", (domains, nf))
        object.__setattr__(nf, "_nf", (domains, None))
        return nf

    monkeypatch.setattr(pt, "normalize", blind)
    assert kept_normal_form_mismatches(100)


def test_pickled_nodes_keep_no_derived_value():
    t = gen.gen_pseudotype(random.Random(3), depth=4)
    nf = normal_form(t, D)
    for node in (t, nf):
        hash(node)
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node
        assert not set(DERIVED) & set(copy.__dict__)
        again = normal_form(copy, OTHER_DOMAINS)
        assert again == reference_normalize(TRUE, copy, OTHER_DOMAINS)
        assert copy._nf[0] is OTHER_DOMAINS
