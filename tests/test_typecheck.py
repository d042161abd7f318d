import pytest

from chorus_wsi.guards import DomainDecl, Store
from chorus_wsi.pseudotype import (
    equiv, normal_form, normalize, passively_compatible_types, remove_guards,
)
from chorus_wsi.syntax import parse_expr, parse_process, parse_type, render_type
from chorus_wsi.syntax.ast import (
    Branch, FALSE, INT, STR, Send, Seq, TEnd, TExternal, TInternal, TIter,
    TRUE, TSeq, UNIT, Var, bool_lit, int_lit, is_local,
)
from chorus_wsi.projection import project
from chorus_wsi.typecheck import (
    SpecEnv, TypingError, consistent, env_restrict, env_union,
    gamma_from_domains, independent, instantiate, participants_ordered,
    session_type_of, typecheck_process, typecheck_system, unique_role,
)

import gen

D = gen.GUARD_DOMAINS
KEY = (("a", "b", "c"), "p")


def _env(sessions=None, queues=None, shared=None):
    return SpecEnv.make(shared or {}, sessions or {}, queues or {})


# -------------------------------------------------------- environment ops

def _open_session_type(text, gamma=None):
    """The pseudo-type synthesized for session KEY by an open process
    whose channels a and b carry Int and Str."""
    delta = typecheck_process(gamma or {}, TRUE, parse_process(text), {}, D,
                              session=(KEY, {"a": INT, "b": STR}))
    return delta.session_map()[KEY]


def test_env_seq_pointwise():
    t1 = parse_type("a!(Int). end")
    t2 = parse_type("b?(Str). end")
    assert _open_session_type("a!(1); b?(v). 0") == TSeq(t1, t2)


def test_env_union_empty():
    assert env_union(_env(), _env()) == _env()


def test_env_union_rejects_same_role():
    d1 = _env({KEY: TEnd()})
    with pytest.raises(TypingError):
        env_union(d1, d1)


def test_env_star():
    t = parse_type("a!(Int). end")
    assert _open_session_type("for i in 1..2 { a!(1) }") == TIter(t)


def test_env_restrict():
    d = _env({KEY: TEnd()}, {"a": (INT,)})
    out = env_restrict(d, ("a", "b", "c"))
    assert out.session_map() == {} and out.queue_map() == {}


def test_env_merge_normalizes_then_merges():
    merged = _open_session_type("if x > 0 then a!(1) else b!(\"s\")",
                                gamma={"x": INT})
    assert isinstance(merged, TInternal)
    assert [b.channel for b in merged.branches] == ["a", "b"]


def test_independent():
    other = (("d", "e"), "q")
    assert independent(_env({KEY: TEnd()}), _env({other: TEnd()}))
    assert independent(_env({KEY: TEnd()}), _env({(KEY[0], "q"): TEnd()}))
    assert not independent(_env({KEY: TEnd()}), _env({KEY: TEnd()}))


# ---------------------------------------------------------------- predicates

def test_active_internal_choice():
    assert isinstance(_open_session_type("for i in 1..2 { a!(1) }"), TIter)
    with pytest.raises(TypingError) as err:
        _open_session_type("for i in 1..2 { b?(v). 0 }")
    assert err.value.rule == "VFor"
    assert "must start with an output choice" in err.value.message


def test_passively_compatible():
    body = parse_type("fold?(Str). end (&) read?(Int). end")
    exit_ = parse_type("quit?(). end")
    assert passively_compatible_types(body, exit_)
    assert not passively_compatible_types(body, body)


# --------------------------------------------------------------- consistency

def test_consistent_empty():
    ok, problems = consistent(Store(), {}, TRUE, _env())
    assert ok, problems


def test_consistent_send_needs_one_live_branch():
    from chorus_wsi.syntax.ast import TBranch
    xpos = parse_expr("x > 0")
    xneg = parse_expr("x <= 0")
    t = TInternal((TBranch(xpos, "y", INT, TEnd()),
                   TBranch(xneg, "z", INT, TEnd())))
    store = Store({"x": int_lit(1), "y": int_lit(0), "z": int_lit(0)})
    delta = SpecEnv.make({}, {(("y", "z"), "p"): t}, {})
    store = Store({"x": int_lit(1)}, sessions={"u": ("y", "z")})
    ok, problems = consistent(store, {}, TRUE, delta)
    assert ok, problems


def test_consistent_fails_on_false_assumption():
    store = Store({"x": int_lit(1)})
    ok, problems = consistent(store, {}, parse_expr("x = 0"), _env())
    assert not ok
    assert any("assumption" in p for p in problems)


def test_consistent_receive_needs_all_branches():
    from chorus_wsi.syntax.ast import TBranch
    xpos = parse_expr("x > 0")
    t = TExternal((TBranch(xpos, "y", INT, TEnd(xpos)),))
    delta = SpecEnv.make({}, {(("y",), "p"): t}, {})
    bad = Store({"x": int_lit(0)}, sessions={"u": ("y",)})
    ok, _problems = consistent(bad, {}, TRUE, delta)
    assert not ok


# ------------------------------------------------------------ typing engine

def test_nil_types_to_empty_spec(pop2, pop2_domains):
    delta = typecheck_process({}, TRUE, Branch(()), {}, pop2_domains)
    assert delta.session_map() == {}


def test_pop2_init_accepted(pop2, pop2_domains):
    gamma = gamma_from_domains(pop2_domains)
    shared = {"u": pop2.globals_["G_POP"]}
    delta = typecheck_process(gamma, TRUE, pop2.processes["Init"].body,
                              shared, pop2_domains)
    assert delta.session_map() == {}


def test_pop2_init_session_guard_erases_to_ts(pop2, pop2_domains):
    from chorus_wsi.pseudotype import sort_branches
    gamma = gamma_from_domains(pop2_domains)
    shared = {"u": pop2.globals_["G_POP"]}
    key, t = session_type_of(gamma, TRUE, pop2.processes["Init"].body,
                             shared, pop2_domains)
    assert key[1] == "s"
    erased = remove_guards(normal_form(t, pop2_domains))
    want = remove_guards(normal_form(pop2.types["T_s"], pop2_domains))
    assert render_type(sort_branches(erased)) == render_type(sort_branches(want))


def test_b1_accepted_b2_rejected(atm, atm_domains):
    gamma = gamma_from_domains(atm_domains)
    shared = {"atm": atm.globals_["G_ATM"]}
    typecheck_process(gamma, TRUE, atm.processes["B1"].body, shared, atm_domains)
    with pytest.raises(TypingError) as err:
        typecheck_process(gamma, TRUE, atm.processes["B2"].body, shared,
                          atm_domains)
    assert err.value.rule == "VSend"
    assert "internal choice" in err.value.message


def test_vif_rejects_inconsistent_assumption(atm_domains):
    gamma = {"x": INT}
    p = parse_process("if x > 0 then { if x <= 0 then a!(1) else a!(2) } "
                      "else b!(3)")
    with pytest.raises(TypingError) as err:
        typecheck_process(gamma, TRUE, p, {}, D,
                          session=(((("a", "b"), "p")), {"a": INT, "b": INT}))
    assert err.value.rule == "VIf"


def test_queue_typing(pop2, pop2_domains):
    from chorus_wsi.syntax.ast import Lit, Proc, Queue, STR
    delta = typecheck_system({}, TRUE, Proc(Branch(())), {}, pop2_domains)
    assert delta.queue_map() == {}
    q = Queue("y", (int_lit(1), Lit(STR, "s")))
    delta = typecheck_system({}, TRUE, q, {}, pop2_domains)
    assert delta.queue_map() == {"y": (INT, STR)}


def test_empty_queue_typing(pop2_domains):
    from chorus_wsi.syntax.ast import Queue
    delta = typecheck_system({}, TRUE, Queue("y", ()), {}, pop2_domains)
    assert delta.queue_map() == {"y": ()}


def test_overlapping_specifications_not_independent(atm, atm_domains):
    # two components claiming the same session resources fail VPar:
    # visible here through overlapping queue domains (a consumed accept
    # leaves no session entry behind, exactly as rule VAcc prescribes)
    from chorus_wsi.syntax.ast import Par, Queue
    with pytest.raises(TypingError) as err:
        typecheck_system({}, TRUE, Par(Queue("y", ()), Queue("y", ())),
                         {}, atm_domains)
    assert err.value.rule == "VPar"
    d1 = _env({KEY: TEnd()})
    assert not independent(d1, d1)
    with pytest.raises(TypingError):
        env_union(d1, d1)


def test_full_corpus_systems_well_typed(pop2, atm, multiparty, pop2_domains,
                                        atm_domains, multiparty_domains):
    cases = [
        (pop2, pop2_domains, "POP_FULL", {"u": pop2.globals_["G_POP"]}),
        (atm, atm_domains, "ATM_B1C", {"atm": atm.globals_["G_ATM"]}),
        (multiparty, multiparty_domains, "POP_M_RUN",
         {"u": multiparty.globals_["G_POP_P"]}),
    ]
    for module, domains, name, shared in cases:
        gamma = gamma_from_domains(domains)
        typecheck_system(gamma, TRUE, module.systems[name].body, shared, domains)


def test_multiparty_init2_accepted(multiparty, multiparty_domains):
    gamma = gamma_from_domains(multiparty_domains)
    shared = {"u": multiparty.globals_["G_POP_M"]}
    typecheck_process(gamma, TRUE, multiparty.processes["Init2"].body,
                      shared, multiparty_domains)


# --------------------------------------------------------------- unique role

def test_unique_role_examples(pop2):
    from chorus_wsi.syntax.ast import For
    init = pop2.processes["Init"].body
    assert unique_role(init, "u", "s")
    assert not unique_role(Send("y", parse_expr("1")), "u", "s")
    loop = For("x", parse_expr("1..2"), init)
    assert not unique_role(loop, "u", "s")


def test_unique_role_request_is_role_zero(pop2):
    # G_POP's first participant is c, so a requester plays role c only
    cq = pop2.processes["CQuit"].body
    assert unique_role(cq, "u", "c", role0="c")
    assert not unique_role(cq, "u", "s", role0="c")


# --------------------------------------------------------- meta properties

def _session_for(proc_text, sorts):
    p = parse_process(proc_text)
    key = ((tuple(sorted(sorts)), "p"), sorts)
    return p, key


def test_structural_congruence_stability(pop2_domains):
    sorts = {"a": INT, "b": INT}
    key = ((("a", "b"), "p"), sorts)
    variants = [
        "a!(1); { b!(2); 0 }",
        "{ a!(1); b!(2) }; 0",
        "a!(1); b!(2)",
    ]
    types = []
    for text in variants:
        p = parse_process(text)
        delta = typecheck_process({}, TRUE, p, {}, D, session=key)
        types.append(delta.session_map()[(("a", "b"), "p")])
    base = normal_form(types[0], D)
    for t in types[1:]:
        assert equiv(normal_form(t, D), base, D)


def test_weakening(atm, atm_domains):
    gamma = gamma_from_domains(atm_domains)
    shared = {"atm": atm.globals_["G_ATM"]}
    b1 = atm.processes["B1"].body
    d1 = typecheck_process(gamma, TRUE, b1, shared, atm_domains)
    gamma2 = dict(gamma)
    gamma2["completely_fresh"] = INT
    d2 = typecheck_process(gamma2, TRUE, b1, shared, atm_domains)
    assert d1 == d2


def test_guard_strengthening():
    from chorus_wsi.syntax.ast import BOOL
    key = ((("a", "b"), "p"), {"a": INT, "b": INT})
    p = parse_process("if flag then a!(1) else b!(2)")
    e2 = parse_expr("x > 0")
    gamma = {"flag": BOOL, "x": INT}
    d_weak = typecheck_process(gamma, TRUE, p, {}, D, session=key)
    d_strong = typecheck_process(gamma, e2, p, {}, D, session=key)
    t_weak = d_weak.session_map()[(("a", "b"), "p")]
    t_strong = d_strong.session_map()[(("a", "b"), "p")]
    assert equiv(normal_form(t_strong, D), normalize(e2, t_weak, D), D)


def test_false_assumption_collapses_sessions():
    key = ((("a", "b"), "p"), {"a": INT, "b": INT})
    p = parse_process("a!(1)")
    delta = typecheck_process({}, FALSE, p, {}, D, session=key)
    t = delta.session_map()[(("a", "b"), "p")]
    nf = normal_form(t, D)
    assert isinstance(nf, TEnd)
    from chorus_wsi.guards import is_unsat
    assert is_unsat(nf.guard, D)
