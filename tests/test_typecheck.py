import pytest

from chorus_wsi import guards
from chorus_wsi.cli import main
from chorus_wsi.guards import DomainDecl, Store
from chorus_wsi.pseudotype import (
    equiv, normal_form, normalize, remove_guards,
)
from chorus_wsi.syntax import (
    parse_expr, parse_global, parse_module, parse_process, parse_type,
    render_type,
)
from chorus_wsi.syntax.ast import (
    Accept, Branch, Const, FALSE, For, GlobalDef, INT, RepeatUntil, STR, Send,
    Seq, TEnd, TExternal, TInternal, TIter, TRUE, TSeq, UNIT, Var, bool_lit,
    int_lit,
)
from chorus_wsi.projection import project
from chorus_wsi.typecheck import (
    TypingError, gamma_from_domains, instantiate, participants_ordered,
    shared_env, typecheck_process, typecheck_system, unique_role,
)

import conftest
import gen
from conformance_reference import SpecEnv, consistent
from pseudotype_laws import is_local, sort_branches

D = gen.GUARD_DOMAINS
KEY = (("a", "b", "c"), "p")


# -------------------------------------------------------- environment ops

def _open_session_type(text, gamma=None):
    """The pseudo-type synthesized for session KEY by an open process
    whose channels a and b carry Int and Str."""
    sessions = typecheck_process(gamma or {}, TRUE, parse_process(text), {}, D,
                                 session=(KEY, {"a": INT, "b": STR}))
    return sessions[KEY]


def test_env_seq_pointwise():
    t1 = parse_type("a!(Int). end")
    t2 = parse_type("b?(Str). end")
    assert _open_session_type("a!(1); b?(v). 0") == TSeq(t1, t2)


def test_env_star():
    t = parse_type("a!(Int). end")
    assert _open_session_type("for i in 1..2 { a!(1) }") == TIter(t)


def test_env_merge_normalizes_then_merges():
    merged = _open_session_type("if x > 0 then a!(1) else b!(\"s\")",
                                gamma={"x": INT})
    assert isinstance(merged, TInternal)
    assert [b.channel for b in merged.branches] == ["a", "b"]


# ---------------------------------------------------------------- predicates

def test_active_internal_choice():
    assert isinstance(_open_session_type("for i in 1..2 { a!(1) }"), TIter)
    with pytest.raises(TypingError) as err:
        _open_session_type("for i in 1..2 { b?(v). 0 }")
    assert err.value.rule == "VFor"
    assert "must start with an output choice" in err.value.message


# --------------------------------------------------------------- consistency

def test_consistent_empty():
    ok, problems = consistent(Store({}, {}), {}, {}, TRUE, SpecEnv.make())
    assert ok, problems


def test_consistent_send_needs_one_live_branch():
    from chorus_wsi.syntax.ast import TBranch
    xpos = parse_expr("x > 0")
    xneg = parse_expr("x <= 0")
    t = TInternal((TBranch(xpos, "y", INT, TEnd()),
                   TBranch(xneg, "z", INT, TEnd())))
    delta = SpecEnv.make({}, {(("y", "z"), "p"): t}, {})
    store = Store({"x": int_lit(1)}, {})
    ok, problems = consistent(store, {"u": ("y", "z")}, {}, TRUE, delta)
    assert ok, problems


def test_consistent_needs_the_sessions_channels_bound():
    """A session of the specification whose channels no open bound, nor
    the store, breaks the store-binding clause."""
    from chorus_wsi.syntax.ast import TBranch
    t = TInternal((TBranch(TRUE, "y", INT, TEnd()), TBranch(TRUE, "z", INT, TEnd())))
    delta = SpecEnv.make({}, {(("y", "z"), "p"): t}, {})
    ok, problems = consistent(Store({"x": int_lit(1)}, {}), {}, {}, TRUE, delta)
    assert not ok and problems == ["store does not bind ['y', 'z']"]


def test_consistent_fails_on_false_assumption():
    store = Store({"x": int_lit(1)}, {})
    ok, problems = consistent(store, {}, {}, parse_expr("x = 0"), SpecEnv.make())
    assert not ok
    assert any("assumption" in p for p in problems)


def test_consistent_receive_needs_all_branches():
    from chorus_wsi.syntax.ast import TBranch
    xpos = parse_expr("x > 0")
    t = TExternal((TBranch(xpos, "y", INT, TEnd(xpos)),))
    delta = SpecEnv.make({}, {(("y",), "p"): t}, {})
    bad = Store({"x": int_lit(0)}, {})
    ok, _problems = consistent(bad, {"u": ("y",)}, {}, TRUE, delta)
    assert not ok


# ------------------------------------------------------------ typing engine

def test_nil_types_to_empty_spec(pop2, pop2_domains):
    assert typecheck_process({}, TRUE, Branch(()), {}, pop2_domains) == {}


def test_pop2_init_accepted(pop2, pop2_domains):
    gamma = gamma_from_domains(pop2_domains)
    shared = {"u": pop2.globals_["G_POP"]}
    assert typecheck_process(gamma, TRUE, pop2.processes["Init"].body,
                             shared, pop2_domains) == {}


def test_pop2_init_session_guard_erases_to_ts(pop2, pop2_domains):
    gamma = gamma_from_domains(pop2_domains)
    shared = {"u": pop2.globals_["G_POP"]}
    key, t = conftest.session_type_of(gamma, TRUE, pop2.processes["Init"].body,
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
    assert typecheck_system({}, TRUE, Proc(Branch(())), {}, pop2_domains) == {}
    q = Queue("y", (int_lit(1), Lit(STR, "s")))
    assert typecheck_system({}, TRUE, q, {}, pop2_domains) == {"y": (INT, STR)}


def test_empty_queue_typing(pop2_domains):
    from chorus_wsi.syntax.ast import Queue
    assert typecheck_system({}, TRUE, Queue("y", ()), {}, pop2_domains) \
        == {"y": ()}


def test_overlapping_specifications_not_independent(atm, atm_domains):
    # two components claiming the same session resources fail VPar:
    # visible here through overlapping queue domains (a consumed accept
    # leaves no session entry behind, exactly as rule VAcc prescribes)
    from chorus_wsi.syntax.ast import Par, Queue
    with pytest.raises(TypingError) as err:
        typecheck_system({}, TRUE, Par(Queue("y", ()), Queue("y", ())),
                         {}, atm_domains)
    assert err.value.rule == "VPar"


VPAR_MODULE = """
global G(a) = p -> q : { a(Unit). end }
process Q plays q of G = accept u[q](a). a?(). 0
system S = %s
"""


@pytest.mark.parametrize("system, error", [
    ("Q || queue a = [] || queue a = []",
     "VPar: parallel components are not independent (at par-right)"),
    ("Q || new (a)@u in queue a = [] || queue a = []",
     "VPar: parallel components are not independent (at par-right / new)"),
    ("Q || { new (a)@u in queue a = [] } || queue a = []", None),
], ids=["shared-queue", "shared-queue-under-new", "queue-bound-by-new"])
def test_parallel_systems_share_no_free_queue(system, error):
    """VPar rejects two sides with a free queue in common, VNew binds
    its channels, and a process that has opened its session leaves no
    session behind to clash with: checked on parsed systems."""
    module = parse_module(VPAR_MODULE % system)
    domains = DomainDecl.from_module(module)
    gamma = gamma_from_domains(domains)
    body = module.systems["S"].body
    shared = shared_env(module.globals_["G"], body)
    if error is None:
        assert typecheck_system(gamma, TRUE, body, shared, domains) == {"a": ()}
        return
    with pytest.raises(TypingError) as err:
        typecheck_system(gamma, TRUE, body, shared, domains)
    assert str(err.value) == error


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
    init = pop2.processes["Init"].body
    assert unique_role(init, "u", "s")
    assert not unique_role(Send("y", parse_expr("1")), "u", "s")
    loop = For("x", parse_expr("1..2"), init)
    assert not unique_role(loop, "u", "s")
    # a loop plays the role only when its body runs exactly once
    for items in ("1..1", "[3]", "2..2 + 0"):
        assert unique_role(For("x", parse_expr(items), init), "u", "s"), items
    for items in ("[1, 2]", "2..1", "[]", "1..n", "[n]", "1..true"):
        assert not unique_role(For("x", parse_expr(items), init), "u", "s"), items


def test_constant_for_range_builds_none_of_its_literals(monkeypatch, pop2):
    """Typing a `for` over a constant range decides that the loop runs,
    and `unique_role` that it runs more than once, from the range's two
    bounds: none of its integer literals is built."""
    built = []
    monkeypatch.setattr(guards, "int_lit", lambda n: built.append(n) or int_lit(n))
    assert isinstance(_open_session_type("for i in 1..5000 { a!(i) }"), TIter)
    loop = For("x", parse_expr("1..5000"), pop2.processes["Init"].body)
    assert not unique_role(loop, "u", "s")
    assert built == []


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
        sessions = typecheck_process({}, TRUE, p, {}, D, session=key)
        types.append(sessions[(("a", "b"), "p")])
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
    t_weak = d_weak[(("a", "b"), "p")]
    t_strong = d_strong[(("a", "b"), "p")]
    assert equiv(normal_form(t_strong, D), normalize(e2, t_weak, D), D)


def test_false_assumption_collapses_sessions():
    key = ((("a", "b"), "p"), {"a": INT, "b": INT})
    p = parse_process("a!(1)")
    t = typecheck_process({}, FALSE, p, {}, D, session=key)[(("a", "b"), "p")]
    nf = normal_form(t, D)
    assert isinstance(nf, TEnd)
    from chorus_wsi.guards import is_unsat
    assert is_unsat(nf.guard, D)


# ------------------------------------------------- every typing rejection

_G = "global G(a, b) = p -> q : { a(Int). q -> p : { b(Int). end } }\n"
_G_CHOICE = "global G(a, b) = p -> q : { a(Int). end + b(Int). end }\n"
_DOMAIN_N = "domain n : Int in {0, 1}\n"
_UNINFORMED_R = ("global G(a, b, c) = p -> q : { a(Int). q -> r : { c(Int). "
                 "end } + b(Int). end }\n")


def _plays(role: str, opening: str, body: str, glob: str = _G) -> str:
    """A module whose process P plays `role` of G, opening with `opening`
    on the shared name u."""
    return glob + f"process P plays {role} of G = {opening}. {body}\n"


def _q(body: str, glob: str = _G) -> str:
    """P plays q of G: it accepts on u, then runs body."""
    return _plays("q", "accept u[q](a, b)", body, glob)


# Each case: (module, rule, start of the message, covering's reason or
# None).  `wsi --mode covering` gives the same reason where it checks the
# same condition: `typecheck.open_problem` on every open of the checked
# shared name, and whether the role is a participant.  `typecheck` and
# `wsi --mode typing` give every shared name of a process the global, so
# no command line reaches an open on a shared name with no global type.
_REJECTIONS = {
    "operand-sort": (_q("a?(x). b!(x + true)"), "sort",
                     "+: expected Int, got Bool", None),
    "equality-sorts": (_q("a?(x). b!(x = true)"), "sort",
                       "= compares Int with Bool", None),
    "tl-non-list": (_q("a?(x). b!(tl(x))"), "sort", "tl of non-list Int", None),
    "unknown-table": (_q("a?(x). b!(f(x))"), "sort",
                      "unknown operator or table 'f'", None),
    "mixed-list": (_q("a?(x). b!(hd([1, true]))"), "sort",
                   "mixed-sort list literal", None),
    "payload-sort": (_q("a?(x). b!(true)"), "VSend",
                     "payload on 'b' has sort Bool, channel carries Int", None),
    "mixed-sessions": (_q("accept v[q](c, d). sum { a?(x). 0 + c?(y). 0 }",
                          _G_CHOICE), "VRcv",
                       "branch mixes channels of different sessions", None),
    "arms-disagree": (_q("accept v[q](c, d). sum { c?(x). a?(y). 0 + d?(z). 0 }",
                         _G_CHOICE), "VRcv", "arms disagree on other sessions",
                      None),
    "non-bool-condition": (_q("a?(x). if x then b!(1) else b!(2)"), "VIf",
                           "condition has sort Int, expected Bool", None),
    "unmergeable": (_DOMAIN_N + _q("a?(x). if n > 0 then b!(1) else a?(y). 0"),
                    "VIf", "branch types not mergeable: shapes TInternal and "
                    "TExternal", None),
    "for-non-list": (_q("a?(x). for i in x { b!(i) }"), "VFor",
                     "iterating over non-list Int", None),
    "for-undecided": (_DOMAIN_N + _q("a?(x). for i in tl(1..n) { b!(i) }"),
                      "VFor", "cannot decide emptiness of the list: tl of "
                      "empty list", None),
    "for-guard-on-binder": (
        "domain i : Int in {1, 2}\n"
        + _q("a?(x). for i in [1, 2] { if i > 1 then b!(1) else b!(2) }"),
        "VFor", "guards depend on the iteration variable 'i'", None),
    "loop-sessions": (_q("repeat { 0 } until { a?(x). b!(1) }"), "VLoop",
                      "repeat and until must use exactly one common session",
                      None),
    "loop-channels": (_q("repeat { a?(x). 0 } until { a?(y). 0 }", _G_CHOICE),
                      "VLoop", "repeat body and until guard must use disjoint "
                      "channels", None),
    "not-a-participant": (_plays("z", "accept u[z](a, b)", "a?(x). b!(1)"),
                          "VAcc", "'z' is not a participant of G",
                          "'z' is not a participant of G"),
    "no-participant": ("global G(a) = end\nprocess P plays p of G = "
                       "request u[0](a). 0\n", "VReq",
                       "G has no participant to request", None),
    "initiator-accepts": (
        _plays("p", "for i in [1] { accept u[p](a, b)", "{ a!(1); b?(y). 0 } }"),
        "VAcc", "role 'p' initiates G and must request, not accept (at for-body)",
        "role 'p' initiates G and must request, not accept"),
    "accept-too-few-channels": (
        _plays("q", "for i in [1] { accept u[q](a)", "a?(x). 0 }"), "VAcc",
        "global G has 2 session channels, got 1 (at for-body)",
        "global G has 2 session channels, got 1"),
    "request-too-many-channels": (
        _plays("p", "for i in [1] { request u[1](a, b, c)", "{ a!(1); b?(y). 0 } }"),
        "VReq", "global G has 2 session channels, got 3 (at for-body)",
        "global G has 2 session channels, got 3"),
    "request-arity": (
        _plays("p", "request u[2](a, b)", "{ a!(1); b?(y). 0 }"), "VReq",
        "request arity 2, but G has 1 other participants",
        "request arity 2, but G has 1 other participants"),
    "not-projectable": (_plays("r", "accept u[r](a, b, c)", "c?(x). 0",
                               _UNINFORMED_R), "VAcc",
                        "G is not projectable on 'r': cannot merge branches "
                        "for uninvolved 'r'", None),
}


@pytest.mark.parametrize("case", _REJECTIONS)
def test_every_typing_rejection_names_its_rule(case, tmp_path, capsys):
    """Each way typing rejects a process, on a minimal module, through
    the command line: the violated rule and the start of its message.
    Where covering checks the same condition, it gives the same reason."""
    module, rule, message, covering = _REJECTIONS[case]
    path = tmp_path / "m.chor"
    path.write_text(module)
    wsi = ["wsi", str(path), "--proc", "P", "--mode"]
    assert main(["typecheck", str(path)]) == 1
    out = capsys.readouterr().out.removeprefix("P: ")
    assert out.startswith(f"{rule}: {message}"), out
    if covering is not None:
        assert main([*wsi, "covering"]) == 1
        assert capsys.readouterr().out \
            == f"covering: MissingRun <empty>: {covering}\n"


_TWO_SHARED_NAMES = _q("accept v[q](c, d). 0")
_REBOUND_CHANNEL = """\
global G(a) = p -> q : { a(Int). p -> q : { k(Bool). end } }
process P plays q of G = accept u[q](k). k?(x). k?(y). 0
"""
_TWO_SORTS = """\
global G(a) = p -> q : { a(Int). p -> q : { a(Bool). end } }
process P plays q of G = accept u[q](a). a?(x). a?(y). 0
"""


@pytest.mark.parametrize("module, line", [
    pytest.param(_TWO_SHARED_NAMES, "VEnd: the process stops where the "
                 "specification expects an input on ['c'] (at vacc u[q] / "
                 "session of q)", id="two-shared-names"),
    pytest.param(_REBOUND_CHANNEL, "VAcc: G uses channels that are not its "
                 "parameters: k (at <top>)", id="rebound-channel"),
    pytest.param(_TWO_SORTS, "VAcc: G is not projectable: channel 'a' "
                 "used at sorts Int and Bool (at <root>) (at <top>)",
                 id="parameter-at-two-sorts")])
def test_typecheck_and_wsi_typing_give_one_rejection(module, line, tmp_path,
                                                     capsys):
    """`typecheck` and `wsi --mode typing` judge a process under one
    specification: every shared name it opens has the global.  An open
    on a global that uses a channel it does not take as a parameter is
    rejected at the open, whatever the open's binders are named, and so
    is an open on a global that uses one parameter at two sorts, as a
    typing rejection, not an error that escapes typing."""
    path = tmp_path / "m.chor"
    path.write_text(module)
    assert main(["typecheck", str(path)]) == 1
    assert capsys.readouterr().out == f"P: {line}\n"
    assert main(["wsi", str(path), "--proc", "P", "--mode", "typing"]) == 1
    assert capsys.readouterr().out == f"typing:   Rejected: {line}\n"


def test_typing_rejections_that_no_parsed_module_reaches():
    """A parsed `repeat` body and `until` guard are both input choices,
    freshening keeps a session's channels apart from those of the
    sessions around it, and both commands that type a process give each
    of its shared names the global; terms built directly can break each
    rule."""
    session = (KEY, {"a": INT, "b": STR, "c": INT})
    loop = RepeatUntil(Send("a", Const(int_lit(1))),
                       parse_process("sum { b?(v). 0 }"))
    with pytest.raises(TypingError, match=r"^VLoop: repeat body and until guard "
                       "must be input choices"):
        typecheck_process({}, TRUE, loop, {}, D, session=session)
    g = GlobalDef("G", ("x",), parse_global("p -> q : { x(Int). end }"))
    leak = Accept("u", "q", ("a",), parse_process("a?(y). c!(1)"))
    with pytest.raises(TypingError, match=r"^VAcc: session channels leak into an "
                       "enclosing session"):
        typecheck_process({}, TRUE, leak, {"u": g}, D, session=session)
    with pytest.raises(TypingError, match=r"^VAcc: shared name 'v' has no "
                       "global type"):
        typecheck_process({}, TRUE, parse_process("accept v[q](c). 0"),
                          {"u": g}, D)
