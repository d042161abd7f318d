import collections
import contextlib
import heapq
import io
import itertools
import random
import sys

import pytest

from chorus_wsi import wsi
from chorus_wsi.guards import DomainDecl, Store
from chorus_wsi.projection import NonProjectable, project
from chorus_wsi.pseudotype import normal_form
from chorus_wsi.semantics import _then, type_steps
from chorus_wsi.syntax.ast import (
    TRUE, Accept, Arm, Branch, Const, Event, GChoice, GEnd, GlobalDef, If,
    Lit, Par, Proc, Process, Queue, Request, Restrict, Send, Seq, System,
    TIter, TSeq, UNIT, Var, bool_lit, fU, fX, replace,
)
from chorus_wsi.syntax import parse_expr, parse_module
from chorus_wsi.cli import main
from chorus_wsi.traces import (
    IllFormed, mandatory, matching_tables, run_str, runs_global, trace_leq,
)
from chorus_wsi.typecheck import (
    TypingError, fragment_problem, gamma_from_domains, instantiate,
    participants_ordered, shared_env, typecheck_system,
)
from chorus_wsi.wsi import (
    QUEUE_BOUND, _role_problem,
    wsi_by_covering, wsi_by_typing,
)

import conftest
import gen
import test_cover
import test_judgements
from covering_reference import reference_wsi_by_covering
from covers_reference import covers, foata
from opener_reference import subst_process


def test_wsi_typing_atm(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    v1 = wsi_by_typing(g, "b", atm.processes["B1"].body, atm_domains)
    assert v1.holds()
    v2 = wsi_by_typing(g, "b", atm.processes["B2"].body, atm_domains)
    assert not v2.holds()
    assert v2.error.rule == "VSend"


def test_wsi_typing_pop_init(pop2, pop2_domains):
    g = pop2.globals_["G_POP"]
    v = wsi_by_typing(g, "s", pop2.processes["Init"].body, pop2_domains)
    assert v.holds()


def test_wsi_covering_b1_holds(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B1"].body, atm_domains)
    assert v.holds()


def test_wsi_covering_b2_missing_ok(atm, atm_domains):
    """B2 never sends ok: no context drives it through the ok skeleton,
    and the search, which never fills a queue, says so as a MissingRun."""
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B2"].body, atm_domains)
    assert not v.holds() and not v.inconclusive
    assert Event("b", "!", "ok", UNIT) in mandatory(v.missing)
    assert str(v) == ("MissingRun (c,login!Str) (b,login?Str) "
                      "(c,overdraft!Int) (b,overdraft?Int) (b,ok!Unit) "
                      "(c,ok?Unit): branch unreachable under declared domains")


def test_typing_and_covering_agree_on_atm(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    for name in ("B1", "B2"):
        proc = atm.processes[name].body
        t = wsi_by_typing(g, "b", proc, atm_domains)
        c = wsi_by_covering(g, "b", proc, atm_domains)
        assert t.holds() == c.holds()


def test_context_synthesis_atm_credentials(atm, atm_domains):
    """The ok-run needs check-satisfying credentials, the ko-run
    check-falsifying ones: both are drawn for the pending binder cred,
    and each of the three skeletons has its own witness."""
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B1"].body, atm_domains)
    assert v.holds()
    targets = frozenset(runs_global(instantiate(g, g.params), 1))
    assert {t for t, _ in v.contexts} == targets
    for target, witness in v.contexts:
        assert trace_leq(target, witness)
    ends = {w[-2] for _, w in v.contexts}
    assert {Event("b", "!", "ok", UNIT), Event("b", "!", "ko", UNIT)} <= ends


def test_contexts_bind_checked_role(atm, atm_domains):
    """A witness is a run of the session: the checked process makes the
    events of its role, and its peer every other event."""
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B1"].body, atm_domains)
    for _, witness in v.contexts:
        assert {ev.participant for ev in witness} == {"b", "c"}


def _straight_line(events: list, payloads: list) -> object:
    """A process making the given events in order, sending the given
    payloads in turn."""
    proc = Branch(())
    sends = iter(reversed(payloads))
    for i, ev in reversed(list(enumerate(events))):
        if ev.polarity == "!":
            send = Send(ev.channel, Const(next(sends)))
            proc = send if proc == Branch(()) else Seq(send, proc)
        else:
            proc = Branch((Arm(ev.channel, f"v{i}", proc),))
    return proc


def test_context_determinism(request):
    """Each witness is realized by a deterministic straight-line context:
    the checked process, given some starting store over its declared
    free variables, with each peer making its events of the witness in
    order and sending some candidate payloads, has a complete run in the
    system semantics that covers the witness's target, and no run of
    another Foata class."""
    for module, proc, role, shared in [("atm", "B1", "b", "atm"),
                                       ("atm", "CATM", "c", "atm"),
                                       ("pop2", "Init", "s", "u")]:
        mod = request.getfixturevalue(module)
        domains = request.getfixturevalue(f"{module}_domains")
        decl = mod.processes[proc]
        gdef = mod.globals_[decl.global_name]
        v = wsi_by_covering(gdef, role, decl.body, domains)
        assert v.holds()
        for target, witness in v.contexts:
            assert _realized(target, witness, gdef, role, decl.body, domains,
                             shared), (proc, target)


def _realized(target, witness, gdef, role, body, domains, shared) -> bool:
    """Some candidate payloads and starting store make the straight-line
    peers read off the witness drive body through a run covering target,
    and every maximal run of that system is the same run up to swapping
    independent events."""
    parts = participants_ordered(instantiate(gdef, gdef.params))
    free = sorted(fX(body) & set(domains.domains))
    peers = {q: [ev for ev in witness if ev.participant == q]
             for q in parts if q != role}
    pools = [list(domains.values_of_sort(ev.sort)) + [_default(ev.sort)]
             for q in peers for ev in peers[q] if ev.polarity == "!"]
    pools += [sorted(domains.domains[x], key=str) for x in free]
    for choice in itertools.product(*pools):
        choice = list(choice)
        start = dict(zip(free, choice[len(choice) - len(free):]))
        procs = {role: body}
        for q, events in peers.items():
            sends = sum(ev.polarity == "!" for ev in events)
            peer = _straight_line(events, choice[:sends])
            choice = choice[sends:]
            procs[q] = (Request(shared, len(parts) - 1, gdef.params, peer)
                        if q == parts[0] else Accept(shared, q, gdef.params, peer))
        runs = gen.system_runs(procs, gdef, shared,
                               Store(start, tables=domains.tables))
        if any(complete and trace_leq(target, r)
               for r, complete in runs.items()):
            # deterministic: its runs are one run up to independent swaps
            assert len({foata(mandatory(r)) for r in runs}) == 1, runs
            return True
    return False


def _default(sort) -> Lit:
    return Lit(sort, {"Int": 0, "Bool": False, "Str": "", "Unit": None,
                      "Data": b""}[sort.kind])


def test_wsi_of_a_requester_under_a_conditional(wrapped_open):
    """Typing and covering both accept a requester that opens its
    session on either side of an `if` or in the one round of a loop over
    `1..1`, and the acceptor it runs with."""
    module, domains = wrapped_open
    g = module.globals_["G"]
    for name, role in (("CIf", "c"), ("CFor", "c"), ("S", "s")):
        body = module.processes[name].body
        assert wsi_by_typing(g, role, body, domains).holds(), name
        assert wsi_by_covering(g, role, body, domains).holds(), name


@pytest.mark.parametrize("items", ["1..2", "[1, 1]", "1..x"])
def test_wsi_of_a_requester_in_a_loop_that_may_not_run_once(wrapped_open,
                                                             items):
    """A loop whose list is not a constant one-item list may open no
    session or several: neither path lets it play the role."""
    module, domains = wrapped_open
    body = module.processes["CFor"].body
    loop = replace(body, items=parse_expr(items))
    why = "the process does not uniquely play 'c' in 'u'"
    typing = wsi_by_typing(module.globals_["G"], "c", loop, domains)
    assert str(typing) == f"Rejected: role: {why} (at <top>)"
    covering = wsi_by_covering(module.globals_["G"], "c", loop, domains)
    assert str(covering) == f"MissingRun <empty>: {why}"


def test_wsi_covering_role_not_participant(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "nobody", atm.processes["B1"].body, atm_domains)
    assert not v.holds()
    assert str(v) == "MissingRun <empty>: 'nobody' is not a participant of G_ATM"


def test_wsi_covering_end_choreography(atm_domains):
    """A global with no participants has no role to play: covering
    rejects it as typing does."""
    gdef = GlobalDef("G0", (), GEnd())
    v = wsi_by_covering(gdef, "p", Branch(()), atm_domains)
    assert not v.holds()
    assert str(v) == "MissingRun <empty>: 'p' is not a participant of G0"


@pytest.mark.parametrize("name", ["pop2.chor", "pop2_multiparty.chor"])
def test_wsi_covering_names_a_fragment_global_as_cover_does(name, capsys):
    """A global that uses channels it does not take as parameters is a
    fragment that other globals inline, not a session: covering rejects
    it before the search, with `cover`'s reason, and an entry global has
    no such reason."""
    from chorus_wsi.cli import main
    module = conftest.load(name)
    domains = DomainDecl.from_module(module, ("Exit",))
    body = module.processes["Exit"].body
    fragments = 0
    for gdef in module.globals_.values():
        reason = fragment_problem(gdef)
        assert bool(reason) == (not gdef.params)
        if not reason:
            continue
        fragments += 1
        v = wsi_by_covering(gdef, "s", body, domains)
        assert not v.holds() and not v.inconclusive
        assert v.reason == reason
        main(["cover", str(conftest.CORPUS / name), "--global", gdef.name])
        assert capsys.readouterr().out == reason + "\n"
    assert fragments == 5
    code = main(["wsi", str(conftest.CORPUS / name), "--proc", "Exit",
                 "--global", "G_EXIT", "--role", "s", "--mode", "covering"])
    assert code == 1
    assert capsys.readouterr().out == ("covering: MissingRun <empty>: G_EXIT uses "
                                       "channels that are not its parameters: bye\n")


def test_wsi_cli_no_participants_both_paths_reject(capsys):
    import conftest
    from chorus_wsi.cli import main
    code = main(["wsi", str(conftest.NO_PARTICIPANTS), "--proc", "P"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "typing:   Rejected: role: 'c' is not a participant of G0 (at <top>)",
        "covering: MissingRun <empty>: 'c' is not a participant of G0",
    ]
    assert captured.err == ""


@pytest.mark.parametrize("proc", ["Z", "BMaybe"])
def test_wsi_cli_idle_role_both_paths_reject(capsys, proc):
    """A process that is idle on some path does not play its role: the
    idle process 0, which opens no session at all, and a bank that
    accepts only when wantdep holds."""
    import conftest
    from chorus_wsi.cli import main
    problem = {
        "Z": "the process opens no session of G_ATM",
        "BMaybe": "the process does not uniquely play 'b' in 'atm'",
    }[proc]
    code = main(["wsi", str(conftest.IDLE_ROLE), "--proc", proc])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        f"typing:   Rejected: role: {problem} (at <top>)",
        f"covering: MissingRun <empty>: {problem}",
    ]
    assert captured.err == ""


CORPUS_ROLES = [
    ("pop2", "G_POP", "s", "Init"), ("pop2", "G_POP", "c", "CPop"),
    ("atm", "G_ATM", "b", "B1"), ("atm", "G_ATM", "c", "CATM"),
    ("multiparty", "G_POP_P", "s", "InitP"),
    ("multiparty", "G_POP_P", "a", "AuthYes"),
    ("multiparty", "G_POP_P", "c", "CHelo"),
]


@pytest.mark.parametrize("unfold", [1, 2])
def test_typing_implies_covering_across_corpus(request, unfold):
    """Soundness at desk scale: every corpus process accepted by typing
    is also accepted by covering, including those whose guards read
    declared variables, and the witnesses cover every annotated run of
    the global at the bound K that `wsi --unfold K` reports a Holds at."""
    for module, gname, role, proc in CORPUS_ROLES:
        mod = request.getfixturevalue(module)
        domains = request.getfixturevalue(f"{module}_domains")
        gdef, body = mod.globals_[gname], mod.processes[proc].body
        assert wsi_by_typing(gdef, role, body, domains).holds()
        verdict = wsi_by_covering(gdef, role, body, domains)
        assert verdict.holds(), (proc, str(verdict))
        g = instantiate(gdef, gdef.params)
        witnesses = [run for _, run in verdict.contexts]
        assert covers(runs_global(g, unfold), witnesses).holds(), proc


def test_typing_implies_covering_on_a_global_with_kept_channels():
    """K uses a channel it does not take as a parameter, so both paths
    refuse every process over it, whether a binder (P3, P4) or a free
    name (P2, P5) meets the kept `b` or not; typing holds only for P1,
    over G, and covering holds there too."""
    module = parse_module(test_judgements.CAPTURE)
    domains = conftest.all_domains(module)
    typed = []
    for name, decl in module.processes.items():
        gdef = module.globals_[decl.global_name]
        if wsi_by_typing(gdef, decl.role, decl.body, domains).holds():
            typed.append(name)
            verdict = wsi_by_covering(gdef, decl.role, decl.body, domains)
            assert verdict.holds(), (name, str(verdict))
    assert typed == ["P1"]


def _subst_system(s: System, cmap: dict) -> System:
    """s with its free channels renamed by cmap."""
    match s:
        case Proc(p):
            return Proc(subst_process(p, cmap))
        case Par(left, right):
            return Par(_subst_system(left, cmap), _subst_system(right, cmap))
        case Queue(channel, values):
            return Queue(cmap.get(channel, channel), values)
        case Restrict(chans, shared, scope):
            inner = {k: v for k, v in cmap.items() if k not in chans}
            return Restrict(chans, shared, _subst_system(scope, inner))


def _renamed_binders(term, fresh):
    """term with every session-channel binder of a request or accept,
    and every `new` binder, renamed to a name from fresh, which no
    parsed name takes."""
    if isinstance(term, Request | Accept | Restrict):
        chans = tuple(f"{c}'{next(fresh)}" for c in term.chans)
        cmap = dict(zip(term.chans, chans))
        if isinstance(term, Restrict):
            scope = _subst_system(term.scope, cmap)
            return replace(term, chans=chans, scope=_renamed_binders(scope, fresh))
        cont = subst_process(term.cont, cmap)
        return replace(term, chans=chans, cont=_renamed_binders(cont, fresh))
    if isinstance(term, Branch):
        return Branch(tuple(replace(a, cont=_renamed_binders(a.cont, fresh))
                            for a in term.arms))
    return replace(term, **{f: _renamed_binders(v, fresh)
                            for f in term.__match_args__
                            if isinstance(v := getattr(term, f), Process | System)})


def _system_typing(module, body, domains) -> tuple:
    """(holds, rule) of `typecheck` on the system body: the first global
    with parameters that types it, or else the rule that the last one
    broke."""
    rule = None
    for gdef in module.globals_.values():
        if gdef.params:
            try:
                typecheck_system(gamma_from_domains(domains), TRUE, body,
                                 shared_env(gdef, body), domains)
                return True, None
            except TypingError as exc:
                rule = exc.rule
    return False, rule


def _both_verdicts(module, term, decl, domains) -> tuple:
    """Typing's (holds, rule) and covering's (holds, inconclusive,
    contexts) on a process that plays a role, typing's (holds, rule) on
    a system."""
    if decl is None:
        return _system_typing(module, term, domains)
    gdef = module.globals_[decl.global_name]
    typing = wsi_by_typing(gdef, decl.role, term, domains)
    covering = wsi_by_covering(gdef, decl.role, term, domains)
    return (typing.holds(), typing.error and typing.error.rule,
            covering.holds(), covering.inconclusive, len(covering.contexts))


def test_renamed_channel_binders_keep_both_verdicts():
    """A metamorphic relation: renaming each channel binder of a process
    or system to a fresh name changes no verdict.  Over every process
    that plays a role and every system of the shipped modules and of
    `test_judgements.CAPTURE`, where a binder meets a channel that a
    global keeps (P3, P4), typing's (holds, rule) and covering's (holds,
    inconclusive, number of contexts) of a process, and typing's (holds,
    rule) of a system, are those of its renamed copy."""
    texts = [(p.name, p.read_text()) for p in conftest.MODULES]
    texts.append(("CAPTURE", test_judgements.CAPTURE))
    fresh = itertools.count()
    checked = collections.Counter()
    for name, text in texts:
        module = parse_module(text)
        domains = conftest.all_domains(module)
        terms = [(n, d.body, d) for n, d in module.processes.items() if d.role]
        terms += [(n, d.body, None) for n, d in module.systems.items()]
        for n, body, decl in terms:
            renamed = _renamed_binders(body, fresh)
            assert renamed != body or not fU(body), (name, n)
            assert _both_verdicts(module, renamed, decl, domains) \
                == _both_verdicts(module, body, decl, domains), (name, n)
            checked["process" if decl else "system"] += 1
    assert checked == {"process": 33, "system": 14}


# P opens a session on v after or before the one on u, the least shared
# name, which is the session checked
SECOND_SESSION = """
domain x : Bool
domain y : Bool
global G(a, b) = p -> q : { a(Unit). end + b(Unit). end }
process P plays p of G = { %s ; %s }
"""
U_SESSION = "request u[1](a, b). { if x then a!() else b!() }"
V_SESSION = "request v[1](c, d). { if y then c!() else d!() }"


def _second_session(order: str) -> tuple:
    """(global, process, domains) of P with its v session in `order`."""
    sessions = (U_SESSION, V_SESSION) if order == "after" \
        else (V_SESSION, U_SESSION)
    module = parse_module(SECOND_SESSION % sessions)
    return module.globals_["G"], module.processes["P"].body, \
        conftest.all_domains(module)


@pytest.mark.parametrize("order", ["after", "before"])
def test_typing_holds_with_a_second_session(order):
    """Typing types the opens on every shared name with the global."""
    gdef, proc, domains = _second_session(order)
    assert wsi_by_typing(gdef, "p", proc, domains).holds()


@pytest.mark.xfail(strict=True, reason="ROADMAP item U")
@pytest.mark.parametrize("order", ["after", "before"])
def test_covering_holds_with_a_second_session(order):
    """A context serves both sessions, so covering should hold as typing
    does; the covering search drops the open of the v session instead,
    and P never ends."""
    gdef, proc, domains = _second_session(order)
    assert wsi_by_covering(gdef, "p", proc, domains).holds()


@pytest.mark.parametrize("order, reason", [
    ("after", "every event of the target was matched, but no run ended "
              "with every party done"),
    ("before", "branch unreachable under declared domains"),
], ids=["after", "before"])
def test_covering_says_whether_the_target_was_matched(order, reason):
    """While covering drops the open of the v session, P has no witness
    for its first target.  With the v session after the checked one,
    the search matches both events of the target and then cannot end;
    with it before, P never reaches the checked session."""
    gdef, proc, domains = _second_session(order)
    assert str(wsi_by_covering(gdef, "p", proc, domains)) == \
        f"MissingRun (p,a!Unit) (q,a?Unit): {reason}"


def _projectable(gdef) -> bool:
    g = instantiate(gdef, gdef.params)
    try:
        for q in participants_ordered(g):
            project(g, q)
    except NonProjectable:
        return False
    return True


def _typed_implementations(seeds):
    """(seed, global, role, process, domains) of each generated role
    implementation whose global type projects on every role and whose
    process typechecks."""
    for seed in seeds:
        for gdef, role, proc, domains in gen.role_implementations(seed):
            if _projectable(gdef) \
                    and wsi_by_typing(gdef, role, proc, domains).holds():
                yield seed, gdef, role, proc, domains


def test_typing_implies_covering_on_generated_implementations():
    """Differential: on the 299 roles of seeds 0-299 whose global type
    projects on every role and whose process, built from the role's
    projection with selector variables, typechecks, covering holds too."""
    cases = 0
    for seed, gdef, role, proc, domains in _typed_implementations(range(300)):
        cases += 1
        verdict = wsi_by_covering(gdef, role, proc, domains)
        assert verdict.holds(), (seed, role, str(verdict))
    assert cases == 299


def test_an_idle_if_before_the_session_body_changes_no_verdict():
    """Each typed implementation of the test above, with `if idle then 0
    else 0 ;` before its session body and `idle` a declared Bool, still
    holds by typing and by covering: the idle branch steps silently into
    the body."""
    idle = If(Var("idle"), Branch(()), Branch(()))
    cases = 0
    for seed, gdef, role, proc, domains in _typed_implementations(range(300)):
        padded = replace(proc, cont=Seq(idle, proc.cont))
        wider = DomainDecl({**domains.domains,
                            "idle": frozenset({bool_lit(True), bool_lit(False)})})
        assert wsi_by_typing(gdef, role, padded, wider).holds(), (seed, role)
        verdict = wsi_by_covering(gdef, role, padded, wider)
        assert verdict.holds(), (seed, role, str(verdict))
        cases += 1
    assert cases == 299


def test_branch_pruning_mutants_of_generated_implementations():
    """Differential on every branch-pruning mutant (one `if` replaced by
    one of its sides, the paper's B2/CDep pattern) of the typed cases of
    the test above, with pinned counts.  Typing rejects all but 4, and
    covering holds for those 4.  Covering also holds for 4 mutants that
    typing rejects: typing is strictly finer on them (ROADMAP item F,
    finding 5).  A covering search that decides more may only turn
    `Inconclusive` answers into `MissingRun`: the `Inconclusive` count
    may fall, the others stay."""
    counts = collections.Counter()
    finer = set()
    for seed, gdef, role, proc, domains in _typed_implementations(range(300)):
        for mutant in gen.pruned(proc):
            typed = wsi_by_typing(gdef, role, mutant, domains).holds()
            v = wsi_by_covering(gdef, role, mutant, domains)
            assert v.holds() or not typed, (seed, role, str(v))
            counts["rejected by typing"] += not typed
            counts["Holds" if v.holds() else "Inconclusive"
                   if v.inconclusive else "MissingRun"] += 1
            if v.holds() and not typed:
                finer.add((seed, role))
    assert counts == {"rejected by typing": 172, "MissingRun": 99,
                      "Inconclusive": 69, "Holds": 8}
    assert finer == {(156, "r"), (191, "r"), (202, "r"), (205, "p")}


# ---------------------------------------- the search against its reference

def _module_roles():
    """(name, global, role, process, domains, shared name) of every
    process that claims a role, in the corpus and in the test modules."""
    paths = sorted(conftest.CORPUS.glob("*.chor")) \
        + sorted(conftest.NO_PARTICIPANTS.parent.glob("*.chor"))
    for path in paths:
        module = parse_module(path.read_text())
        domains = conftest.all_domains(module)
        for name, decl in module.processes.items():
            if decl.role is not None:
                shared = min(fU(decl.body), default=None)
                yield (f"{path.name}:{name}", module.globals_[decl.global_name],
                       decl.role, decl.body, domains, shared)


# c reads a payload of s while s and t go on talking: states that differ
# only in how far s and t are share the moves of c, which receive a
# payload not drawn yet and then draw it.  COk never answers no, so its
# search for that branch visits every state
PENDING_RECEIVE = """
global G(a, b, ok, no) =
  s -> c : { a(Int). s -> t : { b(Int). c -> s : { ok(Unit). end
                                                 + no(Unit). end } } }
process C plays c of G =
  accept u[c](a, b, ok, no). a?(x). if x = 1 then ok!() else no!()
process COk plays c of G =
  accept u[c](a, b, ok, no). a?(x). if x = 1 then ok!() else ok!()
"""


def _recording_products(monkeypatch) -> list:
    """The list that each `_Product` the covering search makes is
    appended to."""
    products = []

    class Recorded(wsi._Product):
        def __init__(self, *args):
            super().__init__(*args)
            products.append(self)

    monkeypatch.setattr(wsi, "_Product", Recorded)
    return products


def test_covering_agrees_with_the_reference_search(monkeypatch):
    """The interned search with its memo of the process's moves and its
    multiset check gives the verdict of the search it replaced (kept in
    covering_reference.py), with the same contexts, missing skeleton,
    `inconclusive` flag and reason: on every module role, on every
    branch-pruning mutant of the typed generated implementations (seeds
    0-299), on every generated implementation of seeds 0-99, and on a
    process that receives a payload a peer has not drawn."""
    cases = list(_module_roles())
    mutants = [(f"{seed}:{role}:mutant", gdef, role, mutant, domains, "u")
               for seed, gdef, role, proc, domains
               in _typed_implementations(range(300))
               for mutant in gen.pruned(proc)]
    assert len(mutants) == 176
    cases += mutants
    cases += [(f"{seed}:{role}", gdef, role, proc, domains, "u")
              for seed in range(100)
              for gdef, role, proc, domains in gen.role_implementations(seed)]
    module = parse_module(PENDING_RECEIVE)
    cases += [(name, module.globals_["G"], "c", module.processes[name].body,
               DomainDecl.from_module(module), "u") for name in ("C", "COk")]
    products = _recording_products(monkeypatch)
    verdicts = [wsi_by_covering(gdef, role, proc, domains)
                for _, gdef, role, proc, domains, _ in cases]
    for (name, gdef, role, proc, domains, shared), v in zip(cases, verdicts):
        assert v == reference_wsi_by_covering(
            gdef, role, proc, domains, shared_name=shared), name
    assert [str(v).split(":")[0] for v in verdicts[-2:]] == [
        "Holds (2 contexts)",
        "MissingRun (s,a!Int) (c,a?Int) (s,b!Int) (t,b?Int) (c,no!Unit) "
        "(s,no?Unit)"]
    # COk takes the receive of its payload from the memo in some states
    assert len(products[-1].proc_moves) < len(products[-1].moves)


def test_multiset_inclusion_never_rejects_what_trace_leq_accepts():
    """Covering skips `trace_leq(target, done)` unless the events of
    target are a sub-multiset of those of done (`wsi._within`).  That is exact: an
    embedding maps events injectively onto equal events.  Checked on
    every pair of runs at bound 1 of two consecutive seeded random
    global types."""
    rng = random.Random(31337)
    runs_of = []
    for _ in range(300):
        try:
            runs_of.append(sorted(runs_global(gen.gen_global(rng), 1),
                                  key=run_str))
        except IllFormed:
            pass
    accepted = rejected = 0
    for first, second in zip(runs_of, runs_of[1:]):
        pool = first + second
        bags = [collections.Counter(r) for r in pool]
        for r1, bag1 in zip(pool, bags):
            for r2, bag2 in zip(pool, bags):
                if trace_leq(r1, r2):
                    assert wsi._within(bag1, bag2), (r1, r2)
                    accepted += r1 != r2
                rejected += not wsi._within(bag1, bag2)
    assert accepted > 200 and rejected > 5000, (accepted, rejected)


def _unreduced_type_steps(t) -> list:
    """`semantics.type_steps` with every loop step continuing both into
    the loop again and into what follows the loop, also where the loop's
    sequel offers only inputs; continuations are built as `type_steps`
    builds them (`semantics._then`)."""
    match t:
        case TIter(body):
            return [step for pol, chan, sort, cont in _unreduced_type_steps(body)
                    for step in ((pol, chan, sort, cont),
                                 (pol, chan, sort, _then(cont, t)))]
        case TSeq(first, second):
            out = [(pol, chan, sort, _then(cont, second))
                   for pol, chan, sort, cont in _unreduced_type_steps(first)]
            if isinstance(first, TIter):
                out += [step for step in _unreduced_type_steps(second)
                        if step[0] == "in"]
            return out
    return type_steps(t)


def test_covering_without_subsumed_loop_steps_decides_alike(monkeypatch):
    """Differential: dropping a peer loop's "once" steps where its
    sequel offers only inputs changes no verdict, `inconclusive` flag or
    number of contexts, on every module role, every generated role
    implementation of seeds 0-299 and every branch-pruning mutant of the
    typed ones; and it drops steps on some of them."""
    cases = _differential_cases()
    products = _recording_products(monkeypatch)
    reduced = _verdicts(cases)
    moves = [len(p.moves) for p in products]
    products.clear()
    monkeypatch.setattr(wsi, "type_steps", _unreduced_type_steps)
    unreduced = _verdicts(cases)
    assert [case[0] for case, v, w in zip(cases, reduced, unreduced) if v != w] == []
    assert len(moves) == len(products)
    assert all(m <= len(p.moves) for m, p in zip(moves, products))
    assert sum(moves) < sum(len(p.moves) for p in products)


def _differential_cases() -> list:
    """(name, global, role, process, domains, shared name) of every
    module role, every generated role implementation of seeds 0-299 and
    every branch-pruning mutant of the typed ones."""
    cases = list(_module_roles())
    cases += [(f"{seed}:{role}", gdef, role, proc, domains, "u")
              for seed in range(300)
              for gdef, role, proc, domains in gen.role_implementations(seed)]
    mutants = [(f"{seed}:{role}:mutant", gdef, role, mutant, domains, "u")
               for seed, gdef, role, proc, domains
               in _typed_implementations(range(300))
               for mutant in gen.pruned(proc)]
    assert len(mutants) == 176
    return cases + mutants


def _verdicts(cases) -> list:
    """(holds, inconclusive, number of contexts) of covering each case."""
    out = []
    for _, gdef, role, proc, domains, _ in cases:
        v = wsi_by_covering(gdef, role, proc, domains)
        out.append((v.holds(), v.inconclusive, len(v.contexts)))
    return out


def test_process_moves_keyed_on_sent_heads_give_every_state_its_successors(
        monkeypatch):
    """Differential: stepping the process once per (process, bindings,
    pending, session map, heads it sent on the channels it reads), with
    each input offered every payload a peer may send on its channel and
    enabled where the head is that payload, gives every expanded product
    state the successors that the memo keyed on the heads of all queues
    gives, on every module role, generated role implementation and
    mutant; and it steps the process less often on some of them."""
    products = _recording_products(monkeypatch)
    _verdicts(_differential_cases())
    steppings = []
    for product in products:
        expanded = dict(product.moves)
        by_heads: dict = {}

        def on_heads(proc, bindings, pending, chans, messages):
            key = (proc, bindings, pending, chans, tuple(q[:1] for q in messages))
            if key not in by_heads:
                by_heads[key] = product.own_moves(
                    proc, bindings, pending, chans, lambda i: messages[i][:1])
            return by_heads[key]

        product.process_moves = on_heads
        assert [sid for sid, moves in expanded.items()
                if product.successors(sid) != moves] == []
        steppings.append((len(product.proc_moves), len(by_heads)))
    assert all(keyed <= on_all for keyed, on_all in steppings)
    assert sum(keyed for keyed, _ in steppings) < sum(n for _, n in steppings)


def _type_steps_of_sequences(t, once: bool = True) -> list:
    """`semantics.type_steps` with each continuation that follows a step
    with a sequel built as the plain sequence `TSeq(continuation,
    sequel)`."""
    match t:
        case TIter(body):
            return [step for pol, chan, sort, cont in _type_steps_of_sequences(body)
                    for step in ([(pol, chan, sort, cont)] if once else [])
                    + [(pol, chan, sort, TSeq(cont, t))]]
        case TSeq(first, second):
            skips = _type_steps_of_sequences(second) if isinstance(first, TIter) else []
            inputs = [step for step in skips if step[0] == "in"]
            return [(pol, chan, sort, TSeq(cont, second))
                    for pol, chan, sort, cont in _type_steps_of_sequences(
                        first, not inputs or len(inputs) < len(skips))] + inputs
    return type_steps(t)


def test_peers_stepped_without_normal_forms_decide_alike(monkeypatch):
    """Differential: stepping each peer's continuation as `type_steps`
    builds it (`semantics._then`) gives the same verdicts, with the same
    `inconclusive` flags, contexts and reasons, as normalizing each
    continuation built as a plain sequence, which the search did before,
    on every module role, generated role implementation and mutant; and
    both expand as many product states."""
    cases = _differential_cases()

    def verdicts() -> list:
        return [wsi_by_covering(gdef, role, proc, domains)
                for _, gdef, role, proc, domains, _ in cases]

    products = _recording_products(monkeypatch)
    built = verdicts()
    moves = [len(p.moves) for p in products]
    products.clear()

    def normalized(self, t):
        domains = self.domains
        return [(pol, chan, sort,
                 normal_form(cont, domains) if isinstance(cont, TSeq) else cont)
                for pol, chan, sort, cont in _type_steps_of_sequences(t)]

    class Normalizing(wsi._Product):  # a subclass of the recording one
        def steps_of(self, i, t):
            with monkeypatch.context() as patched:
                patched.setattr(wsi, "type_steps", lambda u: normalized(self, u))
                return super().steps_of(i, t)

    monkeypatch.setattr(wsi, "_Product", Normalizing)
    assert verdicts() == built
    assert [len(p.moves) for p in products] == moves


def _pair_loop_agrees(pool: list, outcomes: collections.Counter) -> None:
    """Asserts that `_Seen.below` answers, target by target of pool, as
    the pair loop that asks `trace_leq` of every earlier target it did
    not find below another, and counts the kinds of answer."""
    seen, searched, events = wsi._Seen(), [], wsi._Ids()
    for target in pool:
        below = [done for done in searched if trace_leq(target, done)]
        ids = [events[ev] for ev in target]
        assert seen.below(target, ids, matching_tables(target)) == bool(below), \
            (pool, target)
        if not below:
            searched.append(target)
        outcomes["not below" if not below else "same length"
                 if any(len(d) == len(target) for d in below) else "longer"] += 1


def test_seen_targets_decide_subsumption_as_the_pair_loop():
    """Property: on the sorted targets of every module role, generated
    role implementation and mutant (1,601 targets, 3 of them below a
    longer earlier one), `_Seen.below`, which asks only longer targets,
    answers as the pair loop."""
    outcomes = collections.Counter()
    for _, gdef, role, _, _, _ in _differential_cases():
        found = wsi._search_inputs(gdef, role)
        if not isinstance(found, str):
            _pair_loop_agrees(found[0], outcomes)
    assert outcomes == {"not below": 1598, "longer": 3}


def test_distinct_runs_of_a_global_are_distinct_traces():
    """Property: no two distinct runs of `runs_global(g, 1)` have one
    Foata form, that is are one trace, on every well-formed global of
    the modules and of `gen.gen_global` seeds 0-2,999 (3,025 globals,
    10,234 pairs of runs of one length), so `_Seen.below` need not
    compare targets of one length."""
    globals_ = [gdef.body for path in conftest.MODULES
                for gdef in parse_module(path.read_text()).globals_.values()]
    globals_ += [gen.gen_global(random.Random(seed)) for seed in range(3000)]
    checked = pairs = 0
    for g in globals_:
        try:
            runs = runs_global(g, 1)
        except IllFormed:
            continue
        assert len({foata(run) for run in runs}) == len(runs), g
        checked += 1
        pairs += sum(k * (k - 1) // 2
                     for k in collections.Counter(map(len, runs)).values())
    assert (checked, pairs) == (3025, 10234)


def test_covering_sequential_choices_compares_no_targets_of_one_length(
        tmp_path, monkeypatch):
    """`cover` on 10 sequential choices searches all 1,024 targets, all
    of one length: distinct runs of a global are distinct traces, so no
    target is compared with another, no event counts are compared and
    the matcher runs only to confirm each witness (the pair loop made
    523,776 `Counter` comparisons)."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(wsi, "trace_leq", counted("trace_leq", trace_leq))
    monkeypatch.setattr(wsi, "_within", counted("_within", wsi._within))
    path = tmp_path / "choices.chor"
    path.write_text(test_cover._choices(10) + "\n")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["cover", str(path), "--unfold", "1"]) == 0
    assert out.getvalue().startswith("Holds@1: 1024 global runs covered")
    assert calls == {"trace_leq": 1024}


def test_covering_cpop_does_pinned_work(pop2, pop2_domains, monkeypatch):
    """Work counts of covering CPop: product states stepped and heap
    pops (575 and 1,068 when a peer's loop step also continued past the
    loop where the loop's sequel offers only inputs); steppings of the
    process itself, one per distinct (process, bindings, pending,
    session map, heads the process sent on the channels it reads), where
    stepping it once per distinct queue heads made 185, as many as
    stepping it in every state; and subsumption `trace_leq` calls, where
    checking every earlier target would make 17, 16 of them False."""
    products = _recording_products(monkeypatch)
    pops = subsumptions = 0

    def count(frame, event, arg):
        nonlocal pops, subsumptions
        if event == "c_call" and arg is heapq.heappop:
            pops += 1
        elif event == "call" and frame.f_code is trace_leq.__code__ \
                and frame.f_back.f_code is not wsi._Product.witness.__code__:
            subsumptions += 1

    sys.setprofile(count)
    try:
        v = wsi_by_covering(pop2.globals_["G_POP"], "c",
                            pop2.processes["CPop"].body, pop2_domains)
    finally:
        sys.setprofile(None)
    assert str(v) == "Holds (6 contexts)"
    (product,) = products
    assert (len(product.moves), pops) == (185, 255)
    assert (len(product.proc_moves), subsumptions) == (97, 1)


def test_covering_sequential_choices_keeps_no_dead_binding(monkeypatch):
    """A process that resolves n = 8 sequential choices, each by its own
    declared Bool `x_i`, reads each `x_i` once: a binding is dropped as
    soon as the rest of the process no longer reads it, so states that
    differ only in choices already made are one.  The search interns 894
    product states, where keeping every binding made 2,814."""
    n = 8
    chans = ", ".join(f"a{i}, b{i}" for i in range(n))
    module = parse_module(
        test_cover._choices(n) + "\n"
        + "".join(f"domain x{i} : Bool\n" for i in range(n))
        + f"process P plays p of G = request u[1]({chans}). {{ "
        + " ; ".join(f"if x{i} then a{i}!() else b{i}!()" for i in range(n))
        + " }\n")
    products = _recording_products(monkeypatch)
    v = wsi_by_covering(module.globals_["G"], "p", module.processes["P"].body,
                        DomainDecl.from_module(module, ["P"]))
    assert str(v) == "Holds (256 contexts)"
    (product,) = products
    assert len(product.states) == 894


def test_a_process_needs_only_the_aliases_of_the_bodies_it_reads():
    """Every process that claims a role, in the corpus and in the test
    modules, gets the same typing and covering verdicts under the aliases
    of every body as under those of its own declaration and the ones it
    names, which are all that a `wsi` request reads."""
    checked = differ = 0
    for path in conftest.MODULES:
        module = parse_module(path.read_text())
        every = conftest.all_domains(module)
        for name, decl in module.processes.items():
            if decl.role is None:
                continue
            own = DomainDecl.from_module(module, [name])
            gdef = module.globals_[decl.global_name]
            under_every, under_own = [
                (str(wsi_by_typing(gdef, decl.role, decl.body, domains)),
                 wsi_by_covering(gdef, decl.role, decl.body, domains))
                for domains in (every, own)]
            assert under_every == under_own, f"{path.name}:{name}"
            checked += 1
            differ += every != own
    assert (checked, differ) == (28, 7)


def test_wsi_pop_quit_context_drives_exit_run(pop2, pop2_domains):
    """Init's witness for the quit skeleton is the EXIT run, the run the
    quit-only client CQuit drives.  Under G_POP that skeleton is below
    the later ones that quit after helo, so it is searched under the
    quit branch of G_POP alone."""
    g = pop2.globals_["G_POP"]
    init = pop2.processes["Init"].body
    exit_run = (Event("c", "!", "quit", UNIT), Event("s", "?", "quit", UNIT),
                Event("s", "!", "bye", UNIT), Event("c", "?", "bye", UNIT))
    v = wsi_by_covering(g, "s", init, pop2_domains)
    assert exit_run not in [t for t, _ in v.contexts]
    assert covers([exit_run], [w for _, w in v.contexts]).holds()
    quit_only = GlobalDef("G_QUIT", g.params, GChoice("c", tuple(
        b for b in g.body.branches if b.channel == "quit")))
    v = wsi_by_covering(quit_only, "s", init, pop2_domains)
    assert v.contexts == ((exit_run, exit_run),)


_CPOP_SKELETON = ("(c,helo!Str) (s,helo?Str) (s,e!Unit) (c,e?Unit) "
                  "(s,bye!Unit) (c,bye?Unit)")


def test_wsi_cquit_missing_helo(pop2, pop2_domains):
    """CQuit only ever quits: the first skeleton through helo is missing."""
    g = pop2.globals_["G_POP"]
    v = wsi_by_covering(g, "c", pop2.processes["CQuit"].body, pop2_domains)
    assert str(v) == (f"MissingRun {_CPOP_SKELETON}: branch unreachable "
                      "under declared domains")


@pytest.mark.parametrize("change", ["arity", "channels", "accept"])
def test_covering_opens_only_sessions_the_system_semantics_opens(
        pop2, pop2_domains, change):
    """CPop requesting two acceptors, naming a channel too few, or
    accepting as the requesting role c never starts its session with
    Init in the system semantics, so covering has no witness; it names
    the arity, the channel count or the accepting initiator, as typing
    does."""
    g = pop2.globals_["G_POP"]
    cpop = pop2.processes["CPop"].body
    assert wsi_by_covering(g, "c", cpop, pop2_domains).holds()
    proc = {"arity": replace(cpop, arity=2),
            "channels": replace(cpop, chans=cpop.chans[:-1]),
            "accept": Accept(cpop.shared, "c", cpop.chans, cpop.cont)}[change]
    runs = gen.system_runs({"c": proc, "s": pop2.processes["Init"].body},
                           g, "u", Store({}, pop2_domains.tables))
    assert runs == {(): False}
    v = wsi_by_covering(g, "c", proc, pop2_domains)
    assert str(v) == {
        "arity": "MissingRun <empty>: request arity 2, but G_POP has 1 "
                 "other participants",
        "channels": "MissingRun <empty>: global G_POP has 12 session "
                    "channels, got 11",
        "accept": "MissingRun <empty>: role 'c' initiates G_POP and must "
                  "request, not accept"}[change]


@pytest.mark.parametrize("proc, error", [
    ("Mismatch", "+: expected Int, got Bool"),
    ("Unbound", "unbound variable 'y'"),
], ids=["sort-mismatch", "unbound"])
def test_covering_reports_an_evaluation_error(proc, error):
    """An evaluation error on a value the search does not draw is the
    reason of the MissingRun, not an unreachable branch."""
    module = parse_module(
        "global G(a) = p -> q : { a(Int). end }\n"
        "process Mismatch plays p of G = request u[1](a). a!(1 + true)\n"
        "process Unbound plays p of G = request u[1](a). a!(y)\n")
    v = wsi_by_covering(module.globals_["G"], "p", module.processes[proc].body)
    assert str(v) == f"MissingRun (p,a!Int) (q,a?Int): evaluation error: {error}"


def test_covering_of_a_send_loop_is_inconclusive():
    """The peer may send on a for ever and Q never drains it: the search
    skips sends onto the full queue, finds no witness, and cannot tell a
    missing run from one that needs a longer queue."""
    module = parse_module(conftest.SEND_LOOP.read_text())
    v = wsi_by_covering(module.globals_["G"], "q", module.processes["Q"].body)
    assert v.inconclusive and not v.holds()
    assert str(v) == ("Inconclusive (p,a!Int) (q,a?Int) (p,t!Unit) (q,t?Unit): "
                      f"no witness with at most {QUEUE_BOUND} messages per queue")


def test_nested_loops_are_covered_by_wsi_as_by_cover(capsys):
    """The peer q of P runs a loop of loops.  Covering checks the peers
    only for well-formedness and projectability, and then decides by its
    search alone: `wsi` holds as `cover` does on the projections, and
    typing keeps its VFor rejection."""
    path = str(conftest.NESTED_LOOP)
    answers = []
    for argv in (("cover", path),
                 ("wsi", path, "--proc", "P", "--mode", "covering"),
                 ("wsi", path, "--proc", "P", "--mode", "typing")):
        code = main(list(argv))
        answers.append((code, capsys.readouterr().out))
    assert answers == [
        (0, "Holds@2: 6 global runs covered by 6 specification runs\n"),
        (0, "covering: Holds@2 (1 contexts)\n"),
        (1, "typing:   Rejected: VFor: loop body for session p is not active "
            "(must start with an output choice) (at vreq u[p] / seq-left)\n")]


def test_wsi_covering_unprojectable_peer_rejects(multiparty, multiparty_domains):
    """G_POP_M does not project on the authorizer: covering Init2 answers
    with a MissingRun naming the peer instead of raising."""
    g = multiparty.globals_["G_POP_M"]
    init2 = multiparty.processes["Init2"].body
    v = wsi_by_covering(g, "s", init2, multiparty_domains)
    assert not v.holds()
    assert str(v).startswith("MissingRun <empty>: G_POP_M is not projectable "
                             "on 'a': ")


def test_wsi_cli_init2_rejects_after_typing(capsys):
    import conftest
    from chorus_wsi.cli import main
    mp = str(conftest.CORPUS / "pop2_multiparty.chor")
    code = main(["wsi", mp, "--proc", "Init2", "--unfold", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "typing:   Holds (typing validates the role 's')"
    assert out[1].startswith("covering: MissingRun <empty>: G_POP_M is not "
                             "projectable on 'a': ")


@pytest.mark.parametrize("role, why", [
    pytest.param("zz", "'zz' is not a participant of G_ATM", id="zz"),
    pytest.param("c", "the process does not uniquely play 'c' in 'atm'",
                 id="c"),
])
def test_wsi_both_paths_check_the_role(atm, atm_domains, role, why):
    g = atm.globals_["G_ATM"]
    b1 = atm.processes["B1"].body
    typing = wsi_by_typing(g, role, b1, atm_domains)
    assert not typing.holds()
    assert str(typing) == f"Rejected: role: {why} (at <top>)"
    covering = wsi_by_covering(g, role, b1, atm_domains)
    assert not covering.holds()
    assert str(covering) == f"MissingRun <empty>: {why}"


def test_wsi_cli_request_of_the_wrong_arity_both_paths_reject(tmp_path, capsys):
    """A request whose arity leaves out a participant opens no session:
    covering names the arity, as typing does, and not a branch that is
    unreachable."""
    from chorus_wsi.cli import main
    path = tmp_path / "arity.chor"
    path.write_text(
        "global G(a, b) = p -> q : { a(Unit). q -> r : { b(Unit). end } }\n"
        "process P plays p of G = request u[1](a, b). a!()\n")
    code = main(["wsi", str(path), "--proc", "P"])
    captured = capsys.readouterr()
    assert code == 1
    why = "request arity 1, but G has 2 other participants"
    assert captured.out.splitlines() == [
        f"typing:   Rejected: VReq: {why} (at <top>)",
        f"covering: MissingRun <empty>: {why}",
    ]
    assert captured.err == ""


@pytest.mark.parametrize("role", ["zz", "c"])
def test_wsi_cli_wrong_role_exit_1(capsys, role):
    import conftest
    from chorus_wsi.cli import main
    atm = str(conftest.CORPUS / "atm.chor")
    code = main(["wsi", atm, "--proc", "B1", "--role", role, "--unfold", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Holds" not in captured.out
    assert captured.err == ""


def test_every_corpus_entry_process_plays_its_role(pop2, atm, multiparty):
    """The role check rejects no declared entry process of the corpus."""
    from chorus_wsi.syntax.ast import fU
    for module in (pop2, atm, multiparty):
        for decl in module.processes.values():
            if decl.role is None:
                continue
            gdef = module.globals_[decl.global_name]
            shared = sorted(fU(decl.body))[0]
            assert _role_problem(gdef, decl.role, decl.body, shared) is None
