import collections
import dataclasses
import itertools

import pytest

from chorus_wsi.guards import Store
from chorus_wsi.projection import NonProjectable, project
from chorus_wsi.syntax.ast import (
    Accept, Arm, Branch, Const, Event, GChoice, GEnd, GlobalDef, If, Lit,
    Request, Send, Seq, UNIT, fX,
)
from chorus_wsi.syntax import parse_module
from chorus_wsi.traces import (
    _foata, covers, mandatory, runs_global, trace_leq,
)
from chorus_wsi.typecheck import instantiate, participants_ordered
from chorus_wsi.wsi import (
    QUEUE_BOUND, _role_problem,
    wsi_by_covering, wsi_by_typing,
)

import conftest
import gen


def test_wsi_typing_atm(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    v1 = wsi_by_typing(g, "b", atm.processes["B1"].body, atm_domains, "atm")
    assert v1.holds()
    v2 = wsi_by_typing(g, "b", atm.processes["B2"].body, atm_domains, "atm")
    assert not v2.holds()
    assert v2.error.rule == "VSend"


def test_wsi_typing_pop_init(pop2, pop2_domains):
    g = pop2.globals_["G_POP"]
    v = wsi_by_typing(g, "s", pop2.processes["Init"].body, pop2_domains, "u")
    assert v.holds()


def test_wsi_covering_b1_holds(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B1"].body, atm_domains,
                        shared_name="atm")
    assert v.holds()


def test_wsi_covering_b2_missing_ok(atm, atm_domains):
    """B2 never sends ok: no context drives it through the ok skeleton,
    and the search, which never fills a queue, says so as a MissingRun."""
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B2"].body, atm_domains,
                        shared_name="atm")
    assert not v.holds() and not v.inconclusive
    assert Event("b", "!", "ok", UNIT) in mandatory(v.missing)
    assert str(v) == ("MissingRun (c,login!Str) (b,login?Str) "
                      "(c,overdraft!Int) (b,overdraft?Int) (b,ok!Unit) "
                      "(c,ok?Unit): branch unreachable under declared domains")


def test_typing_and_covering_agree_on_atm(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    for name in ("B1", "B2"):
        proc = atm.processes[name].body
        t = wsi_by_typing(g, "b", proc, atm_domains, "atm")
        c = wsi_by_covering(g, "b", proc, atm_domains, shared_name="atm")
        assert t.holds() == c.holds()


def test_context_synthesis_atm_credentials(atm, atm_domains):
    """The ok-run needs check-satisfying credentials, the ko-run
    check-falsifying ones: both are drawn for the pending binder cred,
    and each of the three skeletons has its own witness."""
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B1"].body, atm_domains,
                        shared_name="atm")
    assert v.holds()
    targets = runs_global(instantiate(g, g.params), 1)
    assert {t for t, _ in v.contexts} == targets
    for target, witness in v.contexts:
        assert trace_leq(target, witness)
    ends = {w[-2] for _, w in v.contexts}
    assert {Event("b", "!", "ok", UNIT), Event("b", "!", "ko", UNIT)} <= ends


def test_contexts_bind_checked_role(atm, atm_domains):
    """A witness is a run of the session: the checked process makes the
    events of its role, and its peer every other event."""
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B1"].body, atm_domains,
                        shared_name="atm")
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
        v = wsi_by_covering(gdef, role, decl.body, domains, shared_name=shared)
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
            assert len({_foata(mandatory(r)) for r in runs}) == 1, runs
            return True
    return False


def _default(sort) -> Lit:
    return Lit(sort, {"Int": 0, "Bool": False, "Str": "", "Unit": None,
                      "Data": b""}[sort.kind])


def test_wsi_of_a_requester_under_a_conditional(wrapped_open):
    """Typing and covering both accept a requester that opens its
    session on either side of an `if`, and the acceptor it runs with."""
    module, domains = wrapped_open
    g = module.globals_["G"]
    for name, role in (("CIf", "c"), ("S", "s")):
        body = module.processes[name].body
        assert wsi_by_typing(g, role, body, domains, "u").holds(), name
        assert wsi_by_covering(g, role, body, domains,
                               shared_name="u").holds(), name


def test_wsi_covering_role_not_participant(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "nobody", atm.processes["B1"].body, atm_domains,
                        shared_name="atm")
    assert not v.holds()
    assert str(v) == "MissingRun <empty>: 'nobody' is not a participant of G_ATM"


def test_wsi_covering_end_choreography(atm_domains):
    """A global with no participants has no role to play: covering
    rejects it as typing does."""
    gdef = GlobalDef("G0", (), GEnd())
    v = wsi_by_covering(gdef, "p", Branch(()), atm_domains)
    assert not v.holds()
    assert str(v) == "MissingRun <empty>: 'p' is not a participant of G0"


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
    ("pop2", "G_POP", "s", "Init", "u"), ("pop2", "G_POP", "c", "CPop", "u"),
    ("atm", "G_ATM", "b", "B1", "atm"), ("atm", "G_ATM", "c", "CATM", "atm"),
    ("multiparty", "G_POP_P", "s", "InitP", "u"),
    ("multiparty", "G_POP_P", "a", "AuthYes", "u"),
    ("multiparty", "G_POP_P", "c", "CHelo", "u"),
]


@pytest.mark.parametrize("unfold", [1, 2])
def test_typing_implies_covering_across_corpus(request, unfold):
    """Soundness at desk scale: every corpus process accepted by typing
    is also accepted by covering, including those whose guards read
    declared variables, and the witnesses cover every annotated run of
    the global at the bound K that `wsi --unfold K` reports a Holds at."""
    for module, gname, role, proc, shared in CORPUS_ROLES:
        mod = request.getfixturevalue(module)
        domains = request.getfixturevalue(f"{module}_domains")
        gdef, body = mod.globals_[gname], mod.processes[proc].body
        assert wsi_by_typing(gdef, role, body, domains, shared).holds()
        verdict = wsi_by_covering(gdef, role, body, domains,
                                  shared_name=shared)
        assert verdict.holds(), (proc, str(verdict))
        g = instantiate(gdef, gdef.params)
        witnesses = [run for _, run in verdict.contexts]
        assert covers(runs_global(g, unfold), witnesses).holds(), proc


def _projectable(gdef) -> bool:
    g = instantiate(gdef, gdef.params)
    try:
        for q in participants_ordered(g):
            project(g, q)
    except NonProjectable:
        return False
    return True


def test_typing_implies_covering_on_generated_implementations():
    """Differential: on the 299 roles of seeds 0-299 whose global type
    projects on every role and whose process, built from the role's
    projection with selector variables, typechecks, covering holds too."""
    cases = 0
    for seed in range(300):
        for gdef, role, proc, domains in gen.role_implementations(seed):
            if not _projectable(gdef) \
                    or not wsi_by_typing(gdef, role, proc, domains).holds():
                continue
            cases += 1
            verdict = wsi_by_covering(gdef, role, proc, domains)
            assert verdict.holds(), (seed, role, str(verdict))
    assert cases == 299


def _pruned(node):
    """Each process that replaces one `If` of node by one of its sides."""
    if isinstance(node, If):
        yield node.then
        yield node.orelse
    if not dataclasses.is_dataclass(node):
        return
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                for m in _pruned(item):
                    yield dataclasses.replace(
                        node, **{f.name: value[:i] + (m,) + value[i + 1:]})
        else:
            for m in _pruned(value):
                yield dataclasses.replace(node, **{f.name: m})


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
    for seed in range(300):
        for gdef, role, proc, domains in gen.role_implementations(seed):
            if not _projectable(gdef) \
                    or not wsi_by_typing(gdef, role, proc, domains).holds():
                continue
            for mutant in _pruned(proc):
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
    Init in the system semantics, so covering has no witness."""
    g = pop2.globals_["G_POP"]
    cpop = pop2.processes["CPop"].body
    assert wsi_by_covering(g, "c", cpop, pop2_domains).holds()
    proc = {"arity": dataclasses.replace(cpop, arity=2),
            "channels": dataclasses.replace(cpop, chans=cpop.chans[:-1]),
            "accept": Accept(cpop.shared, "c", cpop.chans, cpop.cont)}[change]
    runs = gen.system_runs({"c": proc, "s": pop2.processes["Init"].body},
                           g, "u", Store(tables=pop2_domains.tables))
    assert runs == {(): False}
    v = wsi_by_covering(g, "c", proc, pop2_domains)
    assert str(v) == (f"MissingRun {_CPOP_SKELETON}: branch unreachable "
                      "under declared domains")


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
    typing = wsi_by_typing(g, role, b1, atm_domains, "atm")
    assert not typing.holds()
    assert str(typing) == f"Rejected: role: {why} (at <top>)"
    covering = wsi_by_covering(g, role, b1, atm_domains, shared_name="atm")
    assert not covering.holds()
    assert str(covering) == f"MissingRun <empty>: {why}"


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
