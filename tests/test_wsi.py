import pytest

from chorus_wsi.syntax.ast import Event, GlobalDef, GEnd, UNIT, Branch
from chorus_wsi.traces import covers, mandatory, runs_global, runs_impl
from chorus_wsi.typecheck import instantiate
from chorus_wsi.wsi import (
    NonViable, synthesize_contexts, wsi_by_covering, wsi_by_typing,
)


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
    g = atm.globals_["G_ATM"]
    v = wsi_by_covering(g, "b", atm.processes["B2"].body, atm_domains,
                        shared_name="atm")
    assert not v.holds()
    assert Event("b", "!", "ok", UNIT) in mandatory(v.missing)


def test_typing_and_covering_agree_on_atm(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    for name in ("B1", "B2"):
        proc = atm.processes[name].body
        t = wsi_by_typing(g, "b", proc, atm_domains, "atm")
        c = wsi_by_covering(g, "b", proc, atm_domains, shared_name="atm")
        assert t.holds() == c.holds()


def test_context_synthesis_atm_credentials(atm, atm_domains):
    """The ok-run needs check-satisfying credentials, the ko-run
    check-falsifying ones; both are found by domain enumeration."""
    g = atm.globals_["G_ATM"]
    jobs = synthesize_contexts(g, "b", atm.processes["B1"].body, atm_domains,
                               shared_name="atm")
    assert len(jobs) == 3  # one per maximal run skeleton
    covered = []
    for target, candidates in jobs:
        hit = None
        for iota in candidates():
            runs = runs_impl(iota, "atm", g, atm_domains)
            if any(covers([target], [r]).holds() for r in runs):
                hit = iota
                break
        assert hit is not None, f"no context drives {target}"
        covered.append(target)
    assert len(covered) == 3


def test_contexts_bind_checked_role(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    b1 = atm.processes["B1"].body
    jobs = synthesize_contexts(g, "b", b1, atm_domains, shared_name="atm")
    for _, candidates in jobs:
        iota = next(iter(candidates()))
        assert iota["b"] is b1
        assert set(iota) == {"b", "c"}


def test_context_determinism(atm, atm_domains):
    """Each synthesized context plus the candidate yields one run up to
    permutation of causally independent events."""
    from chorus_wsi.traces import _foata
    g = atm.globals_["G_ATM"]
    jobs = synthesize_contexts(g, "b", atm.processes["B1"].body, atm_domains,
                               shared_name="atm")
    for _, candidates in jobs:
        iota = next(iter(candidates()))
        runs = runs_impl(iota, "atm", g, atm_domains)
        classes = {_foata(mandatory(r)) for r in runs if r}
        assert len(classes) <= 1


def test_wsi_covering_role_not_participant(atm, atm_domains):
    g = atm.globals_["G_ATM"]
    with pytest.raises(NonViable):
        synthesize_contexts(g, "nobody", atm.processes["B1"].body,
                            atm_domains)


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


@pytest.mark.parametrize("unfold", [1, 2])
def test_typing_implies_covering_across_corpus(pop2, pop2_domains, atm,
                                               atm_domains, multiparty,
                                               multiparty_domains, unfold):
    """Soundness at desk scale: every corpus process accepted by typing
    is also accepted by covering, and the runs of the contexts covering
    picks cover every annotated run of the global at the bound K that
    `wsi --unfold K` reports a Holds at.  (Only processes whose guards
    depend on received values qualify: covering runs start from the
    empty store.)"""
    cases = [
        (pop2.globals_["G_POP"], "s", pop2.processes["Init"].body,
         pop2_domains, "u"),
        (atm.globals_["G_ATM"], "b", atm.processes["B1"].body,
         atm_domains, "atm"),
        (multiparty.globals_["G_POP_P"], "s", multiparty.processes["InitP"].body,
         multiparty_domains, "u"),
        (multiparty.globals_["G_POP_P"], "a", multiparty.processes["AuthYes"].body,
         multiparty_domains, "u"),
    ]
    for gdef, role, proc, domains, shared in cases:
        assert wsi_by_typing(gdef, role, proc, domains, shared).holds()
        verdict = wsi_by_covering(gdef, role, proc, domains,
                                  shared_name=shared)
        assert verdict.holds(), (gdef.name, role, str(verdict))
        achieved = set()
        for target, candidates in synthesize_contexts(gdef, role, proc,
                                                      domains, shared):
            for iota in candidates():
                runs = runs_impl(iota, shared, gdef, domains)
                if covers([target], runs).holds():
                    achieved |= runs
                    break
        g = instantiate(gdef, gdef.params)
        assert covers(runs_global(g, unfold), achieved).holds(), (
            gdef.name, role)


def test_wsi_pop_quit_context_drives_exit_run(pop2, pop2_domains):
    """The quit-client context elicits the EXIT run from the server."""
    g = pop2.globals_["G_POP"]
    iota = {"s": pop2.processes["Init"].body,
            "c": pop2.processes["CQuit"].body}
    runs = runs_impl(iota, "u", g, pop2_domains)
    exit_run = (Event("c", "!", "quit", UNIT), Event("s", "?", "quit", UNIT),
                Event("s", "!", "bye", UNIT), Event("c", "?", "bye", UNIT))
    assert exit_run in runs


def test_wsi_covering_unprojectable_peer_rejects(multiparty, multiparty_domains):
    """G_POP_M does not project on the authorizer: covering Init2 answers
    with a MissingRun naming the peer instead of raising."""
    g = multiparty.globals_["G_POP_M"]
    init2 = multiparty.processes["Init2"].body
    with pytest.raises(NonViable, match="not projectable on 'a'"):
        synthesize_contexts(g, "s", init2, multiparty_domains)
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
    from chorus_wsi.wsi import _role_problem
    for module in (pop2, atm, multiparty):
        for decl in module.processes.values():
            if decl.role is None:
                continue
            gdef = module.globals_[decl.global_name]
            shared = sorted(fU(decl.body))[0]
            assert _role_problem(gdef, decl.role, decl.body, shared) is None
