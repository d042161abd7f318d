import pytest

import conftest
from chorus_wsi.guards import DomainDecl, EMPTY_DOMAINS
from chorus_wsi.projection import (
    NonProjectable, channel_sorts, participants, project, ready, well_formed,
)
from chorus_wsi.pseudotype import normal_form, remove_guards
from chorus_wsi.syntax import parse_global, parse_module, render_type
from chorus_wsi.syntax.ast import (
    GBranch, GChoice, GEnd, GIter, GSeq, INT, STR, TEnd, TRUE, UNIT,
)
from chorus_wsi.typecheck import instantiate

from pseudotype_laws import dual, is_local


def canonical(t, domains):
    return render_type(remove_guards(normal_form(t, domains)))


def test_participants_of_pop(pop2):
    g = instantiate(pop2.globals_["G_POP"], pop2.globals_["G_POP"].params)
    assert participants(g) == {"c", "s"}


def test_ready_end():
    assert ready(GEnd()) == frozenset()


def test_ready_of_nmbr_is_controller(pop2):
    g = pop2.globals_["G_NMBR"].body
    assert ready(g) == {"c"}
    assert isinstance(g, GSeq) and isinstance(g.first, GIter)
    assert g.first.controller == "c"


def test_well_formed_pop(pop2):
    g = instantiate(pop2.globals_["G_POP"], pop2.globals_["G_POP"].params)
    assert well_formed(g) == []


def test_well_formed_end():
    assert well_formed(GEnd()) == []


def test_ill_formed_wrong_ready_role():
    # the loop body's first sender is not the declared controller
    bad = GIter(GChoice("q", (GBranch("p", "b", INT, GEnd()),)), "p",
                (("q", "t", UNIT),))
    kinds = {v.kind for v in well_formed(bad)}
    assert "wrong-ready-role" in kinds or "multiple-ready-roles" in kinds


def test_ill_formed_termination_channel_in_body():
    body = GChoice("p", (GBranch("q", "t", INT, GEnd()),))
    g = GIter(body, "p", (("q", "t", UNIT),))
    kinds = {v.kind for v in well_formed(g)}
    assert "termination-channel-in-body" in kinds
    assert "inconsistent-channel-sort" in kinds


def test_project_end():
    assert project(GEnd(), "p") == TEnd(TRUE)


def test_project_pop_server_matches_declared_type(pop2, pop2_domains):
    g = instantiate(pop2.globals_["G_POP"], pop2.globals_["G_POP"].params)
    assert canonical(project(g, "s"), pop2_domains) == \
        canonical(pop2.types["T_s"], pop2_domains)


def test_project_multiparty_server_matches_declared_type(multiparty,
                                                         multiparty_domains):
    gdef = multiparty.globals_["G_POP_M"]
    g = instantiate(gdef, gdef.params)
    assert canonical(project(g, "s"), multiparty_domains) == \
        canonical(multiparty.types["T_s_M"], multiparty_domains)


def test_projection_output_is_local(pop2):
    g = instantiate(pop2.globals_["G_POP"], pop2.globals_["G_POP"].params)
    for p in participants(g):
        assert is_local(project(g, p))


def test_duality_on_two_party_corpus(pop2, pop2_domains):
    g = instantiate(pop2.globals_["G_POP"], pop2.globals_["G_POP"].params)
    assert canonical(project(g, "c"), pop2_domains) == \
        canonical(dual(project(g, "s")), pop2_domains)


def test_multiparty_literal_variant_not_projectable_on_authorizer(multiparty):
    gdef = multiparty.globals_["G_POP_M"]
    g = instantiate(gdef, gdef.params)
    with pytest.raises(NonProjectable):
        project(g, "a")


def test_multiparty_refinement_projects_on_all_roles(multiparty):
    gdef = multiparty.globals_["G_POP_P"]
    g = instantiate(gdef, gdef.params)
    for p in participants(g):
        project(g, p)


def test_projections_normalize_alike_under_the_module_domains():
    """A projection's guards are all the literal true, so it has one
    normal form under the module's domains and under none, on every
    role of every global of every module: `project`, `cover` and the
    peers of covering normalize projections under none."""
    checked = 0
    for path in conftest.MODULES:
        module = parse_module(path.read_text())
        domains = DomainDecl.from_module(module)
        for gdef in module.globals_.values():
            for p in sorted(participants(gdef.body)):
                try:
                    t = project(gdef.body, p)
                except NonProjectable:
                    continue
                assert normal_form(t) == normal_form(project(gdef.body, p), domains), \
                    (path.name, gdef.name, p)
                checked += 1
    assert checked == 51


def test_channel_sorts(atm):
    g = instantiate(atm.globals_["G_ATM"], atm.globals_["G_ATM"].params)
    sorts = channel_sorts(g)
    assert sorts["login"] == STR
    assert sorts["ok"] == UNIT


def test_uninvolved_identical_branches_merge():
    # r does the same thing in both branches of a choice between p and q
    tail = GChoice("p", (GBranch("r", "m", INT, GEnd()),))
    g = GChoice("p", (
        GBranch("q", "a", INT, tail),
        GBranch("q", "b", INT, tail),
    ))
    t = project(g, "r")
    assert canonical(t, EMPTY_DOMAINS) == canonical(project(tail, "r"),
                                                    EMPTY_DOMAINS)


def test_uninvolved_conflicting_branches_rejected():
    g = GChoice("p", (
        GBranch("q", "a", INT, GChoice("p", (GBranch("r", "m", INT, GEnd()),))),
        GBranch("q", "b", INT, GChoice("r", (GBranch("p", "n", INT, GEnd()),))),
    ))
    with pytest.raises(NonProjectable):
        project(g, "r")
