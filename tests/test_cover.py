"""`cover` decides by the covering search of `wsi.projections_cover`,
one product search per skeleton with every role a projection peer.
Checked against the paper's covering relation on the run sets of the
global type and of the specification made of its projections
(covers_reference.py), on the corpus and on seeded generated globals;
the specification's runs are only counted, never built."""

import json
import random

import pytest

from chorus_wsi import traces, wsi
from chorus_wsi.cli import main
from chorus_wsi.guards import DomainDecl, EMPTY_DOMAINS
from chorus_wsi.projection import NonProjectable, participants_ordered
from chorus_wsi.pseudotype import normal_form
from chorus_wsi.syntax.ast import GlobalDef, TEnd
from chorus_wsi.traces import (
    IllFormed, RUN_SETS, projection_env, run_count, runs_global, runs_spec,
    sorted_runs, trace_leq,
)
from chorus_wsi.typecheck import instantiate
from chorus_wsi.wsi import projections_cover

import conftest
import gen
from conformance_reference import step_spec
from covers_reference import covers

ATM = str(conftest.CORPUS / "atm.chor")

# the generated globals whose specification `traces._spec_runs` finds no
# run of at all: it unfolds loops only once no role can move outside
# one, and then in lockstep rounds of every role at a loop head
FLIPPED = {80, 119, 173, 186, 192, 223, 236, 257, 280, 289, 460, 538, 564}


def _replays(run: tuple, gdef: GlobalDef, domains: DomainDecl) -> bool:
    """Is run, event by event, a complete run of the specification made
    of gdef's projections: each event a queue step of its role in
    `step_spec`, ending with every session at end and every queue
    empty?"""
    envs = {projection_env(gdef, domains)}
    for ev in run:
        comm = ("out" if ev.polarity == "!" else "in", ev.channel, ev.sort)
        envs = {after for env in envs for label, after in step_spec(env, domains)
                if label.kind == "tau" and label.role == ev.participant
                and label.comm == comm}
    return any(all(isinstance(normal_form(t, domains), TEnd) for _, t in env.sessions)
               and not any(q for _, q in env.queues) for env in envs)


def _cases():
    """(name, global, domains) of every corpus global and of the
    well-formed, projectable generated globals with participants of
    seeds 0-599."""
    for path in sorted(conftest.CORPUS.glob("*.chor")):
        module = conftest.load(path.name)
        domains = DomainDecl.from_module(module)
        for name, gdef in module.globals_.items():
            yield f"{path.name}:{name}", gdef, domains
    for seed in range(600):
        g = gen.gen_global(random.Random(seed))
        if participants_ordered(g):
            yield seed, GlobalDef("G", ("a", "b", "c", "t"), g), EMPTY_DOMAINS


def test_cover_agrees_with_the_covering_relation():
    """Every old Holds stays Holds; where the run sets answered
    MissingRun and the search finds witnesses, each witness replays as a
    complete run of the specification; where both miss, they name the
    same skeleton; nothing is inconclusive; and the count at bound 1 is
    the size of the specification's run set, empty exactly for the
    flipped seeds."""
    flipped, checked = set(), 0
    for name, gdef, domains in _cases():
        g = instantiate(gdef, gdef.params)
        try:
            rg = runs_global(g, 1)
            delta = projection_env(gdef, domains)
        except (IllFormed, NonProjectable):
            continue
        rs = runs_spec(delta, gdef.params, 1, domains)
        assert (len(rs) == 0) == (name in FLIPPED), name
        assert run_count(lambda algebra: runs_spec(
            delta, gdef.params, 1, domains, algebra)) == len(rs), name
        old = covers(rg, rs)
        new = projections_cover(gdef, delta, sorted_runs(rg), domains)
        assert not new.inconclusive, name
        if old.holds():
            assert new.holds(), name
        elif new.holds():
            flipped.add(name)
            for target, witness in new.contexts:
                assert trace_leq(target, witness), name
                assert _replays(witness, gdef, domains), (name, witness)
        else:
            assert new.missing == old.run, name
        checked += isinstance(name, int)
    assert checked == 283 and flipped == FLIPPED


def _choices(n: int) -> str:
    """n sequential binary choices from p to q, each on its own channels."""
    chans = ", ".join(f"a{i}, b{i}" for i in range(n))
    return f"global G({chans}) =\n  " + " ;\n  ".join(
        f"p -> q : {{ a{i}(Unit). end + b{i}(Unit). end }}" for i in range(n))


def test_cover_builds_no_specification_run_set(capsys, monkeypatch, tmp_path):
    """On ten sequential choices, with 17,199,104 specification runs,
    `cover` decides and counts with the specification enumerator raising
    whenever it is asked for run sets rather than counts."""
    spec_runs = traces._spec_runs

    def counts_only(state, unfold, domains, algebra, memo):
        if algebra is RUN_SETS:
            raise AssertionError("a specification run set was built")
        return spec_runs(state, unfold, domains, algebra, memo)

    monkeypatch.setattr(traces, "_spec_runs", counts_only)
    path = tmp_path / "choices.chor"
    path.write_text(_choices(10) + "\n")
    assert main(["cover", str(path), "--unfold", "1"]) == 0
    assert capsys.readouterr().out == (
        "Holds@1: 1024 global runs covered by 17199104 specification runs\n")


def test_a_skipped_send_makes_cover_inconclusive(capsys, monkeypatch):
    """With no room in any queue every send is skipped: no witness, but
    a longer queue might give one, so `cover` is Inconclusive (exit 3)."""
    monkeypatch.setattr(wsi, "QUEUE_BOUND", 0)
    assert main(["cover", ATM]) == 3
    out = capsys.readouterr().out
    assert out == ("Inconclusive: (c,login!Str) (b,login?Str) (c,deposit!Int) "
                   "(b,deposit?Int): no witness with at most 0 messages per "
                   "queue\n")
    assert main(["cover", ATM, "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["inconclusive"] is True and payload["holds"] is False
    assert payload["missing"][0] == {"p": "c", "dir": "!", "chan": "login",
                                     "sort": "Str"}


@pytest.mark.parametrize("k", [1, 2])
def test_a_global_with_no_participants_holds(capsys, k):
    assert main(["cover", str(conftest.NO_PARTICIPANTS), "--unfold", str(k)]) == 0
    assert capsys.readouterr().out == (
        f"Holds@{k}: 1 global runs covered by 1 specification runs\n")
