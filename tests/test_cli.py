import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chorus_wsi.cli as cli_mod
import chorus_wsi.projection as projection_mod
import chorus_wsi.syntax.parser as parser_mod
import chorus_wsi.traces as traces_mod
import chorus_wsi.typecheck as typecheck_mod
import chorus_wsi.wsi as wsi_mod
from chorus_wsi.cli import build_parser, main, run_to_json, runs_json
from chorus_wsi.guards import DomainDecl
from chorus_wsi.projection import participants_ordered
from chorus_wsi.syntax import parse_module
from chorus_wsi.traces import Opt, run_str, runs_global, sorted_runs
from chorus_wsi.typecheck import instantiate

import conftest
import gen

POP2 = str(conftest.CORPUS / "pop2.chor")
ATM = str(conftest.CORPUS / "atm.chor")
NORM = str(conftest.CORPUS / "norm_eqs.chor")
MP = str(conftest.CORPUS / "pop2_multiparty.chor")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", POP2)
    assert code == 0
    assert "global G_POP" in out


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.chor"
    bad.write_text("global G = p -> : { }\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{bad}:") and "expected" in err


def test_nesting_too_deep_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.chor"
    deep.write_text("type T = [" + "(" * 1000 + "x = 1" + ")" * 1000 + "] end\n")
    code, out, err = run(capsys, "parse", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{deep}:1:") and err.rstrip().endswith(": nesting too deep")


def test_project_server_golden(capsys, pop2, pop2_domains):
    code, out, _ = run(capsys, "project", POP2, "--role", "s")
    assert code == 0
    from chorus_wsi.pseudotype import normal_form, remove_guards
    from chorus_wsi.syntax import render_type
    want = render_type(remove_guards(normal_form(pop2.types["T_s"],
                                                 pop2_domains)))
    assert out.strip() == want


def test_project_unknown_role(capsys):
    code, out, _ = run(capsys, "project", POP2, "--role", "zz")
    assert code == 1


def test_project_unprojectable_role_exit_1(capsys):
    mp = str(conftest.CORPUS / "pop2_multiparty.chor")
    code, out, _ = run(capsys, "project", mp, "--role", "a",
                       "--global", "G_POP_M")
    assert code == 1
    assert "not projectable" in out
    code, out, _ = run(capsys, "project", mp, "--role", "a",
                       "--global", "G_POP_P")
    assert code == 0


def test_normalize_golden(capsys, norm_eqs):
    code, out, _ = run(capsys, "normalize", NORM, "--type", "NF2_PRUNE_INTERNAL")
    assert code == 0
    assert "b!(Int)" in out
    assert "a!(Int)" not in out  # the unsatisfiable branch is pruned


def test_typecheck_b1_ok_b2_rejected(capsys):
    code, out, _ = run(capsys, "typecheck", ATM, "--proc", "B1")
    assert code == 0
    code, out, _ = run(capsys, "typecheck", ATM, "--proc", "B2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["B2"]["rule"] == "VSend"


def test_simulate_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "simulate", POP2, "--system", "POP_QUIT",
                       "--steps", "50", "--seed", "0",
                       "--trace", str(trace))
    assert code == 0
    assert "terminated" in out
    entries = json.loads(trace.read_text())
    assert entries and all("label" in e and "store-delta" in e for e in entries)


def test_simulate_json_is_deterministic_with_seed(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "simulate", POP2, "--system", "POP_FULL",
                           "--steps", "60", "--seed", "7", "--json",
                           "--trace", str(trace))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert set(payload) == {"terminated", "steps"}
    assert isinstance(payload["terminated"], bool)
    assert payload["steps"] == json.loads(trace.read_text())


def test_simulate_deterministic_with_seed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "simulate", POP2, "--system", "POP_FULL",
                           "--steps", "60", "--seed", "7")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_simulate_names_a_requester_by_the_global_it_is_given(capsys):
    """With several entry globals and no --global, `simulate` runs and
    names no participant for the requester; --global names it."""
    argv = ("simulate", MP, "--system", "POP_M_RUN", "--steps", "1",
            "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    (step,) = json.loads(out)["steps"]
    assert step["label"].startswith("req ") and "participant" not in step
    code, out, _ = run(capsys, *argv, "--global", "G_POP_P")
    assert code == 0 and json.loads(out)["steps"][0]["participant"] == "c"


def test_simulate_opens_wrapped_sessions(capsys):
    """A requester under an `if` or a `for` opens its session, and every
    component is reported with the participant it plays."""
    wrapped = str(conftest.WRAPPED_OPEN)
    code, out, _ = run(capsys, "simulate", wrapped, "--system", "IF_OPEN",
                       "--seed", "0")
    assert code == 0
    assert out.splitlines()[0] == "[0] <x>req u[1](a@u0)"
    assert out.splitlines()[-1] == "terminated after 3 steps"
    for system in ("IF_OPEN", "FOR_OPEN"):
        code, out, _ = run(capsys, "simulate", wrapped, "--system", system,
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["terminated"]
        assert {(e["component"], e["participant"]) for e in payload["steps"]
                if e["label"] != "tau"} == {(0, "c"), (1, "s")}


SESSIONS = """\
// A nested open whose binder freshening renames, a loop that opens a
// session each round, and two copies of one system side by side, where
// each copy's `new` channel is renamed apart and a session may join a
// requester of one copy with an acceptor of the other.
process Outer = request u[1](a). { request v[1](a). a!(1) ; a!(2) }
process OuterAcc = accept u[q](b). b?(x). 0
process InnerAcc = accept v[q](d). d?(y). 0

process Opener = for i in 1..3 { request w[1](c). c!(i) }
process Acceptor = for i in 1..3 { accept w[q](c). c?(k). 0 }

process Go = g!(1)
process Once = request t[1](c). c!(2)
process Late = g?(x). accept t[q](c). c?(k). 0
system ONE = new (g)@z in { queue g = [] || Go || Once || Late }

system NESTED = Outer || OuterAcc || InnerAcc
system ROUNDS = Opener || Acceptor
system TWICE = ONE || ONE
"""

# (system, seeds) -> the steps `simulate` prints for each of those seeds
SESSION_RUNS = {
    ("NESTED", (0, 2, 3)): """\
[0] req u[1](a@u0)
[0] req v[1](a_2@v1)
[0] a_2@v1!1
[2] a_2@v1?1
[0] a@u0!2
[1] a@u0?2
terminated after 6 steps
""",
    ("NESTED", (1,)): """\
[0] req u[1](a@u0)
[0] req v[1](a_2@v1)
[0] a_2@v1!1
[0] a@u0!2
[2] a_2@v1?1
[1] a@u0?2
terminated after 6 steps
""",
    ("ROUNDS", (0,)): """\
[0] req w[1](c@w0)
[0] c@w0!1
[1] c@w0?1
[0] req w[1](c@w1)
[0] c@w1!2
[1] c@w1?2
[0] req w[1](c@w2)
[0] c@w2!3
[1] c@w2?3
[0] tau
[1] tau
terminated after 11 steps
""",
    ("ROUNDS", (1, 2, 3)): """\
[0] req w[1](c@w0)
[0] c@w0!1
[1] c@w0?1
[0] req w[1](c@w1)
[0] c@w1!2
[1] c@w1?2
[0] req w[1](c@w2)
[0] c@w2!3
[0] tau
[1] c@w2?3
[1] tau
terminated after 11 steps
""",
    ("TWICE", (0,)): """\
[3] g_2!1
[5] g_2?1
[0] g!1
[1] req t[1](c@t2)
[2] g?1
[4] req t[1](c_3@t3)
[4] c_3@t3!2
[2] c_3@t3?2
[1] c@t2!2
[5] c@t2?2
terminated after 10 steps
""",
    ("TWICE", (1,)): """\
[0] g!1
[2] g?1
[1] req t[1](c@t2)
[1] c@t2!2
[3] g_2!1
[5] g_2?1
[4] req t[1](c_3@t3)
[4] c_3@t3!2
[2] c@t2?2
[5] c_3@t3?2
terminated after 10 steps
""",
    ("TWICE", (2,)): """\
[0] g!1
[2] g?1
[3] g_2!1
[1] req t[1](c@t2)
[1] c@t2!2
[5] g_2?1
[4] req t[1](c_3@t3)
[2] c@t2?2
[4] c_3@t3!2
[5] c_3@t3?2
terminated after 10 steps
""",
    ("TWICE", (3,)): """\
[0] g!1
[2] g?1
[1] req t[1](c@t2)
[3] g_2!1
[1] c@t2!2
[2] c@t2?2
[5] g_2?1
[4] req t[1](c_3@t3)
[4] c_3@t3!2
[5] c_3@t3?2
terminated after 10 steps
""",
}


@pytest.mark.parametrize("system, seed", [
    (system, seed) for system, seeds in SESSION_RUNS for seed in seeds])
def test_simulate_nested_and_repeated_session_starts(tmp_path, capsys,
                                                     system, seed):
    """Each session start gives its channels fresh actuals: the inner
    open of NESTED, freshened to `a_2`, leaves the outer session's `a`
    bound to its own; each round of ROUNDS opens a new session on the
    same name `c`; and in TWICE the copies keep their channels apart."""
    module = tmp_path / "sessions.chor"
    module.write_text(SESSIONS)
    [want] = [out for (name, seeds), out in SESSION_RUNS.items()
              if name == system and seed in seeds]
    assert run(capsys, "simulate", str(module), "--system", system,
               "--seed", str(seed)) == (0, want, "")


@pytest.mark.parametrize("seed", range(4))
def test_simulate_two_copies_of_a_client_and_server(tmp_path, capsys, seed):
    """Two acceptors ready for a request of arity 1 are two session
    starts, either of which may be taken, so two copies of ROUNDS side
    by side run to the end, as one copy does in 11 steps."""
    module = tmp_path / "sessions.chor"
    module.write_text(SESSIONS + "system ROUNDS_TWICE = ROUNDS || ROUNDS\n")
    code, out, err = run(capsys, "simulate", str(module), "--system", "ROUNDS_TWICE",
                         "--seed", str(seed))
    assert (code, err) == (0, "")
    assert out.count(" req w[1]") == 6
    assert out.endswith("\nterminated after 22 steps\n")


def test_simulate_evaluation_error(tmp_path, capsys):
    """An evaluation error stops the run after the steps taken, exits 1,
    and is reported rather than raised."""
    trace = tmp_path / "trace.json"
    argv = ("simulate", str(conftest.UNBOUND_READ), "--system", "UNBOUND",
            "--trace", str(trace))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == ("[0] req u[1](a@u0)\n"
                   "stopped after 1 steps: evaluation error: "
                   "unbound variable 'z'\n")
    steps = json.loads(trace.read_text())
    assert [e["label"] for e in steps] == ["req u[1](a@u0)"]
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "terminated": False, "steps": steps,
        "error": "evaluation error: unbound variable 'z'"}


def test_sessions_reopened_in_a_loop_keep_their_own_queues(tmp_path, capsys):
    """Each session that a loop opens gets its own channels, `a@u0` then
    `a@u1`, with no renaming of the channels its process binds: not even
    where a store variable shares a channel's name (`domain a`)."""
    module = tmp_path / "loop.chor"
    module.write_text(
        "domain a : Bool\n"
        "global G(a) = p -> q : { a(Int). end }\n"
        "process P = for i in [1, 2] { request u[1](a). a!(i) }\n"
        "process Q = for j in [1, 2] { accept u[q](a). a?(x). 0 }\n"
        "system S = P || Q\n")
    code, out, _ = run(capsys, "simulate", str(module), "--system", "S",
                       "--seed", "0")
    assert code == 0
    assert out.splitlines() == [
        "[0] req u[1](a@u0)", "[0] a@u0!1", "[1] a@u0?1",
        "[0] req u[1](a@u1)", "[0] a@u1!2", "[1] a@u1?2",
        "[1] tau", "[0] tau", "terminated after 8 steps"]


def test_no_fresh_name_has_a_declared_domain(tmp_path, capsys):
    """Freshening moves P's second binder x past x_2, which has a domain
    of its own, so Q's Bool binder x_2 keeps its declared domain in every
    request: both `typecheck` and `wsi` find Q well typed."""
    module = tmp_path / "fresh.chor"
    module.write_text(
        "domain x : Int in {0, 1}\n"
        "domain x_2 : Bool\n"
        "global G(a, b, c) = p -> q : { a(Int). p -> q : { a(Int). end } "
        "+ b(Bool). q -> p : { c(Unit). end } }\n"
        "process P plays q of G = accept u[q](a, b, c). "
        "sum { a?(x). a?(x). 0 + b?(y). c!() }\n"
        "process Q plays q of G = accept u[q](a, b, c). "
        "sum { a?(w). a?(v). 0 + b?(x_2). if x_2 then c!() else c!() }\n")
    code, out, _ = run(capsys, "parse", str(module))
    assert code == 0
    assert "sum { a?(x). a?(x_3). 0 + b?(y). c!() }" in out
    assert run(capsys, "typecheck", str(module)) == (
        0, "P: well typed\nQ: well typed\n", "")
    assert run(capsys, "wsi", str(module), "--proc", "Q", "--mode", "typing") \
        == (0, "typing:   Holds (typing validates the role 'q')\n", "")


def test_a_for_over_a_non_list_is_an_evaluation_error(tmp_path, capsys):
    """Stepping `for i in n` where n is no list stops the run, or the
    covering search, with an evaluation error instead of a traceback."""
    module = tmp_path / "for.chor"
    module.write_text(
        "domain n : Int in {3}\n"
        "global G(a) = p -> q : { a(Int). end }\n"
        "process P plays p of G = request u[1](a). for i in n { a!(i) }\n"
        "process Q = accept u[q](a). a?(x). 0\n"
        "system S = P || Q\n")
    code, out, err = run(capsys, "simulate", str(module), "--system", "S",
                         "--seed", "0")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == ("stopped after 1 steps: evaluation error: "
                                    "iterating over non-list Int")
    code, out, err = run(capsys, "wsi", str(module), "--proc", "P",
                         "--mode", "covering")
    assert (code, err) == (1, "")
    assert out == ("covering: MissingRun (p,a!Int) (q,a?Int): evaluation "
                   "error: iterating over non-list Int\n")


def test_traces_json(capsys):
    code, out, _ = run(capsys, "traces", ATM, "--unfold", "1", "--json")
    assert code == 0
    runs = json.loads(out)
    assert len(runs) == 3
    assert all(isinstance(r, list) for r in runs)
    flat = [e for r in runs for e in r if "p" in e]
    assert {"p", "dir", "chan", "sort"} <= set(flat[0])


def _encoded(runs) -> str:
    return json.dumps([run_to_json(r) for r in runs], indent=2)


@pytest.mark.parametrize("k", [1, 2])
def test_runs_json_matches_the_encoder_on_the_corpus(k):
    checked = 0
    for path in sorted(conftest.CORPUS.glob("*.chor")):
        for gdef in parse_module(path.read_text()).globals_.values():
            runs = sorted(runs_global(instantiate(gdef, gdef.params), k),
                          key=run_str)
            assert runs_json(runs) == _encoded(runs), (path.name, gdef.name)
            checked += 1
    assert checked == 14


@pytest.mark.parametrize("k", [1, 2])
def test_traces_text_prints_run_str_of_the_sorted_runs(k, capsys):
    """`traces` prints the texts it sorted by: line for line the
    `run_str` of each run of `sorted_runs`, on every corpus global."""
    checked = 0
    for path in sorted(conftest.CORPUS.glob("*.chor")):
        for gdef in parse_module(path.read_text()).globals_.values():
            code, out, _ = run(capsys, "traces", str(path), "--global", gdef.name,
                               "--unfold", str(k))
            if code != 0:  # an ill-formed global is rejected before any run
                continue
            runs = sorted_runs(runs_global(instantiate(gdef, gdef.params), k))
            assert out.splitlines() == [run_str(r) for r in runs] + [
                f"{len(runs)} runs at unfold bound {k}"], (path.name, gdef.name)
            checked += 1
    assert checked >= 10


def test_normalize_of_a_deep_guard_exits_0(tmp_path, capsys):
    """A guard of 5,000 conjuncts is decided and printed without
    recursion on the chain."""
    deep = tmp_path / "deep.chor"
    chain = " and ".join(["x > 0"] * 5000)
    deep.write_text(f"domain x : Int in 0..3\ntype T = [{chain}] a!(Int). end\n"
                    f"type D = [{chain} and x < 1] a!(Int). end\n")
    code, out, err = run(capsys, "normalize", str(deep))
    assert code == 0 and err == ""
    assert out == f"D = [false] end\nT = [{chain}] a!(Int). [{chain}] end\n"


@pytest.mark.parametrize("v", [17, 1000])
def test_normalize_of_a_guard_over_many_variables_exits_0(tmp_path, capsys, v):
    """The ring (x0 or x1) and ... and (x{v-1} or x0) over v declared Bool
    variables is decided and printed; no count of stores bounds it."""
    ring = tmp_path / "ring.chor"
    guard = " and ".join(f"(x{i} or x{(i + 1) % v})" for i in range(v))
    ring.write_text("".join(f"domain x{i} : Bool\n" for i in range(v))
                    + f"type T = [{guard}] a!(Int). end\n")
    code, out, err = run(capsys, "normalize", str(ring))
    assert (code, err) == (0, "")
    assert out == f"T = [{guard}] a!(Int). [{guard}] end\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_guard_no_domain_decides_is_rejected_without_a_traceback(capsys, json_flag):
    """Typing rejects the undecided branch under VIf (exit 1); normalize
    reports the undecided type guard as an error (exit 2)."""
    path = str(conftest.UNDECIDED_GUARD)
    code, out, err = run(capsys, "typecheck", path, "--proc", "Q", *json_flag)
    assert code == 1 and err == ""
    message = "cannot decide the assumption for the then-branch: " \
        "no declared domain for: x"
    if json_flag:
        assert json.loads(out)["Q"] == {
            "ok": False, "rule": "VIf", "path": ["vacc u[q]", "arm a"],
            "message": message}
    else:
        assert out == f"Q: VIf: {message} (at vacc u[q] / arm a)\n"
    code, out, err = run(capsys, "wsi", path, "--proc", "Q", "--mode", "typing",
                         *json_flag)
    assert code == 1 and err == ""
    assert f"Rejected: VIf: {message}" in out
    code, out, err = run(capsys, "normalize", path, *json_flag)
    assert (code, out) == (2, "")
    assert err == "error: no declared domain for: z\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_branch_guards_undefined_on_a_store_are_a_vif_rejection(capsys, json_flag):
    """Each branch assumption has a witness, but deciding that the two
    guards on c exclude each other evaluates hd of an empty range: the
    merge of the branch types is rejected under VIf (exit 1)."""
    path = str(conftest.UNDEFINED_BRANCH_GUARD)
    message = "cannot decide the branch guards: hd of empty list"
    code, out, err = run(capsys, "typecheck", path, "--proc", "R", *json_flag)
    assert code == 1 and err == ""
    if json_flag:
        assert json.loads(out)["R"] == {
            "ok": False, "rule": "VIf", "path": ["vreq v[p]"], "message": message}
    else:
        assert out == f"R: VIf: {message} (at vreq v[p])\n"
    code, out, err = run(capsys, "wsi", path, "--proc", "R", "--mode", "typing",
                         *json_flag)
    assert code == 1 and err == ""
    assert f"Rejected: VIf: {message}" in out


def _requests(path) -> list:
    """Every request of the listed kinds that a module admits."""
    module = parse_module(path.read_text())
    f = str(path)
    out = [["parse", f], ["normalize", f], ["typecheck", f]]
    for gdef in [g for g in module.globals_.values() if g.params]:
        for role in participants_ordered(instantiate(gdef, gdef.params)):
            out.append(["project", f, "--global", gdef.name, "--role", role])
        for command in ("traces", "cover"):
            out.append([command, f, "--global", gdef.name, "--unfold", "1"])
    out += [["simulate", f, "--system", name, "--steps", "50"]
            for name in module.systems]
    out += [["wsi", f, "--proc", name]
            for name, decl in module.processes.items() if decl.role]
    return out


@pytest.mark.parametrize("path", sorted(conftest.CORPUS.glob("*.chor")),
                         ids=lambda path: path.name)
def test_requests_on_global_types_freshen_no_body(path, capsys, monkeypatch):
    """project, normalize, cover, traces and parse --json judge only
    global types and pseudo-types, which bind no process variable, so
    they freshen no process or system body; typecheck freshens every
    body."""
    kinds = ("project", "normalize", "cover", "traces")
    requests = [argv for argv in _requests(path) if argv[0] in kinds]
    calls = []
    real_freshen = parser_mod.freshen

    def counting(body, renames, bodies):
        calls.append(body)
        return real_freshen(body, renames, bodies)

    monkeypatch.setattr(parser_mod, "freshen", counting)
    assert {argv[0] for argv in requests} == set(kinds) \
        or path.name == "norm_eqs.chor"  # it declares no entry global
    for argv in [*requests, ["parse", str(path), "--json"]]:
        main(argv)
        assert calls == [], argv
    capsys.readouterr()
    module = parse_module(path.read_text())
    main(["typecheck", str(path)])
    assert len(calls) == len(module.processes) + len(module.systems)


def test_a_type_guard_gets_no_domain_from_a_renamed_binder(tmp_path, capsys):
    """normalize reads no body, so a guard that names a binder that
    freshening moved (the second copy of P's `cred` in S is `cred_2`)
    has no declared domain; the domains of a request that reads S still
    give `cred_2` the domain of `cred`, and those of one that reads P
    alone need no alias."""
    path = tmp_path / "renamed.chor"
    path.write_text(
        'domain cred : Str in {"pw", "x"}\n'
        "global G(a, b) = p -> q : { a(Unit). end + b(Unit). end }\n"
        'type T = [cred_2 = "pw"] a!(Unit). end (+) [not (cred_2 = "pw")] b!(Unit). end\n'
        "process P = a?(cred). 0\n"
        "system S = P || P\n")
    module = parse_module(path.read_text())
    assert module.bodies.aliases(["P"]) == {}
    assert module.bodies.aliases(["S"]) == {"cred_2": "cred"}
    domains = DomainDecl.from_module(module, ["S"]).domains
    assert domains["cred_2"] == domains["cred"]
    assert "cred_2" not in DomainDecl.from_module(module).domains
    code, out, err = run(capsys, "normalize", str(path))
    assert (code, out, err) == (2, "", "error: no declared domain for: cred_2\n")


def _deep_module(depth: int, copies: int) -> str:
    """A chain of `copies` processes, each of `depth` receives with
    distinct binders over the one before, the first ending in a send of
    the free `y`; Q binds `y` twice, so the second binder is renamed and
    freshening Q must go down the whole chain to rename that `y`."""
    lines = ["global G(a) = p -> q : { a(Int). end }",
             "process P0 = a!(y)"]
    for c in range(1, copies + 1):
        inputs = "".join(f"a?(x{c}_{i}). " for i in range(depth))
        lines.append(f"process P{c} = {inputs}P{c - 1}")
    lines += [f"process Q plays p of G = a?(y). a?(y). P{copies}",
              "system S = Q || Q"]
    return "\n".join(lines) + "\n"


def test_a_body_too_deep_to_freshen_is_a_parse_error(tmp_path, capsys):
    """Each declaration of the chain parses, but Q inlines all of them,
    deeper than the freshening walk can go: every subcommand that reads
    Q reports it at Q's name and exits 2, the ones that read no body
    answer, and none shows a traceback."""
    path = tmp_path / "deep.chor"
    path.write_text(_deep_module(depth=100, copies=15))
    f = str(path)
    line = 2 + 15 + 1
    message = f"{f}:{line}:9: nesting too deep\n"
    for argv, code in [(["parse", f], 2), (["parse", f, "--json"], 0),
                       (["typecheck", f], 2), (["wsi", f, "--proc", "Q"], 2),
                       (["simulate", f, "--system", "S"], 2),
                       (["normalize", f], 0), (["traces", f], 0),
                       (["cover", f], 0), (["project", f, "--role", "p"], 0)]:
        got, out, err = run(capsys, *argv)
        assert got == code, argv
        assert err == (message if code else ""), argv
        assert "Traceback" not in out + err


def test_a_body_too_deep_to_print_is_an_error(tmp_path, capsys):
    """Without Q and S the chain freshens without a walk, so it parses,
    but it nests deeper than the printer can go: `parse` exits 2 with an
    error and no traceback, while `parse --json` and `typecheck`, which
    print no body, answer."""
    path = tmp_path / "deep.chor"
    path.write_text("".join(line + "\n" for line in _deep_module(200, 30).splitlines()
                            if not line.startswith(("process Q", "system S"))))
    f = str(path)
    for argv, code in [(["parse", f], 2), (["parse", f, "--json"], 0),
                       (["typecheck", f], 0)]:
        got, out, err = run(capsys, *argv)
        assert got == code, argv
        assert err == (f"error: {f}: nesting too deep\n" if code else ""), argv
        assert "Traceback" not in out + err


@pytest.mark.parametrize("path", conftest.MODULES, ids=lambda path: path.name)
def test_no_request_on_a_shipped_module_raises(path, capsys):
    """parse, normalize, typecheck, project on each role, simulate each
    system, traces and cover of each entry global, and wsi of each
    process that plays a role, with and without --json: each exits 0-3
    and none raises.  Only normalize of the undecided type guard reports
    an evaluation error (`error: ...`, exit 2)."""
    for argv in _requests(path):
        for flags in ([], ["--json"]):
            code = main(argv + flags)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), argv + flags
            expected = argv == ["normalize", str(conftest.UNDECIDED_GUARD)]
            assert err.startswith("error:") == expected, (argv + flags, err)


def test_runs_json_matches_the_encoder_on_generated_globals():
    rng = random.Random(11)
    seen_opt = seen_empty = False
    for case in range(300):
        g = gen.gen_global(rng)
        for k in (1, 2):
            runs = sorted(runs_global(g, k), key=run_str)
            assert runs_json(runs) == _encoded(runs), (case, k)
            seen_empty |= () in runs
            seen_opt |= any(isinstance(x, Opt) for r in runs for x in r)
    assert seen_opt and seen_empty
    for runs in ([], [()]):
        assert runs_json(runs) == _encoded(runs)


def test_cover_holds(capsys):
    code, out, _ = run(capsys, "cover", ATM, "--unfold", "1")
    assert code == 0
    assert "Holds" in out


@pytest.mark.parametrize("argv, k, global_runs, spec_runs", [
    ((ATM,), 1, 3, 6), ((ATM,), 2, 3, 6),
    ((POP2,), 1, 7, 8), ((POP2,), 2, 464, 465),
    ((MP, "--global", "G_POP_P"), 1, 6, 7),
    ((MP, "--global", "G_POP_P"), 2, 463, 464),
])
def test_cover_lines_on_the_corpus(capsys, argv, k, global_runs, spec_runs):
    code, out, _ = run(capsys, "cover", *argv, "--unfold", str(k))
    assert code == 0
    assert out == (f"Holds@{k}: {global_runs} global runs covered by "
                   f"{spec_runs} specification runs\n")


def test_cover_answers_at_unfold_3(capsys):
    """Counting instead of enumerating 621,437 runs answers at once."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "cover", POP2, "--unfold", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == ("Holds@3: 621437 global runs covered by 621438 "
                   "specification runs\n")
    code, out, _ = run(capsys, "cover", POP2, "--unfold", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"holds": True, "global-runs": 621437,
                       "spec-runs": 621438}


def test_cover_prints_every_digit_up_to_the_limit(capsys):
    """At unfold 80 the counts have 3,864 digits and print in full."""
    code, out, _ = run(capsys, "cover", POP2, "--unfold", "80")
    assert code == 0
    head, tail = out.split(" global runs covered by ")
    assert head.startswith("Holds@80: ") and tail.endswith(" specification runs\n")
    assert len(head.removeprefix("Holds@80: ")) == 3864
    assert head.removeprefix("Holds@80: ").isdigit()
    code, out, _ = run(capsys, "cover", POP2, "--unfold", "80", "--json")
    assert code == 0
    payload = json.loads(out)
    assert str(payload["global-runs"]) == head.removeprefix("Holds@80: ")


@pytest.mark.parametrize("k, count", [(100, "1.2410e+6033"), (1000, "8.5126e+602184")])
def test_cover_past_the_decimal_limit(capsys, k, count):
    """Counts past 4,300 digits print as their first five digits and
    exponent, in text and (as a string) in --json, with no traceback.
    A full decimal at unfold 1000 took 20 s."""
    start = time.perf_counter()
    code, out, err = run(capsys, "cover", POP2, "--unfold", str(k))
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert out == (f"Holds@{k}: {count} global runs covered by {count} "
                   "specification runs\n")
    code, out, err = run(capsys, "cover", POP2, "--unfold", str(k), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload == {"holds": True, "global-runs": count, "spec-runs": count}


def test_count_form_agrees_with_the_full_decimal():
    import random
    import sys

    from chorus_wsi.cli import _count

    rng = random.Random(5)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for _ in range(200):
            d = rng.randint(4301, 6000)
            n = rng.choice((rng.randrange(10 ** (d - 1), 10 ** d), 10 ** (d - 1),
                            10 ** d - 1, 99_999 * 10 ** (d - 5) - 1))
            s = str(n)
            assert _count(n) == f"{s[0]}.{s[1:5]}e+{len(s) - 1}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert _count(10 ** 4300 - 1) == 10 ** 4300 - 1


def test_wsi_b1_exit_0(capsys):
    code, out, _ = run(capsys, "wsi", ATM, "--proc", "B1", "--role", "b",
                       "--unfold", "1", "--mode", "both")
    assert code == 0
    assert out.count("Holds") == 2


@pytest.mark.parametrize("unfold", ["1", "2"])
@pytest.mark.parametrize("module, proc", [(POP2, "CPop"), (MP, "CHelo"),
                                          (ATM, "CATM")])
def test_wsi_processes_reading_declared_variables_hold(capsys, module, proc,
                                                       unfold):
    """Guards that read declared variables start pending, so covering
    agrees with typing instead of failing on an unbound variable."""
    code, out, err = run(capsys, "wsi", module, "--proc", proc,
                         "--unfold", unfold)
    assert code == 0 and err == ""
    typing, covering = out.splitlines()
    assert typing.startswith("typing:   Holds")
    assert covering.startswith(f"covering: Holds@{unfold} (")


_INIT2_COVERING = (
    "covering: MissingRun <empty>: G_POP_M is not projectable on 'a': cannot "
    "merge branches for uninvolved 'a': shapes TEnd and TExternal do not "
    "match (at <root>) (at <root>)\n")


@pytest.mark.parametrize("unfold", ["1", "2"])
@pytest.mark.parametrize("module, proc, code, out", [
    (POP2, "CPop", 0, "typing:   Holds (typing validates the role 'c')\n"
                      "covering: Holds@{k} (6 contexts)\n"),
    (MP, "CHelo", 0, "typing:   Holds (typing validates the role 'c')\n"
                     "covering: Holds@{k} (6 contexts)\n"),
    (MP, "Init2", 1, "typing:   Holds (typing validates the role 's')\n"
                     + _INIT2_COVERING)], ids=["CPop", "CHelo", "Init2"])
def test_wsi_texts_of_the_requests_without_a_recorded_digest(capsys, module, proc,
                                                             code, out, unfold):
    """The whole answer of the covering requests whose output the
    benchmark records no digest of."""
    assert run(capsys, "wsi", module, "--proc", proc, "--unfold", unfold) \
        == (code, out.format(k=unfold), "")


def test_wsi_b2_exit_1_missing_run(capsys):
    code, out, _ = run(capsys, "wsi", ATM, "--proc", "B2", "--unfold", "1",
                       "--mode", "both", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["covering"]["detail"].startswith("MissingRun")
    missing = payload["covering"]["missing"]
    assert {"p": "b", "dir": "!", "chan": "ok", "sort": "Unit"} in missing


def test_golden_stability_project(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "project", POP2, "--role", "c")
        outs.add(out)
    assert len(outs) == 1


def test_typecheck_system_resolves_entry_global(capsys):
    # the multiparty module declares two entry globals; the system is
    # checked against the one that fits
    mp = str(conftest.CORPUS / "pop2_multiparty.chor")
    code, out, _ = run(capsys, "typecheck", mp)
    assert code == 0
    assert "POP_M_RUN: well typed" in out


def test_typecheck_proc_without_plays_takes_the_global(capsys):
    """A process that declares no `plays` is checked against --global,
    not against the module's unique entry global, which pop2_multiparty
    does not have."""
    code, out, err = run(capsys, "typecheck", MP, "--proc", "Srv2",
                         "--global", "G_POP_M")
    assert (code, err) == (1, "")
    assert out.startswith("Srv2: VRcv")
    code, _, err = run(capsys, "typecheck", MP, "--proc", "Srv2",
                       "--global", "NOPE")
    assert code == 2 and "no global type named 'NOPE'" in err


def test_color_env_toggle(capsys, monkeypatch):
    monkeypatch.setenv("CHORUS_COLOR", "1")
    _, out, _ = run(capsys, "cover", ATM, "--unfold", "1")
    assert "\x1b[32m" in out
    monkeypatch.setenv("CHORUS_COLOR", "0")
    _, out, _ = run(capsys, "cover", ATM, "--unfold", "1")
    assert "\x1b[" not in out


def _case(name, code, stderr, *argv, stdout=""):
    return pytest.param(argv, code, stderr, stdout, id=name)


@pytest.mark.parametrize("argv, code, stderr, stdout", [
    # holds, and analysis rejections
    _case("holds", 0, "", "cover", ATM, "--unfold", "1"),
    _case("type-error", 1, "", "typecheck", ATM, "--proc", "B2"),
    _case("typecheck-no-participants", 1, "",
          "typecheck", str(conftest.NO_PARTICIPANTS)),
    _case("typecheck-send-for-input", 1, "",
          "typecheck", str(conftest.SEND_FOR_INPUT),
          stdout="Eager: VSend: an output on ['ko'] where the specification "
                 "expects an input on ['login'] (at session of b)"),
    _case("project-non-participant", 1, "", "project", POP2, "--role", "zz"),
    _case("wsi-non-participant", 1, "",
          "wsi", ATM, "--proc", "B1", "--role", "zz", "--unfold", "1"),
    _case("wsi-idle-role", 1, "",
          "wsi", str(conftest.IDLE_ROLE), "--proc", "BMaybe",
          stdout="does not uniquely play 'b' in 'atm'"),
    _case("cover-ill-formed", 1, "", "cover", str(conftest.ILL_FORMED),
          stdout="self-communication: 'c' sends to itself on 'a'\n"
                 "self-communication: 'c' sends to itself on 'b'\n"),
    _case("traces-ill-formed", 1, "", "traces", str(conftest.ILL_FORMED),
          stdout="self-communication: 'c' sends to itself on 'b'"),
    _case("project-ill-formed", 1, "",
          "project", str(conftest.ILL_FORMED), "--role", "c",
          stdout="self-communication: 'c' sends to itself on 'a'"),
    _case("wsi-ill-formed", 1, "", "wsi", str(conftest.ILL_FORMED),
          "--proc", "C", "--mode", "covering",
          stdout="covering: MissingRun <empty>: G is ill-formed: "
                 "self-communication: 'c' sends to itself on 'a'"),
    _case("cover-non-projectable", 1, "",
          "cover", MP, "--global", "G_POP_M",
          stdout="not projectable: cannot merge branches for uninvolved 'a'"),
    _case("wsi-no-session", 1, "",
          "wsi", str(conftest.IDLE_ROLE), "--proc", "Z",
          stdout="covering: MissingRun <empty>: the process opens no session "
                 "of G_ATM"),
    _case("simulate-evaluation-error", 1, "",
          "simulate", str(conftest.UNBOUND_READ), "--system", "UNBOUND",
          stdout="stopped after 1 steps: evaluation error: "
                 "unbound variable 'z'"),
    # a covering search that skipped a send onto a full queue
    _case("wsi-inconclusive", 3, "",
          "wsi", str(conftest.SEND_LOOP), "--proc", "Q", "--mode", "covering",
          stdout="covering: Inconclusive (p,a!Int) (q,a?Int) (p,t!Unit) "
                 "(q,t?Unit): no witness with at most "),
    # usage errors: names the module does not declare
    _case("unknown-global", 2, "error: no global type named 'NOPE'",
          "project", POP2, "--role", "s", "--global", "NOPE"),
    _case("typecheck-plays-unknown-global", 2, "error: no global type named 'NOPE'",
          "typecheck", ATM, "--proc", "B1", "--global", "NOPE"),
    _case("wsi-plays-unknown-global", 2, "error: no global type named 'NOPE'",
          "wsi", ATM, "--proc", "B1", "--global", "NOPE", "--mode", "typing"),
    _case("unknown-proc", 2, "error: no process named 'NOPE'",
          "typecheck", ATM, "--proc", "NOPE"),
    _case("unknown-system", 2, "error: no system named 'NOPE'",
          "typecheck", ATM, "--system", "NOPE"),
    _case("simulate-unknown-system", 2, "error: no system named 'NOPE'",
          "simulate", POP2, "--system", "NOPE"),
    _case("simulate-unknown-global", 2, "error: no global type named 'NOPE'",
          "simulate", POP2, "--system", "POP_FULL", "--global", "NOPE"),
    _case("unknown-type", 2, "error: no type named 'NOPE'",
          "normalize", NORM, "--type", "NOPE"),
    _case("wsi-unknown-proc", 2, "error: no process named 'NOPE'",
          "wsi", ATM, "--proc", "NOPE"),
    # usage errors: an ambiguous entry global, no role, a bound below 1
    _case("ambiguous-global", 2, "error: module declares several entry globals",
          "cover", MP),
    *[_case(f"{argv[0]}-no-entry-global-{module.stem}", 2,
            "error: module declares no entry global", *argv[:1], str(module),
            *argv[1:])
      for module in (conftest.EMPTY, conftest.NO_ENTRY)
      for argv in (("project", "--role", "a"), ("traces",), ("cover",))],
    _case("no-role", 2, "error: give --role", "wsi", POP2, "--proc", "Srv"),
    _case("project-no-role", 2, "the following arguments are required: --role",
          "project", ATM),
    _case("unfold-0", 2, "--unfold: expected an integer",
          "cover", ATM, "--unfold", "0"),
    _case("unfold-negative", 2, "--unfold: expected an integer",
          "traces", ATM, "--unfold", "-1"),
    _case("steps-0", 2, "--steps: expected an integer",
          "simulate", POP2, "--system", "POP_QUIT", "--steps", "0"),
    _case("steps-not-a-number", 2, "--steps: expected an integer",
          "simulate", POP2, "--system", "POP_QUIT", "--steps", "x"),
    _case("missing-file", 2, "error: ",
          "parse", str(conftest.CORPUS / "missing.chor")),
    # files that cannot be read as text, or written
    _case("directory", 2, "error: [Errno 21] Is a directory",
          "parse", str(conftest.CORPUS)),
    _case("not-utf8", 2, f"error: {conftest.NOT_UTF8}: 'utf-8' codec can't decode",
          "typecheck", str(conftest.NOT_UTF8)),
    _case("simulate-trace-directory", 2, "error: [Errno 21] Is a directory",
          "simulate", POP2, "--system", "POP_QUIT", "--steps", "5",
          "--trace", str(conftest.CORPUS)),
])
def test_exit_code_contract(capsys, argv, code, stderr, stdout):
    try:
        got = main(list(argv))
    except SystemExit as exc:  # argparse rejects its own arguments
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert stderr in err
    assert stdout in out
    assert "Traceback" not in err


@pytest.mark.parametrize("body", ["if x then 0 else 0 ; a!()",
                                  "for i in 1..2 { 0 } ; a!()",
                                  "a!() ; if x then 0 else 0"])
def test_an_idle_branch_or_iteration_runs_on(tmp_path, capsys, body):
    """An `if` with an idle branch, or a `for` with an idle body, steps
    silently into the rest: covering holds as typing does, and the
    system runs to its end."""
    path = tmp_path / "idle.chor"
    path.write_text("domain x : Bool\n"
                    "global G(a) = p -> q : { a(Unit). end }\n"
                    f"process P plays p of G = request u[1](a). {{ {body} }}\n"
                    "process Q plays q of G = accept u[q](a). a?(). 0\n"
                    "system S = P || Q\n")
    code, out, _ = run(capsys, "wsi", str(path), "--proc", "P")
    assert (code, out) == (0, "typing:   Holds (typing validates the role 'p')\n"
                              "covering: Holds@2 (1 contexts)\n")
    code, out, _ = run(capsys, "simulate", str(path), "--system", "S",
                       "--seed", "0")
    assert code == 0 and "tau" in out
    assert out.splitlines()[-1].startswith("terminated after ")


def test_a_key_error_while_judging_is_no_unknown_name(capsys, monkeypatch):
    """Only a name the module does not declare is worded as one: a
    `KeyError` raised while judging a declared process goes through."""
    def failing(*args, **kwargs):
        raise KeyError("inner")

    monkeypatch.setattr(cli_mod, "typecheck_process", failing)
    with pytest.raises(KeyError, match="inner"):
        main(["typecheck", ATM, "--proc", "B1"])
    assert "no process named" not in capsys.readouterr().err


# the globals that other globals inline, with the channels each uses but
# does not take as parameters
FRAGMENTS = [
    (path, "G_EXIT", "bye") for path in (POP2, MP)
] + [
    (path, name, kept) for path in (POP2, MP) for name, kept in (
        ("G_NMBR", "ackd, acks, bye, fold, msg, nack, quit, r, read, retr"),
        ("G_SIZE", "ackd, acks, fold, msg, nack, r, read, retr"),
        ("G_XFER", "ackd, acks, nack, r"))
] + [
    (POP2, "G_MBOX", "ackd, acks, bye, e, fold, msg, nack, quit, r, read, retr"),
    (MP, "G_MBOX_M",
     "ackd, acks, bye, e, fold, msg, nack, quit, r, read, req, res, retr"),
    (str(conftest.NO_ENTRY), "G", "m"),
]


@pytest.mark.parametrize("argv, lines", [
    pytest.param(("cover", MP, "--global", "G_POP_M"),
                 ["not projectable: cannot merge branches for uninvolved 'a'"],
                 id="cover-non-projectable"),
    pytest.param(("cover", str(conftest.ILL_FORMED)),
                 ["self-communication: 'c' sends to itself on 'a'",
                  "self-communication: 'c' sends to itself on 'b'"],
                 id="cover-ill-formed"),
    pytest.param(("traces", str(conftest.ILL_FORMED)),
                 ["self-communication: 'c' sends to itself on 'a'",
                  "self-communication: 'c' sends to itself on 'b'"],
                 id="traces-ill-formed"),
    pytest.param(("project", str(conftest.ILL_FORMED), "--role", "c"),
                 ["self-communication: 'c' sends to itself on 'a'",
                  "self-communication: 'c' sends to itself on 'b'"],
                 id="project-ill-formed"),
    pytest.param(("project", POP2, "--role", "zz"),
                 ["'zz' is not a participant of G_POP"],
                 id="project-non-participant"),
    pytest.param(("project", MP, "--role", "a", "--global", "G_POP_M"),
                 ["not projectable: cannot merge branches for uninvolved 'a'"],
                 id="project-non-projectable"),
    *(pytest.param(("cover", path, "--global", name),
                   [f"{name} uses channels that are not its parameters: {kept}"],
                   id=f"cover-fragment-{path.rsplit('/', 1)[-1]}-{name}")
      for path, name, kept in FRAGMENTS),
])
def test_early_rejections_are_one_json_document(capsys, argv, lines):
    """A rejection before any analysis exits 1 with or without --json;
    under --json it is {"rejected": [...]} holding the text lines."""
    code, text, _ = run(capsys, *argv)
    json_code, out, err = run(capsys, *argv, "--json")
    assert code == json_code == 1
    assert err == ""
    payload = json.loads(out)
    assert list(payload) == ["rejected"]
    assert payload["rejected"] == text.splitlines()
    assert len(payload["rejected"]) == len(lines)
    for got, want in zip(payload["rejected"], lines):
        assert got.startswith(want)


# ------------------------------------------------------ reading a request

VALID = {"parse": (ATM,), "project": (POP2, "--role", "s"),
         "normalize": (NORM,), "typecheck": (ATM, "--proc", "B1"),
         "simulate": (POP2, "--system", "POP_QUIT", "--steps", "5"),
         "traces": (ATM, "--unfold", "1"), "cover": (ATM, "--unfold", "1"),
         "wsi": (ATM, "--proc", "B1", "--unfold", "1")}
SUBCOMMANDS = tuple(VALID)
# an option that takes a value (parse has none: --json=1 gives it one)
VALUED = {"parse": "--json=1", "normalize": "--type"}


def _surface_cases():
    for name in SUBCOMMANDS:
        valid = (name, *VALID[name])
        file, options = VALID[name][0], VALID[name][1:]
        named = "--type" if name == "normalize" else "--global"
        count = "--steps" if name == "simulate" else "--unfold"
        for case, argv in [
                ("no-file", (name,)),
                ("help", (name, "-h")),
                ("valid", valid),
                ("unknown-option", (*valid, "--bogus")),
                ("missing-value", (*valid, VALUED.get(name, "--global"))),
                ("bad-mode", (*valid, "--mode", "x")),
                ("unfold-0", (*valid, "--unfold", "0")),
                ("steps-0", (*valid, "--steps", "0")),
                ("extra-positional", (*valid, "extra")),
                ("abbreviated", (*valid, "--uni", "2")),
                ("file-last", (name, *options, file)),
                ("repeated", (*valid, named, "a", *options, named, "b")),
                ("equals", (*valid, f"{named}=a")),
                ("empty-value", (*valid, named, "")),
                ("empty-count", (*valid, count, "")),
                ("spaced-count", (*valid, count, " 5")),
                ("negative-seed", (*valid, "--seed", "-1")),
                ("json-twice", (*valid, "--json", "--json")),
                ("dashes-before-file", (name, *options, "--", file))]:
            yield pytest.param(name, argv, id=f"{name}-{case}")


def _parse_args(capsys, parser, argv):
    try:
        outcome = vars(parser.parse_args(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    out = capsys.readouterr()
    return outcome, out.out, out.err


@pytest.mark.parametrize("name, argv", [
    *_surface_cases(),
    *[pytest.param(name, (name, "--", *VALID[name]), id=f"{name}-dashes")
      for name in SUBCOMMANDS],
    *[pytest.param(name, (name, *VALID[name], "-h", "--bogus"), id=f"{name}-help-first")
      for name in SUBCOMMANDS]])
def test_main_reads_a_request_as_the_full_parser(capsys, monkeypatch, name, argv):
    """`main` reads a request by its own reader, or else by argparse,
    and gets the exit status, output and argument values of the
    parser."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_args(capsys, cli_mod, argv) == \
        _parse_args(capsys, build_parser(), argv)


TOP_USAGE = """\
usage: chorus-wsi [-h]
                  {parse,project,normalize,typecheck,simulate,traces,cover,wsi}
                  ...
"""
WSI_USAGE = """\
usage: chorus-wsi wsi [-h] [--json] [--global GLOBAL_NAME] [--role ROLE]
                      [--unfold K] [--mode {typing,covering,both}] --proc PROC
                      file
"""


@pytest.mark.parametrize("argv, code, out, err", [
    ((), 2, "", TOP_USAGE + "chorus-wsi: error: the following arguments are "
                            "required: command\n"),
    (("bogus",), 2, "", TOP_USAGE + "chorus-wsi: error: argument command: "
     "invalid choice: 'bogus' (choose from 'parse', 'project', 'normalize', "
     "'typecheck', 'simulate', 'traces', 'cover', 'wsi')\n"),
    (("wsi", ATM, "--proc", "B1", "--mode", "bogus"), 2, "", WSI_USAGE
     + "chorus-wsi wsi: error: argument --mode: invalid choice: 'bogus' "
     "(choose from 'typing', 'covering', 'both')\n"),
    (("-h",), 0, TOP_USAGE + """
Choreography projection, guard-sensitive session typing, and whole-spectrum
implementation checking.

positional arguments:
  {parse,project,normalize,typecheck,simulate,traces,cover,wsi}
    parse               parse and reprint a module
    project             project a global type on a role
    normalize           normal forms of declared types
    typecheck           typecheck processes and systems
    simulate            seeded execution of a system
    traces              annotated runs of a global type
    cover               check runs(G) covered by its projections
    wsi                 whole-spectrum implementation verdicts

options:
  -h, --help            show this help message and exit
""", ""),
], ids=["empty", "bogus", "bogus-mode", "help"])
def test_top_level_texts(capsys, monkeypatch, argv, code, out, err):
    """The usage, help and error texts, the same on every supported
    Python: `cli` words the invalid choices, whose quoting argparse
    changed in later patch releases."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_unrecognized_arguments_are_worded_by_the_top_parser(capsys, monkeypatch,
                                                             name):
    """Arguments that no option of the subcommand takes are an error of
    the whole command line, with the top-level usage, as the parser
    with every subcommand words it."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([name, *VALID[name], "--bogus", "extra"])
    assert (exc.value.code, *capsys.readouterr()) == (2, "", TOP_USAGE + (
        "chorus-wsi: error: unrecognized arguments: --bogus extra\n"))


@pytest.mark.parametrize("argv, parsers", [
    *[pytest.param((name, *VALID[name]), 0, id=name) for name in SUBCOMMANDS],
    *[pytest.param((name, *VALID[name], "--bogus"), 9, id=f"{name}-unrecognized")
      for name in ("parse", "wsi")],
    pytest.param((), 9, id="empty"), pytest.param(("-h",), 9, id="help"),
    pytest.param(("bogus",), 9, id="bogus")])
def test_main_builds_a_parser_only_for_what_it_cannot_read(capsys, monkeypatch,
                                                          argv, parsers):
    """A valid request builds no argparse parser; any other command
    line builds the one parser: the top parser and one per
    subcommand."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        main(list(argv))
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(built) == parsers


# run `main` on the arguments after the checkout's src/ directory
FRESH = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from chorus_wsi.cli import main; sys.exit(main())")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_fresh_interpreter_answers_as_main_in_process(capsys, monkeypatch, name):
    """A request run by a fresh `python -I`, which has imported only what
    the command line imports, gets the exit status, output and error
    text of `main` in this process, where the tests have imported
    argparse, json, pathlib and typing: so no import that a request
    needs is left out.  Asked of the valid request, with --json, of
    help and of a bound below 1."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CHORUS_COLOR", raising=False)
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    bound = "--steps" if name == "simulate" else "--unfold"
    for argv in [(name, *VALID[name]), (name, *VALID[name], "--json"),
                 (name, "-h"), (name, *VALID[name], bound, "0")]:
        fresh = subprocess.run([sys.executable, "-I", "-c", FRESH, src, *argv],
                               capture_output=True, text=True, timeout=60)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == \
            (code, *capsys.readouterr()), argv


HASH_SEEDED = [
    ("simulate", POP2, "--system", "POP_FULL", "--seed", "3"),
    ("simulate", POP2, "--system", "POP_FULL", "--seed", "3", "--json"),
    ("wsi", POP2, "--proc", "CPop", "--json"),
    ("cover", POP2, "--unfold", "2", "--json"),
    ("typecheck", MP)]


def test_output_does_not_depend_on_the_string_hash_seed():
    """Fresh interpreters under PYTHONHASHSEED 0 to 3 give each request
    the same exit status and output.  `-I` would ignore PYTHONHASHSEED
    with every other PYTHON* variable, so the interpreters run with
    `-s` and an environment that sets no other PYTHON* variable."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    hashes, answers = set(), {}
    for seed in range(4):
        seeded = {**env, "PYTHONHASHSEED": str(seed)}
        hashes.add(subprocess.run(
            [sys.executable, "-s", "-c", "print(hash('chorus'))"], env=seeded,
            capture_output=True, text=True, timeout=60).stdout)
        for argv in HASH_SEEDED:
            fresh = subprocess.run([sys.executable, "-s", "-c", FRESH, src, *argv],
                                   env=seeded, capture_output=True, text=True,
                                   timeout=60)
            answers.setdefault(argv, set()).add((fresh.returncode, fresh.stdout,
                                                 fresh.stderr))
    assert len(hashes) == 4  # each seed took effect
    for argv, outcomes in answers.items():
        assert len(outcomes) == 1, argv
        [(code, out, _)] = outcomes
        assert code == 0 and out, argv


@pytest.mark.parametrize("argv, instances, calls, walks", [
    pytest.param(("cover", POP2, "--unfold", "2"), 0, 7, 3, id="cover"),
    pytest.param(("wsi", POP2, "--proc", "Init"), 1, 11, 3, id="wsi")])
def test_a_request_walks_each_global_once(capsys, monkeypatch, argv, instances,
                                          calls, walks):
    """A request reads a global declaration's body itself: only typing a
    session's open instantiates it, with the open's channels, which are
    its parameters here, giving the body.  The participants of a global
    type are found once and kept on it, however often a request asks.
    `cover` at bound 2 asks for them 7 times, 2 fewer than when it
    checked the global's well-formedness at both bounds."""
    instantiated, found = [], []

    def counted_instantiate(gdef, chans):
        g = instantiate(gdef, chans)
        instantiated.append(g is gdef.body)
        return g

    def counted_participants(g):
        parts = participants_ordered(g)
        found.append((id(g), id(parts)))
        return parts

    for module in (cli_mod, projection_mod, traces_mod, typecheck_mod, wsi_mod):
        if hasattr(module, "instantiate"):
            monkeypatch.setattr(module, "instantiate", counted_instantiate)
        monkeypatch.setattr(module, "participants_ordered", counted_participants)
    assert run(capsys, *argv)[0] == 0
    assert instantiated == [True] * instances
    assert len(found) == calls
    assert len({g for g, _ in found}) == len(set(found)) == walks


@pytest.mark.parametrize("proc, code, read", [
    pytest.param("CQuit", 1, {"CQuit"}, id="CQuit"),
    pytest.param("Init", 0, {"Init", "Srv", "Exit", "Mbox", "Nmbr", "Size", "Xfer"},
                 id="Init")])
def test_a_wsi_request_freshens_only_the_bodies_it_reads(capsys, monkeypatch, proc,
                                                        code, read):
    """`wsi` reads the checked process and the declarations it names, for
    their code and for the aliases of their binders alike, and freshens
    no other body: one `subst.freshen` call for each body read."""
    assert _freshened(capsys, monkeypatch, "wsi", POP2, "--proc", proc) \
        == (code, read, len(read))


def test_simulate_freshens_only_the_bodies_of_its_system(capsys, monkeypatch):
    """The seeded store of `simulate` draws values for the aliases of the
    simulated system's bodies only: POP_QUIT and what it names, not
    CPop's bodies, which POP_FULL alone runs."""
    read = {"POP_QUIT", "Init", "CQuit", "Srv", "Exit", "Mbox", "Nmbr", "Size",
            "Xfer"}
    assert _freshened(capsys, monkeypatch, "simulate", POP2,
                      "--system", "POP_QUIT") == (0, read, len(read))


def _freshened(capsys, monkeypatch, *argv) -> tuple:
    """The exit code of the request, the declarations whose bodies its
    module freshened, and the number of `subst.freshen` calls."""
    made, freshened = [], []

    class Recorded(parser_mod.Bodies):
        def __init__(self, text):
            super().__init__(text)
            made.append(self)

    real_freshen = parser_mod.freshen

    def counted(body, renames, bodies):
        freshened.append(body)
        return real_freshen(body, renames, bodies)

    monkeypatch.setattr(parser_mod, "Bodies", Recorded)
    monkeypatch.setattr(parser_mod, "freshen", counted)
    code = run(capsys, *argv)[0]
    (bodies,) = made
    return code, set(bodies.fresh), len(freshened)
