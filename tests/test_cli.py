import argparse
import json
import random
import time

import pytest

from chorus_wsi.cli import build_parser, main, run_to_json, runs_json
from chorus_wsi.syntax import parse_module
from chorus_wsi.traces import Opt, run_str, runs_global
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
    _case("unknown-proc", 2, "error: no process named 'NOPE'",
          "typecheck", ATM, "--proc", "NOPE"),
    _case("unknown-system", 2, "error: no system named 'NOPE'",
          "typecheck", ATM, "--system", "NOPE"),
    _case("simulate-unknown-system", 2, "error: no system named 'NOPE'",
          "simulate", POP2, "--system", "NOPE"),
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


# ------------------------------------------------ one subcommand's parser

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
                ("abbreviated", (*valid, "--uni", "2"))]:
            yield pytest.param(name, argv, id=f"{name}-{case}")


def _parse_args(capsys, parser, argv):
    try:
        outcome = parser.parse_args(list(argv))
    except SystemExit as exc:
        outcome = exc.code
    out = capsys.readouterr()
    return outcome, out.out, out.err


@pytest.mark.parametrize("name, argv", _surface_cases())
def test_one_subcommand_parser_answers_as_the_full_parser(capsys, monkeypatch,
                                                          name, argv):
    """The exit status, output and Namespace of the parser with only
    `name` are those of the parser with every subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_args(capsys, build_parser(name), argv) == \
        _parse_args(capsys, build_parser(), argv)


TOP_USAGE = """\
usage: chorus-wsi [-h]
                  {parse,project,normalize,typecheck,simulate,traces,cover,wsi}
                  ...
"""


@pytest.mark.parametrize("argv, code, out, err", [
    ((), 2, "", TOP_USAGE + "chorus-wsi: error: the following arguments are "
                            "required: command\n"),
    (("bogus",), 2, "", TOP_USAGE + "chorus-wsi: error: argument command: "
     "invalid choice: 'bogus' (choose from 'parse', 'project', 'normalize', "
     "'typecheck', 'simulate', 'traces', 'cover', 'wsi')\n"),
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
], ids=["empty", "bogus", "help"])
def test_top_level_texts(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv, parsers", [
    *[pytest.param((name, *VALID[name]), 2, id=name) for name in SUBCOMMANDS],
    pytest.param((), 9, id="empty"), pytest.param(("-h",), 9, id="help"),
    pytest.param(("bogus",), 9, id="bogus")])
def test_main_builds_the_named_subcommand_parser_only(capsys, monkeypatch,
                                                      argv, parsers):
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
