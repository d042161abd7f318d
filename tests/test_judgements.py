"""The judgement table of a `typecheck` request: a session-opening
process judged well typed is looked up by its alpha key instead of being
judged again, and the request prints exactly what it prints when every
target is judged afresh."""

import copy
import functools
import pickle

import pytest

from chorus_wsi import cli, typecheck
from chorus_wsi.guards import DomainDecl
from chorus_wsi.syntax import parse_module, parse_process, render_module
from chorus_wsi.syntax.ast import (
    BinOp, Const, ListLit, Lit, ModuleDecl, Par, Proc, ProcessDef, Range,
    Sort, SystemDef, UnOp, Var,
)
from chorus_wsi.typecheck import TypingError, alpha_key, gamma_from_domains

import conftest
import gen

MODULES = sorted(conftest.CORPUS.glob("*.chor")) \
    + sorted(conftest.NO_PARTICIPANTS.parent.glob("*.chor"))


def _fresh_tables(original):
    return lambda *args, judged, **kw: original(*args, judged={}, **kw)


def _outputs(path, capsys, monkeypatch) -> tuple:
    """The text and JSON answers of `typecheck` on path, first with one
    judgement table for the request and then with a fresh table for each
    target."""
    answers = []
    for fresh in (False, True):
        if fresh:
            for name in ("typecheck_process", "typecheck_system"):
                monkeypatch.setattr(cli, name, _fresh_tables(getattr(cli, name)))
        for options in ((), ("--json",)):
            code = cli.main(["typecheck", str(path), *options])
            answers.append((options, code, capsys.readouterr()))
    monkeypatch.undo()
    return answers[:2], answers[2:]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_table_prints_as_fresh_tables_on_modules(path, capsys, monkeypatch):
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh


def _generated_module(impls, procs) -> str:
    """A module of the global type of `impls`, one process per role
    (procs, in the order of impls) and one system of all of them."""
    gdef = impls[0][0]
    domains = {}
    processes = {}
    for (_, role, _, decl_domains), proc in zip(impls, procs):
        domains.update(decl_domains.domains)
        processes[f"P_{role}"] = ProcessDef(f"P_{role}", proc, role, gdef.name)
    system = functools.reduce(Par, (Proc(p) for p in procs))
    return render_module(ModuleDecl(
        domains=domains, globals_={gdef.name: gdef}, processes=processes,
        systems={"S": SystemDef("S", system)}))


def test_one_table_prints_as_fresh_tables_on_generated_modules(
        tmp_path, capsys, monkeypatch):
    """Modules from `gen.role_implementations` seeds 0-99, and one module
    for each branch-pruning mutant of one of their processes, with the
    mutant in its process declaration and in the system."""
    texts = []
    for seed in range(100):
        impls = gen.role_implementations(seed)
        if not impls:
            continue
        procs = [proc for _, _, proc, _ in impls]
        texts.append(_generated_module(impls, procs))
        for i, proc in enumerate(procs):
            texts += [_generated_module(impls, procs[:i] + [m] + procs[i + 1:])
                      for m in gen.pruned(proc)]
    assert len(texts) > 150
    path = tmp_path / "generated.chor"
    rejected = 0
    for text in texts:
        path.write_text(text)
        shared, fresh = _outputs(path, capsys, monkeypatch)
        assert shared == fresh, text
        rejected += shared[0][1] == 1
    assert 0 < rejected < len(texts)


# ---------------------------------------------------------------- the work

def _work(monkeypatch, capsys, path, fresh=False) -> tuple:
    """(session-opening judgements, `__eq__` calls on expression, literal
    and sort records) of one `typecheck` request, with one judgement
    table or with a fresh one for each target."""
    counts = {"judgements": 0, "eq": 0}
    if fresh:
        for name in ("typecheck_process", "typecheck_system"):
            monkeypatch.setattr(cli, name, _fresh_tables(getattr(cli, name)))
    original = typecheck._open_session

    def opening(*args):
        counts["judgements"] += 1
        return original(*args)
    monkeypatch.setattr(typecheck, "_open_session", opening)
    for cls in (Var, Const, BinOp, UnOp, ListLit, Range, Lit, Sort):
        def eq(self, other, eq=cls.__eq__):
            counts["eq"] += 1
            return eq(self, other)
        monkeypatch.setattr(cls, "__eq__", eq)
    cli.main(["typecheck", str(path)])
    monkeypatch.undo()
    capsys.readouterr()
    return counts["judgements"], counts["eq"]


@pytest.mark.parametrize("name, judgements, afresh", [
    ("atm.chor", 5, 8), ("pop2.chor", 4, 7), ("pop2_multiparty.chor", 5, 8)])
def test_typecheck_work_on_the_corpus(name, judgements, afresh, monkeypatch, capsys):
    """Each distinct process is judged once, and a process that fails is
    judged again in each system that holds it; guard decisions find their
    diagrams without comparing trees (14,138 `__eq__` calls on pop2 when
    each system judged its processes again and guard decisions were
    memoized structurally)."""
    made, eqs = _work(monkeypatch, capsys, conftest.CORPUS / name)
    assert made == judgements
    assert eqs <= 1000
    assert _work(monkeypatch, capsys, conftest.CORPUS / name, fresh=True)[0] == afresh


def test_wsi_by_typing_builds_no_table(monkeypatch, capsys):
    keys = []
    monkeypatch.setattr(typecheck, "alpha_key", lambda *args: keys.append(args))
    for name, procs in (("atm.chor", ("B1", "B2")), ("pop2.chor", ("Init", "CPop"))):
        for proc in procs:
            cli.main(["wsi", str(conftest.CORPUS / name), "--proc", proc,
                      "--mode", "typing"])
    capsys.readouterr()
    assert keys == []


# ---------------------------------------------------------------- the keys

def _key(module, body):
    domains = DomainDecl.from_module(module)
    gdef = next(g for g in module.globals_.values() if g.params)
    return alpha_key(body, gamma_from_domains(domains),
                     cli._shared_env(gdef, body), domains)


@pytest.mark.parametrize("name", ["atm.chor", "pop2.chor", "pop2_multiparty.chor"])
def test_a_freshened_copy_has_the_key_of_its_body(name):
    """A system of two copies of a process: the parser renames every
    binder of the second, and its key is the key of the process."""
    text = (conftest.CORPUS / name).read_text()
    roles = [n for n, d in conftest.load(name).processes.items() if d.role]
    module = parse_module(text + "".join(
        f"\nsystem Twice{n} = {n} || {n}\n" for n in roles))
    for n in roles:
        body = module.processes[n].body
        first, second = module.systems[f"Twice{n}"].body.left.process, \
            module.systems[f"Twice{n}"].body.right.process
        assert second != body and second.chans != body.chans
        assert _key(module, body) is not None
        assert _key(module, first) == _key(module, body) == _key(module, second)


KEYED = """
domain x : Int in 0..2
domain y : Int in 0..2
domain z : Int in 0..3
table t : Int -> Int = { _ -> 0 }
table s : Int -> Int = { _ -> 1 }
global G(a, b) = p -> q : { a(Int). q -> p : { b(Int). end } }
"""


@pytest.mark.parametrize("changed", [
    "accept u[q](a, b). a?(v). b!(t(v + y) + 1)",  # a free name
    "accept u[q](a, b). a?(v). b!(t(v + x) + 2)",  # a literal
    "accept u[q](a, b). a?(v). b!(s(v + x) + 1)",  # a table name
    "accept u[q](a, b). a?(z). b!(t(z + x) + 1)",  # the binder's declared domain
    "accept u[q](b, a). a?(v). b!(t(v + x) + 1)",  # the binder a channel refers to
])
def test_a_key_changes_with_what_can_change_a_judgement(changed):
    module = parse_module(KEYED)
    body = parse_process("accept u[q](a, b). a?(v). b!(t(v + x) + 1)", module)
    same = [parse_process(text, module) for text in (
        "accept u[q](c, d). c?(w). d!(t(w + x) + 1)",   # other undeclared binders
        "accept u[q](a, b). a?(v2). b!(t(v2 + x) + 1)")]
    assert {_key(module, p) for p in same} == {_key(module, body)}
    assert _key(module, parse_process(changed, module)) != _key(module, body)


def test_a_key_changes_with_the_binder_a_variable_refers_to():
    module = parse_module(KEYED + "global H(a, b, c) = p -> q : { a(Int). p -> q : "
                          "{ b(Int). q -> p : { c(Int). end } } }\n")
    shared = {"u": module.globals_["H"]}
    domains = DomainDecl.from_module(module)

    def key(text):
        return alpha_key(parse_process(text, module), {}, shared, domains)
    assert key("accept u[q](a, b, c). a?(v). b?(w). c!(v)") \
        == key("accept u[q](a, b, c). a?(m). b?(n). c!(m)")
    assert key("accept u[q](a, b, c). a?(v). b?(w). c!(v)") \
        != key("accept u[q](a, b, c). a?(v). b?(w). c!(w)")
    # binders of equal declared domains: x and y both range over 0..2
    assert key("accept u[q](a, b, c). a?(x). b?(w). c!(x)") \
        == key("accept u[q](a, b, c). a?(y). b?(w). c!(y)") \
        != key("accept u[q](a, b, c). a?(z). b?(w). c!(z)")


def test_no_key_where_names_reach_past_the_syntax():
    """A channel that instantiation keeps in the global type can be
    captured by a binder of the same name.  A partial operator has a key:
    whether a guard holds or raises does not follow the variables'
    names."""
    module = parse_module(KEYED + "global K(a) = p -> q : { a(Int). q -> p : "
                          "{ b(Int). end } }\n")
    domains = DomainDecl.from_module(module)
    g = {"u": module.globals_["G"]}
    assert alpha_key(parse_process("accept u[q](a, b). a?(v). b!(hd([v]))", module),
                     {}, g, domains) is not None
    k = {"u": module.globals_["K"]}
    assert alpha_key(parse_process("accept u[q](a). a?(v). b!(v)", module),
                     {}, k, domains) is not None
    assert alpha_key(parse_process("accept u[q](b). b?(v). 0", module),
                     {}, k, domains) is None


def test_a_copy_that_tests_hd_in_a_guard_is_a_table_hit(monkeypatch, capsys):
    """The system's copy of a server whose guard applies `hd` is answered
    by the table, and judging every target afresh prints the same."""
    assert _work(monkeypatch, capsys, conftest.HD_GUARD)[0] == 2
    assert _work(monkeypatch, capsys, conftest.HD_GUARD, fresh=True)[0] == 4
    shared, fresh = _outputs(conftest.HD_GUARD, capsys, monkeypatch)
    assert shared == fresh
    assert shared[0][1:] == (0, ("Q: well typed\nP: well typed\nS: well typed\n", ""))


# ------------------------------------------------------------ typing errors

def test_typing_errors_survive_pickle_and_copy():
    error = TypingError("VSend", "no live branch", ("P", "!a"))
    for again in (pickle.loads(pickle.dumps(error)), copy.copy(error),
                  copy.deepcopy(error)):
        assert (again.rule, again.message, again.path) == \
            ("VSend", "no live branch", ("P", "!a"))
        assert str(again) == str(error) and again == error
        assert hash(again) == hash(error)
    assert error != TypingError("VSend", "no live branch", ("P",))



@pytest.mark.parametrize("name", ["atm.chor", "pop2.chor", "pop2_multiparty.chor"])
def test_keys_walk_each_shared_global_once_per_request(name, monkeypatch, capsys):
    """typecheck of a corpus module keys many session-openings, and reads
    the channels of each shared global once, not once per key."""
    keys, walked = [], []
    real_key, real_channels = typecheck.alpha_key, typecheck.g_channels

    def counting_key(*args):
        keys.append(args)
        return real_key(*args)

    def counting_channels(g):
        walked.append(g)
        return real_channels(g)

    monkeypatch.setattr(typecheck, "alpha_key", counting_key)
    monkeypatch.setattr(typecheck, "g_channels", counting_channels)
    cli.main(["typecheck", str(conftest.CORPUS / name)])
    capsys.readouterr()
    shared = {id(gdef.body) for *_, env, _ in keys for gdef in env.values()}
    assert len(keys) > len(walked) == len(shared) >= 1
    assert {id(g) for g in walked} == shared
