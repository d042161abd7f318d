"""The judgement table of a `typecheck` request: a session-opening
process judged well typed is looked up by its origin, the declared body
that freshening copied it from, instead of being judged again, and the
request prints exactly what it prints when every target is judged
afresh."""

import copy
import functools
import pickle

import pytest

from chorus_wsi import cli, typecheck
from chorus_wsi.guards import DomainDecl
from chorus_wsi.syntax import parse_module, render_module
from chorus_wsi.syntax.ast import (
    BinOp, Const, ListLit, Lit, ModuleDecl, Par, Proc, ProcessDef, Range,
    Sort, SystemDef, UnOp, Var,
)
from chorus_wsi.typecheck import TypingError

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

def _work(monkeypatch, capsys, path, *options, fresh=False) -> tuple:
    """(session-opening judgements, `__eq__` calls on expression, literal
    and sort records) of one `typecheck` request with the given options,
    with one judgement table or with a fresh one for each target."""
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
    cli.main(["typecheck", str(path), *options])
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
    monkeypatch.setattr(typecheck, "_table_key", lambda *args: keys.append(args))
    for name, procs in (("atm.chor", ("B1", "B2")), ("pop2.chor", ("Init", "CPop"))):
        for proc in procs:
            cli.main(["wsi", str(conftest.CORPUS / name), "--proc", proc,
                      "--mode", "typing"])
    capsys.readouterr()
    assert keys == []


# -------------------------------------------------------------- the origins

@pytest.mark.parametrize("name", ["atm.chor", "pop2.chor", "pop2_multiparty.chor"])
def test_a_freshened_copy_has_the_key_of_its_body(name, tmp_path, monkeypatch, capsys):
    """A system of two copies of a process: the first is the declared
    body itself, and the parser renames every binder of the second, which
    keeps that body as its origin and so has its key.  Where the process
    is well typed, both copies are table hits; where it is not, the
    system judges as many sessions as with a fresh table for each
    target."""
    roles = {n: d.global_name
             for n, d in conftest.load(name).processes.items() if d.role}
    text = (conftest.CORPUS / name).read_text() + "".join(
        f"\nsystem Twice{n} = {n} || {n}\n" for n in roles)
    module = parse_module(text)
    path = tmp_path / name
    path.write_text(text)
    # no declared body is a copy at its root (see subst.py)
    assert all(module.processes[n].body._origin is None for n in module.processes)
    well_typed = 0
    for n, global_name in roles.items():
        body = module.processes[n].body
        twice = module.systems[f"Twice{n}"].body
        first, second = twice.left.process, twice.right.process
        assert first is body and first._origin is None
        assert second._origin is body
        assert second != body and second.chans != body.chans
        shared = {"u": module.globals_[global_name]}
        assert typecheck._table_key(second, {}, shared) \
            == typecheck._table_key(body, {}, shared) is not None
        alone = ("--proc", n, "--global", global_name)
        both = (*alone, "--system", f"Twice{n}")
        judged = _work(monkeypatch, capsys, path, *both)[0]
        if cli.main(["typecheck", str(path), *alone]) == 0:
            well_typed += 1
            assert judged == _work(monkeypatch, capsys, path, *alone)[0] >= 1
        else:
            assert judged == _work(monkeypatch, capsys, path, *both, fresh=True)[0] \
                > _work(monkeypatch, capsys, path, *alone)[0]
    capsys.readouterr()
    assert well_typed >= 2


ALPHA = """
domain x : Int in 0..2
table t : Int -> Int = { _ -> 0 }
global G(a, b) = p -> q : { a(Int). q -> p : { b(Int). end } }
process P plays q of G = accept u[q](a, b). a?(v). b!(t(v + x) + 1)
process Q plays q of G = accept u[q](c, d). c?(w). d!(t(w + x) + 1)
"""


def test_alpha_equivalent_declarations_that_are_not_copies_are_each_judged(
        tmp_path, monkeypatch, capsys):
    """Q is P with its binders renamed, but the parser did not copy it
    from P: the table does not know it, and judges it afresh."""
    path = tmp_path / "alpha.chor"
    path.write_text(ALPHA)
    assert _work(monkeypatch, capsys, path)[0] == 2
    assert _work(monkeypatch, capsys, path, fresh=True)[0] == 2
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh
    assert shared[0][1:] == (0, ("P: well typed\nQ: well typed\n", ""))


KEYED = """
domain x : Int in 0..2
domain y : Int in 0..2
domain z : Int in 0..3
table t : Int -> Int = { _ -> 0 }
table s : Int -> Int = { _ -> 1 }
global G(a, b) = p -> q : { a(Int). q -> p : { b(Int). end } }
global H(a, b, c) = p -> q : { a(Int). p -> q : { b(Int). q -> p : { c(Int). end } } }
"""


def _copies(text, tmp_path, global_name, bodies) -> tuple:
    """The module of text with a process declared for each of bodies,
    playing q of the named global, and a system of two copies of each;
    its path, and the keys of each declaration and of its two copies."""
    text += "".join(f"process P{i} plays q of {global_name} = {body}\n"
                    f"system Twice{i} = P{i} || P{i}\n"
                    for i, body in enumerate(bodies))
    path = tmp_path / "keyed.chor"
    path.write_text(text)
    module = parse_module(text)
    shared = {"u": module.globals_[global_name]}
    keys = []
    for i in range(len(bodies)):
        body = module.processes[f"P{i}"].body
        twice = module.systems[f"Twice{i}"].body
        first, second = twice.left.process, twice.right.process
        assert first is body and second._origin is body
        assert second.chans != body.chans
        keys.append(tuple(typecheck._table_key(p, {}, shared)
                          for p in (body, first, second)))
    return module, path, keys


@pytest.mark.parametrize("changed", [
    "accept u[q](a, b). a?(v). b!(t(v + y) + 1)",  # a free name
    "accept u[q](a, b). a?(v). b!(t(v + x) + 2)",  # a literal
    "accept u[q](a, b). a?(v). b!(s(v + x) + 1)",  # a table name
    "accept u[q](a, b). a?(z). b!(t(z + x) + 1)",  # the binder's declared domain
    "accept u[q](b, a). a?(v). b!(t(v + x) + 1)",  # the binder a channel refers to
])
def test_a_key_changes_with_what_can_change_a_judgement(
        changed, tmp_path, monkeypatch, capsys):
    """A copy whose binders the parser renamed keeps the key of its
    declaration, and a declaration that differs in what can change a
    judgement has another key, and so have its copies."""
    _, path, ((body, *same), (other, *copies)) = _copies(
        KEYED, tmp_path, "G", ["accept u[q](a, b). a?(v). b!(t(v + x) + 1)", changed])
    assert body is not None and set(same) == {body}
    assert other is not None and set(copies) == {other} and other != body
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh


def test_a_key_changes_with_the_binder_a_variable_refers_to(
        tmp_path, monkeypatch, capsys):
    """In a copy, a variable refers to the renamed binder that it referred
    to in the declaration, and a renamed binder has the domain of its
    declared name: x and y both range over 0..2, z over 0..3."""
    module, path, keys = _copies(KEYED, tmp_path, "H", [
        "accept u[q](a, b, c). a?(v). b?(w). c!(v)",
        "accept u[q](a, b, c). a?(v). b?(w). c!(w)",
        "accept u[q](a, b, c). a?(x). b?(w). c!(x)",
        "accept u[q](a, b, c). a?(y). b?(w). c!(y)",
        "accept u[q](a, b, c). a?(z). b?(w). c!(z)"])
    assert all(None not in k and len(set(k)) == 1 for k in keys)
    assert len({k[0] for k in keys}) == len(keys)
    domains = DomainDecl.from_module(module, [f"Twice{i}" for i in range(len(keys))])
    sent = []
    for i in range(len(keys)):
        second = module.systems[f"Twice{i}"].body.right.process
        (first_arm,) = second.cont.arms
        (second_arm,) = first_arm.cont.arms
        assert second_arm.cont.channel == second.chans[2]
        binder = {Var(first_arm.binder): 0, Var(second_arm.binder): 1}
        sent.append(binder[second_arm.cont.payload])
        assert domains.domains.get(first_arm.binder) \
            == module.domains.get(module.processes[f"P{i}"].body.cont.arms[0].binder)
    assert sent == [0, 1, 0, 0, 0]
    x, y, z = (domains.domains[module.systems[f"Twice{i}"].body.right.process
                              .cont.arms[0].binder] for i in (2, 3, 4))
    assert x == y != z
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh


CAPTURE = """
global G(a, b) = p -> q : { a(Int). q -> p : { b(Int). end } }
global K(a) = p -> q : { a(Int). q -> p : { b(Int). end } }
process P1 plays q of G = accept u[q](a, b). a?(v). b!(hd([v]))
process P2 plays q of K = accept u[q](a). a?(v). b!(v)
process P3 plays q of K = accept u[q](b). b?(v). 0
process P4 plays q of K = accept u[q](b). b?(v). b!(v)
process P5 plays q of K = accept u[q](c). c?(v). b!(v)
system S1 = P1 || P1
system S2 = P2 || P2
system S3 = P3 || P3
system S4 = P4 || P4
"""
K_FRAGMENT = "VAcc: K uses channels that are not its parameters: b"


def test_no_session_opens_on_a_global_with_kept_channels(tmp_path, monkeypatch, capsys):
    """K uses a channel, `b`, that it does not take as a parameter, so no
    session opens on it, whatever the process names its channels: a
    binder that meets `b` (P3, P4), a free `b` (P2, P5) or neither.
    Every process and system over K is rejected at its open with
    covering's reason, and so judged once in each target.  A partial
    operator (P1's `hd`) leaves the system's copy of P1 a table hit.
    Each row is (process, judgements of it and its system with one
    table, with a fresh table for each target).  The module prints as it
    does with a fresh table for each target."""
    path = tmp_path / "capture.chor"
    path.write_text(CAPTURE)
    for n, judgements, afresh in ((1, 1, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2)):
        global_name = "G" if n == 1 else "K"
        options = ("--proc", f"P{n}", "--system", f"S{n}", "--global", global_name)
        assert _work(monkeypatch, capsys, path, *options)[0] == judgements
        assert _work(monkeypatch, capsys, path, *options, fresh=True)[0] == afresh
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh
    code, (out, err) = shared[0][1:]
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "P1: well typed",
        *(f"P{n}: {K_FRAGMENT} (at <top>)" for n in range(2, 6)),
        "S1: well typed",
        *(f"S{n}: {K_FRAGMENT} (at par-left)" for n in range(2, 5))]


def test_a_copy_whose_free_channel_moves_has_no_origin(tmp_path, capsys, monkeypatch):
    """The second `new (b)` must rename its binder, and with it P2's free
    channel `b` in the copy inside: that copy is no renaming of P2 by its
    binders alone, so it keeps no origin.  The system is rejected at its
    first open, on K, as with a fresh table for each target."""
    text = CAPTURE + "system S5 = new (b)@u in P2 || new (b)@u in P2\n"
    module = parse_module(text)
    second = module.systems["S5"].body.scope.right.scope.process
    assert second.cont.arms[0].cont.channel == "b_2"
    assert second._origin is None
    path = tmp_path / "moved.chor"
    path.write_text(text)
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh
    code, (out, err) = shared[0][1:]
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == f"S5: {K_FRAGMENT} (at new / par-left)"


def test_a_copy_that_tests_hd_in_a_guard_is_a_table_hit(monkeypatch, capsys):
    """The system's copy of a server whose guard applies `hd` is answered
    by the table, and judging every target afresh prints the same."""
    assert _work(monkeypatch, capsys, conftest.HD_GUARD)[0] == 2
    assert _work(monkeypatch, capsys, conftest.HD_GUARD, fresh=True)[0] == 4
    shared, fresh = _outputs(conftest.HD_GUARD, capsys, monkeypatch)
    assert shared == fresh
    assert shared[0][1:] == (0, ("Q: well typed\nP: well typed\nS: well typed\n", ""))


CHAIN = """
domain x : Int in {0, 1}
global G(a, b) = p -> q : { a(Int). q -> p : { b(Bool). end } }
process R plays q of G = accept u[q](a, b). a?(x_2). b!(x_2 = 0);
    accept u[q](a, b). a?(x_2). b!(x_2 = 0)
process Q plays q of G = accept u[q](a, b). a?(x). b!(x = 0);
    accept u[q](a, b). a?(x). b!(x = 0)
process P plays q of G = accept u[q](a, b). a?(x_2). if x_2 = 0 then b!(true) else b!(false)
system S = P || P
"""


def test_a_rename_of_a_rename_has_the_domain_of_the_declared_name(
        tmp_path, capsys, monkeypatch):
    """R renames its second `x_2` to `x_2_2` before Q renames its second
    `x` to `x_2`, so the alias x_2_2 -> x_2 comes before x_2 -> x.  The
    system's copy of P renames P's `x_2`, which has x's domain, to
    `x_2_2`: the copy reads its guard over x's domain too, and so is
    well typed as P is, with one table or a fresh one for each target
    (it had no domain, and S failed, when the aliases were read in
    order)."""
    module = parse_module(CHAIN)
    aliases = list(module.bodies.aliases(["R", "Q", "P", "S"]))
    assert aliases.index("x_2_2") < aliases.index("x_2")
    domains = DomainDecl.from_module(module, ["R", "Q", "P", "S"]).domains
    assert domains["x_2_2"] == domains["x_2"] == domains["x"]
    path = tmp_path / "chain.chor"
    path.write_text(CHAIN)
    shared, fresh = _outputs(path, capsys, monkeypatch)
    assert shared == fresh
    assert shared[0][1:] == (0, ("R: well typed\nQ: well typed\nP: well typed\n"
                                 "S: well typed\n", ""))


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
    """typecheck of a corpus module judges many session-openings, and
    each reads the kept channels of its global (`open_problem`), but
    walks each global's body once, not once per open judged."""
    lookups, walked = [], []
    real_exposed, real_channels = typecheck.exposed_channels, typecheck.g_channels

    def counting_exposed(gdef):
        lookups.append(gdef)
        return real_exposed(gdef)

    def counting_channels(g):
        walked.append(g)
        return real_channels(g)

    monkeypatch.setattr(typecheck, "exposed_channels", counting_exposed)
    monkeypatch.setattr(typecheck, "g_channels", counting_channels)
    cli.main(["typecheck", str(conftest.CORPUS / name)])
    capsys.readouterr()
    shared = {id(gdef.body) for gdef in lookups}
    assert len(lookups) > len(walked) == len(shared) >= 1
    assert {id(g) for g in walked} == shared
