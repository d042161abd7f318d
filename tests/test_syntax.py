import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chorus_wsi.syntax import (
    InvariantError, freshen, parse_expr, parse_global, parse_module,
    parse_process, parse_system, parse_type, render_expr, render_global,
    render_module, render_process, render_system, render_type,
)
from chorus_wsi.syntax.ast import (
    Branch, Const, GEnd, ListLit, Range, Ref, Send, TBranch, TEnd, TInternal,
    TRUE, UNIT, UnOp, Var, BinOp, PREC, expr_vars, fX, fn, int_lit,
)
from chorus_wsi.syntax.parser import ParseError, Parser

import conftest
import gen
import parse_outcomes as po


def test_corpus_module_contents(pop2):
    assert "G_POP" in pop2.globals_
    assert "T_s" in pop2.types
    assert "Srv" in pop2.processes
    assert "Init" in pop2.processes
    assert pop2.processes["Init"].role == "s"
    assert pop2.processes["Init"].global_name == "G_POP"


def test_smallest_global_type():
    m = parse_module("global G(y) = end\n")
    assert m.globals_["G"].body == GEnd()
    assert m.globals_["G"].params == ("y",)


def test_duplicate_channel_in_choice_rejected():
    with pytest.raises(InvariantError) as err:
        parse_global("p -> q : { r(Int). end + r(Str). end }")
    assert "duplicate channel" in str(err.value)


def test_duplicate_channel_in_sum_rejected():
    with pytest.raises(InvariantError):
        parse_process("sum { a?(x). 0 + a?(y). 0 }")


def test_render_end():
    assert render_global(GEnd()) == "end"
    assert render_type(TEnd(TRUE)) == "end"


def test_render_guarded_internal_choice():
    t = TInternal((
        TBranch(BinOp(">", Var("x"), Const(int_lit(0))), "y", UNIT, TEnd(TRUE)),
        TBranch(TRUE, "z", UNIT, TEnd(TRUE)),
    ))
    assert render_type(t) == "[x > 0] y!(). end (+) z!(). end"


def test_parse_render_pop2_globals(pop2):
    for gdef in pop2.globals_.values():
        assert parse_global(render_global(gdef.body)) == gdef.body


def test_parse_render_pop2_types(pop2):
    for t in pop2.types.values():
        assert parse_type(render_type(t)) == t


def test_parse_render_pop2_processes(pop2):
    for p in pop2.processes.values():
        assert parse_process(render_process(p.body)) == p.body


def test_parse_render_pop2_systems(pop2):
    for s in pop2.systems.values():
        assert parse_system(render_system(s.body)) == s.body


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_generated_globals(seed):
    rng = random.Random(seed)
    g = gen.gen_global(rng, depth=3)
    assert parse_global(render_global(g)) == g


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_generated_types(seed):
    rng = random.Random(seed * 31 + 7)
    t = gen.gen_pseudotype(rng, depth=4)
    assert parse_type(render_type(t)) == t


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_generated_processes(seed):
    rng = random.Random(seed * 17 + 3)
    p = gen.gen_process(rng, depth=3)
    assert parse_process(render_process(p)) == p


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_generated_systems(seed):
    rng = random.Random(seed * 13 + 1)
    s = gen.gen_system(rng, depth=2)
    assert parse_system(render_system(s)) == s


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_generated_expressions(seed):
    rng = random.Random(seed * 7 + 5)
    e = gen.gen_expr(rng, depth=3)
    assert parse_expr(render_expr(e)) == e


def _unchained(e) -> bool:
    return isinstance(e, Range) or isinstance(e, BinOp) and PREC[e.op] == PREC["="]


def _nests_unchained(e) -> bool:
    """Is a comparison or a range an operand of a comparison or a range
    somewhere in e?"""
    parts = {BinOp: ("left", "right"), Range: ("lo", "hi"), UnOp: ("arg",)}
    operands = [getattr(e, f) for f in parts.get(type(e), ())]
    operands += e.items if isinstance(e, ListLit) else ()
    return (_unchained(e) and any(map(_unchained, operands))) \
        or any(map(_nests_unchained, operands))


def test_round_trip_nested_comparisons():
    """Generated trees with a comparison or a range as an operand of a
    comparison or a range, as in `(a < b) = c`, print to text that reads
    back as them."""
    rng = random.Random(23)
    exprs = [gen.gen_expr(rng, depth=rng.randint(1, 5)) for _ in range(5000)]
    nested = [e for e in exprs if _nests_unchained(e)]
    assert len(nested) > 1000
    for e in nested:
        assert parse_expr(render_expr(e)) == e, e


_SHARED = """domain x : Int in 0..3
domain flag : Bool
type T = [x > 0] a!(Int). [x > 0 and flag] end
type U = [not (x > 0)] b?(). [(flag) and x > 0] end
"""


def _expr_nodes(term) -> list:
    """Every expression node below `term`, a pseudo-type or expression."""
    found, todo = [], [term]
    while todo:
        node = todo.pop()
        if isinstance(node, (Var, Const, BinOp, UnOp, ListLit, Range)):
            found.append(node)
        for field in getattr(type(node), "__match_args__", ()):
            value = getattr(node, field)
            todo += value if isinstance(value, tuple) else (value,)
    return found


def test_equal_expressions_are_one_object_within_a_parse():
    """Within one parse, `x > 0` in four guards of two types is one
    object, and so is `flag`; a second parse of the same text shares
    no expression node with the first."""
    m = parse_module(_SHARED)
    t, u = m.types["T"].branches[0], m.types["U"].branches[0]
    atoms = [t.guard, t.cont.guard.left, u.guard.arg, u.cont.guard.right]
    assert all(atom is atoms[0] for atom in atoms)
    assert t.cont.guard.right is u.cont.guard.left
    assert t.cont.guard is not u.cont.guard
    again = parse_module(_SHARED)
    nodes = [_expr_nodes(module.types[name]) for module in (m, again)
             for name in ("T", "U")]
    assert nodes[0] and nodes[1]
    assert {id(e) for e in nodes[0] + nodes[1]}.isdisjoint(
        id(e) for e in nodes[2] + nodes[3])
    assert again.types == m.types


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_round_trip_any_process(seed):
    rng = random.Random(seed)
    p = gen.gen_process(rng, depth=rng.randint(1, 4))
    assert parse_process(render_process(p)) == p


def test_fn_of_send_is_channel_plus_vars():
    p = Send("y", BinOp("+", Var("a"), Var("b")))
    assert fn(p) == {"y", "a", "b"}
    assert fX(p) == {"a", "b"}


def test_fn_of_pop2_init(pop2):
    assert fn(pop2.processes["Init"].body) == {"u", "u[s]"}


def _binders(term):
    from chorus_wsi.syntax.ast import (
        Accept, Branch, For, If, Par, Proc, RepeatUntil, Request,
        Restrict, Seq,
    )
    out = []
    match term:
        case Request(_, _, chans, cont) | Accept(_, _, chans, cont):
            out += list(chans)
            out += _binders(cont)
        case Branch(arms):
            for a in arms:
                out.append(a.binder)
                out += _binders(a.cont)
        case Seq(first, second) | Par(first, second):
            out += _binders(first) + _binders(second)
        case If(_, then, orelse):
            out += _binders(then) + _binders(orelse)
        case For(binder, _, body):
            out += [binder] + _binders(body)
        case RepeatUntil(body, exit):
            out += _binders(body) + _binders(exit)
        case Proc(process):
            out += _binders(process)
        case Restrict(chans, _, scope):
            out += list(chans) + _binders(scope)
        case _:
            pass
    return out


@pytest.mark.parametrize("name", ["Init", "CPop", "Srv", "Nmbr", "Size"])
def test_freshening_gives_distinct_binders(pop2, name):
    body = pop2.processes[name].body
    binders = _binders(body)
    assert len(binders) == len(set(binders))
    assert not (set(binders) & fn(body))


@pytest.mark.parametrize("seed", range(25))
def test_freshening_idempotent_and_disjoint(seed):
    rng = random.Random(seed + 1000)
    s = gen.gen_system(rng, depth=2)
    fresh = freshen(s)
    binders = _binders(fresh)
    assert len(binders) == len(set(binders))
    assert not (set(binders) & fn(fresh))
    assert freshen(fresh) == fresh


def test_freshening_renames_no_occurrence_into_an_inner_binder():
    """The receive binds x again, so it becomes x_2; the inner binder
    written x_2 must then move, and d!(x) must follow the outer one."""
    m = parse_module("process P = a!(x); b?(x). c?(x_2). d!(x)\n")
    assert render_process(m.processes["P"].body) == "a!(x) ; b?(x_2). c?(x_2_2). d!(x_2)"
    assert m.bodies.aliases(["P"]) == {"x_2": "x", "x_2_2": "x_2"}


def _read_in(text: str, order) -> tuple:
    """The declarations of the module `text`, with their bodies read in
    the order `order` gives to the names in source order, and the
    aliases of every declaration."""
    parser = Parser(text)
    module = parser.parse_module()
    for name in order(list(parser.bodies.read)):
        (module.processes if name in module.processes else module.systems)[name]
    return {**module.processes, **module.systems}, \
        list(parser.bodies.aliases(parser.bodies.read).items())


def _holds_a_ref(value) -> bool:
    if isinstance(value, Ref):
        return True
    if isinstance(value, tuple):
        return any(map(_holds_a_ref, value))
    return hasattr(value, "__match_args__") and any(
        _holds_a_ref(getattr(value, name)) for name in value.__match_args__)


def _parsed_texts() -> list:
    """Every shipped module, and every seeded token mutant of
    tests/parse_outcomes.py that parses."""
    texts = [path.read_text() for path in conftest.MODULES]
    for path, op, i in po.mutants():
        text = po.mutate((po.ROOT / path).read_text(), op, i)
        try:
            parse_module(text)
        except ParseError:
            continue
        texts.append(text)
    return texts


def test_bodies_read_in_any_order_are_equal():
    """Bodies read in source order, in reverse and in a seeded random
    order are equal and hold no `Ref`, and their aliases have the same
    items in the same order: a body depends only on its own text and on
    the bodies it names."""
    rng = random.Random(22)
    texts = _parsed_texts()
    read = 0
    for text in texts:
        decls, aliases = _read_in(text, lambda names: names)
        assert not any(_holds_a_ref(decl.body) for decl in decls.values()), text
        for order in (lambda names: names[::-1],
                      lambda names: rng.sample(names, len(names))):
            assert _read_in(text, order) == (decls, aliases), text
        read += len(decls)
    assert len(texts) > 40 and read > 150


def test_parse_error_carries_position():
    from chorus_wsi.syntax.parser import ParseError
    with pytest.raises(ParseError) as err:
        parse_module("global G =\n  p -> : { y(Int). end }\n")
    assert err.value.line == 2


def test_position_counts_newlines_inside_string_literals():
    from chorus_wsi.syntax.parser import ParseError
    text = 'domain s : Str in {"a\nb", "c"}\n\n\n  @\n'
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert (err.value.line, err.value.col) == (5, 3)
    assert str(err.value) == "5:3: expected a declaration, found '@'"


def test_end_of_input_after_a_comment_is_placed_after_it():
    from chorus_wsi.syntax.parser import ParseError
    text = "global G = // nothing follows"
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert (err.value.line, err.value.col) == (1, len(text) + 1)
    assert err.value.message == "expected a global type, found ''"


@pytest.mark.parametrize("name", ["atm.chor", "norm_eqs.chor", "pop2.chor",
                                  "pop2_multiparty.chor"])
def test_token_positions_point_at_the_token(name):
    """line:col, worked out from each token's offset as the error path
    finds it again, finds the token's own spelling in the corpus source;
    the offsets and the tokens agree in number, EOF included."""
    from chorus_wsi.syntax.parser import (
        line_col, token_line_col, token_offsets, tokenize,
    )

    import conftest
    text = (conftest.CORPUS / name).read_text()
    lines = text.split("\n")
    toks = tokenize(text)
    offsets = list(token_offsets(text))
    assert len(offsets) == len(toks) - 1
    for i, (t, offset) in enumerate(zip(toks[:-2], offsets)):
        line, col = line_col(text, offset)
        assert token_line_col(text, i) == (line, col)
        spelling = {"STRING": '"', "DATA": "0x" + t.value}.get(t.kind, t.value)
        assert lines[line - 1][col - 1:].startswith(spelling), (t, line, col)
    end = (len(lines), len(lines[-1]) + 1)
    assert line_col(text, offsets[-1]) == end
    assert token_line_col(text, len(toks) - 2) == token_line_col(text, len(toks) - 1) == end


@pytest.mark.parametrize("text, line, col, message", [
    # the duplicate name is spelled three times; the error is at the second
    ("domain x : Int in 0..1\ndomain x : Int in 0..2\nprocess P = a!(x)\n",
     2, 8, "duplicate domain for 'x'"),
    ("process P = 0\nprocess Q = P\nprocess P = P\n",
     3, 9, "duplicate declaration of 'P'"),
    # the faulty ')' closes earlier and later groups too
    ("type T = [(x = 1)] end\ntype U = [x = )] end\ntype V = [(x)] end\n",
     2, 15, "expected an expression, found ')'"),
    ("process P = a!(1) ; b?(y). 0\nprocess Q = b?(y). y\nprocess R = b?(y). 0\n",
     2, 20, "unknown process 'y'"),
])
def test_error_at_a_token_whose_spelling_recurs(text, line, col, message):
    """Tokens spelled alike are one object, so an error is placed by the
    token's index, never found by looking the token up."""
    from chorus_wsi.syntax.parser import ParseError
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


@pytest.mark.parametrize("depth, ok", [(80, True), (300, True), (1000, False),
                                       (5000, False)])
def test_deep_nesting_is_a_parse_error(depth, ok):
    """A guard in `depth` parentheses: one the stack holds parses, a
    deeper one is a ParseError at a token inside the nest, not a
    RecursionError.  A parenthesis costs the expression reader two stack
    frames, so 300 fit under the default recursion limit."""
    from chorus_wsi.syntax.parser import ParseError
    text = "type T = [" + "(" * depth + "x = 1" + ")" * depth + "] end\n"
    if ok:
        assert parse_module(text).types["T"] == parse_type("[x = 1] end")
        return
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert err.value.message == "nesting too deep"
    assert err.value.line == 1 and 11 <= err.value.col <= 10 + depth


def test_unterminated_string_rejected():
    from chorus_wsi.syntax.parser import ParseError
    with pytest.raises(ParseError) as err:
        parse_module('domain s : Str in {"oops}\n')
    assert "unterminated" in err.value.message


def test_unknown_reference_rejected():
    from chorus_wsi.syntax.parser import ParseError
    with pytest.raises(ParseError) as err:
        parse_module("global G = NOPE\n")
    assert "unknown global" in err.value.message


def test_table_requires_default():
    from chorus_wsi.syntax.parser import InvariantError
    with pytest.raises(InvariantError):
        parse_module('table f : Int -> Int = { 1 -> 2 }\n')


def test_mixed_polarity_choice_rejected():
    from chorus_wsi.syntax.parser import ParseError
    with pytest.raises(ParseError):
        parse_type("a!(Int). end (+) b?(Int). end")


def test_duplicate_declaration_rejected():
    from chorus_wsi.syntax.parser import InvariantError
    with pytest.raises(InvariantError):
        parse_module("global G = end\nglobal G = end\n")


def test_empty_module():
    m = parse_module("")
    assert not m.globals_ and not m.processes


def test_trailing_comment_without_newline():
    m = parse_module("global G = end // done")
    assert "G" in m.globals_


def test_crlf_line_endings():
    m = parse_module("domain x : Int in 0..1\r\nglobal G = end\r\n")
    assert "G" in m.globals_ and "x" in m.domains


def test_expr_vars():
    e = parse_expr("x > 0 and auth(c)")
    assert expr_vars(e) == {"x", "c"}


_HASHES = """
from chorus_wsi.semantics import Label
from chorus_wsi.syntax import parse_module
from chorus_wsi.syntax.ast import INT, UNIT_LIT
from chorus_wsi.wsi import TypingVerdict
module = parse_module(open({path!r}).read())
print(hash(INT), hash(UNIT_LIT), repr(module.domains["cred"]))
print(hash(Label("tau")), hash(TypingVerdict(True, "c")))
"""


def test_hashes_do_not_depend_on_the_process():
    """A node with a None field (every non-list sort, the unit literal)
    hashes alike in two processes under one PYTHONHASHSEED, and so a
    parsed domain, a set of literals, lists in the same order.  So do
    the records outside the syntax with a None field: a label and a
    verdict."""
    src = str(conftest.CORPUS.parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = _HASHES.format(path=str(conftest.CORPUS / "atm.chor"))
    outs = [subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1] and "Lit(" in outs[0]


def test_render_expr_agrees_with_the_recursive_reference(monkeypatch):
    """The chain-walking printer gives the text of the recursive one on
    2,000 generated expressions, 500 generated guards, and the corpus
    modules and their types' normal forms."""
    import chorus_wsi.syntax.printer as printer
    from chorus_wsi.guards import DomainDecl
    from chorus_wsi.pseudotype import normal_form
    from render_reference import reference_render_expr

    rng = random.Random(19)
    exprs = [gen.gen_expr(rng, depth=rng.randint(0, 6)) for _ in range(2000)]
    exprs += [gen.gen_guard(rng, depth=rng.randint(0, 6)) for _ in range(500)]
    for e in exprs:
        assert render_expr(e) == reference_render_expr(e), e
    modules = [parse_module(path.read_text())
               for path in sorted(conftest.CORPUS.glob("*.chor"))]
    types = [normal_form(t, DomainDecl.from_module(m))
             for m in modules for t in m.types.values()]

    def texts():
        return [render_module(m) for m in modules] + [render_type(t) for t in types]
    before = texts()
    monkeypatch.setattr(printer, "render_expr", reference_render_expr)
    assert texts() == before
