"""The regex tokenizer and the one-walk freshening against the slow
references in front_oracle.py."""

import operator
import random
import sys

import pytest

import chorus_wsi.syntax.ast as ast_mod
import chorus_wsi.syntax.parser as parser_mod
import chorus_wsi.syntax.subst as subst_mod
from chorus_wsi.syntax import freshen, parse_expr, parse_module, render_expr
from chorus_wsi.syntax.ast import (
    NIL, Accept, Arm, Branch, For, If, Par, Proc, Queue, Ref, RepeatUntil,
    Request, Restrict, Send, Seq, fU, fX, fn, names,
)
from chorus_wsi.syntax.parser import ParseError, line_col, token_offsets, tokenize

import conftest
import gen
import parse_outcomes as po
from front_oracle import (
    binders_by_walk, freshen_by_subst, names_by_parts, parse_nested,
    tokenize_by_chars,
)


def _tokens(text: str) -> list:
    """The tokens as the oracle gives them, one EOF at the end; each
    position is found again by the error path's rescan."""
    toks, offsets = tokenize(text)[:-1], list(token_offsets(text))
    assert len(toks) == len(offsets)
    return [(t.kind, t.value, *line_col(text, offset))
            for t, offset in zip(toks, offsets)]


@pytest.mark.parametrize("path", conftest.MODULES, ids=lambda p: p.name)
def test_tokens_agree_on_modules(path):
    text = path.read_text()
    assert _tokens(text) == tokenize_by_chars(text)


def _inlined(term, bodies: dict):
    """`term` with each `Ref` replaced by its body in `bodies`, as the
    parser inlined declared bodies while it freshened them as it read
    them; a subterm that holds no `Ref` is kept as it is."""
    if isinstance(term, Ref):
        return bodies[term.name]
    if not isinstance(term, (*_TERMS, Arm)):
        return term
    fields = [getattr(term, name) for name in term.__match_args__]
    new = [tuple(_inlined(item, bodies) for item in value)
           if isinstance(value, tuple) else _inlined(value, bodies)
           for value in fields]
    if all(a is b or isinstance(a, tuple) and all(map(operator.is_, a, b))
           for a, b in zip(new, fields)):
        return term
    return type(term)(*new)


def _recorded_freshening(text: str, monkeypatch) -> tuple:
    """The module parsed from `text`, and (body with the bodies it names
    inlined, renames before, result, renames after) for each body that
    reading every declaration after the parse freshens."""
    calls = []

    def recording(body, renames, bodies):
        before = dict(renames)
        out = freshen(body, renames, bodies)
        calls.append((_inlined(body, bodies), before, out, dict(renames)))
        return out

    monkeypatch.setattr(parser_mod, "freshen", recording)
    module = parse_module(text)
    assert calls == []  # the parse freshens nothing
    dict(module.processes), dict(module.systems)
    return module, calls


def _agree_with_oracle(calls: list) -> None:
    """Each recorded body, freshened by the oracle, gives the same term
    and the same renames."""
    for body, before, out, after in calls:
        renames = dict(before)
        assert freshen_by_subst(body, renames) == out
        assert renames == after


@pytest.mark.parametrize("path", conftest.MODULES, ids=lambda p: p.name)
def test_freshening_agrees_on_modules(path, monkeypatch):
    _agree_with_oracle(_recorded_freshening(path.read_text(), monkeypatch)[1])


_TERMS = (Accept, Branch, For, If, Par, Proc, Queue, RepeatUntil, Request,
          Restrict, Send, Seq)


def _parts(node) -> list:
    """The process and system nodes directly below `node`, through arms."""
    found = []
    for field in type(node).__match_args__:
        value = getattr(node, field)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, Arm):
                part = part.cont
            if isinstance(part, _TERMS):
                found.append(part)
    return found


def _subterms(term) -> list:
    """Every process and system node in `term`, `term` first, met once
    per occurrence."""
    found, todo = [], [term]
    while todo:
        node = todo.pop()
        found.append(node)
        todo += _parts(node)
    return found


def _kept(out, term) -> int:
    """How many subterms of `term` the freshened `out` holds as they
    are, counting none inside another."""
    inside = {id(node) for node in _subterms(term)}
    count, todo = 0, [out]
    while todo:
        node = todo.pop()
        if id(node) in inside:
            count += 1
        else:
            todo += _parts(node)
    return count


def _kept_bodies(term, bodies: dict) -> set:
    """The names in `bodies` whose body object occurs in `term`."""
    return {name for name, body in bodies.items()
            if any(node is body for node in _subterms(term))}


_POP2_SERVER = (conftest.CORPUS / "pop2.chor").read_text().split(
    "// Server implementation.")[1].split("process Mbox")[0]


@pytest.mark.parametrize("text, last, bodies, kept", [
    # Size uses m free and binds m; Nmbr's read?(m) captures Size's free
    # m, and Nmbr's fold?(f) collides with Size's, so Size is walked
    pytest.param(_POP2_SERVER, "Nmbr", {"Exit"}, 4, id="pop2-Nmbr-Size"),
    # the second copy's binders are all in use once the first is kept
    pytest.param("process P = a?(x). b!(x)\nsystem S = P || P\n", "S", {"P"}, 1,
                 id="P||P"),
    # Q binds x again, so x moves to x_2 and P's free x follows it
    pytest.param("process P = c!(x)\nprocess Q = a!(x) ; b?(x). P\n", "Q",
                 set(), 1, id="free-name-renamed"),
    pytest.param("process P = c!(x)\nprocess Q = a!(y) ; b?(y). P\n", "Q",
                 {"P"}, 2, id="free-name-kept"),
])
def test_freshening_with_summaries_agrees_on_collisions(
        text, last, bodies, kept, monkeypatch):
    """Subterms that must be walked and ones that may be kept, inlined
    fresh bodies among them: the result agrees with the oracle, keeps
    the inlined bodies named, and keeps at least `kept` subterms of the
    last body as they are."""
    module, calls = _recorded_freshening(text, monkeypatch)
    _agree_with_oracle(calls)
    body, _, out, _ = calls[-1]
    declared = {name: pdef.body for name, pdef in module.processes.items()
                if name != last}
    assert _kept_bodies(out, declared) == bodies
    assert out is not body  # the walk went into the body
    assert _kept(out, body) >= kept


def test_parsing_pop2_does_pinned_work(monkeypatch):
    """Work counts of one parse of pop2.chor, then of reading every body:
    visits of the freshening walk (429 when every inlined body was walked
    again, 140 when the parse freshened every body), name summaries
    computed (one per node summarized; 110 when the parse freshened every
    body), and token objects made: one per distinct name, number or
    string, not one per token, as every keyword and symbol token and the
    EOF token is made once, on import (128 per parse, one per distinct
    token, when every distinct token was made).  The parse itself
    freshens and summarizes nothing; reading walks the spines above the
    bodies a body names."""
    text = (conftest.CORPUS / "pop2.chor").read_text()
    visits = {"walk": 0, "_summary": 0}
    files = {"walk": subst_mod.__file__, "_summary": ast_mod.__file__}

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and files.get(code.co_name) == code.co_filename:
            visits[code.co_name] += 1

    made = []
    real = parser_mod.Token

    def token(kind, value):
        made.append((kind, value))
        return real(kind, value)

    monkeypatch.setattr(parser_mod, "Token", token)
    calls = []
    real_freshen = parser_mod.freshen

    def recording(body, renames, bodies):
        out = real_freshen(body, renames, bodies)
        calls.append((body, out))
        return out

    monkeypatch.setattr(parser_mod, "freshen", recording)
    names(NIL)  # the one process node that every parse shares
    sys.setprofile(count)
    try:
        module = parse_module(text)
        parsed = dict(visits)
        module.bodies.aliases(module.bodies.read)  # reads every body
    finally:
        sys.setprofile(None)
    assert parsed == {"walk": 0, "_summary": 0}
    assert visits == {"walk": 164, "_summary": 124}
    summarized = {id(node) for pair in calls for term in pair
                  for node in _subterms(term)
                  if node is not NIL and node._names is not None}
    assert len(summarized) == visits["_summary"]
    distinct = {(kind, value) for kind, value, *_ in tokenize_by_chars(text)
                if kind not in ("KEYWORD", "SYM", "EOF")}
    assert sorted(made) == sorted(distinct)
    assert len(made) == 79


_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>")


def test_parsing_pop2_makes_pinned_python_calls():
    """The Python function calls of one parse of pop2.chor (1,155
    tokens), counted by the profiler: 3,417 when each reader helper
    compared a token's kind and spelling, a token was built per distinct
    keyword and symbol and a sort per payload, and 2,203 since the
    readers test tokens by identity."""
    text = (conftest.CORPUS / "pop2.chor").read_text()
    parse_module(text)  # computes what module constants keep, such as hashes
    calls = 0

    def count(frame, event, arg):  # comprehensions are inlined since 3.12
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name not in _COMPREHENSIONS

    sys.setprofile(count)
    try:
        parse_module(text)
    finally:
        sys.setprofile(None)
    assert calls == 2203


def _generated_terms() -> list:
    """9,000 terms; `Seq(t, t)` and `Par(t, t)` repeat every binder."""
    rng = random.Random(17)
    terms = []
    for _ in range(1500):
        p = gen.gen_process(rng, depth=3)
        terms += [p, Seq(p, p), Par(Proc(p), Proc(p))]
    for _ in range(2250):
        s = gen.gen_system(rng, depth=2)
        terms += [s, Par(s, s)]
    assert len(terms) == 9000
    return terms


def test_freshening_agrees_on_generated_terms():
    for term in _generated_terms():
        ours, theirs = {}, {}
        assert freshen(term, ours) == freshen_by_subst(term, theirs), term
        assert ours == theirs


def test_summaries_agree_with_a_walk_on_generated_terms():
    """Each node's binders and repeat flag against the binders a plain
    walk lists, on every node of the 9,000 generated terms."""
    flags = set()
    for term in _generated_terms():
        for node in _subterms(term):
            listed = binders_by_walk(node)
            summary = names(node)
            assert summary.binders == frozenset(listed), node
            assert summary.repeats == (len(listed) > len(set(listed))), node
            flags.add(summary.repeats)
    assert flags == {False, True}


def test_freshening_with_summaries_agrees_on_generated_terms():
    """Fresh generated bodies, kept or walked where they recur: 1,500
    processes and 750 systems, each freshened first, then inlined twice
    in sequence and in parallel, and once after the unfreshened term."""
    rng = random.Random(41)
    cases = []
    for _ in range(1500):
        p = gen.gen_process(rng, depth=3)
        cases.append((p, lambda b, p=p: (Seq(b, b), Par(Proc(b), Proc(b)), Seq(p, b))))
    for _ in range(750):
        s = gen.gen_system(rng, depth=2)
        cases.append((s, lambda b, s=s: (Par(b, b), Par(s, b))))
    bodies = subterms = 0
    for term, inline in cases:
        body = freshen(term, {})
        for outer in inline(body):
            ours, theirs = {}, {}
            out = freshen(outer, ours)
            assert out == freshen_by_subst(outer, theirs), outer
            assert ours == theirs
            bodies += out.first is body if isinstance(out, Seq) else False
            subterms += _kept(out, outer)
    assert bodies > 1000
    assert subterms > 15_000


def test_free_names_agree_on_generated_terms():
    """`fn`, `fX` and `fU` from one walk against the bottom-up sets on
    1,000 generated processes and systems."""
    rng = random.Random(29)
    terms = [gen.gen_process(rng, depth=4) for _ in range(500)] \
        + [gen.gen_system(rng, depth=3) for _ in range(500)]
    for term in terms:
        names, _, variables, shared = names_by_parts(term)
        assert (fn(term), fX(term), fU(term)) == (names, variables, shared), term
    assert any(fX(term) for term in terms) and any(fU(term) for term in terms)


_ALPHABET = ('abxyz_0123456789 \t\n"\\/+-*()[]{}<>=!?.,;:@|&#%$' + "'")
_WORDS = ("0x", "0xAb", "//", "(+)", "(&)", "||", "->", "..", "<=", "in",
          "domain", "Int", "0x1", '"a\\"b"', "\r")


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 12)):
        parts.append(rng.choice(_WORDS) if rng.random() < 0.2
                     else rng.choice(_ALPHABET))
    return "".join(parts)


def _multiline_string_before(text: str, offset: int) -> bool:
    return any(t.kind == "STRING" and "\n" in t.value for t in tokenize(text[:offset]))


def test_tokens_agree_on_random_text():
    """Same kinds, values and error messages on 20,000 short strings;
    the same positions unless a string literal before them spans a
    newline, which the oracle does not count."""
    rng = random.Random(3)
    compared = 0
    for _ in range(20_000):
        text = _random_text(rng)
        try:
            theirs = tokenize_by_chars(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as ours:
                tokenize(text)
            assert ours.value.message == exc.message, text
            if not _multiline_string_before(text, _offset(text, ours.value)):
                assert (ours.value.line, ours.value.col) == (exc.line, exc.col), text
                compared += 1
            continue
        ours = tokenize(text)[:-1]
        assert [(t.kind, t.value) for t in ours] == [t[:2] for t in theirs], text
        offsets = list(token_offsets(text))
        assert len(offsets) == len(ours), text
        for offset, (*_, line, col) in zip(offsets[:-1], theirs):
            if _multiline_string_before(text, offset):
                break
            assert line_col(text, offset) == (line, col), text
            compared += 1
    assert compared > 20_000


def _offset(text: str, err: ParseError) -> int:
    lines = text.split("\n")
    return sum(len(line) + 1 for line in lines[:err.line - 1]) + err.col - 1


def _read(parse, text: str):
    """The tree `parse` reads from `text`, or its error as (class,
    message, line, col)."""
    try:
        return parse(text)
    except ParseError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)


# spellings inserted between tokens: each operator, prefix and bracket
_EXPR_WORDS = ("not", "-", "=", "!=", "<", "<=", "..", "+", "*", "and", "or",
               "(", ")", "[", "]", ",", "hd", "f", "x", "1", "true", '"s"')


def _expr_mutant(rng: random.Random, text: str) -> str:
    spans = po.token_spans(text)
    op = rng.choice(po.OPS + ("insert",))
    if op == "insert" or len(spans) < 2:
        at = rng.choice([0, *(end for _, end in spans)])
        return f"{text[:at]} {rng.choice(_EXPR_WORDS)} {text[at:]}"
    return po.mutate(text, op, rng.randrange(len(spans) - (op == "swap")))


@pytest.mark.parametrize("text, message, col", [
    ("x = 1 = 2", "unexpected trailing input '='", 7),
    ("a and x = 1 = 2", "unexpected trailing input '='", 13),
    ("not x = 1 = 2", "unexpected trailing input '='", 11),
    ("1..2..3", "unexpected trailing input '..'", 5),
    ("x = not y", "expected an expression, found 'not'", 5),
    ("1..2 = 3 = 4", "unexpected trailing input '='", 10),
    ("x = 1 and y < 2 < 3", "unexpected trailing input '<'", 17),
    ("- not x", "expected an expression, found 'not'", 3),
])
def test_operators_that_do_not_chain(text, message, col):
    """A comparison or a range takes no operator of its own level after
    it, nor does an enclosing `and` or `not` take one up again; `not`
    may not stand where a comparison's operand is read.  In a guard the
    error is at the same token."""
    assert _read(parse_expr, text) == _read(parse_nested, text) \
        == ("ParseError", message, 1, col)
    guard = f"type T = [{text}] end"
    error = _read(parse_module, guard)
    assert error == _read(lambda t: parse_nested(t, "parse_module"), guard)
    assert error[3] == col + len("type T = [")


def test_expression_reader_agrees_with_the_nested_reader():
    """Equal trees, or the same error class, message, line and column,
    on 2,500 rendered generated expressions and guards and on 5,000
    token mutations of them."""
    rng = random.Random(20)
    texts = [render_expr(gen.gen_expr(rng, depth=rng.randint(0, 5)))
             for _ in range(2000)]
    texts += [render_expr(gen.gen_guard(rng, depth=rng.randint(0, 5)))
              for _ in range(500)]
    texts += [_expr_mutant(rng, rng.choice(texts)) for _ in range(5000)]
    outcomes = {"tree": 0, "error": 0}
    for text in texts:
        ours = _read(parse_expr, text)
        assert ours == _read(parse_nested, text), text
        outcomes["error" if isinstance(ours, tuple) else "tree"] += 1
    assert min(outcomes.values()) > 1000, outcomes
