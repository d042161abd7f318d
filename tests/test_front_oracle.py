"""The regex tokenizer and the one-walk freshening against the slow
references in front_oracle.py."""

import random
import sys

import pytest

import chorus_wsi.syntax.parser as parser_mod
import chorus_wsi.syntax.subst as subst_mod
from chorus_wsi.syntax import freshen, parse_module
from chorus_wsi.syntax.ast import Par, Proc, Seq, fU, fX, fn
from chorus_wsi.syntax.parser import ParseError, line_col, token_offsets, tokenize

import conftest
import gen
from front_oracle import freshen_by_subst, names_by_parts, tokenize_by_chars

MODULES = sorted(conftest.CORPUS.glob("*.chor")) \
    + sorted(conftest.CORPUS.parents[2].joinpath("tests").glob("*.chor"))


def _tokens(text: str) -> list:
    """The tokens as the oracle gives them, one EOF at the end; each
    position is found again by the error path's rescan."""
    toks, offsets = tokenize(text)[:-1], list(token_offsets(text))
    assert len(toks) == len(offsets)
    return [(t.kind, t.value, *line_col(text, offset))
            for t, offset in zip(toks, offsets)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tokens_agree_on_modules(path):
    text = path.read_text()
    assert _tokens(text) == tokenize_by_chars(text)


def _recorded_freshening(text: str, monkeypatch) -> list:
    """(body, renames before, result, renames after) for each body the
    parser of `text` freshens, with the summaries of earlier bodies."""
    calls = []

    def recording(body, renames, fresh):
        before = dict(renames)
        out = freshen(body, renames, fresh)
        calls.append((body, before, out, dict(renames)))
        return out

    monkeypatch.setattr(parser_mod, "freshen", recording)
    parse_module(text)
    return calls


def _agree_with_oracles(calls: list) -> None:
    """Each recorded body, freshened by the oracle and by the plain walk
    without summaries, gives the same term and the same renames."""
    for body, before, out, after in calls:
        renames = dict(before)
        assert freshen_by_subst(body, renames) == out
        assert renames == after
        renames = dict(before)
        assert freshen(body, renames) == out
        assert renames == after


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_freshening_agrees_on_modules(path, monkeypatch):
    _agree_with_oracles(_recorded_freshening(path.read_text(), monkeypatch))


def _kept(term, bodies: dict, walked: list) -> set:
    """The names in `bodies` whose body object occurs in `term` itself;
    `walked` gets each field the walk enters."""
    found = {name for name, body in bodies.items() if body is term}
    for field in getattr(type(term), "__match_args__", ()):
        walked.append(field)
        value = getattr(term, field)
        for part in value if isinstance(value, tuple) else (value,):
            found |= _kept(part, bodies, walked)
    return found


_POP2_SERVER = (conftest.CORPUS / "pop2.chor").read_text().split(
    "// Server implementation.")[1].split("process Mbox")[0]


@pytest.mark.parametrize("text, last, kept", [
    # Size uses m free and binds m; Nmbr's read?(m) captures Size's free
    # m, and Nmbr's fold?(f) collides with Size's, so Size is walked
    pytest.param(_POP2_SERVER, "Nmbr", {"Exit"}, id="pop2-Nmbr-Size"),
    # the second copy's binders are all in use once the first is kept
    pytest.param("process P = a?(x). b!(x)\nsystem S = P || P\n", "S", {"P"},
                 id="P||P"),
    # Q binds x again, so x moves to x_2 and P's free x follows it
    pytest.param("process P = c!(x)\nprocess Q = a!(x) ; b?(x). P\n", "Q", set(),
                 id="free-name-renamed"),
    pytest.param("process P = c!(x)\nprocess Q = a!(y) ; b?(y). P\n", "Q", {"P"},
                 id="free-name-kept"),
])
def test_freshening_with_summaries_agrees_on_collisions(text, last, kept, monkeypatch):
    """Inlined fresh bodies that must be walked and ones that may be kept:
    both agree with the oracle and with the walk without summaries."""
    calls = _recorded_freshening(text, monkeypatch)
    _agree_with_oracles(calls)
    module = parse_module(text)
    bodies = {name: pdef.body for name, pdef in module.processes.items()
              if name != last}
    body = module.systems[last].body if last in module.systems \
        else module.processes[last].body
    walked = []
    assert _kept(body, bodies, walked) == kept
    assert len(walked) > len(kept)  # the walk goes into the body's fields


def test_parsing_pop2_does_pinned_work(monkeypatch):
    """Work counts of one parse of pop2.chor: visits of the freshening
    walk and of the free-names pass (429 each when every inlined body
    was walked again), and token objects made (one per distinct token,
    EOF included, not one per token)."""
    text = (conftest.CORPUS / "pop2.chor").read_text()
    visits = {"walk": 0, "_free_names": 0}

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == subst_mod.__file__ \
                and code.co_name in visits:
            visits[code.co_name] += 1

    made = []
    real = parser_mod.Token

    def token(kind, value):
        made.append((kind, value))
        return real(kind, value)

    monkeypatch.setattr(parser_mod, "Token", token)
    sys.setprofile(count)
    try:
        parse_module(text)
    finally:
        sys.setprofile(None)
    assert visits == {"walk": 230, "_free_names": 106}
    distinct = {(kind, value) for kind, value, *_ in tokenize_by_chars(text)}
    assert sorted(made) == sorted(distinct)
    assert len(made) * 5 < len(tokenize_by_chars(text))


def test_freshening_agrees_on_generated_terms():
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
    for term in terms:
        ours, theirs = {}, {}
        assert freshen(term, ours) == freshen_by_subst(term, theirs), term
        assert ours == theirs


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
    kept = 0
    for term, inline in cases:
        fresh = {}
        body = freshen(term, {}, fresh)
        for outer in inline(body):
            ours, theirs, plain = {}, {}, {}
            out = freshen(outer, ours, fresh)
            assert out == freshen_by_subst(outer, theirs) == freshen(outer, plain), outer
            assert ours == theirs == plain
            kept += out.first is body if isinstance(out, Seq) else False
    assert kept > 1000


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
