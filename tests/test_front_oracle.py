"""The regex tokenizer and the one-walk freshening against the slow
references in front_oracle.py."""

import random

import pytest

import chorus_wsi.syntax.parser as parser_mod
from chorus_wsi.syntax import freshen, parse_module
from chorus_wsi.syntax.ast import Par, Proc, Seq, fU, fX, fn
from chorus_wsi.syntax.parser import ParseError, line_col, tokenize

import conftest
import gen
from front_oracle import freshen_by_subst, names_by_parts, tokenize_by_chars

MODULES = sorted(conftest.CORPUS.glob("*.chor")) \
    + sorted(conftest.CORPUS.parents[2].joinpath("tests").glob("*.chor"))


def _tokens(text: str) -> list:
    """The tokens as the oracle gives them, one EOF at the end."""
    return [(t.kind, t.value, *line_col(text, t.offset)) for t in tokenize(text)[:-1]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tokens_agree_on_modules(path):
    text = path.read_text()
    assert _tokens(text) == tokenize_by_chars(text)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_freshening_agrees_on_modules(path, monkeypatch):
    """Every body the parser freshens, freshened by the oracle instead,
    gives the same term and the same renames."""
    calls = []

    def recording(body, renames=None):
        before = dict(renames)
        out = freshen(body, renames=renames)
        calls.append((body, before, out, dict(renames)))
        return out

    monkeypatch.setattr(parser_mod, "freshen", recording)
    parse_module(path.read_text())
    for body, before, out, after in calls:
        renames = dict(before)
        assert freshen_by_subst(body, renames) == out
        assert renames == after


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
        for t, (*_, line, col) in zip(ours[:-1], theirs):
            if _multiline_string_before(text, t.offset):
                break
            assert line_col(text, t.offset) == (line, col), text
            compared += 1
    assert compared > 20_000


def _offset(text: str, err: ParseError) -> int:
    lines = text.split("\n")
    return sum(len(line) + 1 for line in lines[:err.line - 1]) + err.col - 1
