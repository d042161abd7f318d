"""Pinned parse outcomes: what the parser makes of seeded token mutations
of the shipped modules in `MUTATED`, and of hand-written inputs aimed at
each of its readers (literals, delimited lists, branch lists, payload sorts).

An outcome is `["error", class, message, line, col]` when parsing raises
(line and col are None for an exception that is not a `ParseError`), or
`["ok", sha256]` of the rendered module or term when it parses.  A
mutation deletes token i, duplicates it, or swaps it with token i+1 of a
module's text, keeping the blanks and comments around them.

    PYTHONPATH=src python tests/parse_outcomes.py

rewrites parse_outcomes.json next to this file from the parser on the
path; `test_parse_outcomes.py` checks that the parser reproduces it.
"""

import hashlib
import json
import pathlib
import random

from chorus_wsi.syntax import (
    parse_expr, parse_global, parse_module, parse_process, parse_system,
    parse_type, render_expr, render_global, render_module, render_process,
    render_system, render_type,
)
from chorus_wsi.syntax.parser import ParseError, _TOKEN_RE

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "parse_outcomes.json"
MUTANTS = 500
SEED = 20261019
OPS = ("delete", "duplicate", "swap")
# the mutated modules, relative to the repo; named here rather than
# globbed, so that a new fixture leaves the recorded mutants as they are
MUTATED = (
    "src/chorus_wsi/corpus/atm.chor",
    "src/chorus_wsi/corpus/norm_eqs.chor",
    "src/chorus_wsi/corpus/pop2.chor",
    "src/chorus_wsi/corpus/pop2_multiparty.chor",
    "tests/idle_role.chor",
    "tests/ill_formed.chor",
    "tests/long_guard.chor",
    "tests/no_entry.chor",
    "tests/no_participants.chor",
    "tests/send_for_input.chor",
    "tests/send_loop.chor",
    "tests/unbound_read.chor",
    "tests/undecided_guard.chor",
    "tests/wrapped_open.chor",
)

PARSERS = {
    "module": parse_module, "global": parse_global, "type": parse_type,
    "process": parse_process, "system": parse_system, "expr": parse_expr,
}
# the printer of what each parser reads
RENDERERS = {
    parse_module: render_module, parse_global: render_global,
    parse_type: render_type, parse_process: render_process,
    parse_system: render_system, parse_expr: render_expr,
}

# (kind, text): one or more inputs for each form the parser reads
CASES = [
    # a trailing comma in each delimited list
    ("module", "domain x : Int in {1, 2,}"),
    ("module", 'domain s : Str in {"a", "b",}'),
    ("module", "table f : Int -> Bool = { 1 -> true, _ -> false, }"),
    ("module", "process P = 0\nsystem S = P || queue y = [[1, 2,], [3]]"),
    ("module", "system S = queue y = [1, 2,]"),
    ("process", "y!([1, 2,])"),
    ("expr", "[x, 1 + 2,]"),
    ("module", "global G(a, b,) = end"),
    ("global", "loop p { p -> q : { a(Int). end } } until ( q @ b(Unit), )"),
    ("process", "request u[1](a, b,). 0"),
    ("system", "new (a, b,)@u in queue a = []"),
    # lists without commas, and empty lists
    ("module", "domain x : Int in {1 2 3}"),
    ("module", "domain x : Int in {}"),
    ("module", "table f : Int -> Bool = { 1 -> true 2 -> true _ -> false }"),
    ("system", "queue y = [1 2] || queue z = []"),
    ("expr", "[1 2 [] [3]]"),
    ("module", "global G() = end"),
    ("global", "loop p { end } until ( )"),
    ("process", "accept u[q](). 0"),
    ("system", "new ()@u in queue a = []"),
    # a missing closing symbol
    ("module", "domain x : Int in {1, 2"),
    ("module", "table f : Int -> Bool = { 1 -> true, _ -> false"),
    ("system", "queue y = [[1, 2"),
    ("system", "queue y = [1, 2"),
    ("process", "y!([1, 2)"),
    ("expr", "[1, 2"),
    ("expr", "(1 + 2"),
    ("module", "global G(a, b = end"),
    ("global", "loop p { end } until ( q @ b(Unit)"),
    ("global", "loop p { end until ( q @ b(Unit) )"),
    ("process", "request u[1](a, b. 0"),
    ("system", "new (a, b@u in queue a = []"),
    ("global", "p -> q : { a(Int). end"),
    ("global", "p -> q : { a(Int . end }"),
    ("global", "p -> { q @ a(Int). end"),
    ("process", "sum { a?(x). 0"),
    ("process", "repeat { a?(x). 0 until { b?(y). 0 }"),
    ("process", "repeat { a?(x). 0 } until { b?(y). 0"),
    ("process", "{ a!(1) ; 0"),
    ("process", "( a!(1) ; 0 }"),
    ("process", "for x in [1] { 0"),
    ("system", "{ queue a = [] || queue b = []"),
    ("type", "(a!(Int). end"),
    ("type", "[x > 0 a!(Int). end"),
    # a repeated channel in each branch form
    ("global", "p -> q : { a(Int). end + a(Str). end }"),
    ("global", "p -> { q @ a(Int). end + r @ a(Int). end }"),
    ("module", "global G(a) = p -> { q @ a(Int). end + r @ a(Int). end }"),
    ("process", "sum { a?(x). 0 + a?(y). 0 }"),
    ("process", "sum { a?(x). 0 + b?(y). 0 + a?(z). 0 }"),
    ("process", "repeat { a?(x). 0 + a?(y). 0 } until { b?(z). 0 }"),
    ("process", "repeat { a?(x). 0 } until { b?(z). 0 + b?(w). 0 }"),
    ("process", "repeat { sum { a?(x). 0 + a?(y). 0 } } until { b?(z). 0 }"),
    ("type", "a!(Int). end (+) a!(Int). end"),
    # branch separators
    ("process", "sum { a?(x). 0 b?(y). 0 }"),
    ("process", "sum { a?(x). 0 + b?(y). 0 + }"),
    ("process", "sum {}"),
    ("process", "repeat { 0 } until { a?(x). 0 }"),
    ("process", "repeat { sum { a?(x). 0 b?(y). 0 } } until { 0 }"),
    ("process", "repeat { a?(x). 0 b?(y). 0 } until { c?(z). 0 }"),
    ("process", "repeat { } until { a?(x). 0 }"),
    ("global", "p -> q : { a(Int). end b(Int). end }"),
    ("global", "p -> q : { a(Int). end + }"),
    ("global", "p -> q : { }"),
    ("global", "p -> { }"),
    ("global", "p -> q : { q @ a(Int). end }"),
    ("global", "p -> { a(Int). end }"),
    ("type", "a!(Int). end (&) b!(Int). end"),
    ("type", "a?(Int). end (+) b!(Int). end"),
    ("type", "a!(Int). end (+) end"),
    ("type", "a?(Int). b!(). end (&) c?(). end"),
    # a table with two default entries, one with a repeated key, and
    # other table forms
    ("module", "table f : Int -> Bool = { _ -> true, _ -> false }"),
    ("module", "table f : Int -> Bool = { 1 -> true, 1 -> false, _ -> false }"),
    ("module", "table f : Int -> Bool = { 1 -> true }"),
    ("module", "table f : Int -> Bool = { 1 -> 2, _ -> false }"),
    ("module", "table f : Int -> Int = { 1 -> 2, _ -> 0 }\n"
               "table f : Int -> Int = { _ -> 1 }"),
    # payload sorts
    ("global", "p -> q : { a(). end + b([[Str]]). end + c(Data). end }"),
    ("global", "p -> q : { a(Foo). end }"),
    ("global", "p -> q : { a([Int). end }"),
    ("global", "loop p { end } until ( q @ a(), q @ b(Bool) )"),
    ("global", "loop p { end } until ( q @ a(x) )"),
    ("type", "a!(). end (+) b!([Int]). end"),
    ("type", "a?(Unit). end"),
    ("type", "a?(1). end"),
    ("type", "a. end"),
    # literals, as values and as expressions
    ("module", "domain x : Int in {-1, 0, 7}"),
    ("module", "domain x : Int in -2..2"),
    ("module", "domain x : Int in 3..1"),
    ("module", "domain x : Int in {-(1)}"),
    ("module", "domain x : Int in {1, true}"),
    ("module", 'domain s : Str in {"a", "b\\"c"}'),
    ("module", "domain x : Data in {0x00}"),
    ("module", "domain x : Bool"),
    ("module", "domain x : Unit"),
    ("module", "domain x : Int in {1}\ndomain x : Int in {2}"),
    ("module", "table f : Data -> Str = { 0x0aff -> \"x\", _ -> \"\" }"),
    ("module", "table f : [Int] -> [Str] = { [1, 2] -> [\"a\"], _ -> [] }"),
    ("module", "table f : Unit -> Bool = { () -> true, _ -> false }"),
    ("module", "table f : Int -> Bool = { x -> true, _ -> false }"),
    ("system", "queue y = [1, \"a\", true, 0x01, (), [], [1], -3]"),
    ("system", "queue y = [x]"),
    ("expr", "-3 + - x * -(4) - 0xff0a"),
    ("expr", '"s" = "t" and true or not false'),
    ("expr", "()"),
    ("expr", "hd(tl([1, 2])) + f(x) .. 9"),
    ("expr", "hd x"),
    ("expr", "1 < 2 < 3"),
    ("expr", "x y"),
    ("expr", ""),
    ("expr", "0x0"),
    # declarations
    ("module", "foo x = end"),
    ("module", "; global G(a) = end"),
    ("module", "global G(a) = end\nglobal G(b) = end"),
    ("module", "global G(a) = end\ntype G = end"),
    ("module", "global G(a, a) = end"),
    ("module", "type T = end\nprocess P plays p of T = 0"),
    ("module", "process P plays p G = 0"),
    ("module", "system S = P"),
    ("module", "type T = U"),
    ("module", "global G = H"),
    ("module", "process P = Q"),
    # request and accept, braces and parentheses
    ("process", "request u[x](a). 0"),
    ("process", "request u[1](a, a). 0"),
    ("process", "request u[1](a) 0"),
    ("process", "accept u[1](a). 0"),
    ("process", "accept u[p](a, b, a). 0"),
    ("process", "accept u[p](a). { a!(1) ; 0 }"),
    ("process", "{ a!(1) ; ( b!() ; 0 ) }"),
    ("process", "( a!(1) ; { b!() ; 0 } )"),
    ("process", "if x > 0 then { 0 } else ( a!(1) )"),
    ("process", "1"),
    ("system", "{ new (a)@u in queue a = [] } || { queue b = [] }"),
]


def outcome(parse, text: str) -> list:
    """What parsing `text` with `parse` gives, as the pins record it."""
    try:
        term = parse(text)
    except ParseError as exc:
        return ["error", type(exc).__name__, exc.message, exc.line, exc.col]
    except Exception as exc:  # noqa: BLE001 - pinned as it stands
        return ["error", type(exc).__name__, str(exc), None, None]
    return ["ok", hashlib.sha256(RENDERERS[parse](term).encode()).hexdigest()]


def token_spans(text: str) -> list:
    """The (start, end) of each token of `text`, the end left out."""
    return [m.span(1) for m in _TOKEN_RE.finditer(text) if m[1]]


def mutate(text: str, op: str, i: int) -> str:
    """`text` with token i deleted, duplicated, or swapped with token i+1."""
    spans = token_spans(text)
    start, end = spans[i]
    if op == "delete":
        return text[:start] + text[end:]
    if op == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:]
    start2, end2 = spans[i + 1]
    return (text[:start] + text[start2:end2] + text[end:start2]
            + text[start:end] + text[end2:])


def mutants() -> list:
    """The seeded mutations: (module path relative to the repo, op, i),
    taken in turn from each module of `MUTATED`."""
    rng = random.Random(SEED)
    spans = {path: token_spans((ROOT / path).read_text()) for path in MUTATED}
    out = []
    for k in range(MUTANTS):
        path = MUTATED[k % len(MUTATED)]
        op = rng.choice(OPS)
        n = len(spans[path]) - (op == "swap")
        out.append((path, op, rng.randrange(n)))
    return out


def record() -> dict:
    return {
        "mutants": [
            {"module": path, "op": op, "token": i,
             "outcome": outcome(parse_module,
                                mutate((ROOT / path).read_text(), op, i))}
            for path, op, i in mutants()],
        "cases": [{"kind": kind, "text": text,
                   "outcome": outcome(PARSERS[kind], text)}
                  for kind, text in CASES],
    }


if __name__ == "__main__":
    pins = record()
    PINS.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: [\n  " + ",\n  ".join(map(json.dumps, entries))
        + "\n ]" for key, entries in pins.items()) + "\n}\n")
    print(f"wrote {PINS}")
