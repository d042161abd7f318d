"""The parser reproduces every pinned outcome in parse_outcomes.json: the
error class, message, line and column, or the rendering, of each seeded
token mutation of the shipped modules and of each hand-written case."""

import json

import pytest

import parse_outcomes as po

PINS = json.loads(po.PINS.read_text())


def test_pins_cover_the_recorded_mutants_and_cases():
    assert [(m["module"], m["op"], m["token"]) for m in PINS["mutants"]] \
        == po.mutants()
    assert [(c["kind"], c["text"]) for c in PINS["cases"]] == po.CASES


@pytest.mark.parametrize("module", sorted({m["module"] for m in PINS["mutants"]}))
def test_mutant_outcomes_are_pinned(module):
    text = (po.ROOT / module).read_text()
    for m in PINS["mutants"]:
        if m["module"] == module:
            got = po.outcome(po.parse_module, po.mutate(text, m["op"], m["token"]))
            assert got == m["outcome"], (m["op"], m["token"])


@pytest.mark.parametrize("case", PINS["cases"], ids=lambda c: c["text"][:40])
def test_case_outcomes_are_pinned(case):
    assert po.outcome(po.PARSERS[case["kind"]], case["text"]) == case["outcome"]
