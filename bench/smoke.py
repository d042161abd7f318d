"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs each workload at a tiny size, untraced and traced, and checks that
it finishes, that the result line has exactly the keys correct,
attempted, failed and metrics, and that every metric named in
BENCHMARK.json is printed with its unit.
Then it checks that the correctness gate flags a deliberately wrong
expected answer, and accepts a known failure without flagging it, and
that the tracer keeps what timed-out requests and raising coverings
record out of its figures.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl
from tracer import Tracer

TINY = 4  # requests per pass


def check_output(workload: str, trace: bool, spec: dict) -> None:
    report, result = run.run(workload, seed=0, seconds=0, trace=trace,
                             max_requests=TINY)
    parsed = json.loads(result)
    assert sorted(parsed) == ["attempted", "correct", "failed", "metrics"], parsed
    assert parsed["correct"] is True, report
    assert parsed["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert sorted(parsed["metrics"]) == sorted(m["name"] for m in wanted)
    text = "\n".join(report)
    for m in wanted:
        got = parsed["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float))
        assert f" {m['name']} " in text and text.count(m["unit"]), m
    if not trace:
        for name in ("timeout_share", "failed_share"):
            assert f" {name} " in text, name
    print(f"ok   {workload} trace={int(trace)}: {parsed['attempted']} requests")


def check_gate() -> None:
    expected, families = run.EXPECTED, run.FAMILIES
    digests = run.load_digests()
    main = run.load_program()
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)

    b2 = wl.corpus_request(["wsi", "atm.chor", "--proc", "B2", "--unfold", "1"])
    ans = run.call(main, b2.argv, run.TIME_LIMIT)
    assert run.judge(b2, ans, expected, families, digests) == ("ok", None)
    # B2 denies every overdraft: an expected Holds must be flagged
    wrong = dict(expected)
    wrong[b2.key] = dict(expected[b2.key], exit=0,
                         lines=["covering: Holds@1 (3 contexts)"])
    outcome, problem = run.judge(b2, ans, wrong, families, digests)
    assert outcome == "wrong" and problem, (outcome, problem)
    # a changed output with the right verdict is flagged by its digest
    outcome, _ = run.judge(b2, ans, expected, families,
                           {**digests, b2.key: "0" * 16})
    assert outcome == "wrong", outcome

    cpop = wl.corpus_request(["wsi", "pop2.chor", "--proc", "CPop",
                              "--unfold", "1"])
    ans = run.call(main, cpop.argv, run.TIME_LIMIT)
    assert run.judge(cpop, ans, expected, families, digests)[0] == "known"

    # a run whose expected answers are all wrong reports itself incorrect
    wrong_all = {key: dict(entry, lines=[*entry.get("lines", ()), "no such"])
                 for key, entry in expected.items()}
    report, result = run.run(
        "cover-wsi", seed=0, seconds=0, trace=False, max_requests=2,
        setup=False,
        checker=lambda req, ans: run.judge(req, ans, wrong_all, families,
                                           digests))
    assert json.loads(result)["correct"] is False
    assert any(line.startswith("  WRONG ") for line in report), report
    print("ok   the correctness gate flags wrong expected answers")


def traced_call(main, tracer, req, limit):
    tracer.begin_request(0)
    tracer.active = True
    ans = run.call(main, req.argv, limit)
    tracer.active = False
    tracer.end_request(not ans.timed_out)
    return ans


def check_tracer() -> None:
    main = run.load_program()
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    tracer = Tracer()
    tracer.install()
    try:
        # CPop raises inside the covering loop: tried, but not in the yield
        cpop = wl.corpus_request(["wsi", "pop2.chor", "--proc", "CPop",
                                  "--unfold", "1"])
        traced_call(main, tracer, cpop, run.TIME_LIMIT)
        assert tracer.contexts_tried > 0 and tracer.finished_tried == 0
        b1 = wl.corpus_request(["wsi", "atm.chor", "--proc", "B1",
                                "--unfold", "1"])
        traced_call(main, tracer, b1, run.TIME_LIMIT)
        assert 0 < tracer.contexts_kept <= tracer.finished_tried
        # a request stopped at its time limit leaves no trace
        before = (list(tracer.calls), len(tracer.spans))
        k3 = wl.corpus_request(["cover", "pop2.chor", "--unfold", "3"])
        assert traced_call(main, tracer, k3, 0.3).timed_out
        assert (tracer.calls, len(tracer.spans)) == before
        assert tracer.timed_out == 1
    finally:
        tracer.uninstall()
    print("ok   the tracer leaves out timeouts and raising coverings")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            check_output(workload, trace, spec)
    check_gate()
    check_tracer()
    return 0


if __name__ == "__main__":
    sys.exit(main())
