"""Verdict benchmark of the chorus-wsi command line.

    python3 bench/run.py --workload cover-wsi --seed 1 --seconds 30 --trace 0

Runs one workload (`cover-wsi`, `typing-guards` or `corpus-cli`, see
`workloads.py`) as a closed loop with one client in this single-threaded
process: the client calls `chorus_wsi.cli.main(argv)` in-process with
its output captured, waits for the answer, checks it against the
expected answer (`expected.py`, `digests.json`) and sends the next
request.  Nothing else runs, so nothing contends and no request waits.

The loop runs the whole cycles of the workload that fit in `--seconds`
at its nominal cycle time.  Each request is stopped at `TIME_LIMIT` and
then counts as a timeout, with its elapsed time.  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end
metrics; with `--trace 1` the time is split between an untraced and a
traced pass over the same requests, and the object holds the per-layer
metrics of the traced pass (`tracer.py`) and the tracing overhead.  A
report for people precedes that line.

The amount of work the program does depends on the order in which it
iterates over sets and dicts of strings, so the benchmark restarts
itself with the string hash seed fixed (`HASH_SEED`).

The shared machine the benchmark was written on changes speed by up to
1.7x for minutes at a time.  So every time the benchmark reports is
scaled to a reference speed, measured by a fixed task that does not use
the program (`speed.py`), and the time limit is given at that speed;
the report prints the unscaled figures as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads as wl
from expected import EXPECTED, FAMILIES
from speed import kernel, speed_of
from tracer import LAYER_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

HASH_SEED = "0"      # PYTHONHASHSEED of every measured run
TIME_LIMIT = 2.5     # seconds per request, at the reference speed
TRACED_LIMIT = 2 * TIME_LIMIT  # tracing slows guard-heavy requests up to 2x
SETUP_REPEATS = 31   # fresh interpreters timed for setup_s
MIN_BEYOND_TAIL = 10  # samples the tail percentile must leave above it
CALIBRATIONS = 25    # kernel() runs before the loop, for the first limits
OVERRUN = 1.5        # no cycle starts after this many times --seconds


class RequestTimeout(BaseException):
    """Raised in the request by the interval timer.  A BaseException, so
    that no handler of the program mistakes it for its own error."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Answer:
    code: int | None
    stdout: str
    error: str | None   # "<Exception>: <message>" if one escaped main
    timed_out: bool
    elapsed: float


def call(main, argv: tuple, limit: float) -> Answer:
    """One in-process CLI call, timed from the call of main to its return."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    timed_out = False
    start = end = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit)
            start = perf_counter()
            try:
                code = main(list(argv))
            finally:
                end = perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        timed_out = True
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else \
            (0 if exc.code is None else 1)
    except Exception as exc:  # the answer under test: record and go on
        error = f"{type(exc).__name__}: {exc}"
    return Answer(code, out.getvalue(), error, timed_out, end - start)


# --------------------------------------------------------------- answers

def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def judge(req, ans: Answer, expected: dict, families: dict,
          digests: dict) -> tuple:
    """("ok" | "known" | "wrong" | "timeout", problem or None).

    "known" is a failure recorded at the baseline (`known_failure`);
    it counts as failed but does not make the run incorrect."""
    if ans.timed_out:
        return "timeout", None
    exp = expected.get(req.key) or families[req.family]
    if ans.error is not None:
        if ans.error == exp.get("known_failure"):
            return "known", None
        return "wrong", f"raised {ans.error}"
    allowed = exp["exit"] if isinstance(exp["exit"], list) else [exp["exit"]]
    if ans.code not in allowed:
        return "wrong", f"exit code {ans.code}, expected {exp['exit']}"
    lines = ans.stdout.splitlines()
    for line in exp.get("lines", ()):
        if line not in lines:
            return "wrong", f"missing line {line!r}"
    for prefix in exp.get("prefixes", ()):
        if not any(line.startswith(prefix) for line in lines):
            return "wrong", f"no line starts with {prefix!r}"
    if exp.get("digest", True) and "known_failure" not in exp:
        want = digests.get(req.key)
        if want is None:
            return "wrong", "no digest recorded at the baseline"
        if wl.digest(ans.stdout) != want:
            return "wrong", "output differs from the baseline digest"
    return "ok", None


# ------------------------------------------------------------ the loop

@dataclass
class Sample:
    key: str
    outcome: str
    elapsed: float
    repeat: bool


def run_loop(main, workload, seconds: float, checker, kernels: list,
             tracer=None, max_requests: int | None = None,
             limit: float = TIME_LIMIT):
    """As many whole cycles of the workload as fit in `seconds` at the
    workload's nominal cycle time, so that every run of a given length
    does the same work however fast the program is.  On a machine much
    slower than nominal, no cycle starts after OVERRUN * seconds.
    `kernel()` runs before each request and its time is appended to
    `kernels`, after CALIBRATIONS runs before the first request if
    `kernels` has fewer; the request's time limit is `limit` at the
    speed all of `kernels` give.  Returns the samples, the problems
    found, the cycles run and the loop's wall time."""
    while len(kernels) < CALIBRATIONS:
        gc.collect()
        kernels.append(kernel())
    samples, problems, seen = [], [], set()
    planned = max(1, int(seconds / workload.cycle_s))
    start = perf_counter()
    cycles = 0
    while cycles < planned and (
            cycles == 0 or perf_counter() - start < OVERRUN * seconds):
        for req in workload.cycle(cycles):
            if max_requests is not None and len(samples) >= max_requests:
                break
            gc.collect()
            kernels.append(kernel())
            if tracer is not None:
                tracer.begin_request(len(samples))
                tracer.active = True
            ans = call(main, req.argv, limit / speed_of(kernels))
            if tracer is not None:
                tracer.active = False
                tracer.end_request(not ans.timed_out)
            outcome, problem = checker(req, ans)
            if problem is not None:
                problems.append(f"{req.key}: {problem}")
            samples.append(Sample(req.key, outcome, ans.elapsed,
                                  req.input_id in seen))
            seen.add(req.input_id)
        cycles += 1
        if max_requests is not None and len(samples) >= max_requests:
            break
    return samples, problems, cycles, perf_counter() - start


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.

    The plain sample median of a cycle that has a gap between its
    request times (40 ms, then 85 ms) jumps with single samples across
    the gap; the weighted mean moves smoothly.  Its weights depend on
    the number of samples, which `run_loop` keeps fixed for a given run
    length.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 16  # midpoint rule on each of the n intervals of [0, 1]
    logs = []
    for i in range(n):
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(samples: list, tail: float, wall: float | None = None,
               speed: float = 1.0) -> dict:
    """`wall` is the run's wall time; without it, the time spent in main.
    Times are scaled by `speed` to the reference speed."""
    ok = [s.elapsed * speed for s in samples if s.outcome == "ok"]
    if wall is None:
        wall = sum(s.elapsed for s in samples)
    wall *= speed
    n = len(samples)
    return {
        "verdict_ms_p50": (quantile(ok, 0.5) * 1e3 if ok else 0.0, "ms"),
        "verdict_ms_tail": (quantile(ok, tail) * 1e3 if ok else 0.0, "ms"),
        "verdicts_per_s": (len(ok) / wall if wall else 0.0, "1/s"),
        "expected_share": (len(ok) / n, "ratio"),
        "timeout_share": (
            sum(s.outcome == "timeout" for s in samples) / n, "ratio"),
        "failed_share": (
            sum(s.outcome in ("known", "wrong") for s in samples) / n, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tail_note(samples: list, tail: float, tail_ms: float, speed: float) -> str:
    ok = [s.elapsed * speed * 1e3 for s in samples if s.outcome == "ok"]
    beyond = sum(t > tail_ms for t in ok)
    return (f"  verdict_ms_tail is p{tail * 100:g} of {len(ok)} samples, "
            f"{beyond} beyond it"
            + ("" if beyond >= MIN_BEYOND_TAIL
               else f" (fewer than {MIN_BEYOND_TAIL})"))


def import_times(repeats: int, first: bool) -> list:
    """(seconds, machine speed) of imports of chorus_wsi.cli, each in a
    fresh interpreter, which measures its speed with `kernel()` after
    the import.  With `first`, one more import runs before them, which
    may compile the modules and is not counted."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import chorus_wsi.cli; "
            "t = time.perf_counter() - t; "
            "sys.path.insert(0, sys.argv[2]); import speed; "
            "print(t); print(chorus_wsi.cli.__file__); "
            "print(speed.speed_of([speed.kernel() for _ in range(7)]))")
    out = []
    for i in range(repeats + first):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        took, path, speed = proc.stdout.splitlines()
        if Path(path).resolve() != SRC / "chorus_wsi" / "cli.py":
            raise SystemExit(f"error: imported {path}, not the checkout's")
        if i or not first:
            out.append((float(took), float(speed)))
    return out


# ------------------------------------------------------------- reports

def guard_cache_entries():
    from chorus_wsi import guards
    cache = getattr(guards.EMPTY_DOMAINS, "_unsat_cache", None)
    return len(cache) if cache is not None else "n/a"


def describe(workload, seed, samples, cycles, problems) -> list:
    n = len(samples)
    lines = [f"workload {workload.name}, seed {seed}: {n} requests in "
             f"{cycles} cycles, closed loop, one client, one thread",
             f"  string hash seed (PYTHONHASHSEED): "
             f"{os.environ.get('PYTHONHASHSEED', 'random')}",
             f"  repeat share: {sum(s.repeat for s in samples) / n:.4f} "
             f"of requests repeat an earlier input",
             f"  EMPTY_DOMAINS guard cache entries at the end: "
             f"{guard_cache_entries()}"]
    lines += [f"  {k}: {v}" for k, v in workload.notes().items()]
    counts = {o: sum(s.outcome == o for s in samples)
              for o in ("ok", "known", "timeout", "wrong")}
    lines.append("  outcomes: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    lines += [f"  WRONG {p}" for p in sorted(set(problems))]
    by_key = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    lines.append("  per request: median ms, count, outcomes")
    for key, ss in sorted(by_key.items(), key=lambda kv: statistics.median(
            s.elapsed for s in kv[1])):
        outcomes = ",".join(sorted({s.outcome for s in ss}))
        lines.append(f"    {statistics.median(s.elapsed for s in ss) * 1e3:10.2f}"
                     f" {len(ss):4d} {outcomes:8s} {key}")
    return lines


def metric_lines(metrics: dict) -> list:
    return [f"  {name:32s} {value:14.6f} {unit}"
            for name, (value, unit) in metrics.items()]


def result_line(samples, problems, metrics: dict) -> str:
    failed = sum(s.outcome != "ok" for s in samples)
    return json.dumps({
        "correct": not problems and any(s.outcome == "ok" for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# ---------------------------------------------------------------- main

def load_program():
    if not (SRC / "chorus_wsi" / "cli.py").is_file():
        raise SystemExit(f"error: no chorus_wsi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chorus_wsi.cli
    if Path(chorus_wsi.cli.__file__).resolve() != SRC / "chorus_wsi" / "cli.py":
        raise SystemExit("error: chorus_wsi was not imported from the checkout")
    return chorus_wsi.cli.main


WARMUP = (("typecheck", "atm.chor"), ("project", "atm.chor", "--role", "b"),
          ("cover", "atm.chor", "--unfold", "1"),
          ("wsi", "atm.chor", "--proc", "B1", "--unfold", "1"),
          ("parse", "atm.chor"), ("normalize", "norm_eqs.chor"),
          ("simulate", "atm.chor", "--system", "ATM_DEP"),
          ("traces", "atm.chor", "--unfold", "1", "--json"))


def warm_up(main):
    """Finish lazy set-up (imports inside functions, parser tables)
    before timing; the answers are not counted."""
    for words in WARMUP:
        call(main, (words[0], str(wl.CORPUS / words[1]), *words[2:]),
             TIME_LIMIT)


def run(name: str, seed: int, seconds: float, trace: bool,
        max_requests: int | None = None, checker=None,
        setup: bool = True) -> tuple:
    """Run one workload; returns (report lines, result JSON line)."""
    main = load_program()
    os.environ.pop("CHORUS_COLOR", None)
    if checker is None:
        digests = load_digests()
        checker = lambda req, ans: judge(req, ans, EXPECTED, FAMILIES, digests)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # set-up is timed half before and half after the loop, so that
        # a slow spell of the machine at either end moves it less
        imports = import_times(SETUP_REPEATS // 2, first=True) \
            if setup and not trace else None
        warm_up(main)
        with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as tmp:
            make = lambda: wl.WORKLOADS[name](seed, Path(tmp))
            if trace:
                return traced(main, make, seed, seconds, checker, max_requests)
            return untraced(main, make(), seed, seconds, checker,
                            max_requests, imports)
    finally:
        signal.signal(signal.SIGALRM, old)


def untraced(main, workload, seed, seconds, checker, max_requests, imports):
    kernels = []
    samples, problems, cycles, wall = run_loop(
        main, workload, seconds, checker, kernels, None, max_requests)
    speed = speed_of(kernels[CALIBRATIONS:])
    metrics = end_to_end(samples, workload.tail, wall, speed)
    unscaled = end_to_end(samples, workload.tail, wall)
    report = describe(workload, seed, samples, cycles, problems)
    report.append(tail_note(samples, workload.tail,
                            metrics["verdict_ms_tail"][0], speed))
    report.append(f"  machine speed during the loop: {speed:.4f} of the "
                  f"reference; before it: {speed_of(kernels[:CALIBRATIONS]):.4f}")
    report += [f"  unscaled {k}: {unscaled[k][0]:.4f} {unscaled[k][1]}"
               for k in ("verdict_ms_p50", "verdict_ms_tail", "verdicts_per_s")]
    if imports is not None:
        imports += import_times(SETUP_REPEATS - len(imports), first=False)
        metrics["setup_s"] = (
            quantile([took * speed for took, speed in imports], 0.5), "s")
        report.append(f"  unscaled setup_s: "
                      f"{quantile([took for took, _ in imports], 0.5):.6f} s")
    report += metric_lines(metrics)
    gated = {k: v for k, v in metrics.items()
             if k not in ("timeout_share", "failed_share")}
    return report, result_line(samples, problems, gated)


def traced(main, make, seed, seconds, checker, max_requests):
    """An untraced pass, then a traced pass over the same requests.  The
    figures of both are unscaled: they are compared with each other."""
    kernels = []
    base, problems, _, _ = run_loop(main, make(), seconds / 2, checker,
                                    kernels, None, max_requests)
    tracer = Tracer()
    tracer.install()
    try:
        workload = make()
        samples, more, cycles, _ = run_loop(main, workload, seconds / 2,
                                            checker, kernels, tracer,
                                            max_requests, TRACED_LIMIT)
    finally:
        tracer.uninstall()
    problems += more
    # both passes send the same requests in the same order: compare the
    # requests that finished in both (the passes have different limits)
    pairs = [(b, t) for b, t in zip(base, samples)
             if b.outcome != "timeout" and t.outcome != "timeout"]
    e2e_base = end_to_end([b for b, _ in pairs], workload.tail)
    e2e = end_to_end([t for _, t in pairs], workload.tail)
    # the tracer took back what timed-out requests recorded
    finished = [s for s in samples if s.outcome != "timeout"]
    busy = sum(s.elapsed for s in finished)
    metrics = tracer.metrics(len(finished))
    metrics["tracing.overhead_p50"] = (
        e2e["verdict_ms_p50"][0] / e2e_base["verdict_ms_p50"][0] - 1
        if e2e_base["verdict_ms_p50"][0] else 0.0, "ratio")
    metrics["tracing.overhead_mean"] = (
        sum(t.elapsed for _, t in pairs) / sum(b.elapsed for b, _ in pairs) - 1
        if pairs else 0.0, "ratio")

    report = describe(workload, seed, samples, cycles, problems)
    report.append(f"  traced pass after an untraced pass of {len(base)} "
                  f"requests; per-layer figures cover the {len(finished)} "
                  f"traced requests that finished, sums are per request "
                  f"({tracer.timed_out} timed out, "
                  f"{sum(s.elapsed for s in samples) - busy:.1f} s left out)")
    report.append(f"  end to end on the {len(pairs)} requests that finished "
                  f"in both passes, untraced -> traced:")
    for key in ("verdict_ms_p50", "verdict_ms_tail", "verdicts_per_s"):
        report.append(f"    {key:28s} {e2e_base[key][0]:12.4f} -> "
                      f"{e2e[key][0]:12.4f} {e2e[key][1]}")
    report.append("  self-time share of the time of finished requests, "
                  "by layer:")
    layer_self = tracer.layer_self()
    for layer in LAYER_NAMES:
        report.append(f"    {layer:12s} {layer_self[layer] / busy:8.4f}")
    outside = busy - sum(layer_self.values())
    report.append(f"    {'(untraced)':12s} {outside / busy:8.4f}")
    report += metric_lines(metrics)
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write(spans)
    report.append(f"  {len(tracer.spans)} spans written to "
                  f"{spans.relative_to(ROOT)} ({tracer.dropped} dropped)")
    return report, result_line(base + samples, problems, metrics)


def pin_hash_seed() -> None:
    """Replace this process by one with PYTHONHASHSEED=HASH_SEED, unless
    it has it already or ignores the environment (python3 -E or -I)."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED \
            or sys.flags.ignore_environment:
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})


def main_cli(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    report, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print("\n".join(report))
    print(result)
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main_cli())
