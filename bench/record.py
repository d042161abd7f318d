"""Record the baseline output digests of the benchmark's requests.

    python3 bench/record.py

Runs every request whose output is checked by digest once, checks it
against the hand-written expectations of `expected.py` (and the
generated `normalize` modules against criterion 3's laws), and writes
`digests.json`.  It refuses to write when an answer disagrees.  It also
checks that widened variants answer exactly as the corpus does, which
is what lets `typing-guards` reuse the corpus digests.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl

VARIANTS_PER_MODULE = 6


def check_normal_forms(source: str, stdout: str) -> str | None:
    """Criterion 3's laws on a `normalize` answer: each printed type is a
    fixed point of normal_form and equivalent to the normal form of the
    declared type.  Returns a description of the first violation."""
    from chorus_wsi.guards import DomainDecl
    from chorus_wsi.pseudotype import equiv, normal_form
    from chorus_wsi.syntax import parse_module, parse_type

    module = parse_module(source)
    domains = DomainDecl.from_module(module)
    printed = dict(line.split(" = ", 1) for line in stdout.splitlines())
    if sorted(printed) != sorted(module.types):
        return "normalize printed another set of type names"
    for name, text in printed.items():
        out = parse_type(text, module)
        if not equiv(normal_form(out, domains), out, domains):
            return f"{name}: the printed type is not a fixed point of normal_form"
        if not equiv(out, normal_form(module.types[name], domains), domains):
            return f"{name}: the printed type is not equivalent to the input"
    return None


def main() -> int:
    main_fn = run.load_program()
    expected, families = run.EXPECTED, run.FAMILIES
    signal.signal(signal.SIGALRM, run._on_alarm)
    digests, problems = {}, []

    def record(req, check_laws=False):
        exp = expected.get(req.key) or families[req.family]
        if exp.get("digest", True) is False or "known_failure" in exp:
            return
        ans = run.call(main_fn, req.argv, 60.0)
        outcome, problem = run.judge(req, ans, expected, families,
                                     {req.key: wl.digest(ans.stdout)})
        if outcome != "ok":
            problems.append(f"{req.key}: {outcome} {problem or ''}")
            return
        if check_laws:
            broken = check_normal_forms(req.source, ans.stdout)
            if broken:
                problems.append(f"{req.key}: {broken}")
                return
        digests[req.key] = wl.digest(ans.stdout)

    for req in wl.all_recordable():
        record(req)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.BENCH) as tmp:
        for req in wl.CorpusCli(0, Path(tmp)).generated.values():
            record(req, check_laws=True)

        # widened variants must reproduce the corpus answers exactly
        rng = random.Random(0)
        for name in wl.ENTRY_PROCS:
            base = (wl.CORPUS / name).read_text()
            for v in range(VARIANTS_PER_MODULE):
                top = max(wl.FACTORS)
                factors = {d: top if v == 0 else rng.randint(2, top)
                           for d in wl.widenable(base)}
                text, _ = wl.widen(base, factors, f"r{v}")
                path = Path(tmp) / f"v{v}-{name}"
                path.write_text(text)
                for words in wl.typing_templates(name):
                    key = " ".join(words)
                    ans = run.call(main_fn, (words[0], str(path), *words[2:]),
                                   60.0)
                    if wl.digest(ans.stdout) != digests.get(key):
                        problems.append(f"{key} on variant {factors}: "
                                        f"answer differs from the corpus")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    out = run.BENCH / "digests.json"
    out.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"{len(digests)} digests written to {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
