"""The benchmark's three workloads, as cycles of CLI requests.

A workload hands out its requests one cycle at a time.  `cover-wsi` and
`corpus-cli` repeat the same corpus requests every cycle, in a seeded
order; `typing-guards` makes every cycle from fresh domain-widened
variants of the corpus, so none of its inputs repeats.  All randomness
comes from the workload seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "chorus_wsi" / "corpus"

GEN_POOL = 8        # generated normalize modules, digests recorded for each
GEN_TYPES = 300     # guarded type declarations per generated module
SIM_POOL = 16       # simulate seeds, digests recorded for each
SIM_PER_CYCLE = 4   # simulate seeds per system in one corpus-cli cycle
FACTORS = (2, 4, 6, 8)  # domain-widening factors of typing-guards

SYSTEMS = (("atm.chor", "ATM_DEP"), ("atm.chor", "ATM_B1C"),
           ("pop2.chor", "POP_QUIT"), ("pop2.chor", "POP_FULL"),
           ("pop2_multiparty.chor", "POP_M_RUN"))
ENTRY_PROCS = {"atm.chor": ("B1", "B2"),
               "pop2.chor": ("Init", "CQuit", "CPop"),
               "pop2_multiparty.chor": ("InitP", "AuthYes", "CHelo", "Init2")}
PROJECTIONS = {"atm.chor": (("G_ATM", "bc"),),
               "pop2.chor": (("G_POP", "cs"),),
               "pop2_multiparty.chor": (("G_POP_P", "sca"), ("G_POP_M", "sca"))}
TRACE_GLOBALS = (("atm.chor", "G_ATM"), ("pop2.chor", "G_POP"),
                 ("pop2_multiparty.chor", "G_POP_P"),
                 ("pop2_multiparty.chor", "G_POP_M"))


@dataclass(frozen=True)
class Request:
    """One CLI invocation.  `key` names its expected answer: the command
    line with the corpus file by base name (a widened variant keeps the
    key of the corpus request it was made from)."""

    key: str
    argv: tuple
    input_id: str           # identity of the input, for the repeat share
    family: str | None = None
    source: str | None = None   # generated module text, for the law check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def corpus_request(words: list, family: str | None = None) -> Request:
    """A request on a corpus file; `words[1]` is the file's base name."""
    key = " ".join(words)
    argv = (words[0], str(CORPUS / words[1]), *words[2:])
    return Request(key, argv, key, family)


def file_request(key: str, words: list, path: Path, text: str,
                 family: str | None = None, source: str | None = None) -> Request:
    argv = (words[0], str(path), *words[2:])
    return Request(key, argv, f"{key} @{digest(text)}", family, source)


# ------------------------------------------------------------- cover-wsi

def cover_wsi_requests() -> list:
    reqs = []
    for k in ("1", "2"):
        reqs.append(corpus_request(["cover", "atm.chor", "--unfold", k]))
        reqs.append(corpus_request(["cover", "pop2.chor", "--unfold", k]))
        reqs.append(corpus_request(["cover", "pop2_multiparty.chor", "--global",
                                    "G_POP_P", "--unfold", k]))
        for name, procs in ENTRY_PROCS.items():
            for proc in procs:
                reqs.append(corpus_request(["wsi", name, "--proc", proc,
                                            "--unfold", k]))
    reqs.append(corpus_request(["cover", "pop2.chor", "--unfold", "3"]))
    reqs.append(corpus_request(["wsi", "pop2.chor", "--proc", "Init",
                                "--unfold", "3"]))
    return reqs


class CoverWsi:
    """Covering verdicts on the corpus at unfold bounds 1, 2 and 3."""

    name = "cover-wsi"
    tail = 0.75
    cycle_s = 10.0  # nominal seconds per cycle on a 2-core Xeon VM

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.requests = cover_wsi_requests()

    def cycle(self, n: int) -> list:
        reqs = list(self.requests)
        self.rng.shuffle(reqs)
        return reqs

    def notes(self) -> dict:
        return {}


# --------------------------------------------------------- typing-guards

_INT_DOMAIN = re.compile(r"^domain (\w+) : Int in (-?\d+)\.\.(-?\d+)$", re.M)
_STR_DOMAIN = re.compile(r"^domain (\w+) : Str in \{([^}]*)\}$", re.M)
_BOOL_DOMAIN = re.compile(r"^domain (\w+) : Bool$", re.M)


def widen(text: str, factors: dict, tag: str) -> tuple:
    """The module with each Int range and each Str value set scaled by
    its factor, and the size of the declared guard space (the product
    of the domain sizes).

    Expected answers carry over from the corpus by construction: every
    old value stays, the new Int values lie above the old range and the
    new strings are fresh.  The corpus guards test Int domains only by
    equality with an old value and Str domains only through tables
    whose default covers new values, so each guarded branch stays live
    or dead as before; no answer prints a domain value.
    """
    size = 1

    def int_domain(m):
        nonlocal size
        lo, hi = int(m.group(2)), int(m.group(3))
        width = (hi - lo + 1) * factors.get(m.group(1), 1)
        size *= width
        return f"domain {m.group(1)} : Int in {lo}..{lo + width - 1}"

    def str_domain(m):
        nonlocal size
        values = [v.strip() for v in m.group(2).split(",")]
        extra = len(values) * (factors.get(m.group(1), 1) - 1)
        values += [f'"{tag}{m.group(1)}{j}"' for j in range(extra)]
        size *= len(values) + 1  # the guard decider adds one "other" string
        return f"domain {m.group(1)} : Str in {{{', '.join(values)}}}"

    text = _INT_DOMAIN.sub(int_domain, text)
    text = _STR_DOMAIN.sub(str_domain, text)
    size *= 2 ** len(_BOOL_DOMAIN.findall(text))
    return text, size


def widenable(text: str) -> list:
    return sorted(m.group(1) for pattern in (_INT_DOMAIN, _STR_DOMAIN)
                  for m in pattern.finditer(text))


def typing_templates(name: str) -> list:
    """(key words) of the typing requests on one corpus module."""
    out = [["typecheck", name]]
    out += [["wsi", name, "--proc", p, "--mode", "typing"]
            for p in ENTRY_PROCS[name]]
    out += [["project", name, "--global", g, "--role", r]
            for g, roles in PROJECTIONS[name] for r in roles]
    return out


class TypingGuards:
    """Typing verdicts on the corpus, then on fresh widened variants.

    The seed orders the requests and names the new string values; every
    variant is a new file, so no input repeats."""

    name = "typing-guards"
    tail = 0.95
    cycle_s = 7.5

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.seed = seed
        self.workdir = workdir
        self.spaces = []

    def variant(self, name: str, n: int, factor: int) -> tuple:
        text = (CORPUS / name).read_text()
        factors = dict.fromkeys(widenable(text), factor)
        text, size = widen(text, factors, f"s{self.seed}c{n}f{factor}")
        path = self.workdir / f"{Path(name).stem}-c{n}-f{factor}.chor"
        path.write_text(text)
        self.spaces.append(size)
        return path, text

    def cycle(self, n: int) -> list:
        """Every factor once (and the corpus itself in the first cycle),
        so that runs of any seed and length see the same sizes."""
        reqs = []
        for factor in ((1,) if n == 0 else ()) + FACTORS:
            for name in ENTRY_PROCS:
                path, text = self.variant(name, n, factor)
                for words in typing_templates(name):
                    reqs.append(file_request(" ".join(words), words, path,
                                             text))
        self.rng.shuffle(reqs)
        return reqs

    def notes(self) -> dict:
        spaces = sorted(self.spaces)
        return {"guard_space_min": spaces[0], "guard_space_max": spaces[-1],
                "guard_space_median": spaces[len(spaces) // 2],
                "variants": len(spaces)}


# ------------------------------------------------------------ corpus-cli

_GUARD_ATOMS = ("x > 0", "x = 1", "x <= 2", "x != 3", "x >= 2", "flag",
                "not flag", "true", "false", "y = 0", "y < 2")
_CHANNELS = ("a", "b", "c", "d")
_SORTS = ("Int", "Str", "Bool", "")


def _gen_guard(rng: random.Random, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.55:
        return rng.choice(_GUARD_ATOMS)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return f"not ({_gen_guard(rng, depth - 1)})"
    return f"({_gen_guard(rng, depth - 1)}) {op} ({_gen_guard(rng, depth - 1)})"


def _gen_type(rng: random.Random, depth: int) -> str:
    kind = "end" if depth == 0 else rng.choice(
        ("end", "internal", "external", "internal", "external", "seq", "iter"))
    if kind == "end":
        return f"[{_gen_guard(rng)}] end"
    if kind in ("internal", "external"):
        pol, sep = ("!", " (+) ") if kind == "internal" else ("?", " (&) ")
        chans = rng.sample(_CHANNELS, rng.randint(1, 3))
        return sep.join(
            f"[{_gen_guard(rng)}] {ch}{pol}({rng.choice(_SORTS)}). "
            f"({_gen_type(rng, depth - 1)})" for ch in chans)
    if kind == "seq":
        return f"({_gen_type(rng, depth - 1)}) ; ({_gen_type(rng, depth - 1)})"
    return f"({_gen_type(rng, depth - 1)})*"


def generated_module(index: int) -> str:
    """Generated module `index` of the pool: guarded type declarations
    over two small finite domains."""
    rng = random.Random(1000 + index)
    lines = [f"// generated module {index} of the corpus-cli pool",
             "domain x : Int in 0..3", "domain y : Int in 0..2",
             "domain flag : Bool", ""]
    lines += [f"type G{index}_{i} = {_gen_type(rng, 2)}"
              for i in range(GEN_TYPES)]
    return "\n".join(lines) + "\n"


def corpus_cli_fixed() -> list:
    reqs = [corpus_request(["parse", name]) for name in
            ("atm.chor", "pop2.chor", "pop2_multiparty.chor", "norm_eqs.chor")]
    reqs.append(corpus_request(["normalize", "norm_eqs.chor"]))
    reqs += [corpus_request(["project", name, "--global", g, "--role", r])
             for name, projections in PROJECTIONS.items()
             for g, roles in projections for r in roles]
    reqs += [corpus_request(["traces", name, "--global", g, "--unfold", k,
                             "--json"], family="traces")
             for name, g in TRACE_GLOBALS for k in ("1", "2")]
    return reqs


def simulate_request(name: str, system: str, seed: int) -> Request:
    return corpus_request(["simulate", name, "--system", system, "--steps",
                           "200", "--seed", str(seed)], family="simulate")


class CorpusCli:
    """The rest of the CLI surface on the corpus and generated modules."""

    name = "corpus-cli"
    tail = 0.97
    cycle_s = 2.5

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.fixed = corpus_cli_fixed()
        self.gen_order = self.rng.sample(range(GEN_POOL), GEN_POOL)
        self.sim_order = self.rng.sample(range(SIM_POOL), SIM_POOL)
        self.generated = {}
        for i in range(GEN_POOL):
            text = generated_module(i)
            path = workdir / f"gen{i}.chor"
            path.write_text(text)
            self.generated[i] = file_request(
                f"normalize gen{i}.chor", ["normalize", f"gen{i}.chor"], path,
                text, family="normalize-generated", source=text)

    def cycle(self, n: int) -> list:
        reqs = list(self.fixed)
        reqs += [self.generated[self.gen_order[(2 * n + j) % GEN_POOL]]
                 for j in range(2)]
        seeds = [self.sim_order[(SIM_PER_CYCLE * n + j) % SIM_POOL]
                 for j in range(SIM_PER_CYCLE)]
        reqs += [simulate_request(name, system, s)
                 for name, system in SYSTEMS for s in seeds]
        self.rng.shuffle(reqs)
        return reqs

    def notes(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (CoverWsi, TypingGuards, CorpusCli)}


def all_recordable() -> list:
    """Every request whose output digest is recorded at the baseline."""
    reqs = cover_wsi_requests() + corpus_cli_fixed()
    reqs += [corpus_request(words) for name in ENTRY_PROCS
             for words in typing_templates(name)]
    reqs += [simulate_request(name, system, s)
             for name, system in SYSTEMS for s in range(SIM_POOL)]
    return list({r.key: r for r in reqs}.values())
