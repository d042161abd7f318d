"""Expected answers of the benchmark's requests, written by hand.

Each entry is keyed by the request as a user would type it, with the
corpus file named by its base name.  It gives the exit code, the lines
the answer must contain (`lines` exactly, `prefixes` as line starts)
and a one-line reason.  Output digests taken at the baseline live in
`digests.json` (written by `record.py`); a request is answered as
expected only when both agree.

`digest=False` marks a request with no baseline output (it times out
there).  `known_failure` marks a request that does not give its expected answer
at the baseline: the text is the exception that escapes `main` there.
Such a request still counts as failed; it stops counting once the
program gives the expected answer instead.

Widened variants (workload `typing-guards`) share the entry of the
corpus request they were made from, see `widen` in `workloads.py`.
"""

ATM_B2_TYPING = ("typing:   Rejected: VSend: VSend against an internal choice "
                 "with 2 live branches: the process only ever sends on "
                 "['ko'], the specification also allows ['ok'] (at session "
                 "of b / ?login / ?overdraft)")
POP_CQUIT_TYPING = ("typing:   Rejected: VSend: VSend against an internal "
                    "choice with 2 live branches: the process only ever sends "
                    "on ['quit'], the specification also allows ['helo'] (at "
                    "session of c)")


def _holds(role: str) -> str:
    return f"typing:   Holds (typing validates the role {role!r})"


COVER_COUNTS = {  # (global runs, specification runs) by file and unfold bound
    ("atm.chor", 1): (3, 6), ("atm.chor", 2): (3, 6),
    ("pop2.chor", 1): (7, 8), ("pop2.chor", 2): (464, 465),
    ("pop2_multiparty.chor", 1): (6, 7), ("pop2_multiparty.chor", 2): (463, 464),
}
COVER_GLOBAL = {"atm.chor": "", "pop2.chor": "",
                "pop2_multiparty.chor": " --global G_POP_P"}


def _cover_entries() -> dict:
    out = {}
    for (name, k), (g, s) in COVER_COUNTS.items():
        out[f"cover {name}{COVER_GLOBAL[name]} --unfold {k}"] = dict(
            exit=0,
            lines=[f"Holds@{k}: {g} global runs covered by {s} "
                   f"specification runs"],
            why="a projectable global type is covered by its own "
                "projections (criterion 4); the counts are the enumerated "
                "runs at this bound")
    out["cover pop2.chor --unfold 3"] = dict(
        exit=0, prefixes=["Holds@3: "], digest=False,
        why="the verdict cannot depend on K: deeper unfoldings only append "
            "optional segments; no digest, the baseline times out")
    return out


def _wsi_entries() -> dict:
    out = {}
    for k in (1, 2, 3):
        holds = {
            ("atm.chor", "B1", "b", 3): "B1 decides ok/ko on check(cred) and "
                                        "the cred domain reaches both",
            ("pop2.chor", "Init", "s", 6): "the full server answers every "
                                           "branch the client can take",
            ("pop2_multiparty.chor", "InitP", "s", 6): "the full server with "
                                                       "an outsourced authorizer",
            ("pop2_multiparty.chor", "AuthYes", "a", 6): "the authorizer "
                                                         "always answers true; "
                                                         "the server still "
                                                         "rejects a bad cred",
        }
        for (name, proc, role, ctx), why in holds.items():
            if k == 3 and proc != "Init":
                continue
            entry = dict(exit=0, lines=[_holds(role)], why=why)
            if k == 3:
                entry["prefixes"] = ["covering: Holds@3"]
                entry["digest"] = False
                entry["why"] += "; no digest, the baseline times out"
            else:
                entry["lines"].append(f"covering: Holds@{k} ({ctx} contexts)")
            out[f"wsi {name} --proc {proc} --unfold {k}"] = entry
        if k == 3:
            continue
        out[f"wsi atm.chor --proc B2 --unfold {k}"] = dict(
            exit=1,
            lines=[ATM_B2_TYPING,
                   "covering: MissingRun (c,login!Str) (b,login?Str) "
                   "(c,overdraft!Int) (b,overdraft?Int) (b,ok!Unit) "
                   "(c,ok?Unit): branch unreachable under declared domains"],
            why="B2 denies every overdraft, so the run through (b,ok!Unit) "
                "is dead")
        out[f"wsi pop2.chor --proc CQuit --unfold {k}"] = dict(
            exit=1,
            lines=[POP_CQUIT_TYPING,
                   "covering: MissingRun (c,helo!Str) (s,helo?Str) "
                   "(s,e!Unit) (c,e?Unit) (s,bye!Unit) (c,bye?Unit): branch "
                   "unreachable under declared domains"],
            why="CQuit only ever quits, so every run through (c,helo!Str) "
                "is dead")
        out[f"wsi pop2.chor --proc CPop --unfold {k}"] = dict(
            exit=0, lines=[_holds("c")], prefixes=[f"covering: Holds@{k}"],
            known_failure="Undefined: unbound variable 'wantquit'",
            why="CPop resolves every choice by a declared variable, so "
                "typing holds and covering must agree")
        out[f"wsi pop2_multiparty.chor --proc CHelo --unfold {k}"] = dict(
            exit=0, lines=[_holds("c")], prefixes=[f"covering: Holds@{k}"],
            known_failure="Undefined: unbound variable 'cred'",
            why="CHelo resolves every choice by a declared variable, so "
                "typing holds and covering must agree")
        out[f"wsi pop2_multiparty.chor --proc Init2 --unfold {k}"] = dict(
            exit=[1, 2], lines=[_holds("s")],
            known_failure="NonProjectable: cannot merge branches for "
                          "uninvolved 'a': shapes TEnd and TExternal do not "
                          "match (at <root>) (at <root>)",
            why="G_POP_M does not project on the authorizer, so covering "
                "must reject cleanly instead of raising")
    return out


def _typing_entries() -> dict:
    vsend = "VSend: VSend against an internal choice with 2 live branches: "
    out = {
        "typecheck atm.chor": dict(
            exit=1,
            lines=["B1: well typed", "CATM: well typed", "ATM_B1C: well typed"],
            prefixes=["B2: " + vsend, "CDep: " + vsend, "ATM_DEP: " + vsend],
            why="B2 never sends ok and CDep never asks for an overdraft; the "
                "corpus keeps both non-WSI processes on purpose"),
        "typecheck pop2.chor": dict(
            exit=1,
            lines=["Init: well typed", "CPop: well typed",
                   "POP_FULL: well typed"],
            prefixes=["CQuit: " + vsend, "POP_QUIT: " + vsend],
            why="CQuit never says helo, so it and POP_QUIT are rejected"),
        "typecheck pop2_multiparty.chor": dict(
            exit=0,
            lines=["Init2: well typed", "InitP: well typed",
                   "AuthYes: well typed", "CHelo: well typed",
                   "POP_M_RUN: well typed"],
            why="every declared process and system of the multiparty module "
                "is a full implementation"),
        "wsi atm.chor --proc B1 --mode typing": dict(
            exit=0, lines=[_holds("b")], why="B1 can send both ok and ko"),
        "wsi atm.chor --proc B2 --mode typing": dict(
            exit=1, lines=[ATM_B2_TYPING], why="B2 only ever sends ko"),
        "wsi pop2.chor --proc Init --mode typing": dict(
            exit=0, lines=[_holds("s")], why="the full server"),
        "wsi pop2.chor --proc CQuit --mode typing": dict(
            exit=1, lines=[POP_CQUIT_TYPING], why="CQuit only ever quits"),
        "wsi pop2.chor --proc CPop --mode typing": dict(
            exit=0, lines=[_holds("c")],
            why="every client choice is resolved by a declared variable"),
        "wsi pop2_multiparty.chor --proc InitP --mode typing": dict(
            exit=0, lines=[_holds("s")], why="the full server"),
        "wsi pop2_multiparty.chor --proc AuthYes --mode typing": dict(
            exit=0, lines=[_holds("a")],
            why="the authorizer's projection has no choice to cover"),
        "wsi pop2_multiparty.chor --proc CHelo --mode typing": dict(
            exit=0, lines=[_holds("c")],
            why="every client choice is resolved by a declared variable"),
        "wsi pop2_multiparty.chor --proc Init2 --mode typing": dict(
            exit=0, lines=[_holds("s")],
            why="typing checks the server against G_POP_M's projection on s, "
                "which exists"),
    }
    return out


PROJECT_STARTS = {
    ("atm.chor", "G_ATM", "b"): "login?(Str). (deposit?(Int). end (&) ",
    ("atm.chor", "G_ATM", "c"): "login!(Str). (deposit!(Int). end (+) ",
    ("pop2.chor", "G_POP", "c"): "quit!(). bye?(). end (+) helo!(Str). ",
    ("pop2.chor", "G_POP", "s"): "quit?(). bye!(). end (&) helo?(Str). ",
    ("pop2_multiparty.chor", "G_POP_P", "s"): "helo?(Str). req!(Str). "
                                              "res?(Bool). ",
    ("pop2_multiparty.chor", "G_POP_P", "c"): "helo!(Str). (e?(). ",
    ("pop2_multiparty.chor", "G_POP_P", "a"): "req?(Str). res!(Bool). end",
    ("pop2_multiparty.chor", "G_POP_M", "s"): "quit?(). bye!(). end (&) "
                                              "helo?(Str). req!(Str). ",
    ("pop2_multiparty.chor", "G_POP_M", "c"): "quit!(). bye?(). end (+) "
                                              "helo!(Str). ",
}


def _project_entries() -> dict:
    out = {}
    for (name, g, role), start in PROJECT_STARTS.items():
        out[f"project {name} --global {g} --role {role}"] = dict(
            exit=0, prefixes=[start],
            why=f"the projection of {g} on {role}, guards removed")
    out["project pop2_multiparty.chor --global G_POP_M --role a"] = dict(
        exit=1, prefixes=["not projectable: cannot merge branches for "
                          "uninvolved 'a'"],
        why="the authorizer takes part only in the helo branch of G_POP_M")
    return out


def _display_entries() -> dict:
    out = {}
    for name in ("atm.chor", "pop2.chor", "pop2_multiparty.chor",
                 "norm_eqs.chor"):
        out[f"parse {name}"] = dict(
            exit=0, why="the reprint is round-trip exact; digest only")
    out["normalize norm_eqs.chor"] = dict(
        exit=0,
        lines=["NF1_GUARDED_END = [x > 0] end",
               "NF2_ALL_PRUNED = [false] end",
               "NF2_PRUNE_INTERNAL = [x >= 0] b!(Int). [x >= 0] end",
               "NF8_ITER_SEQ = (a!(Int). end)* ; b!(Int). end",
               "NF9_ITER_COLLAPSE = [false] end"],
        why="one pseudo-type per normalization equation; x ranges over "
            "0..3, so x > 3 and x < 0 prune")
    return out


EXPECTED = {
    **_cover_entries(), **_wsi_entries(), **_typing_entries(),
    **_project_entries(), **_display_entries(),
}

# Requests whose expected answer depends on a generated input: the entry
# is shared by every input of the family (see `workloads.py`).
FAMILIES = {
    "simulate": dict(
        exit=0, prefixes=["terminated after "],
        why="a seeded random walk of a corpus system; every corpus system "
            "terminates within 200 steps"),
    "normalize-generated": dict(
        exit=0,
        why="each output is a fixed point of normal_form and equivalent to "
            "the input's normal form (criterion 3's laws)"),
    "traces": dict(
        exit=0, why="display of the global type's runs; digest only"),
}
