"""Command-line front end.

Exit codes: 0 on success (analysis holds), 1 on an analysis rejection
(typing error, covering failure, a global type that is not well formed
or not projectable) or a `simulate` run stopped by an evaluation
error, 2 on usage or parse errors and on an evaluation error elsewhere
(a guard that no declared domain decides, as `normalize` meets it;
typing rejects such a guard instead), 3 when
the covering search of `cover` or `wsi` is inconclusive (no witness for
a skeleton, but a send onto a queue holding `wsi.QUEUE_BOUND` messages
was skipped; under `wsi --mode both` a rejection by typing still exits
1).  Usage errors name something the module does not declare (a global,
process, system or type), leave the entry global missing or ambiguous,
give no role, or pass a bound below 1; `parse` also exits 2 on a module
that parses but nests too deep to print.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from .guards import DomainDecl, EvalError, Store
from .projection import NonProjectable, participants_ordered, project, well_formed
from .pseudotype import normal_form, remove_guards
from .semantics import step_process, system_steps, to_state
from .syntax import parse_module, render_module, render_type
from .syntax.ast import Event, GlobalDef, ModuleDecl, TRUE, fU
from .syntax.parser import ParseError
from .traces import (
    IllFormed, projection_env, run_count, run_str, runs_global, runs_spec,
    sorted_run_strs, sorted_runs,
)
from .typecheck import (
    TypingError, gamma_from_domains, instantiate, typecheck_process,
    typecheck_system,
)
from .wsi import projections_cover, wsi_by_covering, wsi_by_typing


class UsageError(Exception):
    """A request the module cannot answer as asked (exit status 2)."""


def _color(text: str, code: str) -> str:
    if os.environ.get("CHORUS_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _ok(text: str) -> str:
    return _color(text, "32")


def _bad(text: str) -> str:
    return _color(text, "31")


def _rejected(args, lines: list) -> int:
    """Print a rejection made before any analysis (a global type that is
    not well formed or not projectable, a role that is not a participant)
    as its lines, or under --json as {"rejected": [lines]}; exit 1."""
    if args.json:
        print(json.dumps({"rejected": lines}, indent=2))
    else:
        for line in lines:
            print(_bad(line))
    return 1


def _load(path: str) -> ModuleDecl:
    return parse_module(Path(path).read_text())


def _the_global(module: ModuleDecl, name: str | None) -> GlobalDef:
    if name is not None:
        if name not in module.globals_:
            raise UsageError(f"no global type named {name!r}")
        return module.globals_[name]
    entries = [g for g in module.globals_.values() if g.params]
    if not entries:
        raise UsageError("module declares no entry global")
    if len(entries) > 1:
        raise UsageError("module declares several entry globals; "
                         "pick one with --global")
    return entries[0]


def _shared_env(gdef: GlobalDef, term) -> dict:
    return {u: gdef for u in fU(term)}


def run_to_json(run: tuple) -> list:
    out = []
    for item in run:
        if isinstance(item, Event):
            out.append({"p": item.participant, "dir": item.polarity,
                        "chan": item.channel, "sort": str(item.sort)})
        else:
            out.append({"opt": run_to_json(item.items)})
    return out


def runs_json(runs) -> str:
    """`json.dumps([run_to_json(r) for r in runs], indent=2)`, written
    one distinct run item at a time: the runs of a global type repeat a
    few dozen events and optional segments thousands of times, and the
    indenting encoder is pure Python."""
    texts = {}

    def text(item) -> str:
        out = texts.get(item)
        if out is None:  # nested at depth 2: indent each line 4 more
            out = texts[item] = json.dumps(run_to_json((item,))[0],
                                           indent=2).replace("\n", "\n    ")
        return out

    if not runs:
        return "[]"
    return "[\n" + ",\n".join(
        "  [\n    " + ",\n    ".join(map(text, run)) + "\n  ]" if run
        else "  []" for run in runs) + "\n]"


# ---------------------------------------------------------------- commands

def cmd_parse(args) -> int:
    module = _load(args.file)
    if args.json:
        print(json.dumps({
            "domains": sorted(module.domains),
            "tables": sorted(module.tables),
            "globals": sorted(module.globals_),
            "types": sorted(module.types),
            "processes": sorted(module.processes),
            "systems": sorted(module.systems),
        }, indent=2))
    else:
        try:
            text = render_module(module)
        except RecursionError:  # the printer recurses once or more per level
            raise UsageError(f"{args.file}: nesting too deep") from None
        print(text, end="")
    return 0


def cmd_project(args) -> int:
    module = _load(args.file)
    domains = DomainDecl.from_module(module)
    gdef = _the_global(module, args.global_name)
    g = instantiate(gdef, gdef.params)
    if args.role not in participants_ordered(g):
        return _rejected(args, [f"{args.role!r} is not a participant of "
                                f"{gdef.name}"])
    violations = well_formed(g)
    if violations:
        raise IllFormed(violations)
    local = remove_guards(normal_form(project(g, args.role), domains))
    if args.json:
        print(json.dumps({"role": args.role, "type": render_type(local)}))
    else:
        print(render_type(local))
    return 0


def cmd_normalize(args) -> int:
    module = _load(args.file)
    domains = DomainDecl.from_module(module)
    names = [args.type_name] if args.type_name else sorted(module.types)
    out = {}
    for name in names:
        if name not in module.types:
            raise UsageError(f"no type named {name!r}")
        out[name] = render_type(normal_form(module.types[name], domains))
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for name in names:
            print(f"{name} = {out[name]}")
    return 0


def cmd_typecheck(args) -> int:
    module = _load(args.file)
    targets = []
    if args.proc:
        targets.append(("process", args.proc))
    if args.system:
        targets.append(("system", args.system))
    if not targets:
        targets = [("process", n) for n, d in module.processes.items() if d.role]
        targets += [("system", n) for n in module.systems]
    domains = DomainDecl.from_module(module, [name for _, name in targets])
    gamma = gamma_from_domains(domains)
    failures = []
    results = {}

    named = _the_global(module, args.global_name) if args.global_name else None
    entry_globals = [g for g in module.globals_.values() if g.params]
    # one judgement table for the request: a system's renamed copy of a
    # process judged well typed above is not judged again
    judged = {}

    def system_global_candidates():
        if named:
            return [named]
        return entry_globals or [_the_global(module, None)]

    for kind, name in targets:
        try:
            if kind == "process":
                decl = module.processes[name]
                gdef = module.globals_[decl.global_name] if decl.global_name \
                    else named or _the_global(module, None)
                shared = _shared_env(gdef, decl.body)
                typecheck_process(gamma, TRUE, decl.body, shared, domains,
                                  judged=judged)
            else:
                body = module.systems[name].body
                # without --global, try each entry global until one fits
                last_error = None
                for gdef in system_global_candidates():
                    shared = _shared_env(gdef, body)
                    try:
                        typecheck_system(gamma, TRUE, body, shared, domains,
                                         judged=judged)
                        last_error = None
                        break
                    except TypingError as exc:
                        last_error = exc
                if last_error is not None:
                    raise last_error
            results[name] = {"ok": True}
            if not args.json:
                print(_ok(f"{name}: well typed"))
        except KeyError:
            raise UsageError(f"no {kind} named {name!r}")
        except TypingError as exc:
            results[name] = {"ok": False, **exc.to_json()}
            failures.append(name)
            if not args.json:
                print(_bad(f"{name}: {exc}"))
    if args.json:
        print(json.dumps(results, indent=2))
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    module = _load(args.file)
    # the seeded store draws a value for the aliases of the system's bodies
    domains = DomainDecl.from_module(module, (args.system,))
    if args.system not in module.systems:
        raise UsageError(f"no system named {args.system!r}")
    state = to_state(module.systems[args.system].body)
    rng = random.Random(args.seed)
    init_vars = {
        var: sorted(values, key=str)[rng.randrange(len(values))]
        for var, values in sorted(domains.domains.items())
    }
    store = Store(vars=init_vars, tables=domains.tables)

    trace, error = [], None
    try:
        participants = _participants(module, args.global_name, state, store)
        for _ in range(args.steps):
            succ = system_steps(state, store)
            if not succ:
                break
            component, action, state2, store2 = succ[rng.randrange(len(succ))]
            delta_vars = {k: str(v) for k, v in store2.vars.items()
                          if store.vars.get(k) != v}
            entry = {"label": str(action),
                     "component": component,
                     "store-delta": delta_vars}
            if component in participants:
                entry["participant"] = participants[component]
            trace.append(entry)
            state, store = state2, store2
    except EvalError as exc:
        error = f"evaluation error: {exc}"
    terminated = state.is_terminated()
    if args.trace:
        Path(args.trace).write_text(json.dumps(trace, indent=2) + "\n")
    if args.json:
        result = {"terminated": terminated, "steps": trace}
        if error:
            result["error"] = error
        print(json.dumps(result, indent=2))
    else:
        for entry in trace:
            print(f"[{entry['component']}] {entry['label']}")
        print(("terminated" if terminated else "stopped")
              + f" after {len(trace)} steps" + (f": {error}" if error else ""))
    return 1 if error else 0


def _participants(module: ModuleDecl, global_name: str | None, state,
                  store: Store) -> dict:
    """The participant each component plays, read from the session it
    can open first: an acceptor's role, or the entry global's first
    participant for a requester."""
    out = {}
    for pid, proc in state.procs:
        for action, _, _ in step_process(proc, store, lambda _: ()):
            if action.kind == "acc":
                out[pid] = action.role
            elif action.kind == "req":
                try:
                    gdef = _the_global(module, global_name)
                except UsageError:
                    continue
                out[pid] = participants_ordered(instantiate(gdef, gdef.params))[0]
    return out


def cmd_traces(args) -> int:
    module = _load(args.file)
    gdef = _the_global(module, args.global_name)
    g = instantiate(gdef, gdef.params)
    runs = runs_global(g, args.unfold)
    if args.json:
        print(runs_json(sorted_runs(runs)))
    else:
        for line in sorted_run_strs(runs):
            print(line)
        print(f"{len(runs)} runs at unfold bound {args.unfold}")
    return 0


# Python converts an int of at most 4,300 digits to decimal and refuses a
# longer one; a full conversion of one is quadratic anyway
_PRINTABLE_COUNT = 10 ** 4300


def _count(n: int):
    """A run count as printed: n itself below 10^4300, and past that the
    string "d.dddde+N", its first five digits (cut, not rounded) and its
    exponent."""
    if n < _PRINTABLE_COUNT:
        return n
    e = int(math.log10(n)) - 4
    lead = (n >> e) // 5 ** e  # n // 10^e
    if not 10_000 <= lead < 100_000:  # the float log was one out
        e += 1 if lead >= 100_000 else -1
        lead = (n >> e) // 5 ** e
    return f"{lead // 10_000}.{lead % 10_000:04d}e+{e + 4}"


def cmd_cover(args) -> int:
    module = _load(args.file)
    domains = DomainDecl.from_module(module)
    gdef = _the_global(module, args.global_name)
    g = instantiate(gdef, gdef.params)
    # the search takes its targets from the runs at bound 1, the skeletons
    # at every bound; only the counts depend on the bound.  runs_global
    # rejects an ill-formed g before anything projects it
    rg = runs_global(g, 1)
    delta = projection_env(gdef, domains)
    n_global = len(rg) if args.unfold == 1 else _count(run_count(
        lambda algebra: runs_global(g, args.unfold, algebra)))
    n_spec = _count(run_count(lambda algebra: runs_spec(
        delta, gdef.params, args.unfold, domains, algebra)))
    verdict = projections_cover(gdef, delta, sorted_runs(rg), domains)
    code = 0 if verdict.holds() else 3 if verdict.inconclusive else 1
    if args.json:
        payload = {"holds": verdict.holds(), "global-runs": n_global,
                   "spec-runs": n_spec}
        if not verdict.holds():
            payload["missing"] = run_to_json(verdict.missing)
        if verdict.inconclusive:
            payload["inconclusive"] = True
        print(json.dumps(payload, indent=2))
    elif verdict.holds():
        print(_ok(f"Holds@{args.unfold}: {n_global} global runs covered by "
                  f"{n_spec} specification runs"))
    elif verdict.inconclusive:
        print(_bad(f"Inconclusive: {run_str(verdict.missing)}: {verdict.reason}"))
    else:
        print(_bad(f"MissingRun: {run_str(verdict.missing)}"))
    return code


def cmd_wsi(args) -> int:
    module = _load(args.file)
    domains = DomainDecl.from_module(module, (args.proc,))
    if args.proc not in module.processes:
        raise UsageError(f"no process named {args.proc!r}")
    decl = module.processes[args.proc]
    # an unknown --global is refused even where the process plays a global
    named = _the_global(module, args.global_name) if args.global_name else None
    gdef = module.globals_[decl.global_name] if decl.global_name \
        else named or _the_global(module, None)
    shared_name = min(fU(decl.body), default=None)
    role = args.role or decl.role
    if role is None:
        raise UsageError("give --role or declare 'plays' on the process")

    payload = {}
    code = 0
    if args.mode in ("typing", "both"):
        verdict = wsi_by_typing(gdef, role, decl.body, domains, shared_name)
        payload["typing"] = {"holds": verdict.holds(),
                             "detail": str(verdict)}
        if not args.json:
            print("typing:   " + (_ok(str(verdict)) if verdict.holds()
                                  else _bad(str(verdict))))
        code = code or (0 if verdict.holds() else 1)
    if args.mode in ("covering", "both"):
        verdict = wsi_by_covering(gdef, role, decl.body, domains,
                                  shared_name=shared_name)
        # covering does not depend on the unfold bound: it only labels a Holds
        detail = (f"Holds@{args.unfold} ({len(verdict.contexts)} contexts)"
                  if verdict.holds() else str(verdict))
        payload["covering"] = {"holds": verdict.holds(), "detail": detail}
        if not verdict.holds() and verdict.missing:
            payload["covering"]["missing"] = run_to_json(verdict.missing)
        if not args.json:
            print("covering: " + (_ok(detail) if verdict.holds()
                                  else _bad(detail)))
        code = code or (0 if verdict.holds() else
                        3 if verdict.inconclusive else 1)
    if args.json:
        print(json.dumps(payload, indent=2))
    return code


# ------------------------------------------------------------------- parser

def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, "
                                         f"got {text!r}")
    return value


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with only the subcommand named `only`, or
    with all of them when `only` names none.  Building all eight
    subcommand parsers takes about 2 ms, a fifth of a short request, so
    `main` asks for the one its first argument names.  The metavar then
    keeps all eight names in the usage line that an `unrecognized
    arguments` error prints; the full parser leaves it unset, so that
    its errors still call the list `command`."""
    glob = ("--global", {"dest": "global_name",
                         "help": "entry global type (default: the unique one)"})
    unfold = {"type": _positive, "default": 2, "metavar": "K"}
    # name -> (handler, help, arguments after the file and --json, in order)
    commands = {
        "parse": (cmd_parse, "parse and reprint a module", ()),
        "project": (cmd_project, "project a global type on a role",
                    (glob, ("--role", {"required": True}))),
        "normalize": (cmd_normalize, "normal forms of declared types",
                      (("--type", {"dest": "type_name"}),)),
        "typecheck": (cmd_typecheck, "typecheck processes and systems",
                      (glob, ("--proc", {}), ("--system", {}))),
        "simulate": (cmd_simulate, "seeded execution of a system", (
            glob, ("--seed", {"type": int, "default": 0, "metavar": "S"}),
            ("--steps", {"type": _positive, "default": 200, "metavar": "N"}),
            ("--system", {"required": True}),
            ("--trace", {"metavar": "OUT.json"}))),
        "traces": (cmd_traces, "annotated runs of a global type", (glob, (
            "--unfold", {**unfold,
                         "help": "iterations unfolded at most K times"}))),
        "cover": (cmd_cover, "check runs(G) covered by its projections", (
            glob, ("--unfold", {**unfold, "help": "iterations unfolded at "
                                "most K times in the runs counted"}))),
        "wsi": (cmd_wsi, "whole-spectrum implementation verdicts", (
            glob, ("--role", {}),
            ("--unfold", {**unfold, "help": "the bound a covering Holds is "
                          "reported at (Holds@K); the verdict does not "
                          "depend on it"}),
            ("--mode", {"choices": ("typing", "covering", "both"),
                        "default": "both"}),
            ("--proc", {"required": True}))),
    }
    top = argparse.ArgumentParser(
        prog="chorus-wsi",
        description="Choreography projection, guard-sensitive session "
                    "typing, and whole-spectrum implementation checking.")
    one = only in commands
    sub = top.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(commands) if one else None))
    for name, (func, text, arguments) in commands.items():
        if not one or name == only:
            p = sub.add_parser(name, help=text)
            p.add_argument("file", help="a .chor module")
            p.add_argument("--json", action="store_true", help="machine output")
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    # a fixed usage text, since argparse wraps the built one differently
    # from one Python version to the next; set after the subcommands,
    # whose own usage lines start from the top parser's
    pad = "\n" + " " * len("usage: chorus-wsi ")
    top.usage = "%(prog)s [-h]" + pad + "{%s}" % ",".join(commands) + pad + "..."
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except IllFormed as exc:
        return _rejected(args, [str(v) for v in exc.violations])
    except NonProjectable as exc:
        return _rejected(args, [f"not projectable: {exc}"])
    except ParseError as exc:
        print(_bad(f"{args.file}:{exc}"), file=sys.stderr)
        return 2
    # a file that cannot be read or written, a request the module cannot
    # answer, or a guard that no declared domain decides
    except (OSError, UsageError, EvalError) as exc:
        print(_bad(f"error: {exc}"), file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(_bad(f"error: {args.file}: {exc}"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
