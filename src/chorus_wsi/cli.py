"""Command-line front end.

Exit codes: 0 on success (analysis holds), 1 on an analysis rejection
(typing error, covering failure, a global type that is not well formed,
not projectable or, on both paths, a fragment that uses channels it does
not take as parameters) or a `simulate` run stopped by an evaluation
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

Importing this module loads only what every well-formed request runs.
`parse_args` reads such a request from the `_COMMANDS` table itself and
hands every other command line to argparse, which words help, usage
and error texts but those of an invalid choice (`_invalid_choice`);
json, random and math are imported by the JSON output, `simulate` and
a count too long to print, which use them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .guards import DomainDecl, EvalError, Store
from .projection import NonProjectable, participants_ordered, project, well_formed
from .pseudotype import normal_form, remove_guards
from .semantics import step_process, system_steps, to_state
from .syntax import parse_module, render_module, render_type
from .syntax.ast import Event, GlobalDef, ModuleDecl, TRUE
from .syntax.parser import ParseError
from .traces import (
    IllFormed, projection_env, run_count, run_str, runs_global,
    runs_spec, sorted_run_strs, sorted_runs,
)
from .typecheck import (
    TypingError, fragment_problem, gamma_from_domains, shared_env,
    typecheck_process, typecheck_system,
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
    not well formed, not projectable or a fragment that uses channels it
    does not take as parameters, a role that is not a participant) as
    its lines, or under --json as {"rejected": [lines]}; exit 1."""
    if args.json:
        print(_json({"rejected": lines}))
    else:
        for line in lines:
            print(_bad(line))
    return 1


def _json(value, indent: int | None = 2) -> str:
    """`json.dumps(value, indent=indent)`: json is loaded by the first
    request that writes JSON, not by every request."""
    import json
    return json.dumps(value, indent=indent)


def _load(path: str) -> ModuleDecl:
    with open(path) as f:
        text = f.read()
    return parse_module(text)


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
            out = texts[item] = _json(run_to_json((item,))[0]).replace(
                "\n", "\n    ")
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
        print(_json({
            "domains": sorted(module.domains),
            "tables": sorted(module.tables),
            "globals": sorted(module.globals_),
            "types": sorted(module.types),
            "processes": sorted(module.processes),
            "systems": sorted(module.systems),
        }))
    else:
        try:
            text = render_module(module)
        except RecursionError:  # the printer recurses once or more per level
            raise UsageError(f"{args.file}: nesting too deep") from None
        print(text, end="")
    return 0


def cmd_project(args) -> int:
    module = _load(args.file)
    gdef = _the_global(module, args.global_name)
    g = gdef.body
    if args.role not in participants_ordered(g):
        return _rejected(args, [f"{args.role!r} is not a participant of "
                                f"{gdef.name}"])
    violations = well_formed(g)
    if violations:
        raise IllFormed(violations)
    local = remove_guards(normal_form(project(g, args.role)))
    if args.json:
        print(_json({"role": args.role, "type": render_type(local)}, indent=None))
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
        print(_json(out))
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
        if name not in (module.processes if kind == "process" else module.systems):
            raise UsageError(f"no {kind} named {name!r}")
        try:
            if kind == "process":
                decl = module.processes[name]
                gdef = module.globals_[decl.global_name] if decl.global_name \
                    else named or _the_global(module, None)
                shared = shared_env(gdef, decl.body)
                typecheck_process(gamma, TRUE, decl.body, shared, domains,
                                  judged=judged)
            else:
                body = module.systems[name].body
                # without --global, try each entry global until one fits
                last_error = None
                for gdef in system_global_candidates():
                    shared = shared_env(gdef, body)
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
        except TypingError as exc:
            results[name] = {"ok": False, **exc.to_json()}
            failures.append(name)
            if not args.json:
                print(_bad(f"{name}: {exc}"))
    if args.json:
        print(_json(results))
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    import random
    module = _load(args.file)
    # the seeded store draws a value for the aliases of the system's bodies
    domains = DomainDecl.from_module(module, (args.system,))
    if args.system not in module.systems:
        raise UsageError(f"no system named {args.system!r}")
    named = _the_global(module, args.global_name) if args.global_name else None
    state = to_state(module.systems[args.system].body)
    rng = random.Random(args.seed)
    init_vars = {
        var: sorted(values, key=str)[rng.randrange(len(values))]
        for var, values in sorted(domains.domains.items())
    }
    store = Store(vars=init_vars, tables=domains.tables)

    trace, error = [], None
    try:
        participants = _participants(module, named, state, store)
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
        with open(args.trace, "w") as f:
            f.write(_json(trace) + "\n")
    if args.json:
        result = {"terminated": terminated, "steps": trace}
        if error:
            result["error"] = error
        print(_json(result))
    else:
        for entry in trace:
            print(f"[{entry['component']}] {entry['label']}")
        print(("terminated" if terminated else "stopped")
              + f" after {len(trace)} steps" + (f": {error}" if error else ""))
    return 1 if error else 0


def _participants(module: ModuleDecl, named: GlobalDef | None, state,
                  store: Store) -> dict:
    """The participant each component plays, read from the session it
    can open first: an acceptor's role, or the first participant of the
    named global, else of the entry global, for a requester.  Where no
    global is named and the module has no entry global or several, a
    requester plays no participant."""
    out = {}
    for pid, stack, _ in state.procs:
        for action, _, _ in step_process(stack, store, lambda _: ()):
            if action.kind == "acc":
                out[pid] = action.role
            elif action.kind == "req":
                try:
                    gdef = named or _the_global(module, None)
                except UsageError:
                    continue
                out[pid] = participants_ordered(gdef.body)[0]
    return out


def cmd_traces(args) -> int:
    module = _load(args.file)
    gdef = _the_global(module, args.global_name)
    g = gdef.body
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
    import math
    e = int(math.log10(n)) - 4
    lead = (n >> e) // 5 ** e  # n // 10^e
    if not 10_000 <= lead < 100_000:  # the float log was one out
        e += 1 if lead >= 100_000 else -1
        lead = (n >> e) // 5 ** e
    return f"{lead // 10_000}.{lead % 10_000:04d}e+{e + 4}"


def cmd_cover(args) -> int:
    module = _load(args.file)
    gdef = _the_global(module, args.global_name)
    if problem := fragment_problem(gdef):
        return _rejected(args, [problem])
    g = gdef.body
    # the search takes its targets from the runs at bound 1, the skeletons
    # at every bound; only the counts depend on the bound.  runs_global
    # rejects an ill-formed g before anything projects it
    rg = runs_global(g, 1)
    spec = projection_env(gdef)
    n_global = len(rg) if args.unfold == 1 else _count(run_count(
        lambda algebra: runs_global(g, args.unfold, algebra)))
    n_spec = _count(run_count(lambda algebra: runs_spec(
        spec, gdef.params, args.unfold, algebra)))
    verdict = projections_cover(gdef, spec, sorted_runs(rg))
    code = 0 if verdict.holds() else 3 if verdict.inconclusive else 1
    if args.json:
        payload = {"holds": verdict.holds(), "global-runs": n_global,
                   "spec-runs": n_spec}
        if not verdict.holds():
            payload["missing"] = run_to_json(verdict.missing)
        if verdict.inconclusive:
            payload["inconclusive"] = True
        print(_json(payload))
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
    role = args.role or decl.role
    if role is None:
        raise UsageError("give --role or declare 'plays' on the process")

    payload = {}
    code = 0
    if args.mode in ("typing", "both"):
        verdict = wsi_by_typing(gdef, role, decl.body, domains)
        payload["typing"] = {"holds": verdict.holds(),
                             "detail": str(verdict)}
        if not args.json:
            print("typing:   " + (_ok(str(verdict)) if verdict.holds()
                                  else _bad(str(verdict))))
        code = code or (0 if verdict.holds() else 1)
    if args.mode in ("covering", "both"):
        verdict = wsi_by_covering(gdef, role, decl.body, domains)
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
        print(_json(payload))
    return code


# ------------------------------------------------------------------- parser

def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, "
                                         f"got {text!r}")
    return value


def _invalid_choice(value: str, choices) -> str:
    """argparse's invalid-choice text as Python 3.11 words it: later
    patch releases print the choices without quotes."""
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


_MODES = ("typing", "covering", "both")


def _mode(text: str) -> str:
    if text not in _MODES:
        import argparse
        raise argparse.ArgumentTypeError(_invalid_choice(text, _MODES))
    return text


_GLOBAL = ("--global", {"dest": "global_name",
                        "help": "entry global type (default: the unique one)"})
_UNFOLD = {"type": _positive, "default": 2, "metavar": "K"}
# name -> (handler, help, arguments after the file and --json, in order)
_COMMANDS = {
    "parse": (cmd_parse, "parse and reprint a module", ()),
    "project": (cmd_project, "project a global type on a role",
                (_GLOBAL, ("--role", {"required": True}))),
    "normalize": (cmd_normalize, "normal forms of declared types",
                  (("--type", {"dest": "type_name"}),)),
    "typecheck": (cmd_typecheck, "typecheck processes and systems",
                  (_GLOBAL, ("--proc", {}), ("--system", {}))),
    "simulate": (cmd_simulate, "seeded execution of a system", (
        _GLOBAL, ("--seed", {"type": int, "default": 0, "metavar": "S"}),
        ("--steps", {"type": _positive, "default": 200, "metavar": "N"}),
        ("--system", {"required": True}),
        ("--trace", {"metavar": "OUT.json"}))),
    "traces": (cmd_traces, "annotated runs of a global type", (_GLOBAL, (
        "--unfold", {**_UNFOLD, "help": "iterations unfolded at most K times"}))),
    "cover": (cmd_cover, "check runs(G) covered by its projections", (
        _GLOBAL, ("--unfold", {**_UNFOLD, "help": "iterations unfolded at "
                               "most K times in the runs counted"}))),
    "wsi": (cmd_wsi, "whole-spectrum implementation verdicts", (
        _GLOBAL, ("--role", {}),
        ("--unfold", {**_UNFOLD, "help": "the bound a covering Holds is "
                      "reported at (Holds@K); the verdict does not "
                      "depend on it"}),
        ("--mode", {"type": _mode, "default": "both",
                    "metavar": "{%s}" % ",".join(_MODES)}),
        ("--proc", {"required": True}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser."""
    import argparse
    top = argparse.ArgumentParser(
        prog="chorus-wsi",
        description="Choreography projection, guard-sensitive session "
                    "typing, and whole-spectrum implementation checking.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="a .chor module")
        p.add_argument("--json", action="store_true", help="machine output")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func, command=name)
    # a fixed usage text, since argparse wraps the built one differently
    # from one Python version to the next; set after the subcommands,
    # whose own usage lines start from the top parser's
    pad = "\n" + " " * len("usage: chorus-wsi ")
    top.usage = "%(prog)s [-h]" + pad + "{%s}" % ",".join(_COMMANDS) + pad + "..."
    return top


def _read(argv: list) -> SimpleNamespace | None:
    """The request `argv`, whose first word names a subcommand, with the
    values its parser gives it; or None, where that parser may read it
    otherwise or refuse it: a word starting with "-" that is no flag of
    the subcommand, a value that starts with "-" or fails its
    conversion, a second file, or a file or required option left out."""
    func, _, arguments = _COMMANDS[argv[0]]
    flags = {flag: (options.get("dest", flag[2:]), options)
             for flag, options in arguments}
    args = {dest: options.get("default") for dest, options in flags.values()}
    args.update(command=argv[0], func=func, json=False)
    words = iter(argv[1:])
    for word in words:
        if word == "--json":
            args["json"] = True
        elif word in flags:
            dest, options = flags[word]
            text = next(words, "-")  # a missing value reads as a flag
            if text.startswith("-"):
                return None
            try:
                args[dest] = options.get("type", str)(text)
            except Exception:  # argparse words the error, or raises it again
                return None
        elif word.startswith("-") or "file" in args:
            return None
        else:
            args["file"] = word
    if "file" not in args or any(options.get("required") and args[dest] is None
                                 for dest, options in flags.values()):
        return None
    return SimpleNamespace(**args)


def parse_args(argv: list) -> SimpleNamespace | argparse.Namespace:
    """The request `argv` names, with the values that
    `build_parser().parse_args(argv)` gives it.  `_read` reads the
    well-formed request from the flags, types, defaults and required
    options of `_COMMANDS`, as argparse would, without importing it.
    Whatever `_read` leaves (help, an error, "--", an abbreviated flag,
    "--flag=value", a value starting with "-") goes to argparse, which
    words every help, usage and error text but the invalid choices: a
    first word that names no subcommand, and a `--mode` that is no
    mode, are worded by `_invalid_choice` on every Python version."""
    if argv and argv[0] in _COMMANDS:
        args = _read(argv)
        if args is not None:
            return args
    elif argv and not argv[0].startswith("-"):  # argparse reads it as the command
        build_parser().error("argument command: "
                             + _invalid_choice(argv[0], _COMMANDS))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
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
