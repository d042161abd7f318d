"""Per-layer tracing of chorus_wsi from outside the package.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper wherever the original is looked up: in its own
module and in every chorus_wsi module that imported the name.  A layer
is a module (`syntax` is the parser, printer and substitution modules;
`syntax.ast` holds data types and is not traced).  Each call of a
wrapped function records a span (layer function, start, end, parent
span, request id) in memory; `write` saves them at the end of a run.

Self time is a span's duration minus the time its child spans cover.
A direct recursive call of the same function adds no span, so its time
stays with the outer call.  Two hot leaves are not spanned:
`guards.eval_expr` is only counted (once per evaluation, not per
sub-expression), and `traces.independent` is not wrapped at all, so
their time is self time of the calling span.
Methods of classes are not wrapped either.
"""

from __future__ import annotations

import inspect
import sys
import types
from time import perf_counter

LAYERS = {
    "chorus_wsi.syntax.parser": "syntax",
    "chorus_wsi.syntax.printer": "syntax",
    "chorus_wsi.syntax.subst": "syntax",
    "chorus_wsi.guards": "guards",
    "chorus_wsi.pseudotype": "pseudotype",
    "chorus_wsi.projection": "projection",
    "chorus_wsi.typecheck": "typecheck",
    "chorus_wsi.semantics": "semantics",
    "chorus_wsi.traces": "traces",
    "chorus_wsi.wsi": "wsi",
    "chorus_wsi.cli": "cli",
}
LAYER_NAMES = ("syntax", "guards", "pseudotype", "projection", "typecheck",
               "traces", "semantics", "wsi", "cli")
UNWRAPPED = {("chorus_wsi.traces", "independent")}
COUNTED = ("chorus_wsi.guards", "eval_expr")
RUN_SETS = ("runs_global", "runs_spec", "runs_impl")
TYPING_ENTRIES = ("typecheck_process", "typecheck_system")
MAX_SPANS = 500_000  # about 50 MB of spans; later ones are only counted


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.names = []        # "<module tail>.<function>" by function index
        self.layer = []        # layer name by function index
        self.self_s = []
        self.calls = []
        self.errors = dict.fromkeys(LAYER_NAMES, 0)
        self.stack = []        # open frames: [index, span, child time, evals]
        self.spans = []
        self.dropped = 0
        self._eval_calls = [0]  # a cell, cheaper to bump than an attribute
        self.unsat_hits = 0
        self.runs = dict.fromkeys(RUN_SETS, 0)
        self.contexts_tried = 0
        self.covering = [0, 0, 0]  # tried, started, exhausted: open covering
        self.finished_tried = 0    # contexts of coverings that returned
        self.contexts_kept = 0
        self.timed_out = 0     # requests whose counts were taken back
        self._mark = None
        self._rebound = []     # (module, attribute, original)

    # ---------------------------------------------------------- wrapping

    def install(self):
        wrappers = {}  # original function -> its wrapper
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != modname \
                        or (modname, name) in UNWRAPPED:
                    continue
                if (modname, name) == COUNTED:
                    wrappers[fn] = self._counted(fn)
                else:
                    wrappers[fn] = self._spanned(fn, name, modname, layer)
        for modname, module in list(sys.modules.items()):
            if modname != "chorus_wsi" and not modname.startswith("chorus_wsi."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    def _counted(self, fn):
        """Count the evaluations entered from outside `fn`.  The wrapper
        calls a copy of `fn` whose globals bind the name to the copy
        itself, so recursion over sub-expressions bypasses the wrapper
        (a wrapper on every node cost more than evaluating the node)."""
        namespace = dict(fn.__globals__)
        inner = types.FunctionType(fn.__code__, namespace, fn.__name__,
                                   fn.__defaults__, fn.__closure__)
        inner.__kwdefaults__ = fn.__kwdefaults__
        namespace[fn.__name__] = inner
        calls = self._eval_calls
        error = self._error

        def counted(*args, **kwargs):
            calls[0] += 1
            try:
                return inner(*args, **kwargs)
            except Exception as exc:
                error(exc, "guards")
                raise
        return counted

    def _spanned(self, fn, name, modname, layer):
        tracer = self
        index = len(self.names)
        self.names.append(f"{modname.rsplit('.', 1)[-1]}.{name}")
        self.layer.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        on_result = {
            "runs_global": self._count_runs, "runs_spec": self._count_runs,
            "runs_impl": self._count_runs,
            "synthesize_contexts": self._count_contexts,
            "wsi_by_covering": self._keep_contexts,
        }.get(name)
        is_unsat = modname == "chorus_wsi.guards" and name == "is_unsat"

        def spanned(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == index):
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            span = len(tracer.spans)
            if span < MAX_SPANS:
                tracer.spans.append(None)
            else:
                span = -1
                tracer.dropped += 1
            frame = [index, span, 0.0, tracer._eval_calls[0]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(exc, layer)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[index] += duration - frame[2]
                tracer.calls[index] += 1
                if stack:
                    stack[-1][2] += duration
                if span >= 0:
                    tracer.spans[span] = (index, start, end, parent,
                                          tracer.request)
            if is_unsat and tracer._eval_calls[0] == frame[3]:
                tracer.unsat_hits += 1
            if on_result is not None:
                result = on_result(name, result)
            return result
        return spanned

    def _error(self, exc, layer):
        seen = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def _count_runs(self, name, result):
        self.runs[name] += len(result)
        return result

    def _count_contexts(self, name, jobs):
        """Wrap each target's candidate generator: a context is tried when
        the generator yields it, and kept when the covering loop stops
        after it instead of running the generator to its end.  The counts
        of a covering stay open until `wsi_by_covering` returns."""
        open_ = self.covering
        open_[:] = [0, 0, 0]

        def counting(candidates):
            def gen():
                open_[1] += 1
                for iota in candidates():
                    open_[0] += 1
                    yield iota
                open_[2] += 1
            return gen
        return [(target, counting(candidates)) for target, candidates in jobs]

    def _keep_contexts(self, name, verdict):
        """A covering that returned a verdict: count the contexts that
        covered their target.  The contexts of one that raised or was
        stopped at the time limit count as tried (`end_request`) but stay
        out of the yield."""
        tried, started, exhausted = self.covering
        self.contexts_tried += tried
        self.finished_tried += tried
        self.contexts_kept += started - exhausted
        self.covering[:] = [0, 0, 0]
        return verdict

    def _state(self) -> tuple:
        return (list(self.self_s), list(self.calls), dict(self.errors),
                dict(self.runs), self._eval_calls[0], self.unsat_hits,
                self.contexts_tried, self.finished_tried, self.contexts_kept,
                len(self.spans), self.dropped)

    def begin_request(self, request: int):
        self.request = request
        self._mark = self._state()

    def end_request(self, finished: bool):
        """Close a request.  If it finished, count the contexts tried by a
        covering that raised.  If it was stopped at its time limit, take
        back everything it recorded, spans too, so that the metrics cover
        finished requests only."""
        self.stack.clear()
        if finished:
            self.contexts_tried += self.covering[0]
        else:
            (self.self_s, self.calls, self.errors, self.runs,
             self._eval_calls[0], self.unsat_hits, self.contexts_tried,
             self.finished_tried, self.contexts_kept, spans,
             self.dropped) = self._mark
            del self.spans[spans:]
            self.timed_out += 1
        self.covering[:] = [0, 0, 0]

    # ---------------------------------------------------------- metrics

    def _function_total(self, name: str, what: list) -> float:
        return sum(v for n, v in zip(self.names, what)
                   if n.split(".", 1)[1] == name)

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for layer, s in zip(self.layer, self.self_s):
            out[layer] += s
        return out

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics, per finished request where they are sums."""
        per = 1.0 / max(requests, 1)
        fself = lambda name: self._function_total(name, self.self_s) * per
        fcalls = lambda name: self._function_total(name, self.calls) * per
        layers = self.layer_self()
        render = sum(s for n, s in zip(self.names, self.self_s)
                     if n.startswith("printer."))
        unsat_calls = self._function_total("is_unsat", self.calls)
        m = {
            "syntax.parse_module.self_s": (fself("parse_module"), "s/req"),
            "syntax.parse_module.calls": (fcalls("parse_module"), "1/req"),
            "syntax.render.self_s": (render * per, "s/req"),
            "guards.self_s": (layers["guards"] * per, "s/req"),
            "guards.is_unsat.calls": (unsat_calls * per, "1/req"),
            "guards.is_unsat.hit_ratio": (
                self.unsat_hits / unsat_calls if unsat_calls else 0.0, "ratio"),
            "guards.eval_expr.calls": (self._eval_calls[0] * per, "1/req"),
            "pseudotype.self_s": (layers["pseudotype"] * per, "s/req"),
            "pseudotype.normal_form.calls": (fcalls("normal_form"), "1/req"),
            "projection.self_s": (layers["projection"] * per, "s/req"),
            "projection.project.calls": (fcalls("project"), "1/req"),
            "typecheck.self_s": (layers["typecheck"] * per, "s/req"),
            "typecheck.calls": (
                sum(fcalls(n) for n in TYPING_ENTRIES), "1/req"),
        }
        for name in RUN_SETS:
            m[f"traces.{name}.self_s"] = (fself(name), "s/req")
            m[f"traces.{name}.runs"] = (self.runs[name] * per, "1/req")
        m.update({
            "traces.covers.self_s": (fself("covers"), "s/req"),
            "traces.trace_leq.calls": (fcalls("trace_leq"), "1/req"),
            "semantics.self_s": (layers["semantics"] * per, "s/req"),
            "semantics.system_steps.calls": (fcalls("system_steps"), "1/req"),
            "wsi.self_s": (layers["wsi"] * per, "s/req"),
            "wsi.contexts_tried": (self.contexts_tried * per, "1/req"),
            "wsi.context_yield": (
                self.contexts_kept / self.finished_tried
                if self.finished_tried else 0.0, "ratio"),
            "cli.self_s": (layers["cli"] * per, "s/req"),
        })
        for layer in LAYER_NAMES:
            m[f"{layer}.errors"] = (self.errors[layer] * per, "1/req")
        return m

    def write(self, path):
        """Save the spans as tab-separated lines: function, start and end
        (seconds), parent span (-1 for a root) and request id."""
        with open(path, "w") as out:
            out.write("function\tstart\tend\tparent\trequest\n")
            for span in self.spans:
                if span is None:  # closed by a time limit, never finished
                    continue
                index, start, end, parent, request = span
                out.write(f"{self.names[index]}\t{start:.6f}\t{end:.6f}\t"
                          f"{parent}\t{request}\n")
