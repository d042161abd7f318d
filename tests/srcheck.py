"""Seeded subject-reduction fuzzing.

Each run drives one well-typed process with random scheduling and
random well-sorted inputs, and checks at every step that the
specification answers it according to the subject-reduction clauses:

(1) inputs: the specification offers an input on the same channel; if
    the received value has the expected sort, the residual process
    re-typechecks and the store stays consistent;
(2) outputs: the specification offers an output of the value's sort on
    the same channel, and the residual re-typechecks as in (1);
(3) everything else (session requests/accepts and silent steps) is
    matched by the corresponding specification step.

Residual judgements are compared to the specification's successor
pointwise per session, after guard erasure and normalization.
"""

from __future__ import annotations

import functools
import random

from chorus_wsi.guards import DomainDecl, Store
from chorus_wsi.projection import channel_sorts
from chorus_wsi.pseudotype import normal_form, remove_guards
from chorus_wsi.semantics import push, step_process
from chorus_wsi.syntax.ast import NIL, TRUE, Seq, conj
from chorus_wsi.syntax.printer import render_type
from chorus_wsi.typecheck import (
    gamma_from_domains, instantiate, typecheck_process,
)

from conformance_reference import SpecEnv, consistent, step_spec
from pseudotype_laws import sort_branches


class SRViolation(AssertionError):
    pass


def _erased(t, domains):
    # erase guards before normalizing: normalization of the guarded
    # type would propagate already-taken branch conditions into the
    # sequel and prune futures the specification still lists
    return render_type(sort_branches(normal_form(remove_guards(t), domains)))


def _session_views(delta: SpecEnv, domains):
    return {key: _erased(t, domains) for key, t in delta.sessions}


def _process(stack: tuple):
    """The process that runs the terms of stack in sequence: the spine
    that reassociating to the right and dropping 0 gives."""
    if not stack:
        return NIL
    return functools.reduce(lambda rest, t: Seq(t, rest), reversed(stack[:-1]),
                            stack[-1])


def fuzz_run(module, domains: DomainDecl, shared: dict, proc, seed: int,
             max_steps: int = 50) -> int:
    """One seeded execution; returns the number of steps taken and
    raises SRViolation on any clause failure."""
    rng = random.Random(seed)
    gamma = gamma_from_domains(domains)
    init_vars = {var: rng.choice(sorted(values, key=str))
                 for var, values in sorted(domains.domains.items())}
    store = Store(vars=init_vars, tables=domains.tables)
    opened = {}  # shared name -> the channels its latest open bound
    delta = SpecEnv.make(shared, typecheck_process(gamma, TRUE, proc, shared,
                                                  domains), {})
    candidates = {delta}
    assumption = TRUE
    session = None  # ((chans, role), chan -> sort)
    p = push(proc)
    steps = 0

    from chorus_wsi.syntax.ast import UNIT, UNIT_LIT, int_lit

    inject_ill_at = rng.randrange(max_steps)

    for step_no in range(max_steps):
        def oracle(channel):
            if session is None:
                return []
            sort = session[1].get(channel)
            if not sort:
                return []
            values = list(domains.values_of_sort(sort))
            if step_no == inject_ill_at:
                # one ill-sorted candidate: the specification must still
                # offer the input, but nothing is claimed afterwards
                values.append(int_lit(-99) if sort == UNIT else UNIT_LIT)
            return values

        succ = step_process(p, store, oracle)
        if not succ:
            break
        label, p2, store2 = succ[rng.randrange(len(succ))]
        steps += 1

        hint = None
        if label.kind in ("req", "acc"):
            hint = {label.shared: label.chans}
        answers = []
        for d in candidates:
            for slabel, d2 in step_spec(d, domains, hint):
                if label.kind == "in":
                    if slabel.kind == "in" and slabel.channel == label.channel:
                        answers.append((slabel, d2))
                elif label.kind == "out":
                    if slabel.kind == "out" and slabel.channel == label.channel \
                            and slabel.sort == label.value.sort:
                        answers.append((slabel, d2))
                elif label.kind == "req":
                    if slabel.kind == "req" and slabel.shared == label.shared:
                        answers.append((slabel, d2))
                elif label.kind == "acc":
                    if slabel.kind == "acc" and slabel.shared == label.shared \
                            and slabel.role == label.role:
                        answers.append((slabel, d2))
        if label.kind == "tau":
            answers = [(None, d) for d in candidates]
        if not answers:
            raise SRViolation(
                f"seed {seed}: no specification step matches {label}")

        # store monotonicity and label truthfulness on the way
        if not store.vars.keys() <= store2.vars.keys():
            raise SRViolation(f"seed {seed}: store domain shrank at {label}")
        from chorus_wsi.guards import eval_expr
        if eval_expr(label.guard, store).value is not True:
            raise SRViolation(f"seed {seed}: condition of {label} not true")

        if label.kind in ("req", "acc"):
            opened[label.shared] = label.chans
            gdef = shared[label.shared]
            g = instantiate(gdef, label.chans)
            from chorus_wsi.typecheck import participants_ordered
            role = label.role or participants_ordered(g)[0]
            session = ((tuple(label.chans), role), channel_sorts(g))

        gamma2 = dict(gamma)
        new_vars = set(store2.vars) - set(store.vars)
        if label.kind == "in" and label.value is not None:
            expected = session[1].get(label.channel) if session else None
            if expected is not None and label.value.sort != expected:
                # ill-typed input: the specification need not follow
                return steps
            for x in new_vars:
                gamma2[x] = store2.vars[x].sort
        assumption2 = conj(assumption, label.guard)

        # The residual is re-typed under the original assumption:
        # re-deriving at the accumulated guard can hit VIf's
        # inconsistency side condition on branches the run has already
        # resolved.  Guard erasure makes the comparison
        # assumption-independent, and consistency below is checked at
        # the accumulated guard.
        resynth = SpecEnv.make(shared, typecheck_process(
            gamma2, TRUE, _process(p2), shared, domains, session=session), {})
        want = _session_views(resynth, domains)
        survivors = set()
        for slabel, d2 in answers:
            got = _session_views(d2, domains)
            shared_keys = set(got) & set(want)
            if all(got[k] == want[k] for k in shared_keys) \
                    and set(want) <= set(got):
                survivors.add(d2)
        if not survivors:
            sample = answers[0][1]
            raise SRViolation(
                f"seed {seed}: residual judgement after {label} does not match "
                f"any specification successor;\n  resynthesis: {want}\n"
                f"  one successor: {_session_views(sample, domains)}")

        # consistency of the new store with the residual judgement
        ok, problems = consistent(store2, opened, gamma2, assumption2, resynth)
        if not ok:
            raise SRViolation(
                f"seed {seed}: store inconsistent after {label}: {problems}")

        candidates = survivors
        gamma, assumption, p, store = gamma2, assumption2, p2, store2
    return steps


def fuzz_corpus(cases, runs: int, max_steps: int = 50, seed0: int = 0):
    """cases: list of (module, domains, shared, process).  Spreads the
    requested number of runs round-robin over the cases; returns the
    total number of checked steps."""
    total = 0
    for i in range(runs):
        module, domains, shared, proc = cases[i % len(cases)]
        total += fuzz_run(module, domains, shared, proc, seed0 + i, max_steps)
    return total
