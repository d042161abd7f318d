"""The two whole-spectrum-implementation verdict paths.

By typing: a process that typechecks against the global type is a WSI
of its role.  By covering: synthesize, for every mandatory skeleton of
the global type's runs, a deterministic set of peers that drives
exactly that skeleton's choices, execute the resulting implementations,
and check that their runs cover every skeleton.  The trace preorder
sees only skeletons, and the skeletons at any unfold bound are the runs
at bound 1, so covering takes its targets from `runs_global(g, 1)` and
no verdict depends on an unfold bound.  Peer synthesis hardcodes branch
decisions per target; payload values that steer guarded branches of the
candidate process are searched over the declared finite domains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .guards import DomainDecl, EMPTY_DOMAINS
from .projection import NonProjectable, participants_ordered, project
from .pseudotype import viable
from .syntax.ast import (
    Accept, Arm, Branch, Const, GlobalDef, Lit, Process, Request, Send,
    Seq, TRUE, fU,
)
from .traces import IllFormed, covers, run_str, runs_global, runs_impl
from .typecheck import (
    TypingError, gamma_from_domains, instantiate, typecheck_process,
    unique_role,
)


SEARCH_CAP = 256  # peer payload assignments tried per target run


class NonViable(Exception):
    pass


@dataclass(frozen=True)
class TypingVerdict:
    ok: bool
    role: str
    error: TypingError | None = None

    def holds(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"Holds (typing validates the role {self.role!r})"
        return f"Rejected: {self.error}"


@dataclass(frozen=True)
class CoveringVerdict:
    ok: bool
    missing: tuple | None = None
    reason: str | None = None
    contexts: tuple = ()

    def holds(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"Holds ({len(self.contexts)} contexts)"
        detail = f": {self.reason}" if self.reason else ""
        return f"MissingRun {run_str(self.missing)}{detail}"


def _role_problem(gdef: GlobalDef, role: str, proc: Process,
                 shared_name: str) -> str | None:
    """Why proc does not uniquely play the participant `role`, or None."""
    parts = participants_ordered(instantiate(gdef, gdef.params))
    if role not in parts:
        return f"{role!r} is not a participant of {gdef.name}"
    if shared_name not in fU(proc):
        return f"the process opens no session of {gdef.name}"
    if not unique_role(proc, shared_name, role, role0=parts[0]):
        return f"the process does not uniquely play {role!r} in {shared_name!r}"
    return None


def wsi_by_typing(gdef: GlobalDef, role: str, proc: Process,
                  domains: DomainDecl = EMPTY_DOMAINS,
                  shared_name: str = "u") -> TypingVerdict:
    """WSI by typing: a well-typed process that plays the role covers
    the role's whole spectrum."""
    problem = _role_problem(gdef, role, proc, shared_name)
    if problem is not None:
        return TypingVerdict(False, role, TypingError("role", problem))
    gamma = gamma_from_domains(domains)
    try:
        typecheck_process(gamma, TRUE, proc, {shared_name: gdef}, domains)
    except TypingError as exc:
        return TypingVerdict(False, role, exc)
    return TypingVerdict(True, role)


# ----------------------------------------------------------- peer synthesis

def _default_value(sort) -> Lit:
    return {
        "Int": Lit(sort, 0), "Bool": Lit(sort, False), "Str": Lit(sort, ""),
        "Unit": Lit(sort, None), "Data": Lit(sort, b""),
        "List": Lit(sort, ()),
    }[sort.kind]


def _chain(events: list, values: dict, binder_seed: list) -> Process:
    """A straight-line process performing the given events in order."""
    proc: Process = Branch(())
    for idx, ev in reversed(list(enumerate(events))):
        if ev.polarity == "!":
            send = Send(ev.channel, Const(values[idx]))
            is_nil = isinstance(proc, Branch) and not proc.arms
            proc = send if is_nil else Seq(send, proc)
        else:
            binder_seed[0] += 1
            proc = Branch((Arm(ev.channel, f"v{binder_seed[0]}", proc),))
    return proc


def synthesize_contexts(gdef: GlobalDef, role: str, proc: Process,
                        domains: DomainDecl = EMPTY_DOMAINS,
                        shared_name: str = "u"):
    """One candidate family of peer assignments per mandatory skeleton:
    a list of (target skeleton, generator of iota mappings) where every
    iota maps the checked role to `proc` and each other role to a
    deterministic straight-line peer driving that skeleton's events."""
    problem = _role_problem(gdef, role, proc, shared_name)
    if problem is not None:
        raise NonViable(problem)
    g = instantiate(gdef, gdef.params)
    try:
        # a run at bound 1 has no optional segment: it is its own skeleton
        targets = sorted(runs_global(g, 1), key=run_str)
    except IllFormed as exc:
        raise NonViable(f"{gdef.name} is ill-formed: {exc}")
    parts = participants_ordered(g)
    for q in parts:
        if q == role:
            continue
        try:
            local = project(g, q)
        except NonProjectable as exc:
            raise NonViable(f"{gdef.name} is not projectable on {q!r}: {exc}")
        if not viable(local, domains):
            raise NonViable(f"projection of {gdef.name} on {q!r} is not viable")

    return [(target, _iota_candidates(gdef, parts, role, proc, target,
                                      domains, shared_name))
            for target in targets]


def _iota_candidates(gdef, parts, role, proc, skeleton, domains, shared_name):
    """Iota mappings for one target skeleton: the peers' control
    structure is fixed; their send payloads range over declared-domain
    candidates, with guard-steering sorts (Str, Bool) varying first."""
    peer_events = {q: [ev for ev in skeleton if ev.participant == q]
                   for q in parts if q != role}
    send_positions = []  # (peer, event index, candidate values)
    for q, events in peer_events.items():
        for idx, ev in enumerate(events):
            if ev.polarity != "!":
                continue
            pool = domains.values_of_sort(ev.sort)
            candidates = list(dict.fromkeys(
                list(pool) + [_default_value(ev.sort)]))
            send_positions.append((q, idx, ev.sort, candidates))
    # itertools.product varies the last factor fastest: put the
    # payloads most likely to steer guards there
    send_positions.sort(key=lambda entry: entry[2].kind in ("Str", "Bool"))

    def build(assignment: dict):
        iota = {role: proc}
        binder_seed = [0]
        for q, events in peer_events.items():
            values = {idx: assignment.get((q, idx)) for idx, _ in enumerate(events)}
            body = _chain(events, values, binder_seed)
            if q == parts[0]:
                iota[q] = Request(shared_name, len(parts) - 1,
                                  tuple(gdef.params), body)
            else:
                iota[q] = Accept(shared_name, q, tuple(gdef.params), body)
        return iota

    def gen():
        pools = [cands for _, _, _, cands in send_positions]
        for count, combo in enumerate(itertools.product(*pools)):
            if count >= SEARCH_CAP:
                return
            assignment = dict()
            for (q, idx, _, _), value in zip(send_positions, combo):
                assignment[(q, idx)] = value
            yield build(assignment)

    return gen


def wsi_by_covering(gdef: GlobalDef, role: str, proc: Process,
                    domains: DomainDecl = EMPTY_DOMAINS,
                    step_bound: int = 300,
                    shared_name: str = "u") -> CoveringVerdict:
    """WSI via trace covering over synthesized contexts: Holds once
    every target skeleton is covered by the runs of some context."""
    try:
        jobs = synthesize_contexts(gdef, role, proc, domains, shared_name)
    except NonViable as exc:
        return CoveringVerdict(False, missing=(), reason=str(exc))
    achieved: set = set()
    used = []
    for target, candidates in jobs:
        if covers([target], achieved).holds():
            continue
        for iota in candidates():
            runs = runs_impl(iota, shared_name, gdef, domains,
                             step_bound=step_bound)
            if covers([target], runs).holds():
                achieved |= runs
                used.append(iota)
                break
        else:
            return CoveringVerdict(
                False, missing=target,
                reason="branch unreachable under declared domains")
    return CoveringVerdict(True, contexts=tuple(
        tuple(sorted(i.keys())) for i in used))
