"""Well-formedness of global types and endpoint projection.

Projection sends choices to internal choices at the sender, external
choices at the receiver, and the merge of the branch projections at
uninvolved participants.  A participant that does not control an
iteration receives the dedicated termination signal after its loop;
the controller emits one termination signal per peer, in declaration
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pseudotype import NotMergeable, merge, normal_form
from .guards import EMPTY_DOMAINS
from .syntax.ast import (
    GChoice, GEnd, GIter, GSeq, GlobalType, PseudoType, Sort, TBranch,
    TEnd, TExternal, TInternal, TIter, TRUE, TSeq,
)


class NonProjectable(Exception):
    def __init__(self, message: str, path: tuple = ()):
        at = "/".join(path) or "<root>"
        super().__init__(f"{message} (at {at})")
        self.path = path


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def participants_ordered(g: GlobalType) -> tuple:
    """Participants in first-occurrence order; index 0 is the requester."""
    seen: dict = {}  # an insertion-ordered set

    def walk(node):
        match node:
            case GChoice(sender, branches):
                seen.update(dict.fromkeys([sender] + [b.receiver for b in branches]))
                for b in branches:
                    walk(b.cont)
            case GSeq(first, second):
                walk(first)
                walk(second)
            case GIter(body, controller, term):
                seen[controller] = None
                walk(body)
                seen.update(dict.fromkeys(p for p, _, _ in term))

    walk(g)
    return tuple(seen)


def participants(g: GlobalType) -> frozenset:
    return frozenset(participants_ordered(g))


def ready(g: GlobalType) -> frozenset:
    """The roles able to perform the first send of g."""
    match g:
        case GEnd():
            return frozenset()
        case GChoice(sender, _):
            return frozenset({sender})
        case GSeq(first, _):
            return ready(first)
        case GIter(body, _, _):
            return ready(body)
    raise TypeError(f"not a global type: {g!r}")


def channel_sorts(g: GlobalType) -> dict:
    """chan -> sort over the whole type; raises on inconsistent reuse."""
    table: dict = {}

    def record(chan: str, sort: Sort):
        if table.get(chan, sort) != sort:
            raise NonProjectable(
                f"channel {chan!r} used at sorts {table[chan]} and {sort}")
        table[chan] = sort

    def walk(node: GlobalType):
        match node:
            case GEnd():
                return
            case GChoice(_, branches):
                for b in branches:
                    record(b.channel, b.sort)
                    walk(b.cont)
            case GSeq(first, second):
                walk(first)
                walk(second)
            case GIter(body, _, term):
                walk(body)
                for _, chan, sort in term:
                    record(chan, sort)

    walk(g)
    return table


def well_formed(g: GlobalType) -> list:
    """All violations of the global-type side conditions (empty = OK)."""
    out: list = []

    def walk(node: GlobalType):
        match node:
            case GEnd():
                return
            case GChoice(sender, branches):
                chans = [b.channel for b in branches]
                if len(set(chans)) != len(chans):
                    out.append(Violation("duplicate-channels",
                                         f"choice by {sender!r} reuses a channel"))
                for b in branches:
                    if b.receiver == sender:
                        out.append(Violation("self-communication",
                                             f"{sender!r} sends to itself on {b.channel!r}"))
                    walk(b.cont)
            case GSeq(first, second):
                walk(first)
                walk(second)
            case GIter(body, controller, term):
                r = ready(body)
                if r != {controller}:
                    out.append(Violation(
                        "multiple-ready-roles" if len(r) > 1 else "wrong-ready-role",
                        f"iteration body is ready at {sorted(r)}, "
                        f"controller is {controller!r}"))
                expected = participants(body) - {controller}
                given = [p for p, _, _ in term]
                if len(set(given)) != len(given):
                    out.append(Violation("duplicate-termination",
                                         "termination map lists a participant twice"))
                if set(given) != expected:
                    out.append(Violation(
                        "termination-map-mismatch",
                        f"termination map covers {sorted(given)}, "
                        f"body peers are {sorted(expected)}"))
                body_chans = _chans_of(body)
                term_chans = [c for _, c, _ in term]
                if len(set(term_chans)) != len(term_chans):
                    out.append(Violation("duplicate-termination-channel",
                                         "termination channels are not distinct"))
                clash = body_chans & set(term_chans)
                if clash:
                    out.append(Violation(
                        "termination-channel-in-body",
                        f"termination channels {sorted(clash)} occur in the body"))
                walk(body)

    def _chans_of(node) -> set:
        from .syntax.ast import g_channels
        return set(g_channels(node))

    walk(g)
    try:
        channel_sorts(g)
    except NonProjectable as exc:
        out.append(Violation("inconsistent-channel-sort", str(exc)))
    return out


def project(g: GlobalType, p: str, path: tuple = ()) -> PseudoType:
    """G |` p: the local behaviour of participant p (all guards true)."""
    match g:
        case GEnd():
            return TEnd(TRUE)
        case GChoice(sender, branches):
            if p == sender:
                return TInternal(tuple(
                    TBranch(TRUE, b.channel, b.sort,
                            project(b.cont, p, path + (f"!{b.channel}",)))
                    for b in branches))
            mine = [b for b in branches if b.receiver == p]
            others = [b for b in branches if b.receiver != p]
            parts = []
            if mine:
                parts.append(TExternal(tuple(
                    TBranch(TRUE, b.channel, b.sort,
                            project(b.cont, p, path + (f"?{b.channel}",)))
                    for b in mine)))
            for b in others:
                parts.append(project(b.cont, p, path + (f"+{b.channel}",)))
            if len(parts) == 1:
                return parts[0]
            # mergeability is defined on normal forms
            result = normal_form(parts[0], EMPTY_DOMAINS)
            for other in parts[1:]:
                try:
                    result = merge(result, normal_form(other, EMPTY_DOMAINS))
                except NotMergeable as exc:
                    raise NonProjectable(
                        f"cannot merge branches for uninvolved {p!r}: {exc}",
                        path) from exc
            return result
        case GSeq(first, second):
            return TSeq(project(first, p, path + ("first",)),
                        project(second, p, path + ("second",)))
        case GIter(body, controller, term):
            involved = participants(body) | {controller} | {q for q, _, _ in term}
            if p not in involved:
                return TEnd(TRUE)
            inner = TIter(project(body, p, path + ("loop",)))
            if p == controller:
                tail: PseudoType = TEnd(TRUE)
                for q, chan, sort in reversed(term):
                    tail = TInternal((TBranch(TRUE, chan, sort, tail),))
                return TSeq(inner, tail)
            entry = next((t for t in term if t[0] == p), None)
            if entry is None:
                raise NonProjectable(
                    f"{p!r} takes part in the loop but has no termination signal",
                    path)
            _, chan, sort = entry
            return TSeq(inner, TExternal((TBranch(TRUE, chan, sort, TEnd(TRUE)),)))
    raise TypeError(f"not a global type: {g!r}")
