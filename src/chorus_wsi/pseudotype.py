"""The pseudo-type algebra.

Normalization propagates guards of branches into their continuations
and prunes alternatives whose guard conjunction is unsatisfiable; merge
glues compatible pseudo-types at choice points; guard removal recovers
plain local types by quotienting branches that share a channel.

Equality of pseudo-types (as used by the algebraic property tests) is
structural equality with guards compared up to semantic equivalence
over the declared domains: see `equiv`.
"""

from __future__ import annotations

from .guards import DomainDecl, EMPTY_DOMAINS, is_unsat, mutually_exclusive, equivalent
from .syntax.ast import (
    Expr, FALSE, PseudoType, TBranch, TEnd, TExternal, TInternal, TIter,
    TRUE, TSeq, conj, disj, is_true,
)


class NotMergeable(Exception):
    def __init__(self, reason: str, path: tuple = ()):
        at = "".join(path) or "<root>"
        super().__init__(f"{reason} (at {at})")
        self.reason = reason
        self.path = path


def weight(t: PseudoType) -> int:
    """The termination measure for normalization; always >= 1."""
    match t:
        case TEnd():
            return 1
        case TInternal(branches) | TExternal(branches):
            return 1 + max(weight(b.cont) for b in branches)
        case TSeq(first, second):
            return 2 * weight(first) + weight(second)
        case TIter(body):
            return 1 + weight(body)
    raise TypeError(f"not a pseudo-type: {t!r}")


def normalize(e: Expr, t: PseudoType, domains: DomainDecl = EMPTY_DOMAINS) -> PseudoType:
    """nf_e(T): propagate the guard e through T, pruning branches whose
    guard is inconsistent with e.

    Under the true guard the result is kept on t (`frozen_node`) together
    with the `DomainDecl` it was computed under, and the result is marked
    as its own normal form under that `DomainDecl`.  The mark stands for
    nf(nf(T)) = nf(T): normalizing a normal form again prunes nothing and
    only conjoins guards that are already there (`g and g` for `g`), an
    equivalent type.  Each node keeps one entry, so a call under another
    `DomainDecl` (compared by identity) recomputes and replaces it, and
    the entry dies with the node.  Normalization under any other guard
    is not kept.
    """
    if not is_true(e):
        return _propagate(e, t, domains)
    kept = t._nf
    if kept is not None and kept[0] is domains:
        return t if kept[1] is None else kept[1]
    nf = _propagate(TRUE, t, domains)
    object.__setattr__(t, "_nf", (domains, nf))
    object.__setattr__(nf, "_nf", (domains, None))
    return nf


def _propagate(e: Expr, t: PseudoType, domains: DomainDecl) -> PseudoType:
    match t:
        case TEnd(g):  # conjoin into the end guard
            return TEnd(conj(e, g))
        case TInternal(branches) | TExternal(branches):  # prune dead branches
            keep = tuple(b for b in branches if not is_unsat(conj(e, b.guard), domains))
            if not keep:
                return TEnd(FALSE)
            new = tuple(
                TBranch(conj(b.guard, e), b.channel, b.sort,
                        normalize(conj(b.guard, e), b.cont, domains))
                for b in keep)
            return type(t)(new)
        case TSeq(first, second):
            match first:
                case TEnd(g):  # a guarded end is a left unit
                    return normalize(conj(e, g), second, domains)
                case TInternal(bs) | TExternal(bs):  # push the sequel into branches
                    pushed = type(first)(tuple(
                        TBranch(b.guard, b.channel, b.sort, TSeq(b.cont, second))
                        for b in bs))
                    return normalize(e, pushed, domains)
                case TSeq(f2, s2):  # reassociate right
                    return normalize(e, TSeq(f2, TSeq(s2, second)), domains)
                case TIter(_):  # a dead loop swallows its sequel
                    head = normalize(e, first, domains)
                    if isinstance(head, TEnd):
                        return head
                    return TSeq(head, normalize(e, second, domains))
        case TIter(body):  # loops of dead bodies die
            nb = normalize(e, body, domains)
            if isinstance(nb, TEnd):
                return nb
            return TIter(nb)
    raise TypeError(f"not a pseudo-type: {t!r}")


def normal_form(t: PseudoType, domains: DomainDecl = EMPTY_DOMAINS) -> PseudoType:
    return normalize(TRUE, t, domains)


# ----------------------------------------------------------------- merge

def _align_external(b1: tuple, b2: tuple, path):
    """Pair up external branches over the same (channel, sort) family."""
    if len(b1) != len(b2):
        raise NotMergeable("external choices with different branch counts", path)
    sig1 = [(b.channel, b.sort) for b in b1]
    sig2 = [(b.channel, b.sort) for b in b2]
    if sig1 == sig2:
        return list(zip(b1, b2))
    if len(set(sig1)) == len(sig1) and set(sig1) == set(sig2):
        by_sig = {(b.channel, b.sort): b for b in b2}
        return [(b, by_sig[(b.channel, b.sort)]) for b in b1]
    raise NotMergeable("external choices over different channels", path)


def merge(t1: PseudoType, t2: PseudoType, domains: DomainDecl = EMPTY_DOMAINS,
          check_guards: bool = True, path: tuple = ()) -> PseudoType:
    """T1 |_| T2 on pseudo-types in normal form; raises NotMergeable.
    Without check_guards, same-channel branches glue whatever their
    guards (guard removal)."""
    if t1 == t2:
        # idempotence: identical sides glue to themselves, no exclusivity needed
        return t1
    match (t1, t2):
        case (TEnd(g1), TEnd(g2)):
            return TEnd(disj(g1, g2))
        case (TExternal(b1), TExternal(b2)):
            merged = []
            for left, right in _align_external(b1, b2, path):
                if left == right:
                    merged.append(left)
                    continue
                if check_guards and not mutually_exclusive(left.guard, right.guard, domains):
                    raise NotMergeable(
                        f"guards of input branches on {left.channel!r} are not "
                        "mutually exclusive", path)
                cont = merge(left.cont, right.cont, domains, check_guards,
                             path + (f".{left.channel}",))
                merged.append(TBranch(disj(left.guard, right.guard),
                                      left.channel, left.sort, cont))
            return TExternal(tuple(merged))
        case (TInternal(b1), TInternal(b2)):
            chans1 = {}
            for b in b1:
                chans1.setdefault(b.channel, []).append(b)
            for b in b2:
                for twin in chans1.get(b.channel, []):
                    if twin == b:
                        continue
                    if twin.sort != b.sort:
                        raise NotMergeable(
                            f"channel {b.channel!r} used at sorts {twin.sort} and {b.sort}",
                            path)
                    if check_guards and not mutually_exclusive(twin.guard, b.guard, domains):
                        raise NotMergeable(
                            f"guards of output branches on {b.channel!r} are not "
                            "mutually exclusive", path)
                    # guard removal later re-merges same-channel branches
                    merge(twin.cont, b.cont, domains, check_guards,
                          path + (f".{b.channel}",))
            return TInternal(tuple(b1) + tuple(b2))
        case (TSeq(f1, s1), TSeq(f2, s2)):
            return TSeq(merge(f1, f2, domains, check_guards, path + (".first",)),
                        merge(s1, s2, domains, check_guards, path + (".second",)))
        case (TIter(x1), TIter(x2)):
            return TIter(merge(x1, x2, domains, check_guards, path + (".body",)))
    raise NotMergeable(
        f"shapes {type(t1).__name__} and {type(t2).__name__} do not match", path)


# ---------------------------------------------------------- guard removal

def remove_guards(t: PseudoType) -> PseudoType:
    """Recover a local type by dropping guards, quotienting the branches
    of each choice by channel equality (merging their continuations)."""
    match t:
        case TEnd():
            return TEnd(TRUE)
        case TSeq(first, second):
            return TSeq(remove_guards(first), remove_guards(second))
        case TIter(body):
            return TIter(remove_guards(body))
        case TInternal(branches) | TExternal(branches):
            classes: list = []
            index: dict = {}
            for b in branches:
                if b.channel in index:
                    classes[index[b.channel]].append(b)
                else:
                    index[b.channel] = len(classes)
                    classes.append([b])
            new = []
            for group in classes:
                rep = group[0]
                for other in group[1:]:
                    if other.sort != rep.sort:
                        raise NotMergeable(
                            f"channel {rep.channel!r} used at different sorts")
                cont = group[0].cont
                for other in group[1:]:
                    cont = merge(cont, other.cont, check_guards=False,
                                 path=(f".{rep.channel}",))
                new.append(TBranch(TRUE, rep.channel, rep.sort,
                                   remove_guards(cont)))
            return type(t)(tuple(new))
    raise TypeError(f"not a pseudo-type: {t!r}")


# -------------------------------------------------------------- viability

def passively_compatible_types(t1: PseudoType, t2: PseudoType) -> bool:
    """Both external choices, over disjoint channel sets."""
    if not (isinstance(t1, TExternal) and isinstance(t2, TExternal)):
        return False
    c1 = {b.channel for b in t1.branches}
    c2 = {b.channel for b in t2.branches}
    return not (c1 & c2)


def viable(t: PseudoType, domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    """A viable pseudo-type never dead-ends: its normal form is end, a
    choice of viable continuations, or a loop followed by a viable exit
    with a consistent way to leave the loop."""
    nf = normal_form(t, domains)
    match nf:
        case TEnd():
            return True
        case TInternal(branches) | TExternal(branches):
            return all(viable(b.cont, domains) for b in branches)
        case TSeq(TIter(body), cont):
            if not (viable(body, domains) and viable(cont, domains)):
                return False
            body_nf = normal_form(body, domains)
            cont_nf = normal_form(cont, domains)
            return (passively_compatible_types(body_nf, cont_nf)
                    or isinstance(body_nf, TInternal))
        case _:
            return False


# ---------------------------------------------------------------- equality

def strip_end_units(t: PseudoType) -> PseudoType:
    """Quotient by the right unit law of sequential composition: drop
    trailing guarded-end components of sequences, everywhere.

    The algebraic laws relating normalization, merge and sequential
    composition hold up to this quotient (their proofs silently drop
    trailing end units the way they silently re-associate guard
    conjunctions); the property tests compare modulo it.
    """
    match t:
        case TEnd():
            return t
        case TSeq(first, second):
            s2 = strip_end_units(second)
            if isinstance(s2, TEnd):
                return strip_end_units(first)
            return TSeq(strip_end_units(first), s2)
        case TIter(body):
            return TIter(strip_end_units(body))
        case TInternal(branches) | TExternal(branches):
            return type(t)(tuple(
                TBranch(b.guard, b.channel, b.sort, strip_end_units(b.cont))
                for b in branches))
    raise TypeError(f"not a pseudo-type: {t!r}")


def sort_branches(t: PseudoType) -> PseudoType:
    """Reorder choice branches by (channel, guard text), recursively.

    Normalize and merge preserve branch order; set-like comparisons of
    choices go through this canonical ordering.
    """
    from .syntax.printer import render_expr

    match t:
        case TEnd():
            return t
        case TSeq(first, second):
            return TSeq(sort_branches(first), sort_branches(second))
        case TIter(body):
            return TIter(sort_branches(body))
        case TInternal(branches) | TExternal(branches):
            new = tuple(sorted(
                (TBranch(b.guard, b.channel, b.sort, sort_branches(b.cont))
                 for b in branches),
                key=lambda b: (b.channel, render_expr(b.guard))))
            return type(t)(new)
    raise TypeError(f"not a pseudo-type: {t!r}")


def equiv(t1: PseudoType, t2: PseudoType,
          domains: DomainDecl = EMPTY_DOMAINS) -> bool:
    """Structural equality with guards compared semantically over the
    declared domains."""
    match (t1, t2):
        case (TEnd(g1), TEnd(g2)):
            return equivalent(g1, g2, domains)
        case (TInternal(b1), TInternal(b2)) | (TExternal(b1), TExternal(b2)):
            if len(b1) != len(b2):
                return False
            return all(
                x.channel == y.channel and x.sort == y.sort
                and equivalent(x.guard, y.guard, domains)
                and equiv(x.cont, y.cont, domains)
                for x, y in zip(b1, b2))
        case (TSeq(f1, s1), TSeq(f2, s2)):
            return equiv(f1, f2, domains) and equiv(s1, s2, domains)
        case (TIter(x1), TIter(x2)):
            return equiv(x1, x2, domains)
    return False
