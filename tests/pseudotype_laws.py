"""Pseudo-type functions that only the tests read: the termination
measure of normalization, the quotients that the algebraic laws hold
modulo, and the shape predicates and duality of local types."""

from __future__ import annotations

from chorus_wsi.syntax.ast import (
    PseudoType, TBranch, TEnd, TExternal, TInternal, TIter, TSeq, is_true,
)
from chorus_wsi.syntax.printer import render_expr


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


def is_local(t: PseudoType) -> bool:
    """True when every guard in t is the literal true."""
    match t:
        case TEnd(guard):
            return is_true(guard)
        case TInternal(branches) | TExternal(branches):
            return all(is_true(b.guard) and is_local(b.cont) for b in branches)
        case TSeq(first, second):
            return is_local(first) and is_local(second)
        case TIter(body):
            return is_local(body)
    raise TypeError(f"not a pseudo-type: {t!r}")


def dual(t: PseudoType) -> PseudoType:
    """Swap internal and external choices throughout."""
    match t:
        case TEnd():
            return t
        case TInternal(branches):
            return TExternal(tuple(
                TBranch(b.guard, b.channel, b.sort, dual(b.cont)) for b in branches))
        case TExternal(branches):
            return TInternal(tuple(
                TBranch(b.guard, b.channel, b.sort, dual(b.cont)) for b in branches))
        case TSeq(first, second):
            return TSeq(dual(first), dual(second))
        case TIter(body):
            return TIter(dual(body))
    raise TypeError(f"not a pseudo-type: {t!r}")
