"""Pretty-printer for the concrete .chor syntax.

`render` is total on valid trees and satisfies parse(render(x)) == x up
to structural equality; see the grammar notes in parser.py.
"""

from __future__ import annotations

from .ast import (
    Accept, BinOp, Branch, Const, Expr, For, GBranch, GChoice, GEnd, GIter,
    GSeq, GlobalType, If, Lit, ListLit, ModuleDecl, Par, Proc, Process,
    PseudoType, Queue, Range, RepeatUntil, Request, Restrict, Send, Seq,
    Sort, System, TBranch, TEnd, TExternal, TInternal, TIter, TSeq, Table,
    UnOp, UNIT, Var, is_true,
)

_BINOP_PREC = {
    "or": 1, "and": 2,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 6, "-": 6, "*": 7,
}


def render_expr(e: Expr, prec: int = 0) -> str:
    match e:
        case Var(name):
            return name
        case Const(value):
            return str(value)
        case BinOp(op, left, right):
            p = _BINOP_PREC[op]
            s = f"{render_expr(left, p)} {op} {render_expr(right, p + 1)}"
            return f"({s})" if p < prec else s
        case UnOp("not", arg):
            s = f"not {render_expr(arg, 3)}"
            return f"({s})" if prec > 3 else s
        case UnOp("-", arg):
            # parenthesize negated literals so they re-parse as UnOp
            if isinstance(arg, Const):
                return f"-({render_expr(arg)})"
            return f"-{render_expr(arg, 8)}"
        case UnOp(op, arg):  # hd, tl, and table applications
            return f"{op}({render_expr(arg)})"
        case ListLit(items):
            return "[%s]" % ", ".join(render_expr(i) for i in items)
        case Range(lo, hi):
            s = f"{render_expr(lo, 6)}..{render_expr(hi, 6)}"
            return f"({s})" if prec > 5 else s
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------- global types

def render_global(g: GlobalType) -> str:
    match g:
        case GEnd():
            return "end"
        case GSeq(first, second):
            return f"{_g_atom(first)} ; {render_global(second)}"
        case _:
            return _g_atom(g)


def _g_atom(g: GlobalType) -> str:
    match g:
        case GEnd():
            return "end"
        case GChoice(sender, branches):
            rcvs = {b.receiver for b in branches}
            if len(rcvs) == 1:
                body = " + ".join(_g_branch(b, with_receiver=False) for b in branches)
                return f"{sender} -> {branches[0].receiver} : {{ {body} }}"
            body = " + ".join(_g_branch(b, with_receiver=True) for b in branches)
            return f"{sender} -> {{ {body} }}"
        case GIter(body, controller, term):
            entries = ", ".join(f"{p} @ {y}({d})" for p, y, d in term)
            return f"loop {controller} {{ {render_global(body)} }} until ( {entries} )"
        case GSeq():
            return f"({render_global(g)})"
    raise TypeError(f"not a global type: {g!r}")


def _g_branch(b: GBranch, with_receiver: bool) -> str:
    head = f"{b.receiver} @ {b.channel}({b.sort})" if with_receiver else f"{b.channel}({b.sort})"
    return f"{head}. {_g_cont(b.cont)}"


def _g_cont(g: GlobalType) -> str:
    # inside braces a continuation extends to + or }, so no parens needed
    return render_global(g)


# --------------------------------------------------------- pseudo-types

def render_type(t: PseudoType) -> str:
    match t:
        case TSeq(first, second):
            return f"{_t_atom(first)} ; {render_type(second)}"
        case _:
            return _t_atom(t)


def _t_atom(t: PseudoType) -> str:
    match t:
        case TEnd(guard):
            return "end" if is_true(guard) else f"[{render_expr(guard)}] end"
        case TIter(body):
            return f"({render_type(body)})*"
        case TInternal(branches):
            return " (+) ".join(_t_branch(b, "!") for b in branches)
        case TExternal(branches):
            return " (&) ".join(_t_branch(b, "?") for b in branches)
        case TSeq():
            return f"({render_type(t)})"
    raise TypeError(f"not a pseudo-type: {t!r}")


def _t_branch(b: TBranch, pol: str) -> str:
    guard = "" if is_true(b.guard) else f"[{render_expr(b.guard)}] "
    payload = "" if b.sort == UNIT else str(b.sort)
    cont = b.cont
    same_pol = isinstance(cont, TInternal if pol == "!" else TExternal)
    multi = isinstance(cont, (TInternal, TExternal)) and len(cont.branches) > 1
    if isinstance(cont, TSeq) or multi or same_pol:
        tail = f"({render_type(cont)})"
    else:
        tail = render_type(cont)
    return f"{guard}{b.channel}{pol}({payload}). {tail}"


# ------------------------------------------------------------ processes

def render_process(p: Process) -> str:
    match p:
        case Seq(first, second):
            return f"{_p_atom(first)} ; {render_process(second)}"
        case _:
            return _p_atom(p)


def _p_atom(p: Process) -> str:
    match p:
        case Branch(arms) if not arms:
            return "0"
        case Request(shared, arity, chans, cont):
            return f"request {shared}[{arity}]({', '.join(chans)}). {_p_cont(cont)}"
        case Accept(shared, role, chans, cont):
            return f"accept {shared}[{role}]({', '.join(chans)}). {_p_cont(cont)}"
        case Send(channel, payload):
            if isinstance(payload, Const) and payload.value.sort == UNIT:
                return f"{channel}!()"
            return f"{channel}!({render_expr(payload)})"
        case Branch(arms) if len(arms) == 1:
            arm = arms[0]
            return f"{arm.channel}?({arm.binder}). {_p_cont(arm.cont)}"
        case Branch(arms):
            body = " + ".join(
                f"{a.channel}?({a.binder}). {_p_cont(a.cont)}" for a in arms)
            return f"sum {{ {body} }}"
        case If(cond, then, orelse):
            return (f"if {render_expr(cond)} then {{ {render_process(then)} }}"
                    f" else {{ {render_process(orelse)} }}")
        case For(binder, items, body):
            return f"for {binder} in {render_expr(items)} {{ {render_process(body)} }}"
        case RepeatUntil(body, exit):
            return f"repeat {{ {render_process(body)} }} until {{ {render_process(exit)} }}"
        case Seq():
            return f"{{ {render_process(p)} }}"
    raise TypeError(f"not a process: {p!r}")


def _p_cont(p: Process) -> str:
    # prefix continuations bind tighter than ";", so wrap sequences
    if isinstance(p, Seq):
        return f"{{ {render_process(p)} }}"
    return _p_atom(p)


# -------------------------------------------------------------- systems

def render_system(s: System) -> str:
    match s:
        case Par(left, right):
            return f"{_s_atom(left)} || {render_system(right)}"
        case Restrict(chans, shared, scope):
            # at the top level the restriction scopes over everything
            return f"new ({', '.join(chans)})@{shared} in {render_system(scope)}"
        case _:
            return _s_atom(s)


def _s_atom(s: System) -> str:
    match s:
        case Proc(process):
            if isinstance(process, Seq):
                return f"{{ {render_process(process)} }}"
            return _p_atom(process)
        case Queue(channel, values):
            return f"queue {channel} = [{', '.join(str(v) for v in values)}]"
        case Restrict():
            return f"{{ {render_system(s)} }}"
        case Par():
            return f"{{ {render_system(s)} }}"
    raise TypeError(f"not a system: {s!r}")


# --------------------------------------------------------------- module

def render_module(m: ModuleDecl) -> str:
    lines = []
    for var, values in m.domains.items():
        lines.append(_render_domain(var, values))
    for t in m.tables.values():
        lines.append(_render_table(t))
    for g in m.globals_.values():
        params = f"({', '.join(g.params)})" if g.params else ""
        lines.append(f"global {g.name}{params} = {render_global(g.body)}")
    for name, t in m.types.items():
        lines.append(f"type {name} = {render_type(t)}")
    for p in m.processes.values():
        plays = f" plays {p.role} of {p.global_name}" if p.role else ""
        lines.append(f"process {p.name}{plays} = {render_process(p.body)}")
    for s in m.systems.values():
        lines.append(f"system {s.name} = {render_system(s.body)}")
    return "\n".join(lines) + "\n"


def _render_domain(var: str, values: frozenset) -> str:
    vals = sorted(values, key=lambda l: (str(l.sort), str(l)))
    sorts = {v.sort for v in vals}
    sort = next(iter(sorts))
    if sort.kind == "Bool":
        return f"domain {var} : Bool"
    if sort.kind == "Int":
        ints = sorted(v.value for v in vals)
        if ints == list(range(ints[0], ints[-1] + 1)):
            return f"domain {var} : Int in {ints[0]}..{ints[-1]}"
        return f"domain {var} : Int in {{{', '.join(str(i) for i in ints)}}}"
    return f"domain {var} : Str in {{{', '.join(str(v) for v in vals)}}}"


def _render_table(t: Table) -> str:
    entries = [f"{k} -> {v}" for k, v in t.mapping]
    entries.append(f"_ -> {t.default}")
    return (f"table {t.name} : {t.arg_sort} -> {t.ret_sort} = "
            f"{{ {', '.join(entries)} }}")


def render(x) -> str:
    """Render any AST node or module to concrete syntax."""
    if isinstance(x, ModuleDecl):
        return render_module(x)
    if isinstance(x, (GChoice, GSeq, GIter, GEnd)):
        return render_global(x)
    if isinstance(x, (TInternal, TExternal, TSeq, TIter, TEnd)):
        return render_type(x)
    if isinstance(x, (Request, Accept, Send, Branch, Seq, If, For, RepeatUntil)):
        return render_process(x)
    if isinstance(x, (Proc, Par, Queue, Restrict)):
        return render_system(x)
    if isinstance(x, (Var, Const, BinOp, UnOp, ListLit, Range)):
        return render_expr(x)
    if isinstance(x, (Sort, Lit)):
        return str(x)
    raise TypeError(f"cannot render {x!r}")
