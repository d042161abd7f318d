"""Pretty-printer for the concrete .chor syntax.

Each `render_*` function is total on valid trees of its kind and
satisfies parse(render(x)) == x, with the matching `parse_*`, up to
structural equality; see the grammar notes in parser.py.
"""

from __future__ import annotations

from .ast import (
    Accept, BinOp, Branch, Const, Expr, For, GBranch, GChoice, GEnd, GIter,
    GSeq, GlobalType, If, ListLit, ModuleDecl, Par, Proc, Process,
    PseudoType, Queue, Range, RepeatUntil, Request, Restrict, Send, Seq,
    System, TBranch, TEnd, TExternal, TInternal, TIter, TSeq, Table, UnOp,
    Var, MINUS_PREC, PREC, is_true,
)


def render_expr(e: Expr, prec: int = 0) -> str:
    """The text of `e`, parenthesized when `e` binds more loosely than
    `prec` (a level of `PREC`).  The unparenthesized text is kept on
    each node rendered (`_text`), so an expression shared by many
    guards, or a guard printed again, is printed once."""
    text = e._text
    if text is None:
        text = _expr_text(e)
    return f"({text})" if _level(e) < prec else text


def _level(e: Expr) -> int:
    """How tightly `e` binds as printed: its operator's level, or above
    every level for an atom or a prefix minus."""
    kind = type(e)
    if kind is BinOp:
        return PREC[e.op]
    if kind is Range:
        return PREC[".."]
    if kind is UnOp and e.op == "not":
        return PREC["not"]
    return MINUS_PREC + 1


def _expr_text(e: Expr) -> str:
    """The text of `e` unparenthesized, kept on `e`."""
    match e:
        case Var(name):
            text = name
        case Const(value):
            text = str(value)
        case BinOp(op, left, right):
            # a chain at one precedence, such as `a and b and c`, nests to
            # the left: walk down it as far as no link has its text yet,
            # so that its length costs no stack.  Comparisons do not chain
            # (the parser rejects `a < b = c`), so their left operand is
            # parenthesized at their own level
            p = PREC[op]
            floor = p + 1 if p == PREC["="] else p
            parts = [render_expr(right, p + 1), op]
            while type(left) is BinOp and left._text is None and PREC[left.op] == floor:
                parts += render_expr(left.right, p + 1), left.op
                left = left.left
            parts.append(render_expr(left, floor))
            parts.reverse()
            text = " ".join(parts)
        case UnOp("not", arg):
            text = f"not {render_expr(arg, PREC['not'])}"
        case UnOp("-", arg):
            # parenthesize negated literals so they re-parse as UnOp
            if isinstance(arg, Const):
                text = f"-({render_expr(arg)})"
            else:
                text = f"-{render_expr(arg, MINUS_PREC)}"
        case UnOp(op, arg):  # hd, tl, and table applications
            text = f"{op}({render_expr(arg)})"
        case ListLit(items):
            text = "[%s]" % ", ".join(render_expr(i) for i in items)
        case Range(lo, hi):
            p = PREC[".."] + 1
            text = f"{render_expr(lo, p)}..{render_expr(hi, p)}"
        case _:
            raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_text", text)
    return text


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
    payload = "" if b.sort.kind == "Unit" else str(b.sort)
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
            if isinstance(payload, Const) and payload.value.sort.kind == "Unit":
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
    # every body is read before any is printed, so one that cannot be
    # freshened is an error before the printer meets a deep one
    processes, systems = list(m.processes.values()), list(m.systems.values())
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
    for p in processes:
        plays = f" plays {p.role} of {p.global_name}" if p.role else ""
        lines.append(f"process {p.name}{plays} = {render_process(p.body)}")
    for s in systems:
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

