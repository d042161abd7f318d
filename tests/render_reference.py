"""The expression printer as it was before it walked chains: it recurses
on both operands of every binary operator.  `syntax.printer.render_expr`
is tested against it."""

from chorus_wsi.syntax.ast import PREC, BinOp, Const, ListLit, Range, UnOp, Var


def reference_render_expr(e, prec: int = 0) -> str:
    match e:
        case Var(name):
            return name
        case Const(value):
            return str(value)
        case BinOp(op, left, right):
            p = PREC[op]
            # a comparison is no operand of a comparison unparenthesized
            left_prec = p + 1 if p == PREC["="] else p
            s = f"{reference_render_expr(left, left_prec)} {op} {reference_render_expr(right, p + 1)}"
            return f"({s})" if p < prec else s
        case UnOp("not", arg):
            s = f"not {reference_render_expr(arg, 3)}"
            return f"({s})" if prec > 3 else s
        case UnOp("-", arg):
            # parenthesize negated literals so they re-parse as UnOp
            if isinstance(arg, Const):
                return f"-({reference_render_expr(arg)})"
            return f"-{reference_render_expr(arg, 8)}"
        case UnOp(op, arg):  # hd, tl, and table applications
            return f"{op}({reference_render_expr(arg)})"
        case ListLit(items):
            return "[%s]" % ", ".join(reference_render_expr(i) for i in items)
        case Range(lo, hi):
            s = f"{reference_render_expr(lo, 6)}..{reference_render_expr(hi, 6)}"
            return f"({s})" if prec > 5 else s
    raise TypeError(f"not an expression: {e!r}")
