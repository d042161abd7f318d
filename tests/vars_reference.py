"""The variables of an expression, computed afresh by a walk over its
nodes: the definition that the sets `syntax.ast.expr_vars` keeps on each
node are tested against."""

from chorus_wsi.syntax.ast import BinOp, Const, ListLit, Range, UnOp, Var


def reference_vars(e) -> frozenset:
    """var(e), visiting an inner node shared by several parents once."""
    names = set()
    seen = set()
    todo = [e]
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is Var:
            names.add(e.name)
        elif kind is Const or id(e) in seen:
            continue
        else:
            seen.add(id(e))
            if kind is BinOp:
                todo += (e.left, e.right)
            elif kind is UnOp:
                todo.append(e.arg)
            elif kind is Range:
                todo += (e.lo, e.hi)
            elif kind is ListLit:
                todo += e.items
            else:
                raise TypeError(f"not an expression: {e!r}")
    return frozenset(names)
