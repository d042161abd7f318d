"""Syntax: AST, parser, pretty-printer, and name functions."""

from .ast import *  # noqa: F401,F403
from .parser import (  # noqa: F401
    InvariantError, ParseError, parse_expr, parse_global, parse_module,
    parse_process, parse_system, parse_type,
)
from .printer import (  # noqa: F401
    render_expr, render_global, render_module, render_process, render_system,
    render_type,
)
from .subst import freshen  # noqa: F401
