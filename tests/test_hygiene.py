"""Source hygiene: no module under src/ keeps an import it never uses, so
an import of a deleted or moved name cannot linger.

Package `__init__` modules are skipped: re-exporting is their job.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from a.b import c, d\n"
              "def f() -> c:\n"
              "    return system.argv\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]


def test_no_unused_top_level_imports_in_src():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in modules
             for line, name in unused_imports(path.read_text())]
    assert found == []
