"""Source hygiene: no module under src/ keeps an import it never uses, so
an import of a deleted or moved name cannot linger; no module imports a
private (`_`-prefixed) name of another, so what a module keeps private
stays free to change; no function keeps a
parameter it never reads, so no caller passes a value that cannot
change an answer; no function assigns a local it never reads, so no
value is computed for nothing; and no top-level function, class or
assigned name under src/ is left that neither src/ nor tests/ uses, so
dead API cannot linger; and no function mutates a module-level dict,
list or set, so no answer or timing of one `cli.main` call can depend
on an earlier call in the same process.

Package `__init__` modules are skipped by the import check:
re-exporting is their job.
"""

import ast
import tomllib
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list:
    """(line, name) for each private name an import statement anywhere
    in the module takes from another module: a `_name` in `from m import
    _name`, or a dotted module path with a `_part`.  Dunder names such as
    `__future__` are not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if _private(alias.name)]
            if node.module and any(map(_private, node.module.split("."))):
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if any(map(_private, alias.name.split(".")))]
    return sorted(found)


def test_detector_flags_only_private_imports():
    source = ("from __future__ import annotations\n"
              "from .semantics import _type_steps, type_steps\n"
              "import os.path, pkg._impl as impl\n"
              "from ._vendor import thing\n"
              "def f():\n"
              "    from .guards import _Space, __doc__\n"
              "    return _Space\n")
    assert private_imports(source) == [
        (2, "_type_steps"), (3, "pkg._impl"), (4, "_vendor"), (6, "_Space")]


def test_no_private_imports_across_src_modules():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in private_imports(path.read_text())]
    assert found == []


def dead_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter that the function
    body never reads, or reads only to pass it back to the same function
    in the same position.  The first parameter of a method is exempt."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        params = positional + [a.arg for a in args.kwonlyargs
                               + [args.vararg, args.kwarg] if a]
        if id(fn) in methods and positional:
            params.remove(positional[0])
        passed_back = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == fn.name:
                passed_back |= {id(a) for i, a in enumerate(node.args)
                                if isinstance(a, ast.Name) and i < len(positional)
                                and a.id == positional[i]}
                passed_back |= {id(k.value) for k in node.keywords
                                if isinstance(k.value, ast.Name)
                                and k.value.id == k.arg}
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and id(n) not in passed_back}
        found += [(fn.lineno, fn.name, p) for p in params if p not in read]
    return sorted(found)


def test_detector_flags_only_dead_parameters():
    source = ("def walk(t, depth, limit=0, *rest, key=None):\n"
              "    for c in t:\n"
              "        walk(c, depth, limit, key=key)\n"
              "        walk(c, limit, depth)\n"
              "    return sorted(t, key=lambda x: x)\n"
              "class C:\n"
              "    def m(self, x):\n"
              "        def inner(y):\n"
              "            return x\n"
              "        return inner\n")
    assert dead_parameters(source) == [
        (1, "walk", "key"), (1, "walk", "rest"), (8, "inner", "y")]


def test_no_dead_parameters_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {name}({param})"
             for path in sorted(SRC.rglob("*.py"))
             for line, name, param in dead_parameters(path.read_text())]
    assert found == []


def dead_locals(source: str) -> list:
    """(line, function, name) for each name a function assigns in its own
    body and never reads, there or in a function nested in it.  Names
    that start with `_` are exempt, and so are names the function
    declares global or nonlocal."""
    tree = ast.parse(source)
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(fn.body)
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, scopes):
                stack.extend(ast.iter_child_nodes(node))
        declared = {name for node in own
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        stored = {}
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno,
                                      stored.get(node.id, node.lineno))
        found += [(line, fn.name, name) for name, line in stored.items()
                  if name not in read and name not in declared
                  and not name.startswith("_")]
    return sorted(found)


def test_detector_flags_only_dead_locals():
    source = ("def f(xs):\n"
              "    total, unused = 0, 1\n"
              "    for i, x in enumerate(xs):\n"
              "        total += x\n"
              "    for _ in xs:\n"
              "        pass\n"
              "    seen = []\n"
              "    def inner():\n"
              "        global G\n"
              "        G = seen\n"
              "        kept = 2\n"
              "    return total, inner\n")
    assert dead_locals(source) == [
        (2, "f", "unused"), (3, "f", "i"), (11, "inner", "kept")]


def test_no_dead_locals_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {name}: {local}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name, local in dead_locals(path.read_text())]
    assert found == []


def unreferenced_definitions(sources: dict, exempt=frozenset()) -> list:
    """(path, line, name) for each top-level function, class or assigned
    name of the `defining` sources that no source loads outside the
    definition's own statement.  `sources` maps a path to (source,
    defining); a load is a name read or an attribute of that name.
    Imports, strings and docstrings are not loads, so a name only
    re-exported, only mentioned in prose, or only called by itself counts
    as unreferenced.  Dunder names such as `__version__` are exempt."""
    definitions, loads = [], {}
    for path, (source, defining) in sources.items():
        for stmt in ast.parse(source).body:
            if defining and isinstance(stmt, (ast.FunctionDef, ast.ClassDef,
                                              ast.AsyncFunctionDef)):
                definitions.append((path, stmt, stmt.name))
            elif defining and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                definitions += [(path, stmt, t.id) for t in targets
                                if isinstance(t, ast.Name)
                                and not (t.id.startswith("__")
                                         and t.id.endswith("__"))]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.id, set()).add((path, id(stmt)))
                elif isinstance(node, ast.Attribute):
                    loads.setdefault(node.attr, set()).add((path, id(stmt)))
    return sorted((path, d.lineno, name) for path, d, name in definitions
                  if name not in exempt
                  and not loads.get(name, set()) - {(path, id(d))})


def test_detector_flags_only_unreferenced_definitions():
    lib = ('def walk(t):\n'
           '    """Also see helper."""\n'
           '    return [walk(c) for c in t]\n'
           'def main():\n'
           '    return 0\n'
           'def used():\n'
           '    return Box\n'
           'class Box:\n'
           '    pass\n'
           'def by_attribute():\n'
           '    return 1\n'
           'def helper():\n'
           '    return 2\n'
           '__version__ = "1"\n'
           'LIMIT: int = 3\n'
           'UNUSED = LIMIT + 1\n'
           'TABLE = {"k": 1}\n')
    init = "from .lib import helper, walk\n"
    test = ("import lib\n"
            "def test_it():\n"
            "    assert lib.used() and lib.by_attribute() and lib.TABLE\n")
    sources = {"lib.py": (lib, True), "__init__.py": (init, True),
               "test_lib.py": (test, False)}
    assert unreferenced_definitions(sources, exempt={"main"}) == [
        ("lib.py", 1, "walk"), ("lib.py", 12, "helper"),
        ("lib.py", 16, "UNUSED")]


def test_no_unreferenced_definitions_in_src():
    tests = SRC.parent / "tests"
    sources = {str(p.relative_to(SRC.parent)):
               (p.read_text(), p.is_relative_to(SRC))
               for p in sorted(SRC.rglob("*.py")) + sorted(tests.glob("*.py"))}
    scripts = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    entry_points = {target.rsplit(":", 1)[1]
                    for target in scripts["project"]["scripts"].values()}
    assert unreferenced_definitions(sources, entry_points) == []


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "fromkeys", "defaultdict",
                    "OrderedDict", "Counter", "deque"}
_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem",
             "popleft", "appendleft", "clear", "update", "setdefault", "add",
             "discard", "sort", "reverse", "difference_update",
             "intersection_update", "symmetric_difference_update"}


def module_containers(source: str) -> set:
    """Names that a top-level assignment binds to a dict, list or set."""
    out = set()
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            continue
        value = stmt.value
        func = value.func if isinstance(value, ast.Call) else None
        called = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if isinstance(value, _CONTAINERS) or called in _CONTAINER_CALLS:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def mutated_containers(source: str, containers: set) -> list:
    """(line, name) for each place where a function mutates one of the
    named containers: an item assignment or deletion, a call of a
    mutating method, or a `global` declaration of the name.  The
    container is named directly or as an attribute of an imported name,
    under any chain of subscripts."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}

    def root(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in imported:
            return node.attr
        return None

    def flat(targets):
        for t in targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                yield from flat(t.elts)
            else:
                yield t

    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            changed = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                changed = [t.value for t in flat(node.targets)
                           if isinstance(t, ast.Subscript)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
                    and isinstance(node.target, ast.Subscript):
                changed = [node.target.value]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                changed = [node.func.value]
            elif isinstance(node, ast.Global):
                found |= {(node.lineno, n) for n in node.names if n in containers}
            found |= {(node.lineno, name) for name in map(root, changed)
                      if name in containers}
    return sorted(found)


def test_detector_flags_only_mutated_module_containers():
    source = ("import registry\n"
              "CACHE = {}\n"
              "NAMES = ['a']\n"
              "SEEN: set = set()\n"
              "TABLE = dict.fromkeys('ab', 0)\n"
              "FIXED = {'k': [1]}\n"
              "NAMES.append('b')\n"
              "def f(key):\n"
              "    CACHE[key], other = 1, 2\n"
              "    SEEN.add(key)\n"
              "    local = {}\n"
              "    local[key] = FIXED[key]\n"
              "    return registry.TABLE.update(local)\n"
              "def g():\n"
              "    global NAMES\n"
              "    NAMES = []\n"
              "    del TABLE['a']\n"
              "    FIXED['k'][0] += 1\n")
    containers = module_containers(source)
    assert containers == {"CACHE", "NAMES", "SEEN", "TABLE", "FIXED"}
    assert mutated_containers(source, containers) == [
        (9, "CACHE"), (10, "SEEN"), (13, "TABLE"), (15, "NAMES"),
        (17, "TABLE"), (18, "FIXED")]


def test_no_function_mutates_a_module_container_in_src():
    sources = {p: p.read_text() for p in sorted(SRC.rglob("*.py"))}
    containers = set().union(*map(module_containers, sources.values()))
    assert {"_DEFAULTS", "KEYWORDS", "_SYMBOLS", "_LEXEMES",
            "_BINOP_PREC"} <= containers
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path, source in sources.items()
             for line, name in mutated_containers(source, containers)]
    assert found == []
