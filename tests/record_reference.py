"""The record builder as it was before `ast.frozen_node` generated its own
`__init__`, kept as a reference: `dataclass(frozen=True)` with the hash
of the compared fields kept on the instance and derived values left out
of pickled state.

`reference_node` builds a class with it; `twin` rebuilds a `frozen_node`
class of `src/` with it, from the same class body, so test_records.py
can compare the two builders on the same values.  `covering_reference`
builds its `_State` with it, since that record leaves a field out of
comparison, which only the reference builder supports, and
`conformance_reference` its `SpecLabel`, since `frozen_node` has no
template for a record of seven fields (no record of `src/` has one).
"""

from __future__ import annotations  # the future flag of ast.py's templates

from dataclasses import dataclass, fields

from chorus_wsi.syntax.ast import _NONE_HASH, DERIVED, Sort

# what `frozen_node` puts on a class besides what its body defines
BUILT = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
         "__delattr__", "__getstate__", "__match_args__", "__dict__",
         "__weakref__", *DERIVED}


def reference_node(cls):
    """`@dataclass(frozen=True)` whose hash is kept on the instance."""
    cls = dataclass(frozen=True)(cls)
    names = [f.name for f in fields(cls) if f.compare]

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple([_NONE_HASH if v is None else v
                            for v in (getattr(self, n) for n in names)]))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in DERIVED}

    for name in DERIVED:
        setattr(cls, name, None)
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def is_record(cls) -> bool:
    """Whether cls is a class built by `frozen_node`."""
    return isinstance(cls, type) and "__match_args__" in vars(cls) \
        and cls.__hash__ is Sort.__hash__


def twin(cls):
    """The `frozen_node` class cls rebuilt by `reference_node` from its
    class body: the same name, annotations, defaults and methods."""
    body = {k: v for k, v in vars(cls).items() if k not in BUILT}
    return reference_node(type(cls.__name__, (), body))


def compiled_methods(cls) -> tuple:
    """The `__init__` and `__eq__` that compiling source written for the
    record class cls gives, as `frozen_node` once wrote and compiled it
    per class: the reference that its templates must reproduce."""
    names = cls.__match_args__
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}"
                     for n in names)
    sets = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        sets += "\n self.__post_init__()"
    mine, theirs = ("".join(f"{side}.{n}," for n in names)
                    for side in ("self", "other"))
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self{params}):{sets or ' pass'}\n"
         "def __eq__(self, other):\n"
         f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
         " return NotImplemented\n", namespace)
    for method in ("__init__", "__eq__"):
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
    return namespace["__init__"], namespace["__eq__"]
