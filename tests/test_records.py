"""The record builder `ast.frozen_node` against its dataclasses-based
reference (record_reference.py): every record class of src/ and of the
conformance reference (conformance_reference.py), on the values that
corpus requests build and on seeded generated terms, hashes, compares,
prints, constructs, pickles and refuses assignment alike."""

import collections
import collections.abc
import contextlib
import dataclasses
import io
import pickle
import random
import re
import subprocess
import sys

import pytest

from chorus_wsi import cli, guards, projection, semantics, traces, typecheck, wsi
from chorus_wsi.guards import DomainDecl
from chorus_wsi.syntax import ast, parse_module, render_module
from chorus_wsi.syntax.ast import (
    DERIVED, INT, TRUE, Lit, ListLit, Par, Queue, Ref, Restrict, Sort, int_lit,
    list_sort,
)
from chorus_wsi.syntax.parser import Parser
from chorus_wsi.typecheck import gamma_from_domains, typecheck_system

import conformance_reference
import conftest
import gen
from conformance_reference import Counterexample, SpecEnv, conditional_simulation
from record_reference import compiled_methods, is_record, twin

RECORDS = sorted({cls for module in (ast, guards, projection, semantics, traces,
                                     typecheck, wsi, conformance_reference)
                  for cls in vars(module).values() if is_record(cls)},
                 key=lambda cls: cls.__qualname__)
TWINS = {cls: twin(cls) for cls in RECORDS}
PER_REQUEST = 40  # instances of one class kept from one request


def _requests() -> list:
    """CLI requests on every corpus module and the ill-formed one."""
    out = []
    for path in sorted(conftest.CORPUS.glob("*.chor")):
        module = parse_module(path.read_text())
        out += [["parse", str(path)], ["typecheck", str(path)]]
        for name in module.globals_:
            out += [["traces", str(path), "--global", name, "--unfold", "2"],
                    ["cover", str(path), "--global", name, "--unfold", "2"]]
        for name in module.systems:
            out.append(["simulate", str(path), "--system", name, "--steps", "30"])
        for name in list(module.processes)[:4]:
            out.append(["wsi", str(path), "--proc", name, "--unfold", "1"])
    return out + [["traces", str(conftest.ILL_FORMED)]]


def _simulations():
    """A conditional simulation that holds and one that finds the
    channel-mutated POP2 server out."""
    text = (conftest.CORPUS / "pop2.chor").read_text()
    pop2 = parse_module(text)
    domains = DomainDecl.from_module(pop2, ("POP_FULL",))
    system = pop2.systems["POP_FULL"].body
    shared = {"u": pop2.globals_["G_POP"]}
    delta = SpecEnv.make(shared, {}, typecheck_system(
        gamma_from_domains(domains), TRUE, system, shared, domains))
    store = next(gen.stores(domains))
    mutated = parse_module(text.replace("process Exit = bye!()",
                                        "process Exit = r!(0)"))
    held = conditional_simulation(system, store, delta, domains, depth=8)
    caught = conditional_simulation(mutated.systems["POP_FULL"].body, store,
                                    delta, domains, depth=40)
    assert held.holds() and isinstance(caught, Counterexample)


def _walk(value, found: dict, seen: dict):
    """Every record in value, records nested in records included.  `seen`
    maps the id of each value met to the value, which keeps it alive: a
    temporary met and freed could pass its id on to a later value, which
    would be skipped."""
    if id(value) in seen:
        return
    seen[id(value)] = value
    if is_record(type(value)):
        found[type(value)].append(value)
        for name in value.__match_args__:
            _walk(getattr(value, name), found, seen)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            _walk(item, found, seen)
    elif isinstance(value, collections.abc.Mapping):
        for key, item in value.items():
            _walk(key, found, seen)
            _walk(item, found, seen)


def _parsed(path):
    """The module at `path`, and its declarations as read, before any
    body is read."""
    parser = Parser(path.read_text())
    module = parser.parse_module()
    return module, [decl for decl, _, _ in parser.bodies.read.values()]


@pytest.fixture(scope="module")
def samples() -> dict:
    """Class -> instances: up to PER_REQUEST of each class from each CLI
    request and simulation as they are built, and every record in the
    corpus trees, as read and as freshened, and in seeded generated
    terms."""
    found = collections.defaultdict(list)
    built = collections.Counter()
    originals = {cls: cls.__init__ for cls in RECORDS}

    def recording(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[type(self)] += 1
            if built[type(self)] <= PER_REQUEST:
                found[type(self)].append(self)
        return __init__

    try:
        for cls in RECORDS:
            cls.__init__ = recording(originals[cls])
        for job in [*_requests(), None]:
            built.clear()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(job) if job else _simulations()
    finally:
        for cls, init in originals.items():
            cls.__init__ = init
    seen = {}
    for path in sorted(conftest.CORPUS.glob("*.chor")):
        module, read = _parsed(path)
        _walk(read, found, seen)
        _walk(vars(module), found, seen)
    rng = random.Random(1717)
    for _ in range(100):
        values = tuple(int_lit(rng.randint(0, 9)) for _ in range(rng.randint(0, 3)))
        system = Restrict(("a",), "u", Par(gen.gen_system(rng), Queue("a", values)))
        _walk((gen.gen_global(rng), gen.gen_pseudotype(rng), gen.gen_process(rng),
               system, ListLit((gen.gen_expr(rng), gen.gen_expr(rng))),
               Lit(list_sort(INT), values), gen.gen_run(rng, 6)), found, seen)
    return found


def _to_twin(value, memo: dict):
    """value with every record rebuilt as an instance of its twin."""
    out = memo.get(id(value))
    if out is not None:
        return out[1]
    if is_record(type(value)):
        out = TWINS[type(value)](*(_to_twin(getattr(value, n), memo)
                                   for n in value.__match_args__))
    elif isinstance(value, (tuple, list, frozenset)):
        out = type(value)(_to_twin(item, memo) for item in value)
    elif isinstance(value, dict):
        out = {_to_twin(k, memo): _to_twin(v, memo) for k, v in value.items()}
    else:
        out = value
    memo[id(value)] = (value, out)  # keeps value alive, so its id is not reused
    return out


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:  # a record with a dict field
        return str(exc)


def test_every_record_class_is_sampled(samples):
    assert len(RECORDS) == 49 and ast.ModuleDecl not in RECORDS
    assert [cls.__qualname__ for cls in RECORDS if not samples[cls]] == []
    assert sum(map(len, samples.values())) > 20000


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_builders_agree(cls, samples):
    ref, memo = TWINS[cls], {}
    assert cls.__match_args__ == ref.__match_args__ != () or cls is ast.GEnd
    others = [samples[other][0] for other in RECORDS]
    values = samples[cls][:300]
    for i, value in enumerate(values):
        mirror = _to_twin(value, memo)
        fields = {n: getattr(value, n) for n in cls.__match_args__}
        assert repr(value) == repr(mirror)
        assert _hash(value) == _hash(mirror)
        # an equal copy, neighbours, and one instance of every class
        copy = cls(**fields)
        for other in [value, copy, *values[i + 1:i + 4], *others]:
            twin_other = _to_twin(other, memo)
            assert (value == other) == (mirror == twin_other), (value, other)
            assert (value != other) == (mirror != twin_other), (value, other)
        assert value.__eq__(0) is NotImplemented and mirror.__eq__(0) is NotImplemented
        with pytest.raises(AttributeError):
            setattr(value, (*cls.__match_args__, "other")[0], None)
        with pytest.raises(AttributeError):
            delattr(value, (*cls.__match_args__, "other")[0])
        with pytest.raises(AttributeError):
            setattr(mirror, (*cls.__match_args__, "other")[0], None)
        state = value.__reduce_ex__(2)[2]
        assert state.keys() == mirror.__reduce_ex__(2)[2].keys() == fields.keys()


def _defaults(cls) -> dict:
    """The fields that the reference twin of cls gives a default, each
    with its default."""
    return {f.name: f.default for f in dataclasses.fields(TWINS[cls])
            if f.default is not dataclasses.MISSING}


def _defaults_and_keywords_agree(cls, values):
    """The check of the test below on the first 20 of `values` whose
    defaulted fields hold their defaults.  A class none of whose values
    does (every `Label` has a field off its default) is checked on the
    first 20 values: none of those classes checks its fields."""
    ref, memo = TWINS[cls], {}
    defaults = _defaults(cls)
    at_defaults = [value for value in values
                   if all(getattr(value, n) == d for n, d in defaults.items())]
    assert at_defaults or not hasattr(cls, "__post_init__")
    for value in (at_defaults or values)[:20]:
        required = {n: getattr(value, n) for n in cls.__match_args__
                    if n not in defaults}
        one = cls(**required)
        mirror = ref(**{n: _to_twin(v, memo) for n, v in required.items()})
        assert repr(one) == repr(mirror) and _hash(one) == _hash(mirror)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_defaults_and_keywords_agree(cls, samples):
    """A record built from its required fields alone, by keyword, equals
    its twin's: for the samples whose defaulted fields hold their
    defaults, which are the ones that building from the required fields
    alone gives back.  (A mutable default fails earlier: its twin's
    dataclass refuses it.)"""
    _defaults_and_keywords_agree(cls, samples[cls])


def test_a_sample_off_its_defaults_is_not_rebuilt_from_its_required_fields(samples):
    """A list sort is no sample of `Sort`'s defaults: its element sort is
    not the default None, and built from its kind alone it would be
    `Sort(kind="List")`, which `Sort.__post_init__` refuses.  Put first,
    it is passed over."""
    _defaults_and_keywords_agree(ast.Sort, [list_sort(INT), *samples[ast.Sort]])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_methods_are_those_compiled_for_the_class(cls):
    """A class's `__init__` and `__eq__`, copied from its shape's
    template, are the methods that its own source compiles to."""
    for method, reference in zip((cls.__init__, cls.__eq__), compiled_methods(cls)):
        for part in ("co_code", "co_varnames", "co_consts", "co_names", "co_flags"):
            assert getattr(method.__code__, part) == getattr(reference.__code__, part)
        assert method.__defaults__ == reference.__defaults__
        assert method.__qualname__ == reference.__qualname__


def test_argument_errors_name_the_class():
    for call, text in [
            (lambda: Lit(INT), "Lit.__init__() missing 1 required positional "
                               "argument: 'value'"),
            (lambda: Lit(INT, 1, 2), "Lit.__init__() takes 3 positional "
                                     "arguments but 4 were given"),
            (lambda: Lit(INT, 1, size=2), "Lit.__init__() got an unexpected "
                                          "keyword argument 'size'"),
            (lambda: ast.GEnd(0), "GEnd.__init__() takes 1 positional "
                                  "argument but 2 were given"),
            (lambda: guards.Store(values={}), "Store.__init__() got an "
                                              "unexpected keyword argument 'values'")]:
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == text


def test_a_default_before_a_required_field_is_refused():
    class Record:
        first: int = 0
        second: int
    with pytest.raises(KeyError, match="second"):
        ast.frozen_node(Record)


def test_a_record_of_a_shape_with_no_template_is_refused():
    """`frozen_node` compiles nothing, so a class whose shape has no
    template is refused when it is built, not when it is constructed."""
    class Wide:
        __annotations__ = {f"f{i}": "int" for i in range(9)}

    class Six:
        __annotations__ = {f"f{i}": "int" for i in range(6)}

    class Seven:
        __annotations__ = {f"f{i}": "int" for i in range(7)}

    class Checked:
        kind: str

        def __post_init__(self):
            pass

    for cls, shape in [(Wide, "(9, False)"), (Six, "(6, False)"),
                       (Seven, "(7, False)"), (Checked, "(1, True)")]:
        with pytest.raises(TypeError, match=re.escape(f"{cls.__qualname__} of shape {shape}")):
            ast.frozen_node(cls)


def test_every_template_serves_a_record_of_src():
    """A template is kept only for a shape that some record class of
    src/ has, so one kept only for a record of the tests fails here."""
    src = [cls for cls in RECORDS if cls.__module__.startswith("chorus_wsi.")]
    shapes = {(len(cls.__match_args__), hasattr(cls, "__post_init__")) for cls in src}
    assert set(ast._Templates.by_shape) <= shapes


@pytest.mark.parametrize("flags", [["-I"], ["-I", "-S"]], ids=" ".join)
def test_importing_the_cli_compiles_no_record_method(flags):
    """The record methods are copied from templates written in ast.py, so
    a fresh interpreter importing the command line compiles no string
    that defines a function (a namedtuple's constructor, compiled from a
    string, is a lambda)."""
    code = ("import sys; compiled = []; "
            "sys.addaudithook(lambda event, args: compiled.append(args[0]) "
            "if event == 'compile' and args[1] == '<string>' else None); "
            f"sys.path.insert(0, {str(conftest.CORPUS.parents[1])!r}); "
            "import chorus_wsi.cli; "
            "print(sum(b'def ' in (s if isinstance(s, bytes) "
            "else str(s).encode()) for s in compiled))")
    out = subprocess.run([sys.executable, *flags, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert int(out) == 0


def test_sort_checks_agree():
    for build in (Sort, TWINS[Sort]):
        for args in [("Foo",), ("List",), ("Int", INT)]:
            with pytest.raises(AssertionError):
                build(*args)
        assert repr(build("List", build("Int"))) == "Sort(kind='List', elem=Sort(kind='Int', elem=None))"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_pickling_drops_derived_values(cls, samples):
    for value in samples[cls][:50]:
        _hash(value)
        copy = pickle.loads(pickle.dumps(value))
        assert not set(DERIVED) & set(copy.__dict__)
        assert pickle.dumps(copy) == pickle.dumps(value)
        # a bare marker object (a payload not drawn yet) comes back as another one
        if not any(type(leaf) is object for leaf in _leaves(value)):
            assert copy == value and _hash(copy) == _hash(value)


def _leaves(value):
    if is_record(type(value)):
        for name in value.__match_args__:
            yield from _leaves(getattr(value, name))
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from _leaves(item)
    else:
        yield value


def test_bodies_as_read_pickle():
    """Each corpus module's bodies as read, a `Ref` wherever one names
    another, pickle and come back equal, and so does the module before
    any body is read: a declaration waiting to be read holds no closure."""
    refs = 0
    for path in sorted(conftest.CORPUS.glob("*.chor")):
        module, read = _parsed(path)
        assert pickle.loads(pickle.dumps(read)) == read
        copy = pickle.loads(pickle.dumps(module))
        assert render_module(copy) == render_module(module)
        found = collections.defaultdict(list)
        _walk(read, found, {})
        refs += len(found[Ref])
    assert refs > 10
