import pathlib

import pytest

from chorus_wsi.guards import DomainDecl
from chorus_wsi.projection import channel_sorts, participants_ordered
from chorus_wsi.syntax import parse_module
from chorus_wsi.syntax.ast import Accept, TEnd
from chorus_wsi.typecheck import instantiate, typecheck_process

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "chorus_wsi" / "corpus"
# a request on a global type whose body is `end`, so it has no participants
NO_PARTICIPANTS = pathlib.Path(__file__).resolve().parent / "no_participants.chor"
# processes that claim a role but are idle on some path
IDLE_ROLE = pathlib.Path(__file__).resolve().parent / "idle_role.chor"
# a process that sends where its projection expects an input
SEND_FOR_INPUT = pathlib.Path(__file__).resolve().parent / "send_for_input.chor"
# a peer whose loop may fill a queue that the process never drains
SEND_LOOP = pathlib.Path(__file__).resolve().parent / "send_loop.chor"
# requesters that open their session under an `if` and under a `for`
WRAPPED_OPEN = pathlib.Path(__file__).resolve().parent / "wrapped_open.chor"
# a client whose payload reads a variable nothing binds
UNBOUND_READ = pathlib.Path(__file__).resolve().parent / "unbound_read.chor"
# a global type whose choice sends to its own sender
ILL_FORMED = pathlib.Path(__file__).resolve().parent / "ill_formed.chor"
# a module that declares nothing, and one whose only global type takes
# no parameters: neither declares an entry global
EMPTY = pathlib.Path(__file__).resolve().parent / "empty.chor"
NO_ENTRY = pathlib.Path(__file__).resolve().parent / "no_entry.chor"
# a process branching on a received value and a type guarded by a
# variable, neither of which any domain declares
UNDECIDED_GUARD = pathlib.Path(__file__).resolve().parent / "undecided_guard.chor"
# a choice whose branch guards are undefined on some store
UNDEFINED_BRANCH_GUARD = \
    pathlib.Path(__file__).resolve().parent / "undefined_branch_guard.chor"
# a server whose guard applies `hd`, and a system that copies it
HD_GUARD = pathlib.Path(__file__).resolve().parent / "hd_guard.chor"
# a requester whose peer's projection is a loop of loops
NESTED_LOOP = pathlib.Path(__file__).resolve().parent / "nested_loop.chor"
# a module file that is not UTF-8 text (a Latin-1 e-acute in a comment);
# not named *.chor, so the tests that read every module leave it out
NOT_UTF8 = pathlib.Path(__file__).resolve().parent / "not_utf8.txt"

# every module shipped in the corpus and as a test fixture
MODULES = sorted(CORPUS.glob("*.chor")) \
    + sorted(pathlib.Path(__file__).resolve().parent.glob("*.chor"))


def load(name: str):
    return parse_module((CORPUS / name).read_text())


def all_domains(module) -> DomainDecl:
    """The module's domains with the aliases of every process and system
    declaration, as `simulate` reads them."""
    return DomainDecl.from_module(module, [*module.processes, *module.systems])


def session_type_of(gamma: dict, e, p, shared: dict, domains) -> tuple:
    """For a request- or accept-rooted process, the session key and the
    synthesized pseudo-type of its body (the T of the VReq/VAcc premiss,
    before the projection equation is checked)."""
    g = instantiate(shared[p.shared], p.chans)
    role = p.role if isinstance(p, Accept) else participants_ordered(g)[0]
    key = (tuple(p.chans), role)
    sessions = typecheck_process(gamma, e, p.cont, shared, domains,
                                 session=(key, channel_sorts(g)))
    return key, sessions.get(key, TEnd(e))


@pytest.fixture(scope="session")
def pop2():
    return load("pop2.chor")


@pytest.fixture(scope="session")
def atm():
    return load("atm.chor")


@pytest.fixture(scope="session")
def multiparty():
    return load("pop2_multiparty.chor")


@pytest.fixture(scope="session")
def norm_eqs():
    return load("norm_eqs.chor")


@pytest.fixture(scope="session")
def pop2_domains(pop2):
    return all_domains(pop2)


@pytest.fixture(scope="session")
def atm_domains(atm):
    return all_domains(atm)


@pytest.fixture(scope="session")
def multiparty_domains(multiparty):
    return all_domains(multiparty)


@pytest.fixture
def wrapped_open():
    module = parse_module(WRAPPED_OPEN.read_text())
    return module, all_domains(module)
