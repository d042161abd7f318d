import pathlib

import pytest

from chorus_wsi.guards import DomainDecl
from chorus_wsi.syntax import parse_module

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
# a module file that is not UTF-8 text (a Latin-1 e-acute in a comment);
# not named *.chor, so the tests that read every module leave it out
NOT_UTF8 = pathlib.Path(__file__).resolve().parent / "not_utf8.txt"


def load(name: str):
    return parse_module((CORPUS / name).read_text())


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
    return DomainDecl.from_module(pop2)


@pytest.fixture(scope="session")
def atm_domains(atm):
    return DomainDecl.from_module(atm)


@pytest.fixture(scope="session")
def multiparty_domains(multiparty):
    return DomainDecl.from_module(multiparty)


@pytest.fixture
def wrapped_open():
    module = parse_module(WRAPPED_OPEN.read_text())
    return module, DomainDecl.from_module(module)
