"""Cross-validation: for random well-formed global types, a canonical
implementation read off from each role's projection must typecheck
against that role.

Projection and the typing engine are independent code paths that meet
in the VReq/VAcc conformance check; driving randomly generated
protocols through both catches asymmetries that the fixed corpus would
miss.
"""

import pytest

from chorus_wsi.syntax.ast import TRUE
from chorus_wsi.typecheck import (
    TypingError, gamma_from_domains, typecheck_process,
)

import gen


@pytest.mark.parametrize("seed", range(60))
def test_projection_implementations_typecheck(seed):
    for gdef, role, proc, domains in gen.role_implementations(seed):
        gamma = gamma_from_domains(domains)
        try:
            typecheck_process(gamma, TRUE, proc, {"u": gdef}, domains)
        except TypingError as exc:
            raise AssertionError(
                f"seed {seed}: role {role!r} of a generated protocol does "
                f"not accept its own projection-derived process: {exc}")
