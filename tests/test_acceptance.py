"""The acceptance gate: one test per criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them inline).

Every tolerance is pinned here; nothing is deferred to later
calibration.  Criterion runtimes are asserted against their stated
budgets.
"""

import random
import time
from chorus_wsi.pseudotype import normal_form, remove_guards
from chorus_wsi.syntax import parse_module, render_type
from chorus_wsi.syntax.ast import Event, TRUE, UNIT
from chorus_wsi.traces import mandatory, projection_env, runs_global, runs_spec
from chorus_wsi.typecheck import (
    TypingError, gamma_from_domains, instantiate, typecheck_process,
    typecheck_system,
)
from chorus_wsi.wsi import wsi_by_covering, wsi_by_typing
from chorus_wsi.projection import project

import conftest
import gen
import srcheck
import test_pseudotype
import test_traces
from conformance_reference import Counterexample, conditional_simulation
from covers_reference import covers
from pseudotype_laws import sort_branches


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def canonical(t, domains):
    return render_type(sort_branches(remove_guards(normal_form(t, domains))))


def test_criterion_1_projection_goldens(pop2, pop2_domains, multiparty,
                                        multiparty_domains):
    t0 = time.perf_counter()
    gdef = pop2.globals_["G_POP"]
    g = instantiate(gdef, gdef.params)
    ok = canonical(project(g, "s"), pop2_domains) == \
        canonical(pop2.types["T_s"], pop2_domains)
    gdef_m = multiparty.globals_["G_POP_M"]
    gm = instantiate(gdef_m, gdef_m.params)
    ok = ok and canonical(project(gm, "s"), multiparty_domains) == \
        canonical(multiparty.types["T_s_M"], multiparty_domains)
    report(1, ok, "projections on s reproduce the printed server types",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_typing_goldens(pop2, pop2_domains, atm, atm_domains):
    t0 = time.perf_counter()
    gamma = gamma_from_domains(pop2_domains)
    shared = {"u": pop2.globals_["G_POP"]}
    typecheck_process(gamma, TRUE, pop2.processes["Init"].body, shared,
                      pop2_domains)
    _, t = conftest.session_type_of(gamma, TRUE, pop2.processes["Init"].body,
                                    shared, pop2_domains)
    erased_ok = canonical(t, pop2_domains) == canonical(pop2.types["T_s"],
                                                        pop2_domains)
    gamma_a = gamma_from_domains(atm_domains)
    shared_a = {"atm": atm.globals_["G_ATM"]}
    typecheck_process(gamma_a, TRUE, atm.processes["B1"].body, shared_a,
                      atm_domains)
    b2_rule = None
    b2_msg = ""
    try:
        typecheck_process(gamma_a, TRUE, atm.processes["B2"].body, shared_a,
                          atm_domains)
    except TypingError as exc:
        b2_rule = exc.rule
        b2_msg = exc.message
    ok = erased_ok and b2_rule == "VSend" and "internal choice" in b2_msg
    report(2, ok, "Init accepted with session erasing to T_s; B1 accepted; "
           "B2 rejected at VSend against an internal choice",
           time.perf_counter() - t0, 1.0)


def test_criterion_3_normalization_laws():
    t0 = time.perf_counter()
    failures = test_pseudotype.run_law_suite(1000, seed=7)
    report(3, failures == [],
           f"1000 generated pseudo-types pass the normalization and merge "
           f"law suite ({len(failures)} failures)",
           time.perf_counter() - t0, 30.0)


def test_criterion_4_coverage(pop2, pop2_domains, atm, atm_domains,
                                      multiparty, multiparty_domains):
    t0 = time.perf_counter()
    # the literal multiparty variant is not projectable on the
    # authorizer (it only acts in one branch of the top-level choice),
    # so the check is instantiated on the projectable refinement
    # G_POP_P.
    cases = [
        (atm, atm_domains, "G_ATM"),
        (pop2, pop2_domains, "G_POP"),
        (multiparty, multiparty_domains, "G_POP_P"),
    ]
    ok = True
    detail = []
    for module, domains, name in cases:
        gdef = module.globals_[name]
        g = instantiate(gdef, gdef.params)
        for unfold in (1, 2):
            rg = runs_global(g, unfold)
            rs = runs_spec(projection_env(gdef, domains), gdef.params,
                           unfold, domains)
            verdict = covers(rg, rs)
            ok = ok and verdict.holds()
            detail.append(f"{name}@K={unfold}:{len(rg)}/{len(rs)}")
    report(4, ok, "runs(G) covered by projection runs, exact: "
           + " ".join(detail), time.perf_counter() - t0, 60.0)


def _sr_cases(pop2, pop2_domains, atm, atm_domains, multiparty,
              multiparty_domains):
    return [
        (pop2, pop2_domains, {"u": pop2.globals_["G_POP"]},
         pop2.processes["Init"].body),
        (pop2, pop2_domains, {"u": pop2.globals_["G_POP"]},
         pop2.processes["CPop"].body),
        (atm, atm_domains, {"atm": atm.globals_["G_ATM"]},
         atm.processes["B1"].body),
        (atm, atm_domains, {"atm": atm.globals_["G_ATM"]},
         atm.processes["CATM"].body),
        (multiparty, multiparty_domains, {"u": multiparty.globals_["G_POP_M"]},
         multiparty.processes["Init2"].body),
        (multiparty, multiparty_domains, {"u": multiparty.globals_["G_POP_P"]},
         multiparty.processes["InitP"].body),
        (multiparty, multiparty_domains, {"u": multiparty.globals_["G_POP_P"]},
         multiparty.processes["AuthYes"].body),
        (multiparty, multiparty_domains, {"u": multiparty.globals_["G_POP_P"]},
         multiparty.processes["CHelo"].body),
    ]


def test_criterion_5_subject_reduction_fuzz(pop2, pop2_domains, atm,
                                            atm_domains, multiparty,
                                            multiparty_domains):
    t0 = time.perf_counter()
    cases = _sr_cases(pop2, pop2_domains, atm, atm_domains, multiparty,
                      multiparty_domains)
    steps = srcheck.fuzz_corpus(cases, runs=200, max_steps=50, seed0=0)
    report(5, steps > 400,
           f"200 seeded executions, {steps} steps, every step matched by a "
           "specification step with re-accepted residual and consistent store",
           time.perf_counter() - t0, 60.0)


def test_criterion_6_conformance(pop2, pop2_domains, atm, atm_domains,
                                 multiparty, multiparty_domains):
    t0 = time.perf_counter()
    systems = [
        (pop2, pop2_domains, "POP_FULL", {"u": pop2.globals_["G_POP"]}),
        (atm, atm_domains, "ATM_B1C", {"atm": atm.globals_["G_ATM"]}),
        (multiparty, multiparty_domains, "POP_M_RUN",
         {"u": multiparty.globals_["G_POP_P"]}),
    ]
    ok = True
    for module, domains, name, shared in systems:
        gamma = gamma_from_domains(domains)
        sysd = module.systems[name].body
        delta = typecheck_system(gamma, TRUE, sysd, shared, domains)
        store = next(gen.stores(domains))
        verdict = conditional_simulation(sysd, store, delta, domains,
                                         depth=40)
        ok = ok and verdict.holds()
    # a single-channel mutation of the POP2 server must be caught
    text = (conftest.CORPUS / "pop2.chor").read_text()
    mutated = parse_module(text.replace("process Exit = bye!()",
                                        "process Exit = r!(0)"))
    gamma = gamma_from_domains(pop2_domains)
    delta = typecheck_system(gamma, TRUE, pop2.systems["POP_FULL"].body,
                             {"u": pop2.globals_["G_POP"]}, pop2_domains)
    store = next(gen.stores(pop2_domains))
    verdict = conditional_simulation(mutated.systems["POP_FULL"].body, store,
                                     delta, pop2_domains, depth=40)
    ok = ok and isinstance(verdict, Counterexample)
    report(6, ok, "all well-typed corpus systems simulate at depth 40; the "
           "channel-mutated server yields a counterexample",
           time.perf_counter() - t0, 30.0)


def test_criterion_7_wsi_end_to_end(atm, atm_domains):
    t0 = time.perf_counter()
    g = atm.globals_["G_ATM"]
    b1 = atm.processes["B1"].body
    b2 = atm.processes["B2"].body
    c1 = wsi_by_covering(g, "b", b1, atm_domains, shared_name="atm")
    c2 = wsi_by_covering(g, "b", b2, atm_domains, shared_name="atm")
    t1 = wsi_by_typing(g, "b", b1, atm_domains, "atm")
    t2 = wsi_by_typing(g, "b", b2, atm_domains, "atm")
    missing_ok = (not c2.holds()) and \
        Event("b", "!", "ok", UNIT) in mandatory(c2.missing)
    ok = c1.holds() and missing_ok and t1.holds() and not t2.holds()
    report(7, ok, "B1 Holds@1; B2 MissingRun containing (b, ok!Unit); "
           "typing verdicts agree", time.perf_counter() - t0, 30.0)


def test_criterion_8_trace_preorder_oracle():
    # start from cold oracle caches, so the time does not depend on which
    # tests ran before
    test_traces.derivable.cache_clear()
    test_traces.class_of.cache_clear()
    t0 = time.perf_counter()
    from chorus_wsi.traces import trace_leq
    # exhaustive slice: all annotated runs of <= 2 events over the full
    # 2-participant, 3-channel alphabet (optional segments one level)
    events = [Event(p, pol, c, UNIT)
              for p in ("p", "q") for pol in ("!", "?") for c in ("a", "b", "c")]
    small = test_traces.enumerate_runs(events, 2)
    checked = 0
    ok = True
    for r1 in small:
        for r2 in small:
            if trace_leq(r1, r2) != test_traces.oracle_leq(r1, r2):
                ok = False
                break
            checked += 1
        if not ok:
            break
    # seeded sample at the full length bound of 4
    rng = random.Random(99)
    for _ in range(4000):
        r1 = gen.gen_run(rng, rng.randint(0, 4))
        r2 = gen.gen_run(rng, rng.randint(0, 4))
        if trace_leq(r1, r2) != test_traces.oracle_leq(r1, r2):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    # release the oracle's memo rather than hold it for the rest of the suite
    test_traces.derivable.cache_clear()
    test_traces.class_of.cache_clear()
    report(8, ok, f"matcher agrees with the rule-closure oracle on "
           f"{checked} pairs (exhaustive at <= 2 events, sampled at <= 4)",
           elapsed, 60.0)
