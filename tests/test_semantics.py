import itertools
import random

import pytest

from chorus_wsi.guards import SortMismatch, Store
from chorus_wsi.semantics import (
    SysState, push, step_process, system_steps, to_state,
)
from chorus_wsi.syntax import parse_expr, parse_process, parse_module, parse_type
from chorus_wsi.syntax.ast import (
    Branch, Const, For, INT, If, Proc, Range, Seq, TRUE, Var, bool_lit, int_lit,
    is_nil,
)
from chorus_wsi.typecheck import gamma_from_domains, typecheck_system

import gen
import srcheck
from conformance_reference import (
    Counterexample, Holds, SpecEnv, conditional_simulation, step_spec,
)
from opener_reference import opener_peeking_steps, view

D = gen.GUARD_DOMAINS


def no_input(channel):
    return []


def test_step_send_evaluates_payload():
    p = parse_process("y!(1 + 1)")
    steps = step_process(push(p), Store({}, {}), no_input)
    assert len(steps) == 1
    label, cont, _ = steps[0]
    assert label.kind == "out" and label.channel == "y"
    assert label.value == int_lit(2)
    assert cont == ()


def test_step_nil_is_stuck():
    assert push(Branch(())) == ()
    assert step_process((), Store({}, {}), no_input) == []


def test_step_if_records_guard():
    p = parse_process("if x > 0 then y!(1) else z!(0)")
    steps = step_process(push(p), Store({"x": int_lit(2)}, {}), no_input)
    assert len(steps) == 1
    label, _, _ = steps[0]
    assert label.kind == "out" and label.channel == "y"
    assert label.guard == parse_expr("x > 0")


def test_step_else_records_negated_guard():
    p = parse_process("if x > 0 then y!(1) else z!(0)")
    steps = step_process(push(p), Store({"x": int_lit(0)}, {}), no_input)
    label, _, _ = steps[0]
    assert label.channel == "z"
    assert label.guard == parse_expr("not x > 0")


def test_step_receive_uses_oracle():
    p = parse_process("y?(v). z!(v)")
    steps = step_process(push(p), Store({}, {}), lambda chan: [int_lit(7)])
    assert len(steps) == 1
    label, cont, store = steps[0]
    assert label.kind == "in" and label.value == int_lit(7)
    assert store.vars["v"] == int_lit(7)


def test_step_for_unfolds_and_ends():
    p = parse_process("for i in 1..2 { y!(i) }")
    steps = step_process(push(p), Store({}, {}), no_input)
    assert len(steps) == 1
    label, cont, _ = steps[0]
    assert label.kind == "out" and label.value == int_lit(1)
    empty = parse_process("for i in 1..0 { y!(i) }")
    steps = step_process(push(empty), Store({}, {}), no_input)
    assert [l.kind for l, _, _ in steps] == ["tau"]


def _walk(stack: tuple) -> list:
    """(label, store bindings, rest stack) of each step of a process
    with one step at a time, to its end."""
    store, out = Store({}, {}), []
    while stack:
        [(label, stack, store)] = step_process(stack, store, no_input)
        out.append((str(label), store.vars, stack))
    return out


@pytest.mark.parametrize("lo, hi", [(1, 3), (2, 2), (3, 1), (-1, 1)])
def test_a_range_steps_as_its_list_without_building_it(lo, hi):
    """Differential: `for` over a range takes the steps of the `for`
    over the list of its values, with the same labels and stores, and
    the rest of the loop is a range of constants, not a list."""
    values = ", ".join(map(str, range(lo, hi + 1)))
    ranged = _walk(push(parse_process(f"{{ for i in {lo}..{hi} {{ y!(i) }} ; z!(0) }}")))
    listed = _walk(push(parse_process(f"{{ for i in [{values}] {{ y!(i) }} ; z!(0) }}")))
    assert [step[:2] for step in ranged] == [step[:2] for step in listed]
    loops = [rest[0] for _, _, rest in ranged if rest and isinstance(rest[0], For)]
    assert len(loops) == max(0, hi - lo + 1)
    assert all(isinstance(r.items, Range) and isinstance(r.items.lo, Const)
               and isinstance(r.items.hi, Const) for r in loops)
    with pytest.raises(SortMismatch, match="range: expected Int, got Bool"):
        step_process(push(parse_process(f"for i in {lo}..true {{ y!(i) }}")),
                     Store({}, {}), no_input)


def test_an_idle_branch_or_iteration_steps_silently():
    """An `if` whose branch is 0, and a `for` iteration whose body is 0,
    step `<guard>tau` into the rest, the iteration binding its binder."""
    rest = push(parse_process("y!(1)"))
    p = push(parse_process("{ if x then 0 else 0 ; y!(1) }"))
    for value, label in ((True, "<x>tau"), (False, "<not x>tau")):
        steps = step_process(p, Store({"x": bool_lit(value)}, {}), no_input)
        assert [(str(l), cont) for l, cont, _ in steps] == [(label, rest)]
    p = push(parse_process("{ for i in 1..2 { 0 } ; y!(1) }"))
    [(label, cont, store)] = step_process(p, Store({}, {}), no_input)
    assert str(label) == "tau" and store.vars == {"i": int_lit(1)}
    assert [str(l) for l, _, _ in step_process(cont, store, no_input)] == ["tau"]


def test_system_init_creates_queues(atm, atm_domains):
    state = to_state(atm.systems["ATM_DEP"].body)
    store = Store({}, atm_domains.tables)
    succ = system_steps(state, store)
    assert len(succ) == 1
    _, action, state2, _ = succ[0]
    assert action.kind == "req"
    assert len(state2.queues) == 5
    assert all(q == () for _, q in state2.queues)
    assert action.shared == "atm"
    # the requester and its acceptor map the opened names to the actuals
    for _, _, chans in state2.procs:
        assert {actual for _, actual in chans} == set(action.chans)


def test_system_queue_communication(pop2, pop2_domains):
    state = to_state(pop2.systems["POP_QUIT"].body)
    store = Store({}, pop2_domains.tables)
    path = []
    for _ in range(10):
        succ = system_steps(state, store)
        if not succ:
            break
        _, action, state, store = succ[0]
        path.append(action)
    assert state.is_terminated()
    kinds = [a.kind for a in path]
    assert kinds == ["req", "out", "in", "out", "in"]
    chans = [a.channel for a in path if a.channel]
    assert [c.split("@")[0].rsplit("_", 1)[0] for c in chans] == \
        ["quit", "quit", "bye", "bye"]


def _check_queue_discipline(state, store, component, action, state2):
    before = {pid: (stack, chans) for pid, stack, chans in state.procs}
    after = {pid: (stack, chans) for pid, stack, chans in state2.procs}
    moved = {pid for pid in before if before[pid] != after[pid]}
    queues, expected = state.queue_map(), state.queue_map()
    restricted = state.restricted
    if action.kind == "req":
        # the acceptors of the session move with the requester
        acceptors = {pid for pid, p, _ in state.procs
                     for label, _, _ in step_process(p, store, no_input)
                     if label.kind == "acc" and label.shared == action.shared}
        assert moved <= {component} | acceptors
        assert not set(action.chans) & set(queues)
        expected.update(dict.fromkeys(action.chans, ()))
        restricted += ((action.chans, action.shared),)
    else:
        assert moved <= {component}
    if action.kind == "out":
        expected[action.channel] = queues[action.channel] + (action.value,)
    elif action.kind == "in":
        assert queues[action.channel][:1] == (action.value,)
        expected[action.channel] = queues[action.channel][1:]
    else:
        assert action.kind in ("req", "tau"), action
    assert state2.queue_map() == expected
    assert state2.restricted == restricted


def _corpus_starts(modules) -> list:
    """(state, store) for each system of each (module, domains), from
    every declared starting store."""
    return [(to_state(system.body), store)
            for module, domains in modules
            for system, store in itertools.product(
                module.systems.values(),
                gen.stores(domains))]


def _reached(starts: list, depth: int = 30):
    """(state, store, system steps) for every state reached breadth first
    from each start, up to `depth` steps deep."""
    for start in starts:
        frontier, seen = [start], set()
        for _ in range(depth):
            reached = []
            for state, store in frontier:
                succ = system_steps(state, store)
                yield state, store, succ
                for _, _, state2, store2 in succ:
                    if (state2, store2.key()) not in seen:
                        seen.add((state2, store2.key()))
                        reached.append((state2, store2))
            frontier = reached


def test_system_steps_queue_discipline(pop2, atm, multiparty, pop2_domains,
                                       atm_domains, multiparty_domains):
    """Every step of every corpus system, from every declared starting
    store and up to 30 steps deep, moves its component and touches only
    the queues its action names."""
    starts = _corpus_starts([(pop2, pop2_domains), (atm, atm_domains),
                             (multiparty, multiparty_domains)])
    # no corpus queue ever holds two values, so this one checks the order
    fifo = SysState(((0, push(parse_process("{ y!(1); y!(2) }")), ()),
                     (1, push(parse_process("y?(a). y?(b). 0")), ())), (("y", ()),))
    starts.append((fifo, Store({}, {})))
    steps = 0
    for state, store, succ in _reached(starts):
        for component, action, state2, _ in succ:
            _check_queue_discipline(state, store, component, action, state2)
            steps += 1
    assert steps > 1000


def test_system_steps_match_the_opener_peeking_reference(
        pop2, atm, multiparty, pop2_domains, atm_domains, multiparty_domains):
    """Every corpus opener heads its process, so reading session starts
    off the process LTS changes no step of a corpus system; and binding
    a session's channels by each component's map steps as substituting
    the actuals into its terms does: each successor's view is the
    reference's successor."""
    starts = _corpus_starts([(pop2, pop2_domains), (atm, atm_domains),
                             (multiparty, multiparty_domains)])
    states = starts_seen = 0
    for state, store, succ in _reached(starts):
        want = opener_peeking_steps(state, store)
        assert [(c, a, view(s), st.key()) for c, a, s, st in succ] == \
            [(c, a, s, st.key()) for c, a, s, st in want]
        states += 1
        starts_seen += any(a.kind == "req" for _, a, _, _ in succ)
    assert states > 1000 and starts_seen > 10


def test_each_cohort_of_ready_acceptors_starts_a_session():
    """Two requesters of arity 2 and three acceptors ready on one shared
    name, two of them of one role: each choice of two acceptors of
    distinct roles is a start of its own, in process order, and every
    state reached steps as in the reference."""
    module = parse_module("process Client = request w[2](c). c!(1)\n"
                          "process P = accept w[p](c). c?(k). 0\n"
                          "process Q = accept w[q](c). 0\n"
                          "system S = Client || P || Q || Client || P\n")
    start = to_state(module.systems["S"].body)
    starts = [(c, [q for (q, stack, _), (_, before, _) in zip(s.procs, start.procs)
                   if stack != before])
              for c, a, s, _ in system_steps(start, Store({}, {})) if a.kind == "req"]
    assert starts == [(0, [0, 1, 2]), (0, [0, 2, 4]), (3, [1, 2, 3]), (3, [2, 3, 4])]
    states = 0
    for state, store, succ in _reached([(start, Store({}, {}))]):
        want = opener_peeking_steps(state, store)
        assert [(c, a, view(s), st.key()) for c, a, s, st in succ] == \
            [(c, a, s, st.key()) for c, a, s, st in want]
        states += 1
    assert states > 10


def test_wrapped_requesters_simulate(wrapped_open):
    """A requester under an `if` or a `for` opens its session, so the
    simulation checker gets past the initial state."""
    module, domains = wrapped_open
    gamma = gamma_from_domains(domains)
    shared = {"u": module.globals_["G"]}
    for name, system in module.systems.items():
        delta = SpecEnv.make(shared, {}, typecheck_system(
            gamma, TRUE, system.body, shared, domains))
        for store in gen.stores(domains):
            verdict = conditional_simulation(system.body, store, delta,
                                             domains, depth=40)
            assert verdict.holds() and verdict.states > 1, (name, verdict)


def test_conditional_wrapping_keeps_system_runs():
    """`if b then { P } else { P }` runs as P does for every process of
    every role of a generated protocol: a session start is read off the
    process LTS, not off the head of the process."""
    opened = 0
    for seed in range(100):
        impls = gen.role_implementations(seed)
        if not impls:
            continue
        gdef = impls[0][0]
        procs = {role: proc for _, role, proc, _ in impls}
        wrapped = {role: If(Var("b"), proc, proc) for role, proc in procs.items()}
        selectors = set().union(*(domains.domains for *_, domains in impls))
        # odd seeds take the else side
        store = Store({**dict.fromkeys(selectors, bool_lit(True)),
                       "b": bool_lit(seed % 2 == 0)}, {})
        runs = gen.system_runs(procs, gdef, "u", store)
        assert gen.system_runs(wrapped, gdef, "u", store) == runs, seed
        opened += any(runs.values())
    assert opened > 40


def test_closed_terminated_system_stuck():
    state = to_state(Proc(Branch(())))
    assert system_steps(state, Store({}, {})) == []


def test_step_spec_internal_choice_per_live_branch():
    t = parse_type("e!(). end (+) r!(Int). end")
    delta = SpecEnv.make({}, {(("e", "r"), "s"): t}, {})
    steps = step_spec(delta, D)
    outs = [(l.channel, str(l.sort)) for l, _ in steps if l.kind == "out"]
    assert sorted(outs) == [("e", "Unit"), ("r", "Int")]


def test_step_spec_empty():
    assert step_spec(SpecEnv.make({}, {}, {}), D) == []


def test_step_spec_tinit_adds_projections(pop2, pop2_domains):
    delta = SpecEnv.make({"u": pop2.globals_["G_POP"]}, {}, {})
    steps = step_spec(delta, pop2_domains)
    taus = [d for l, d in steps if l.kind == "tau" and l.shared == "u"]
    assert len(taus) == 1
    d2 = taus[0]
    roles = sorted(role for (_, role), _ in d2.sessions)
    assert roles == ["c", "s"]
    assert len(d2.queue_map()) == 12


def test_step_spec_queue_communication():
    t = parse_type("y!(Int). end")
    partner = parse_type("y?(Int). end")
    delta = SpecEnv.make({}, {(("y",), "p"): t, (("y",), "q"): partner},
                         {"y": ()})
    first = step_spec(delta, D)
    sends = [(l, d) for l, d in first if l.comm and l.comm[0] == "out"]
    assert len(sends) == 1
    label, d2 = sends[0]
    assert d2.queue_map()["y"] == (INT,)
    second = step_spec(d2, D)
    recvs = [(l, d) for l, d in second if l.comm and l.comm[0] == "in"]
    assert len(recvs) == 1
    assert recvs[0][1].queue_map()["y"] == ()


def test_simulation_trivial():
    verdict = conditional_simulation(Proc(Branch(())), Store({}, {}),
                                     SpecEnv.make({}, {}, {}), D, depth=5)
    assert isinstance(verdict, Holds)


def test_simulation_corpus_systems(pop2, atm, multiparty, pop2_domains,
                                   atm_domains, multiparty_domains):
    cases = [
        (pop2, pop2_domains, "POP_FULL", {"u": pop2.globals_["G_POP"]}),
        (atm, atm_domains, "ATM_B1C", {"atm": atm.globals_["G_ATM"]}),
        (multiparty, multiparty_domains, "POP_M_RUN",
         {"u": multiparty.globals_["G_POP_P"]}),
    ]
    for module, domains, name, shared in cases:
        gamma = gamma_from_domains(domains)
        sysd = module.systems[name].body
        delta = SpecEnv.make(shared, {}, typecheck_system(
            gamma, TRUE, sysd, shared, domains))
        store = next(gen.stores(domains))
        verdict = conditional_simulation(sysd, store, delta, domains,
                                         depth=40)
        assert verdict.holds(), (name, verdict)


def test_simulation_counterexample_on_channel_mutation(pop2, pop2_domains):
    import conftest
    text = (conftest.CORPUS / "pop2.chor").read_text()
    mutated = parse_module(text.replace("process Exit = bye!()",
                                        "process Exit = r!(0)"))
    gamma = gamma_from_domains(pop2_domains)
    shared = {"u": pop2.globals_["G_POP"]}
    delta = SpecEnv.make(shared, {}, typecheck_system(
        gamma, TRUE, pop2.systems["POP_FULL"].body, shared, pop2_domains))
    store = next(gen.stores(pop2_domains))
    verdict = conditional_simulation(mutated.systems["POP_FULL"].body, store,
                                     delta, pop2_domains, depth=40)
    assert isinstance(verdict, Counterexample)
    assert verdict.action.kind == "out"


def test_subject_reduction_fuzz_sample(pop2, atm, pop2_domains, atm_domains):
    cases = [
        (pop2, pop2_domains, {"u": pop2.globals_["G_POP"]},
         pop2.processes["Init"].body),
        (pop2, pop2_domains, {"u": pop2.globals_["G_POP"]},
         pop2.processes["CPop"].body),
        (atm, atm_domains, {"atm": atm.globals_["G_ATM"]},
         atm.processes["B1"].body),
        (atm, atm_domains, {"atm": atm.globals_["G_ATM"]},
         atm.processes["CATM"].body),
    ]
    steps = srcheck.fuzz_corpus(cases, runs=24, max_steps=50, seed0=100)
    assert steps > 50


# ------------------------------------------------------- running processes

def reference_canon(p):
    """The canonical form of p under the sequential monoid laws, as a
    plain recursion: idle units dropped, `Seq` reassociated to the
    right."""
    match p:
        case Seq(first, second):
            first = reference_canon(first)
            second = reference_canon(second)
            if is_nil(first):
                return second
            if is_nil(second):
                return first
            if isinstance(first, Seq):
                return reference_canon(Seq(first.first, Seq(first.second, second)))
            return Seq(first, second)
        case _:
            return p


def _spine(p) -> tuple:
    """The terms of a canonical process's `Seq` spine, head first."""
    out = []
    while isinstance(p, Seq):
        out.append(p.first)
        p = p.second
    return tuple(out) if is_nil(p) else (*out, p)


def test_the_stack_is_the_spine_of_the_canonical_form():
    """On 1,000 generated processes, and on each in sequence after the
    one before it: `push` gives the spine of the canonical form, holds
    no `Seq` and no 0, and stacks a process on a rest as in sequence."""
    rng = random.Random(0)
    reshaped, before = 0, Branch(())
    for _ in range(1000):
        p = gen.gen_process(rng, depth=4)
        for q in (p, Seq(before, p)):
            stack = push(q)
            assert stack == _spine(reference_canon(q))
            assert not any(isinstance(t, Seq) or is_nil(t) for t in stack)
            assert push(q, push(before)) == push(Seq(q, before))
            reshaped += stack != (q,)
        before = p
    assert reshaped > 300
