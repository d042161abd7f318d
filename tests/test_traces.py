import random
from collections import Counter

import pytest

from chorus_wsi.guards import Store
from chorus_wsi.projection import NonProjectable
from chorus_wsi.syntax.ast import (
    Event, GChoice, GEnd, GlobalDef, INT, UNIT, TEnd, TExternal, TInternal, TIter, TSeq,
)
from chorus_wsi.syntax import parse_type
from chorus_wsi.traces import (
    MissingRun, Opt, RUN_COUNTS, Uncountable,
    covers, mandatory, projection_env, run_count, run_str,
    runs_global, runs_spec, trace_leq, independent, _foata,
)
from chorus_wsi.typecheck import SpecEnv, instantiate
from chorus_wsi.wsi import wsi_by_covering, wsi_by_typing

import gen


def ev(p, pol, chan, sort=UNIT):
    return Event(p, pol, chan, sort)


# ------------------------------------------------------------- runs_global

def test_runs_global_end():
    assert runs_global(GEnd(), 1) == frozenset({()})


def test_runs_global_atm(atm):
    gdef = atm.globals_["G_ATM"]
    g = instantiate(gdef, gdef.params)
    runs = runs_global(g, 1)
    assert len(runs) == 3
    ok_runs = [r for r in runs if ev("b", "!", "ok") in mandatory(r)]
    ko_runs = [r for r in runs if ev("b", "!", "ko") in mandatory(r)]
    assert len(ok_runs) == 1 and len(ko_runs) == 1
    r = ok_runs[0]
    from chorus_wsi.syntax.ast import STR
    assert mandatory(r)[:2] == (ev("c", "!", "login", STR),
                                ev("b", "?", "login", STR))


def test_runs_global_one_loop_shapes():
    from chorus_wsi.syntax.ast import GBranch, GChoice, GIter
    body = GChoice("p", (GBranch("q", "a", INT, GEnd()),))
    g = GIter(body, "p", (("q", "t", UNIT),))
    runs = runs_global(g, 2)
    assert len(runs) == 2
    term = (ev("p", "!", "t"), ev("q", "?", "t"))
    one = (ev("p", "!", "a", INT), ev("q", "?", "a", INT)) + term
    two = (ev("p", "!", "a", INT), ev("q", "?", "a", INT),
           Opt((ev("p", "!", "a", INT), ev("q", "?", "a", INT)))) + term
    assert runs == frozenset({one, two})


# --------------------------------------------------------------- runs_spec

def test_runs_spec_end_only_empty_queues():
    delta = SpecEnv.make({}, {(("y",), "p"): TEnd()}, {"y": ()})
    assert runs_spec(delta, ("y",), 1) == frozenset({()})


def test_runs_spec_single_communication():
    delta = SpecEnv.make({}, {
        (("y",), "p"): parse_type("y!(Int). end"),
        (("y",), "q"): parse_type("y?(Int). end"),
    }, {"y": ()})
    runs = runs_spec(delta, ("y",), 1)
    assert runs == frozenset({(ev("p", "!", "y", INT), ev("q", "?", "y", INT))})


def test_runs_spec_atm_covers_global(atm, atm_domains):
    gdef = atm.globals_["G_ATM"]
    g = instantiate(gdef, gdef.params)
    rg = runs_global(g, 1)
    rs = runs_spec(projection_env(gdef, atm_domains), gdef.params, 1,
                   atm_domains)
    assert covers(rg, rs).holds()


@pytest.mark.parametrize("unfold", [1, 2])
def test_coverage_pop2(pop2, pop2_domains, unfold):
    gdef = pop2.globals_["G_POP"]
    g = instantiate(gdef, gdef.params)
    rg = runs_global(g, unfold)
    rs = runs_spec(projection_env(gdef, pop2_domains), gdef.params, unfold,
                   pop2_domains)
    assert covers(rg, rs).holds()


def _skeletons_are_runs_at_1(enumerate_at) -> bool:
    """Every run at bound 1 is its own skeleton, and the skeletons of the
    runs at bound 2 are exactly the runs at bound 1."""
    at_1 = enumerate_at(1)
    return (all(mandatory(r) == r for r in at_1)
            and {mandatory(r) for r in enumerate_at(2)} == at_1)


def test_skeletons_do_not_depend_on_the_unfold_bound():
    """Covering compares skeletons and takes its targets from the runs
    at bound 1, which is sound only if deeper unfoldings add optional
    segments and nothing else, for global types and for the
    specifications made of their projections."""
    rng = random.Random(4242)
    specs_checked = 0
    for _ in range(300):
        g = gen.gen_global(rng)
        assert _skeletons_are_runs_at_1(lambda k: runs_global(g, k)), g
        gdef = GlobalDef("G", ("a", "b", "c", "t"), g)
        try:
            delta = projection_env(gdef)
        except NonProjectable:
            continue
        assert _skeletons_are_runs_at_1(
            lambda k: runs_spec(delta, gdef.params, k)), g
        specs_checked += 1
    assert specs_checked > 150


def _identical_branches(t) -> bool:
    """Some choice of the local type t has two identical branches."""
    match t:
        case TInternal(branches) | TExternal(branches):
            return len(set(branches)) < len(branches) \
                or any(_identical_branches(b.cont) for b in branches)
        case TSeq(first, second):
            return _identical_branches(first) or _identical_branches(second)
        case TIter(body):
            return _identical_branches(body)
    return False


def test_count_algebra_agrees_with_enumeration():
    """Counting runs gives the size of the enumerated run set, for the
    global types and for the specifications made of their projections.
    Cases 465 and 508 of this seed project to a choice with identical
    branches: counting paths through them, not distinct runs, overcounts
    (392 against 196 on one of them)."""
    rng = random.Random(7)
    specs_checked, identical = 0, set()
    for case in range(600):
        g = gen.gen_global(rng)
        for k in (1, 2):
            assert runs_global(g, k, RUN_COUNTS).runs == len(runs_global(g, k)), \
                (case, k)
        gdef = GlobalDef("G", ("a", "b", "c", "t"), g)
        try:
            delta = projection_env(gdef)
        except NonProjectable:
            continue
        if any(_identical_branches(t) for _, t in delta.sessions):
            identical.add(case)
        for k in (1, 2):
            counted = runs_spec(delta, gdef.params, k, algebra=RUN_COUNTS)
            assert counted.runs == len(runs_spec(delta, gdef.params, k)), \
                (case, k)
        specs_checked += 1
    assert specs_checked > 400
    assert {465, 508} <= identical


@pytest.mark.parametrize("p, q, channels", [
    # one send on y into two different successors: the runs through
    # w are runs of both branches
    ("y!(Int). (w!(Int). end (+) v!(Int). end) (+) y!(Int). w!(Int). end",
     "y?(Int). (w?(Int). end (&) v?(Int). end)", ("y", "w", "v")),
    # a loop right inside a loop: r[r] is one body run of the outer loop
    # and also the nesting of two
    ("((y!(Int). end)*)*", "((y?(Int). end)*)*", ("y",)),
], ids=["one-event-two-successors", "loop-in-loop"])
def test_uncountable_specs_fall_back_to_enumeration(p, q, channels):
    delta = SpecEnv.make({}, {(channels, "p"): parse_type(p),
                              (channels, "q"): parse_type(q)},
                         {y: () for y in channels})
    for k in (2, 3):
        with pytest.raises(Uncountable):
            runs_spec(delta, channels, k, algebra=RUN_COUNTS)
        assert run_count(lambda algebra: runs_spec(
            delta, channels, k, algebra=algebra)) \
            == len(runs_spec(delta, channels, k))


# ------------------------------------------- runs of an implementation

def _impl_runs(iota: dict, shared: str, gdef, domains) -> set:
    """The event sequences of the maximal runs of the system that plays
    each role of gdef by iota's process, in the system semantics."""
    return set(gen.system_runs(iota, gdef, shared, Store(tables=domains.tables)))


def _quit_only(gdef) -> GlobalDef:
    return GlobalDef("G_QUIT", gdef.params, GChoice("c", tuple(
        b for b in gdef.body.branches if b.channel == "quit")))


def test_runs_impl_terminated_is_empty_run(pop2, pop2_domains):
    """Idle processes make only the empty run, and an idle process is
    not an implementation of any role: it opens no session."""
    from chorus_wsi.syntax.ast import Branch
    g = pop2.globals_["G_POP"]
    iota = {"c": Branch(()), "s": Branch(())}
    assert _impl_runs(iota, "u", g, pop2_domains) == {()}
    v = wsi_by_covering(g, "s", Branch(()), pop2_domains)
    assert not v.holds()
    assert str(v) == "MissingRun <empty>: the process opens no session of G_POP"


def test_runs_impl_quit_client(pop2, pop2_domains):
    iota = {"s": pop2.processes["Init"].body,
            "c": pop2.processes["CQuit"].body}
    runs = _impl_runs(iota, "u", pop2.globals_["G_POP"], pop2_domains)
    quit_run = (ev("c", "!", "quit"), ev("s", "?", "quit"),
                ev("s", "!", "bye"), ev("c", "?", "bye"))
    assert quit_run in runs


def test_runs_impl_b2_never_sends_ok(atm, atm_domains):
    from chorus_wsi.syntax.ast import Arm, Branch, Const, Request, Seq, Send, str_lit, int_lit
    client = Request("atm", 1, ("login", "deposit", "overdraft", "ok", "ko"),
                     Seq(Send("login", Const(str_lit("good"))),
                         Seq(Send("overdraft", Const(int_lit(5))),
                             Branch((Arm("ok", "v1", Branch(())),
                                     Arm("ko", "v2", Branch(())))))))
    g = atm.globals_["G_ATM"]
    iota = {"b": atm.processes["B2"].body, "c": client}
    runs = _impl_runs(iota, "atm", g, atm_domains)
    assert runs
    for r in runs:
        assert ev("b", "!", "ok") not in r
    v = wsi_by_covering(g, "b", atm.processes["B2"].body, atm_domains,
                        shared_name="atm")
    assert ev("b", "!", "ok") in mandatory(v.missing)


def test_runs_impl_adequacy_replay(pop2, pop2_domains):
    """Every covering witness of Init under the quit branch embeds into a
    labelled execution of Init with the quit-only client, with
    sort-respecting events."""
    g = _quit_only(pop2.globals_["G_POP"])
    init = pop2.processes["Init"].body
    v = wsi_by_covering(g, "s", init, pop2_domains)
    assert v.holds() and v.contexts
    runs = _impl_runs({"c": pop2.processes["CQuit"].body, "s": init}, "u",
                      g, pop2_domains)
    for _, witness in v.contexts:
        assert witness in runs


# ------------------------------------------------------------ trace preorder

def test_optional_below_empty():
    assert trace_leq((Opt((ev("p", "!", "a"),)),), ())


def test_empty_below_anything():
    assert trace_leq((), (ev("p", "!", "a"), ev("q", "?", "b")))


def test_optional_tail_drops_or_matches():
    r1 = (ev("p", "!", "a"), Opt((ev("q", "?", "a"),)))
    flat = (ev("p", "!", "a"), ev("q", "?", "a"))
    head = (ev("p", "!", "a"),)
    assert trace_leq(r1, flat)
    assert trace_leq(r1, head)
    assert not trace_leq(flat, head)


def test_permutation_soundness():
    a = ev("p", "!", "a")
    b = ev("q", "?", "b")
    assert independent(a, b)
    assert trace_leq((a, b), (b, a))
    assert trace_leq((b, a), (a, b))
    c = ev("p", "?", "b")  # same participant as a, same channel as b
    assert not trace_leq((a, c), (c, a)) or not independent(a, c)


def test_dependent_events_do_not_commute():
    a = ev("p", "!", "a")
    a2 = ev("q", "?", "a")  # same channel
    assert not trace_leq((a, a2), (a2, a))


def _foata_by_passes(events: tuple) -> tuple:
    """The Foata form by repeated passes: each pass takes, in order, the
    events that depend on no event it leaves behind nor on one it took."""
    remaining, layers = list(events), []
    while remaining:
        layer, blocked = [], []
        for e in remaining:
            if any(not independent(e, other) for other in blocked + layer):
                blocked.append(e)
            else:
                layer.append(e)
        layers.append(tuple(sorted(layer, key=lambda e: (
            e.participant, e.channel, e.polarity, str(e.sort)))))
        remaining = blocked
    return tuple(layers)


def test_foata_layers_agree_with_repeated_passes():
    """One pass that puts each event one layer past the last event it
    depends on gives the layers of the repeated passes, also when a
    participant and a channel share a name."""
    rng = random.Random(9100)
    for _ in range(500):
        run = tuple(gen.gen_event(rng, participants=("p", "q", "a"),
                                  channels=("a", "b", "c"))
                    for _ in range(rng.randint(0, 12)))
        assert _foata(run) == _foata_by_passes(run), run


@pytest.mark.parametrize("seed", range(60))
def test_preorder_reflexive(seed):
    rng = random.Random(seed + 7000)
    r = gen.gen_run(rng, rng.randint(0, 5))
    assert trace_leq(r, r)


@pytest.mark.parametrize("seed", range(120))
def test_preorder_transitive(seed):
    rng = random.Random(seed + 8000)
    r1 = gen.gen_run(rng, rng.randint(0, 3))
    r2 = gen.gen_run(rng, rng.randint(0, 3))
    r3 = gen.gen_run(rng, rng.randint(0, 3))
    if trace_leq(r1, r2) and trace_leq(r2, r3):
        assert trace_leq(r1, r3), (run_str(r1), run_str(r2), run_str(r3))


@pytest.mark.parametrize("seed", range(80))
def test_permutation_soundness_sampled(seed):
    """Swapping adjacent independent events preserves the preorder in
    both directions."""
    rng = random.Random(seed + 9000)
    events = tuple(gen.gen_event(rng) for _ in range(rng.randint(2, 5)))
    positions = [i for i in range(len(events) - 1)
                 if independent(events[i], events[i + 1])]
    if not positions:
        return
    i = rng.choice(positions)
    swapped = events[:i] + (events[i + 1], events[i]) + events[i + 2:]
    assert trace_leq(events, swapped)
    assert trace_leq(swapped, events)
    other = tuple(gen.gen_event(rng) for _ in range(rng.randint(0, 4)))
    assert trace_leq(events, other) == trace_leq(swapped, other)
    assert trace_leq(other, events) == trace_leq(other, swapped)


def test_not_an_implementation_wrong_role(pop2, pop2_domains):
    """A requester cannot play s, the role that accepts: both checks
    reject it before looking at its runs."""
    g = pop2.globals_["G_POP"]
    cquit = pop2.processes["CQuit"].body  # a requester cannot play s
    problem = "the process does not uniquely play 's' in 'u'"
    v = wsi_by_covering(g, "s", cquit, pop2_domains)
    assert not v.holds() and str(v) == f"MissingRun <empty>: {problem}"
    t = wsi_by_typing(g, "s", cquit, pop2_domains)
    assert not t.holds() and t.error.rule == "role"


# ------------------------------------ brute-force oracle for the preorder

def all_events(run: tuple) -> tuple:
    """The run's events, those inside optional segments included."""
    out = []
    for item in run:
        if isinstance(item, Event):
            out.append(item)
        else:
            out.extend(all_events(item.items))
    return tuple(out)


def _items_independent(i1, i2) -> bool:
    evs1 = all_events((i1,))
    evs2 = all_events((i2,))
    return all(independent(x, y) for x in evs1 for y in evs2)


import functools


@functools.lru_cache(maxsize=None)
def class_of(run: tuple, cap: int = 2000) -> frozenset:
    """All runs reachable by swapping adjacent independent items."""
    seen = {run}
    frontier = [run]
    while frontier and len(seen) < cap:
        r = frontier.pop()
        for i in range(len(r) - 1):
            if _items_independent(r[i], r[i + 1]):
                swapped = r[:i] + (r[i + 1], r[i]) + r[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    frontier.append(swapped)
    return frozenset(seen)


@functools.lru_cache(maxsize=None)
def derivable(a: tuple, b: tuple) -> bool:
    """Direct derivability in the preorder's rule system (refl, drop,
    emp, cmp) on a fixed pair of item sequences.

    One memo (the ``lru_cache``) is shared by every call, across pairs
    and across tests.  That is sound because each recursive call is on
    ``(a[:i], b[:j])`` or ``(a[i:], b[j:])`` with ``(i, j)`` neither
    ``(0, 0)`` nor ``(len(a), len(b))``, so its combined length
    ``len(a) + len(b)`` is strictly smaller than the caller's.  The
    recursion is therefore well-founded: no call ever waits on itself,
    and every cached entry is the final answer for its pair, never a
    provisional one cut short by a cycle.  ``derivable.cache_clear()``
    drops the memo."""
    if a == b or not a:
        return True
    if len(a) == 1 and isinstance(a[0], Opt) and not b:
        return True
    for i in range(len(a) + 1):
        for j in range(len(b) + 1):
            if (i, j) == (0, 0) or (i, j) == (len(a), len(b)):
                continue
            if derivable(a[:i], b[:j]) and derivable(a[i:], b[j:]):
                return True
    return False


def oracle_leq(r1: tuple, r2: tuple) -> bool:
    reps2 = class_of(r2)
    return any(derivable(a, b) for a in class_of(r1) for b in reps2)


@pytest.mark.parametrize("seed", range(120))
def test_matcher_agrees_with_oracle_sampled(seed):
    rng = random.Random(seed)
    r1 = gen.gen_run(rng, rng.randint(0, 4))
    r2 = gen.gen_run(rng, rng.randint(0, 4))
    assert trace_leq(r1, r2) == oracle_leq(r1, r2), (run_str(r1), run_str(r2))


def test_oracle_shared_memo_agrees_with_fresh_memo():
    """The shared ``derivable`` memo changes no answer: each pair gets
    the same verdict from a memo warmed by all earlier pairs as from a
    memo cleared just before it."""
    rng = random.Random(2024)
    pairs = [(gen.gen_run(rng, rng.randint(0, 4)),
              gen.gen_run(rng, rng.randint(0, 4))) for _ in range(300)]
    derivable.cache_clear()
    shared = [oracle_leq(r1, r2) for r1, r2 in pairs]
    fresh = []
    for r1, r2 in pairs:
        derivable.cache_clear()
        fresh.append(oracle_leq(r1, r2))
    derivable.cache_clear()
    disagreements = [(run_str(r1), run_str(r2))
                     for (r1, r2), s, f in zip(pairs, shared, fresh) if s != f]
    assert disagreements == []


def enumerate_runs(events, max_events, allow_opt=True):
    """All annotated runs with at most max_events events (optional
    segments one level deep)."""
    if max_events == 0:
        return [()]
    out = [()]
    for e in events:
        for rest in enumerate_runs(events, max_events - 1, allow_opt):
            out.append((e,) + rest)
    if allow_opt:
        for k in range(1, max_events + 1):
            for inner in enumerate_runs(events, k, False):
                if len(inner) != k:
                    continue
                for rest in enumerate_runs(events, max_events - k, allow_opt):
                    out.append((Opt(inner),) + rest)
    return out


def test_matcher_agrees_with_oracle_exhaustive_small():
    events = [ev("p", "!", "a"), ev("q", "?", "a"), ev("p", "!", "b")]
    universe = {r for r in enumerate_runs(events, 2)}
    assert len(universe) > 30
    for r1 in universe:
        for r2 in universe:
            assert trace_leq(r1, r2) == oracle_leq(r1, r2), \
                (run_str(r1), run_str(r2))


def _embed(m1: tuple, m2: tuple) -> bool:
    n1, n2 = len(m1), len(m2)

    def step(i: int, assigned: tuple) -> bool:
        if i == n1:
            return True
        ev = m1[i]
        for j in range(n2):
            if j in assigned or m2[j] != ev:
                continue
            ok = True
            for i2, j2 in enumerate(assigned):
                # order of dependent pairs must agree on both sides
                if not independent(m1[i2], ev) and not j2 < j:
                    ok = False
                    break
                if not independent(m2[j2], m2[j]) and not j2 < j:
                    ok = False
                    break
            if ok and step(i + 1, assigned + (j,)):
                return True
        return False

    return step(0, ())


def test_greedy_matcher_agrees_with_backtracking_embedding():
    """`_embed` decides the preorder by backtracking over every injective
    map of m1's events onto equal events of m2 that keeps dependent pairs
    in order; the greedy `trace_leq` gives its answer on seeded pairs of
    up to 9 events.  About half the left runs are sub-multisets of the
    right run with a few adjacent swaps, so the pairs include many that
    are below, and many with equal multisets but different Foata forms."""
    rng = random.Random(16016)
    roles, chans = ("p", "q", "r"), ("a", "b", "c")
    kinds = Counter()
    for _ in range(20000):
        m2 = tuple(gen.gen_event(rng, roles, chans) for _ in range(rng.randint(0, 9)))
        if rng.random() < 0.5:
            drop = rng.choice((0, 0, 1, 2))
            m1 = list(m2)
            for _ in range(min(drop, len(m1))):
                del m1[rng.randrange(len(m1))]
            for _ in range(rng.randint(0, 3)):
                if len(m1) > 1:
                    i = rng.randrange(len(m1) - 1)
                    m1[i], m1[i + 1] = m1[i + 1], m1[i]
            m1 = tuple(m1)
        else:
            m1 = tuple(gen.gen_event(rng, roles, chans)
                       for _ in range(rng.randint(0, 9)))
        expected = _embed(m1, m2)
        assert trace_leq(m1, m2) == expected, (run_str(m1), run_str(m2))
        kinds[expected, Counter(m1) == Counter(m2) and _foata(m1) != _foata(m2)] += 1
    # (answer, equal multisets with different Foata forms): the last
    # kind is never below, since an embedding would be a bijection
    assert sorted(kinds) == [(False, False), (False, True), (True, False)] \
        and min(kinds.values()) > 1000, kinds


# ----------------------------------------------------------------- covering

def test_covers_empty_set():
    assert covers(frozenset(), frozenset({(ev("p", "!", "a"),)})).holds()


def test_covers_reports_missing_run():
    r = (ev("p", "!", "a"),)
    verdict = covers(frozenset({r}), frozenset({()}))
    assert isinstance(verdict, MissingRun)
    assert verdict.run == r


def test_covers_agrees_with_pairwise_trace_leq():
    """Covering on skeletons with a Foata index gives the verdict of the
    definition on annotated runs; a missing run is an uncovered skeleton
    and every witness pair is ordered by the preorder."""
    rng = random.Random(5151)
    outcomes = set()
    for _ in range(400):
        runs1 = {gen.gen_run(rng, rng.randint(0, 4))
                 for _ in range(rng.randint(0, 3))}
        runs2 = {gen.gen_run(rng, rng.randint(0, 5))
                 for _ in range(rng.randint(0, 4))}
        verdict = covers(runs1, runs2)
        expected = all(any(trace_leq(r1, r2) for r2 in runs2) for r1 in runs1)
        assert verdict.holds() == expected
        outcomes.add(expected)
        skeletons1 = {mandatory(r) for r in runs1}
        skeletons2 = {mandatory(r) for r in runs2}
        if expected:
            assert {s1 for s1, _ in verdict.witnesses} == skeletons1
            assert all(trace_leq(s1, s2) and s2 in skeletons2
                       for s1, s2 in verdict.witnesses)
        else:
            assert verdict.run in skeletons1
            assert not any(trace_leq(verdict.run, r2) for r2 in runs2)
    assert outcomes == {True, False}
