"""Annotated-run enumeration and the trace preorder.

Runs are tuples mixing events with optional segments (`Opt`).  Optional
segments arise from unfolding iterations: the first execution of a loop
body is mandatory, every further unfolding is wrapped as optional.  The
global-type and specification enumerators bound iteration unfolding by
K; both produce complete runs (sessions terminated, queues drained).
Covering enumerates no run of an implementation or of a specification:
it searches for a witness run target by target (`wsi`), and `cover`
enumerates the specification only to count its runs.

The preorder sees only a run's mandatory skeleton (its events outside
optional segments), and each unfolding beyond the first only adds an
optional segment, so the skeletons at every bound K are exactly the
runs at K = 1.  Covering therefore compares skeletons, and no covering
verdict depends on K.

The global-type and specification enumerators are each written once,
over an algebra passed in as an argument.  `RUN_SETS` builds the runs;
`RUN_COUNTS` only counts them, so the number of runs at a bound K whose
runs would not fit in memory is found in milliseconds.  A count is
exact because each union it sums is disjoint (the alternatives of a
choice start with different events; a specification move that repeats
the event and the successor of an earlier move is skipped, since it
adds no run) and each product it multiplies is injective (no left run
is a proper prefix of another, and the `Opt` that opens a further loop
unfolding cannot be read as the start of the loop's continuation).
Where the count algebra cannot see that these conditions hold, for
instance when one specification state offers one event into two
different successors, it raises `Uncountable`, and `run_count` falls
back to the size of the enumerated set.

A trace stands for its equivalence class modulo permutation of causally
independent events, where two events are independent iff they are by
different participants on different channels.  r1 is below r2 when the
mandatory events of r1 embed into those of r2: injectively, onto equal
events, keeping the order of every dependent pair of r1.  `trace_leq`
decides it with a greedy matcher in one pass over r2: an event of r2
matches the first unmatched copy of its label in r1 if every earlier
event of r1 it depends on is matched, and is passed over otherwise.  A
full match is an embedding, since it matches each dependent pair in
order.  Conversely, copies of a label depend on each other, so an
embedding maps them in order, and after each prefix of r2 the matcher
has matched every event that the embedding maps into that prefix: the
first unmatched copy is then the one the embedding maps there, and all
it depends on is matched.  So the matcher matches all of r1 exactly
when r1 is below r2.  The covering search (`wsi`) runs the same matcher
one event at a time, over the tables of `matching_tables`.  The tests
check it against a brute-force closure of the preorder's inference
rules on small runs, and against a backtracking search over every
embedding on seeded runs of up to 9 events.
"""

from __future__ import annotations

from .guards import DomainDecl, EMPTY_DOMAINS
from .projection import participants_ordered, project, well_formed
from .pseudotype import normal_form
from .syntax.ast import (
    Event, GChoice, GEnd, GIter, GSeq, GlobalDef, GlobalType, TEnd,
    TExternal, TInternal, TIter, TSeq, frozen_node,
)
from .typecheck import SpecEnv, instantiate


@frozen_node
class Opt:
    """An optional segment [r] of an annotated run."""

    items: tuple

    def __str__(self) -> str:
        return "[" + " ".join(str(i) for i in self.items) + "]"


def run_str(run: tuple) -> str:
    return " ".join(str(i) for i in run) if run else "<empty>"


def _run_texts():
    """A `run_str` that renders each distinct event or optional segment
    once: the runs of a global type repeat a few dozen of them thousands
    of times."""
    texts = {}

    def text(item) -> str:
        out = texts.get(item)
        if out is None:
            out = texts[item] = str(item)
        return out

    return lambda run: " ".join(map(text, run)) if run else "<empty>"


def sorted_runs(runs) -> list:
    """`sorted(runs, key=run_str)`."""
    return sorted(runs, key=_run_texts())


def sorted_run_strs(runs) -> list:
    """`[run_str(r) for r in sorted_runs(runs)]`, each run rendered once."""
    return sorted(map(_run_texts(), runs))


def mandatory(run: tuple) -> tuple:
    """The run with all optional segments deleted."""
    out = []
    for item in run:
        if isinstance(item, Event):
            out.append(item)
    return tuple(out)


class IllFormed(Exception):
    """The global type breaks the side conditions of `well_formed`."""

    def __init__(self, violations: list):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = tuple(violations)


# ------------------------------------------------------ algebras of run sets

class Uncountable(Exception):
    """The count algebra cannot tell that a union is disjoint or that a
    product is injective, so it cannot count the runs exactly."""


def _nestings(body_runs: frozenset, k_max: int) -> frozenset:
    """r1, r1[r2], r1[r2[r3]], ... with at most k_max bodies."""
    levels = [frozenset(body_runs)]
    for _ in range(k_max - 1):
        prev = levels[-1]
        levels.append(frozenset(
            r1 + (Opt(rest),) for r1 in body_runs for rest in prev))
    out: set = set()
    for level in levels:
        out |= level
    return frozenset(out)


class RunSets:
    """The sets of annotated runs themselves."""

    @staticmethod
    def unit() -> frozenset:
        return frozenset({()})

    @staticmethod
    def choice(alternatives) -> frozenset:
        """head + r for every (head, runs) alternative and r in runs."""
        out: set = set()
        for head, runs in alternatives:
            out.update(head + r for r in runs)
        return frozenset(out)

    @staticmethod
    def seq(lefts: frozenset, rights: frozenset) -> frozenset:
        return frozenset(l + r for l in lefts for r in rights)

    @staticmethod
    def iterate(body: frozenset, tails: frozenset, unfold: int) -> frozenset:
        """Nestings of up to `unfold` body runs, each followed by a tail."""
        return frozenset(n + t for n in _nestings(body, unfold) for t in tails)


@frozen_node
class Count:
    """How many runs a set holds, with what it takes to count its unions
    and products exactly: whether no run is a proper prefix of another
    (never claimed falsely), and whether the set may hold the empty run
    or a run that starts with an optional segment (never denied
    falsely)."""

    runs: int
    prefix_free: bool
    has_empty: bool
    opt_headed: bool

    def __len__(self) -> int:
        """The count, as `len` gives it for a set of runs, so code that
        sizes run sets by `len` takes counts too.  Past `sys.maxsize`
        `len` raises OverflowError and only `runs` holds the count."""
        return self.runs


class RunCounts:
    """The number of runs of each set, found without building a run.

    A choice sums: its alternatives start with different events, so their
    runs are disjoint.  A sequence multiplies: when no left run is a
    proper prefix of another, a run of l + r splits back into l and r in
    one way only.  An iteration of n body runs followed by t tails counts
    (n + n^2 + ... + n^K) * t: the nesting r1[r2[...]] splits back into
    r1, r2, ... in one way because no body run is a proper prefix of
    another, and the `Opt` after r1 marks where a further body starts,
    which no tail can also mark when no tail starts with an `Opt`.  Where
    one of these conditions is not known to hold, the operation raises
    `Uncountable` rather than return a count that may be wrong.  Both
    enumerators only ever build a choice from alternatives whose heads
    are non-empty event tuples.
    """

    @staticmethod
    def unit() -> Count:
        return Count(1, True, True, False)

    @staticmethod
    def choice(alternatives) -> Count:
        alternatives = list(alternatives)
        firsts = {head[0] for head, _ in alternatives}
        if len(firsts) != len(alternatives):
            raise Uncountable("two alternatives start with the same event")
        return Count(sum(c.runs for _, c in alternatives),
                     all(c.prefix_free for _, c in alternatives), False, False)

    @staticmethod
    def seq(lefts: Count, rights: Count) -> Count:
        if not lefts.prefix_free:
            raise Uncountable("a left run is a proper prefix of another")
        return Count(lefts.runs * rights.runs, rights.prefix_free,
                     lefts.has_empty and rights.has_empty,
                     lefts.opt_headed or (lefts.has_empty and rights.opt_headed))

    @staticmethod
    def iterate(body: Count, tails: Count, unfold: int) -> Count:
        if not body.prefix_free:
            raise Uncountable("a body run is a proper prefix of another")
        if tails.opt_headed:
            raise Uncountable("a tail may start with an optional segment")
        n = body.runs  # n + n^2 + ... + n^K, by the closed form
        nestings = unfold if n == 1 else (n ** (unfold + 1) - n) // (n - 1)
        return Count(nestings * tails.runs,
                     tails.prefix_free and not tails.has_empty,
                     body.has_empty and tails.has_empty, body.has_empty)


RUN_SETS = RunSets()
RUN_COUNTS = RunCounts()


def run_count(enumerate_in) -> int:
    """The number of runs `enumerate_in(algebra)` enumerates: counted,
    or enumerated and measured where the count algebra is not exact."""
    try:
        return enumerate_in(RUN_COUNTS).runs
    except Uncountable:
        return len(enumerate_in(RUN_SETS))


# ------------------------------------------------------- runs of global types

def runs_global(g: GlobalType, unfold: int = 2, algebra=RUN_SETS):
    """The annotated runs allowed by g, iterations unfolded at most
    `unfold` times, in the canonical interleaving of each rule, as a
    value of `algebra`."""
    if unfold < 1:
        raise ValueError("the unfold bound must be at least 1")
    violations = well_formed(g)
    if violations:
        raise IllFormed(violations)

    def walk(node: GlobalType):
        match node:
            case GEnd():
                return algebra.unit()
            case GChoice(sender, branches):
                return algebra.choice(
                    ((Event(sender, "!", b.channel, b.sort),
                      Event(b.receiver, "?", b.channel, b.sort)), walk(b.cont))
                    for b in branches)
            case GSeq(first, second):
                return algebra.seq(walk(first), walk(second))
            case GIter(body, controller, term):
                tail = []
                for p, chan, sort in term:
                    tail.append(Event(controller, "!", chan, sort))
                    tail.append(Event(p, "?", chan, sort))
                # well-formedness gives every iteration a termination
                return algebra.iterate(
                    walk(body), algebra.choice([(tuple(tail), algebra.unit())]),
                    unfold)
        raise TypeError(f"not a global type: {node!r}")

    return walk(g)


# ---------------------------------------------------- runs of specifications

def projection_env(gdef: GlobalDef, domains: DomainDecl = EMPTY_DOMAINS) -> SpecEnv:
    """The specification holding every projection of the instantiated
    global type, plus its empty queues."""
    g = instantiate(gdef, gdef.params)
    parts = participants_ordered(g)
    sessions = {(tuple(gdef.params), p): normal_form(project(g, p), domains)
                for p in parts}
    queues = {y: () for y in gdef.params}
    return SpecEnv.make({}, sessions, queues)


def runs_spec(delta: SpecEnv, ys: tuple, unfold: int = 2,
              domains: DomainDecl = EMPTY_DOMAINS, algebra=RUN_SETS):
    """The annotated runs of session ys generated by the specification,
    as a value of `algebra`.

    Communications follow the queue discipline (a send enqueues its
    sort, a receive consumes a matching head); iterations unfold in
    lockstep across the endpoints that sit at a loop head, one body
    execution mandatory and up to unfold-1 optional ones.
    """
    if unfold < 1:
        raise ValueError("the unfold bound must be at least 1")
    sessions = {}
    for (chans, role), t in delta.sessions:
        if set(chans) & set(ys):
            sessions[role] = normal_form(t, domains)
    queues = {y: q for y, q in delta.queues if y in ys}
    for y in ys:
        queues.setdefault(y, ())
    return _spec_runs(_freeze_spec(sessions, queues), unfold, domains,
                      algebra, {})


def _freeze_spec(sessions: dict, queues: dict):
    return (tuple(sorted(sessions.items(), key=lambda kv: kv[0])),
            tuple(sorted(queues.items())))


def _spec_runs(state, unfold: int, domains: DomainDecl, algebra, memo: dict):
    known = memo.get(state)
    if known is not None:
        return known
    memo[state] = algebra.choice(())  # cut accidental cycles
    sessions = dict(state[0])
    queues = dict(state[1])

    moves = []
    for role in sorted(sessions):
        t = sessions[role]
        if isinstance(t, TExternal):
            for b in t.branches:
                q = queues.get(b.channel, ())
                if q and q[0] == b.sort:
                    moves.append((role, "?", b))
        elif isinstance(t, TInternal):
            for b in t.branches:
                if b.channel in queues:
                    moves.append((role, "!", b))

    taken = []
    for role, pol, b in moves:
        new_sessions = dict(sessions)
        new_sessions[role] = normal_form(b.cont, domains)
        new_queues = dict(queues)
        if pol == "!":
            new_queues[b.channel] = queues[b.channel] + (b.sort,)
        else:
            new_queues[b.channel] = queues[b.channel][1:]
        move = (Event(role, pol, b.channel, b.sort),
                _freeze_spec(new_sessions, new_queues))
        # a move with the event and successor of an earlier one (a choice
        # with identical branches) adds no run; comparing moves, unlike
        # hashing them, reads a successor only when the events are equal
        if move not in taken:
            taken.append(move)
    out = algebra.choice(
        ((ev,), _spec_runs(after, unfold, domains, algebra, memo))
        for ev, after in taken)

    if not moves:
        loopers = {role: t for role, t in sessions.items()
                   if isinstance(t, TIter)
                   or (isinstance(t, TSeq) and isinstance(t.first, TIter))}
        if loopers:
            bodies = {}
            conts = {}
            for role, t in loopers.items():
                it = t if isinstance(t, TIter) else t.first
                bodies[role] = normal_form(it.body, domains)
                conts[role] = t.second if isinstance(t, TSeq) else TEnd()
            round_runs = _spec_runs(_freeze_spec(bodies, queues), unfold,
                                    domains, algebra, {})
            after = dict(sessions)
            for role, cont in conts.items():
                after[role] = normal_form(cont, domains)
            tails = _spec_runs(_freeze_spec(after, queues), unfold, domains,
                               algebra, memo)
            out = algebra.iterate(round_runs, tails, unfold)
        elif all(isinstance(t, TEnd) for t in sessions.values()) \
                and all(not q for q in queues.values()):
            out = algebra.unit()

    memo[state] = out
    return out


# ------------------------------------------------------------ trace preorder

def matching_tables(target: tuple) -> tuple:
    """(copies, needs) of the greedy matcher for target: copies maps each
    event to the bitmask of the positions of its copies in target, and
    needs maps the bit of each position to the bitmask of the earlier
    positions whose events it depends on, those with its participant or
    its channel."""
    copies: dict = {}
    needs: dict = {}
    seen: dict = {}  # ("p", participant) or ("c", channel) -> its positions
    for i, ev in enumerate(target):
        bit = 1 << i
        copies[ev] = copies.get(ev, 0) | bit
        keys = ("p", ev.participant), ("c", ev.channel)
        needs[bit] = seen.get(keys[0], 0) | seen.get(keys[1], 0)
        for key in keys:
            seen[key] = seen.get(key, 0) | bit
    return copies, needs


def trace_leq(r1: tuple, r2: tuple) -> bool:
    """r1 is covered by r2: the mandatory events of r1 embed into r2
    modulo permutation of causally independent events (optional
    segments of either side are droppable).  Decided by the greedy
    matcher of the module docstring, in one pass over r2."""
    target = mandatory(r1)
    copies, needs = matching_tables(target)
    mask = 0
    for ev in mandatory(r2):
        free = copies.get(ev, 0) & ~mask
        first = free & -free  # the first unmatched copy
        if first and not needs[first] & ~mask:
            mask |= first
    return mask == (1 << len(target)) - 1
