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
over an algebra passed in as an argument.  `RUN_TUPLES` builds the runs
as a tuple, by sums (a choice concatenates its alternatives) and
products (a sequence pairs every left run with every right one), and
hashes none; `RUN_COUNTS` only counts them, so the number of runs at a
bound K whose runs would not fit in memory is found in milliseconds.
A count is exact, and the tuple holds each run once, because each union
it sums is disjoint (the alternatives of a choice start with different
events; a specification move that repeats the event and the successor
of an earlier move is skipped, since it adds no run) and each product
it multiplies is injective (no left run is a proper prefix of another,
and the `Opt` that opens a further loop unfolding cannot be read as the
start of the loop's continuation).  Where the count algebra cannot see
that these conditions hold, for instance when one specification state
offers one event into two different successors, it raises `Uncountable`,
and `run_count` falls back to the number of distinct runs in the tuple.
For a global type it never raises: a well-formed choice sends on
distinct channels, and a loop always ends with its termination
messages.  So the tuple of runs of a global type holds each run once,
and `traces` prints it and covering reads its targets from it as built.

A trace stands for its equivalence class modulo permutation of causally
independent events, where two events are independent iff they are by
different participants on different channels.  Distinct runs of a
global type at bound 1 are distinct traces: they agree up to the first
choice they resolve apart, whose sender sends there on two different
channels, and a trace never reorders one participant's events.

r1 is below r2 when the mandatory events of r1 embed into those of r2:
injectively, onto equal events, keeping the order of every dependent
pair of r1.  `trace_leq` decides it with a greedy matcher in one pass
over r2: an event of r2 matches the first unmatched copy of its label
in r1 if every earlier event of r1 it depends on is matched, and is
passed over otherwise.  A full match is an embedding, since it matches
each dependent pair in order.  Conversely, copies of a label depend on
each other, so an embedding maps them in order, and after each prefix
of r2 the matcher has matched every event that the embedding maps into
that prefix: the first unmatched copy is then the one the embedding
maps there, and all it depends on is matched.  So the matcher matches
all of r1 exactly when r1 is below r2.  The covering search (`wsi`)
runs the same matcher one event at a time, over the tables of
`matching_tables`.  The tests check it against a brute-force closure
of the preorder's inference rules on small runs, and against a
backtracking search over every embedding on seeded runs of up to 9
events.
"""

from __future__ import annotations

from .projection import participants_ordered, project, well_formed
from .pseudotype import normal_form
from .syntax.ast import (
    Event, GChoice, GEnd, GIter, GSeq, GlobalDef, GlobalType, TEnd,
    TExternal, TInternal, TIter, TSeq, frozen_node,
)


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


# ------------------------------------------------------ algebras of runs

class Uncountable(Exception):
    """The count algebra cannot tell that a union is disjoint or that a
    product is injective, so it cannot count the runs exactly."""


class RunTuples:
    """The runs themselves, as a tuple: built by sums and products, and
    none hashed (see the module docstring)."""

    @staticmethod
    def unit() -> tuple:
        return ((),)

    @staticmethod
    def choice(alternatives) -> tuple:
        return tuple(head + r for head, runs in alternatives for r in runs)

    @staticmethod
    def seq(lefts: tuple, rights: tuple) -> tuple:
        return tuple(l + r for l in lefts for r in rights)

    @staticmethod
    def iterate(body: tuple, tails: tuple, unfold: int) -> tuple:
        """The nestings r1, r1[r2], r1[r2[r3]], ... of up to `unfold`
        body runs, each followed by a tail."""
        level, nestings = body, list(body)
        for _ in range(unfold - 1):
            level = tuple(r1 + (Opt(rest),) for r1 in body for rest in level)
            nestings += level
        return tuple(n + t for n in nestings for t in tails)


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
        """The count, as `len` gives it for the tuple of runs, so code
        that sizes runs by `len` takes counts too.  Past `sys.maxsize`
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


RUN_TUPLES = RunTuples()
RUN_COUNTS = RunCounts()


def run_count(enumerate_in) -> int:
    """The number of distinct runs `enumerate_in(algebra)` enumerates:
    counted, or enumerated where the count algebra is not exact."""
    try:
        return enumerate_in(RUN_COUNTS).runs
    except Uncountable:
        return len(set(enumerate_in(RUN_TUPLES)))


# ------------------------------------------------------- runs of global types

def runs_global(g: GlobalType, unfold: int = 2, algebra=RUN_TUPLES):
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

def projection_env(gdef: GlobalDef) -> dict:
    """The specification made of the projections of the global type:
    each participant -> the normal form of its projection.  A
    projection's guards are all the literal true, so no declared domain
    could change a normal form."""
    g = gdef.body
    return {p: normal_form(project(g, p)) for p in participants_ordered(g)}


def runs_spec(spec: dict, ys: tuple, unfold: int = 2, algebra=RUN_TUPLES):
    """The annotated runs of the session over channels ys whose roles
    have the pseudo-types of `spec`, role -> pseudo-type, from empty
    queues, as a value of `algebra`.

    Communications follow the queue discipline (a send enqueues its
    sort, a receive consumes a matching head); iterations unfold in
    lockstep across the endpoints that sit at a loop head, one body
    execution mandatory and up to unfold-1 optional ones.  Unlike the
    runs of a global type, two paths of a specification may give one
    run (see the module docstring), which the tuple build then holds
    twice.  Each pseudo-type is normalized under no declared domain, as
    the projections of `projection_env` are.
    """
    if unfold < 1:
        raise ValueError("the unfold bound must be at least 1")
    sessions = {role: normal_form(t) for role, t in spec.items()}
    return _spec_runs(_freeze_spec(sessions, dict.fromkeys(ys, ())), unfold,
                      algebra, {})


def _freeze_spec(sessions: dict, queues: dict):
    return (tuple(sorted(sessions.items(), key=lambda kv: kv[0])),
            tuple(sorted(queues.items())))


def _spec_runs(state, unfold: int, algebra, memo: dict):
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
        new_sessions[role] = normal_form(b.cont)
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
        ((ev,), _spec_runs(after, unfold, algebra, memo))
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
                bodies[role] = normal_form(it.body)
                conts[role] = t.second if isinstance(t, TSeq) else TEnd()
            round_runs = _spec_runs(_freeze_spec(bodies, queues), unfold,
                                    algebra, {})
            after = dict(sessions)
            for role, cont in conts.items():
                after[role] = normal_form(cont)
            tails = _spec_runs(_freeze_spec(after, queues), unfold, algebra, memo)
            out = algebra.iterate(round_runs, tails, unfold)
        elif all(isinstance(t, TEnd) for t in sessions.values()) \
                and all(not q for q in queues.values()):
            out = algebra.unit()

    memo[state] = out
    return out


# ------------------------------------------------------------ trace preorder

def matching_tables(target: tuple) -> tuple:
    """(copies, needs, full) of the greedy matcher for target: copies
    maps each event to the bitmask of the positions of its copies in
    target, needs maps the bit of each position to the bitmask of the
    earlier positions whose events it depends on, those with its
    participant or its channel, and full has the bit of every position."""
    copies: dict = {}
    needs: dict = {}
    by_role: dict = {}  # participant -> the positions of its events
    by_chan: dict = {}  # channel -> the positions of its events
    for i, ev in enumerate(target):
        bit = 1 << i
        copies[ev] = copies.get(ev, 0) | bit
        p, c = by_role.get(ev.participant, 0), by_chan.get(ev.channel, 0)
        needs[bit] = p | c
        by_role[ev.participant], by_chan[ev.channel] = p | bit, c | bit
    return copies, needs, (1 << len(target)) - 1


def trace_leq(r1: tuple, r2: tuple, tables: tuple | None = None) -> bool:
    """r1 is covered by r2: the mandatory events of r1 embed into r2
    modulo permutation of causally independent events (optional
    segments of either side are droppable).  Decided by the greedy
    matcher of the module docstring, in one pass over r2, over
    `tables`, the `matching_tables` of the mandatory events of r1, when
    the caller has them already."""
    copies, needs, full = tables or matching_tables(mandatory(r1))
    mask = 0
    for ev in mandatory(r2):
        free = copies.get(ev, 0) & ~mask
        first = free & -free  # the first unmatched copy
        if first and not needs[first] & ~mask:
            mask |= first
    return mask == full
