"""The paper's covering relation on sets of runs, kept as a reference.

R1 is covered by R2 when every run of R1 is below some run of R2 in the
trace preorder (`traces.trace_leq`).  `cover` decides whether the
projections of a global type cover its runs by the product search of
`wsi.projections_cover`, target skeleton by target skeleton, and builds
no run set of the specification; `covers` decides it on the runs that
`runs_global` and `runs_spec` build at bound 1, which the tests compare
it with (test_cover.py).
"""

from __future__ import annotations

from chorus_wsi.syntax.ast import Event, frozen_node
from chorus_wsi.traces import mandatory, run_str, sorted_runs, trace_leq


def independent(e1: Event, e2: Event) -> bool:
    """Two events commute when they are by different participants on
    different channels."""
    return e1.participant != e2.participant and e1.channel != e2.channel


def foata(events: tuple) -> tuple:
    """Canonical layered form of a trace modulo commuting independent
    events; equal layers mean equal equivalence classes.  An event's
    layer is one past the last layer of the earlier events it depends
    on, those with its participant or its channel."""
    last: dict = {}  # ("p", participant) or ("c", channel) -> its layer
    layers: list = []
    for ev in events:
        keys = ("p", ev.participant), ("c", ev.channel)
        k = 1 + max(last.get(key, -1) for key in keys)
        if k == len(layers):
            layers.append([])
        layers[k].append(ev)
        last.update(dict.fromkeys(keys, k))
    return tuple(tuple(sorted(layer, key=lambda e: (
        e.participant, e.channel, e.polarity, str(e.sort)))) for layer in layers)


@frozen_node
class CoversHolds:
    witnesses: tuple  # of (skeleton, covering skeleton)

    def holds(self) -> bool:
        return True


@frozen_node
class MissingRun:
    run: tuple

    def holds(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"no covering run for: {run_str(self.run)}"


def covers(runs1, runs2) -> CoversHolds | MissingRun:
    """R1 is covered by R2 when every run of R1 is below some run of R2
    in the trace preorder.  The preorder sees only mandatory events, so
    both sides are reduced to their skeletons first: the witnesses are
    pairs of skeletons, and a missing run is a skeleton of R1."""
    skeletons2 = sorted_runs({mandatory(r) for r in runs2})
    index: dict = {}
    for s2 in skeletons2:
        index.setdefault(foata(s2), s2)
    witnesses = []
    for s1 in sorted_runs({mandatory(r) for r in runs1}):
        hit = index.get(foata(s1))
        if hit is None:
            hit = next((s2 for s2 in skeletons2 if trace_leq(s1, s2)), None)
            if hit is None:
                return MissingRun(s1)
        witnesses.append((s1, hit))
    return CoversHolds(tuple(witnesses))
