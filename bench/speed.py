"""The machine's speed, measured by a fixed task that uses none of the
program's code, so that no change to the program moves it.

The shared VM the benchmark was written on runs the same code up to
1.7 times slower for minutes at a time.  `run.py` scales the times it
reports by `speed_of` the kernel times measured around them, so that
runs made in fast and slow spells compare.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_KERNEL_S = 2.0e-3  # kernel() takes 1.3 to 2.3 ms on the 2-core
                             # Xeon VM; this only sets the scale


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


# a complete binary tree of 2047 nodes, numbered as in a heap (the
# children of node i are 2i and 2i + 1), built once: the task allocates
# nothing, so the heap the requests leave behind does not move its time
_LEAVES = 1024
_NODES = [None] + [_Node(i % 3, 2 * i, 2 * i + 1) for i in range(1, _LEAVES)]
_NAMES = [str(i) for i in range(2 * _LEAVES)]
_ENV = {str(i): i % 251 for i in range(0, 2 * _LEAVES, 3)}


def _task() -> int:
    """Evaluate the tree bottom up, without recursion: a recursive walk
    would take a time that depends on how deep the caller's stack is
    (see README.md, "Stack depth")."""
    values = [0] * (2 * _LEAVES)
    for _ in range(6):
        for i in range(_LEAVES, 2 * _LEAVES):
            values[i] = _ENV.get(_NAMES[i], i % 251)
        for i in range(_LEAVES - 1, 0, -1):
            node = _NODES[i]
            left, right = values[node.left], values[node.right]
            if node.op == 0:
                values[i] = (left + right) % 251
            elif node.op == 1:
                values[i] = (left * right) % 251
            else:
                values[i] = (left - right) % 251
    return values[1]


def kernel() -> float:
    """Seconds for a task of the kind the program does: walk a tree of
    small objects and look up string keys in a dict.  The task runs
    twice and the second is timed: the first, right after a request,
    runs in the caches the request left behind."""
    _task()
    start = perf_counter()
    _task()
    return perf_counter() - start


def speed_of(kernels: list) -> float:
    """The machine's speed as a share of the reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(kernels)
