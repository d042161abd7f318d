"""Time one CLI request with a growing number of frames below `main`.

    python3 bench/depth.py typecheck src/chorus_wsi/corpus/pop2.chor

CPython 3.11 keeps frames on a stack of 16 KiB chunks and frees a chunk
as soon as its last frame returns.  A hot recursion that crosses a chunk
boundary allocates and frees a chunk on every crossing, so the time of a
request depends on how much of the stack is in use when `main` is
called.  This script calls `main` under 0, 3, 6, ... padding frames and
prints the best time at each depth: a change of the program or of the
harness that adds or removes frames on the call path can move a request
across such a boundary, which this shows.  The tracer's wrappers add
frames too, which is why a traced request can take twice as long.
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
DEPTHS = range(0, 40, 3)
REPEATS = 5


def pad(depth: int, main, argv: list):
    """Call main under `depth` frames of 16 words of locals each."""
    if depth == 0:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    a0 = a1 = a2 = a3 = a4 = a5 = a6 = a7 = a8 = a9 = 0  # noqa: F841
    return pad(depth - 1, main, argv)


def main_cli(argv: list) -> int:
    sys.path.insert(0, str(SRC))
    from chorus_wsi.cli import main
    pad(0, main, argv)  # lazy set-up
    best = dict.fromkeys(DEPTHS, float("inf"))
    for _ in range(REPEATS):  # interleaved, so slow spells hit every depth
        for depth in DEPTHS:
            gc.collect()
            start = perf_counter()
            pad(depth, main, argv)
            best[depth] = min(best[depth], perf_counter() - start)
    print("padding frames  best of", REPEATS, "(ms)")
    for depth, t in best.items():
        print(f"{depth:14d}  {t * 1e3:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli(sys.argv[1:]))
