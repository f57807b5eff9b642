"""The ranking kernel alone: ``ArcShardScorer.topk`` over a prepared table.

Prints the kernel table of DESIGN.md §7 — for each (entities n, dim d,
batch B) shape, milliseconds per call on one thread and calls per
second with two threads calling at once (the GIL-releasing ufuncs and
``sgemv`` interleave, so a change that wins alone can lose there).
Each figure is the best of ``ROUNDS`` interleaved rounds of ``WINDOW``
seconds: every round times every shape once, alone and then under two
threads, so a drift of the machine's speed lands on all shapes alike.

The script imports ``repro`` from the tree it sits in, so a kernel
change's before/after is one command per checkout.  For a checkout that
predates the script, copy it into that checkout's ``benchmarks/`` first::

    python benchmarks/bench_filter_kernel.py            # this tree
    cp benchmarks/bench_filter_kernel.py ../parent/benchmarks/
    python ../parent/benchmarks/bench_filter_kernel.py  # the other one

It holds no tests; pytest's ``bench_*.py`` pattern collects it as an
empty module, so the ``repro`` import waits for ``main``.

The shapes are the serving tiers': (88, 20, ·) is ``fb237_mini`` one
query, two, and a 64-query ``mini_batch`` pass; (2000, 20, 64) and
(14 500, 32, 8) sit between; (50 000, 32, 1) is one shard worker's
block of ``xl100k_sharded``.  The table is wrapped into [0, 2π) like a
published one, the payload one DNF branch, ``k = 10``.
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time

import numpy as np

SHAPES = ((88, 20, 1), (88, 20, 2), (88, 20, 64), (2000, 20, 64),
          (14_500, 32, 8), (50_000, 32, 1))
K = 10
ROUNDS = 3
WINDOW = 1.0  # seconds


def make_case(scorer, n: int, d: int, b: int):
    """(scorer, points, payload, prepared) for one shape."""
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 2.0 * np.pi, (n, d))
    payload = [(rng.uniform(0.0, 2.0 * np.pi, (b, d)),
                rng.uniform(0.0, np.pi, (b, d)))]
    return scorer, points, payload, scorer.prepare(points)


def calls_in(window: float, case, threads: int) -> int:
    """Top-k calls completed by ``threads`` threads in ``window`` s."""
    scorer, points, payload, prepared = case
    counts = [0] * threads
    stop = time.perf_counter() + window

    def loop(slot):
        while time.perf_counter() < stop:
            scorer.topk(points, payload, K, None, True, prepared)
            counts[slot] += 1

    workers = [threading.Thread(target=loop, args=(i,))
               for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return sum(counts)


def measure(scorer) -> list[tuple[tuple, float, float]]:
    """``(shape, best ms per call alone, best calls/s on two threads)``."""
    cases = {shape: make_case(scorer, *shape) for shape in SHAPES}
    for case in cases.values():  # warm caches and BLAS
        calls_in(0.05, case, 1)
    alone = {shape: [] for shape in SHAPES}
    paired = {shape: [] for shape in SHAPES}
    for _ in range(ROUNDS):
        for shape, case in cases.items():
            alone[shape].append(1e3 * WINDOW / calls_in(WINDOW, case, 1))
            paired[shape].append(calls_in(WINDOW, case, 2) / WINDOW)
    return [(shape, min(alone[shape]), max(paired[shape]))
            for shape in SHAPES]


def main() -> int:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    from repro.dist import ArcShardScorer

    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    print("| n, d, B | one thread, ms a call | two threads, calls/s |")
    print("|---|---|---|")
    for (n, d, b), ms, rate in measure(scorer):
        print(f"| {n}, {d}, {b} | {ms:.3f} | {rate:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
