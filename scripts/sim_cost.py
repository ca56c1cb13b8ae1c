#!/usr/bin/env python3
"""Cost of each simulator MAC: wall time per simulated second and its events.

For each scheme at each (N, lambda) of the grid, every run in this process,
one after another, as the CLI runs it from the default configuration
with ``system.n_stations = N``:

- ``wall_per_sim_s``: median wall seconds per simulated second over
  ``--repeats`` plain runs;
- ``arrivals``: the packets that arrived, over all queues;
- ``at_empty``: the arrivals that reached an empty queue.  These are the
  event loop's heap pops, the only arrivals that can start or join a
  contention; an arrival at a backlogged queue is only counted;
- ``contentions``: the contentions started (calls of the MAC's ``start``
  hook);
- ``lone``: the contentions that started with one backlogged queue, which
  take the lone-contender path of ``start`` and, unless a queue joins,
  ``resolve``;
- ``full``: the contentions that started with every queue backlogged.  For
  the opportunistic MAC these are its batch rows, read ahead of the draw
  streams.

The counts come from one extra run with counters on ``heapq.heappop`` and
on the ``start`` hook, which is not timed.  The perfbench sim spans cannot
give these numbers, as its simulator runs go to forked children.  Pin the
process to one CPU so that the times are comparable:

    PYTHONPATH=src taskset -c 0 python scripts/sim_cost.py \\
        [--n 2,7,15,30] [--lambda 40,300,5000] [--duration-s 2] [--repeats 3]
"""

from __future__ import annotations

import argparse
import heapq
import statistics
import time
from contextlib import contextmanager

from oppmac import sim
from oppmac.cli import _simulate_one
from oppmac.config import default_setup

SCHEMES = ("opportunistic", "dcf-arf", "dcf-threshold")


@contextmanager
def counters():
    """Count heap pops and ``start`` calls, all, lone and full, while the
    block runs."""
    counts = {"pops": 0, "starts": 0, "lone": 0, "full": 0}
    pop, run_loop = heapq.heappop, sim._run

    def counted_pop(heap):
        counts["pops"] += 1
        return pop(heap)

    def counted_run(scheme, config, lam, tally, next_gap, start, *hooks):
        def counted_start(t):
            counts["starts"] += 1
            counts["lone"] += len(tally.backlogged) == 1
            counts["full"] += len(tally.backlogged) == len(tally.q)
            return start(t)
        return run_loop(scheme, config, lam, tally, next_gap, counted_start, *hooks)

    heapq.heappop, sim._run = counted_pop, counted_run
    try:
        yield counts
    finally:
        heapq.heappop, sim._run = pop, run_loop


def measure(scheme: str, n: int, lam: float, duration_s: float, repeats: int) -> dict:
    job = (default_setup({"system.n_stations": str(n)}), duration_s, {}, scheme, lam, 0)
    with counters() as counts:
        rep = _simulate_one(job)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _simulate_one(job)
        walls.append(time.perf_counter() - t0)
    return {
        "scheme": scheme, "n": n, "lambda": f"{lam:g}",
        "wall_per_sim_s": statistics.median(walls) / duration_s,
        "arrivals": sum(q["arrivals"] for q in rep.queues.values()),
        "at_empty": counts["pops"],
        "contentions": counts["starts"],
        "lone": counts["lone"],
        "full": counts["full"],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--n", default="2,7,15,30")
    ap.add_argument("--lambda", dest="lambdas", default="40,300,5000")
    ap.add_argument("--duration-s", type=float, default=2.0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    cols = ("scheme", "n", "lambda", "wall_per_sim_s", "arrivals", "at_empty",
            "contentions", "lone", "full")
    print("  ".join(f"{c:>14}" for c in cols))
    for scheme in SCHEMES:
        for n in map(int, args.n.split(",")):
            for lam in map(float, args.lambdas.split(",")):
                row = measure(scheme, n, lam, args.duration_s, args.repeats)
                print("  ".join(f"{row[c]:>14.4f}" if isinstance(row[c], float)
                                else f"{row[c]:>14}" for c in cols), flush=True)


if __name__ == "__main__":
    main()
