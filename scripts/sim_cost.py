#!/usr/bin/env python3
"""Cost of each simulator MAC: wall time per simulated second and its events.

For each scheme at each (N, lambda) of the grid, every run in this process,
one after another, as the CLI runs it from the default configuration
with ``system.n_stations = N``:

- ``wall_per_sim_s``: median wall seconds per simulated second over
  ``--repeats`` plain runs;
- ``us_per_contention``: that median wall time in microseconds per
  contention, the MAC's cost per event of its channel;
- ``arrivals``: the packets that arrived, over all queues;
- ``at_empty``: the arrivals that reached an empty queue.  These are the
  event loop's heap pops, the only arrivals that can start or join a
  contention; an arrival at a backlogged queue is only counted;
- ``contentions``: the contentions started: the calls of the MAC's
  ``start`` hook and the contentions of the opportunistic MAC's stretches;
- ``lone``: the contentions that started with one backlogged queue, which
  take the lone-contender path of ``start`` and, unless a queue joins,
  ``resolve``;
- ``full``: the contentions that started with every queue backlogged.  For
  the opportunistic MAC these are its batch rows, read ahead of the draw
  streams, which its ``stretch`` hook takes; each applies one outcome (a
  tally's ``deliver``, ``fail`` or ``collide``), bar the one the duration
  may cut;
- ``stretches``: the calls of the ``stretch`` hook, each a run of full
  contentions that a queue emptying or the end of the run ends.  The
  warmup mark does not split a stretch.

The counts come from one extra run with counters on ``heapq.heappop``, on
the ``start`` and ``stretch`` hooks and on the tally's outcomes, which is
not timed.  The perfbench sim spans cannot
give these numbers, as its simulator runs go to forked children.  Pin the
process to one CPU so that the times are comparable:

    PYTHONPATH=src taskset -c 0 python scripts/sim_cost.py \\
        [--n 2,7,15,30] [--lambda 40,300,5000] [--duration-s 2] [--repeats 3]
"""

from __future__ import annotations

import argparse
import heapq
import math
import statistics
import time
from contextlib import contextmanager

from oppmac import sim
from oppmac.cli import _simulate_one
from oppmac.config import default_setup

SCHEMES = ("opportunistic", "dcf-arf", "dcf-threshold")


@contextmanager
def counters():
    """Count heap pops, contentions (all, lone and full), stretches and the
    tally's outcomes while the block runs."""
    counts = {"pops": 0, "contentions": 0, "lone": 0, "full": 0, "stretches": 0,
              "outcomes": 0}
    pop, run_loop = heapq.heappop, sim._run
    outcomes = {name: getattr(sim._Tally, name) for name in ("deliver", "fail", "collide")}

    def counted_pop(heap):
        counts["pops"] += 1
        return pop(heap)

    def counted_outcome(apply):
        def counted(self, *args):
            counts["outcomes"] += 1
            return apply(self, *args)
        return counted

    def counted_run(scheme, config, lam, tally, next_gap, start, join, resolve, end,
                    duration_us, stretch=None):
        def counted_start(t):
            counts["contentions"] += 1
            counts["lone"] += len(tally.backlogged) == 1
            counts["full"] += len(tally.backlogged) == len(tally.q)
            return start(t)

        def counted_stretch(t, mark, stop):
            counts["stretches"] += 1
            applied = counts["outcomes"]
            t_end = stretch(t, mark, stop)
            # the duration cuts one contention, whose outcome is never applied
            full = counts["outcomes"] - applied + (t_end is None)
            counts["contentions"] += full
            counts["full"] += full
            return t_end

        return run_loop(scheme, config, lam, tally, next_gap, counted_start, join, resolve,
                        end, duration_us, stretch and counted_stretch)

    heapq.heappop, sim._run = counted_pop, counted_run
    for name, apply in outcomes.items():
        setattr(sim._Tally, name, counted_outcome(apply))
    try:
        yield counts
    finally:
        heapq.heappop, sim._run = pop, run_loop
        for name, apply in outcomes.items():
            setattr(sim._Tally, name, apply)


def measure(scheme: str, n: int, lam: float, duration_s: float, repeats: int) -> dict:
    job = (default_setup({"system.n_stations": str(n)}), duration_s, {}, scheme, lam, 0)
    with counters() as counts:
        rep = _simulate_one(job)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _simulate_one(job)
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)
    return {
        "scheme": scheme, "n": n, "lambda": f"{lam:g}",
        "wall_per_sim_s": wall / duration_s,
        "us_per_contention": wall * 1e6 / counts["contentions"] if counts["contentions"]
                             else math.nan,
        "arrivals": sum(q["arrivals"] for q in rep.queues.values()),
        "at_empty": counts["pops"],
        "contentions": counts["contentions"],
        "lone": counts["lone"],
        "full": counts["full"],
        "stretches": counts["stretches"],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--n", default="2,7,15,30")
    ap.add_argument("--lambda", dest="lambdas", default="40,300,5000")
    ap.add_argument("--duration-s", type=float, default=2.0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    cols = ("scheme", "n", "lambda", "wall_per_sim_s", "us_per_contention", "arrivals",
            "at_empty", "contentions", "lone", "full", "stretches")
    widths = [max(14, len(c)) for c in cols]
    print("  ".join(f"{c:>{w}}" for c, w in zip(cols, widths)))
    for scheme in SCHEMES:
        for n in map(int, args.n.split(",")):
            for lam in map(float, args.lambdas.split(",")):
                row = measure(scheme, n, lam, args.duration_s, args.repeats)
                print("  ".join(f"{row[c]:>{w}.4f}" if isinstance(row[c], float)
                                else f"{row[c]:>{w}}" for c, w in zip(cols, widths)),
                      flush=True)


if __name__ == "__main__":
    main()
