#!/usr/bin/env python3
"""Build time and peak RSS of one analysis model per station count.

Each N runs in a fresh interpreter with BLAS pinned to one thread.  The
child builds the lambda = 50 pkts/s kernels of the default configuration
with ``system.n_stations = N``, then times ``cycle_models`` on them, and
reports the build time, its own peak RSS, the number of cells of M, from
their closed form ``cell_total(N)``, and the number of
unknowns of the census system, C(N+3, 3).  The build is the contention
summaries, the arrival table (one column per level gain) and one pass of
the level sweep over the cells, which ``CensusSpace.cells`` streams a
chunk at a time (one record per cell: the destination census, the
(source, level gain) table entry and the coefficient sum), so no cell
outlives its chunk.
``--max-gb`` caps each child's address space, so that a temporary that
grows past the cap fails with a ``MemoryError`` instead of exhausting the
machine.

    PYTHONPATH=src python scripts/model_scaling.py [--n 2,7,10,15,20] [--max-gb 2]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

LAMBDA_PPS = 50.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(n: int, max_gb: float | None) -> dict:
    if max_gb:
        cap = int(max_gb * 2**30)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from oppmac import build_kernels, cycle_models
    from oppmac.analysis import cell_total
    from oppmac.config import default_setup

    setup = default_setup({"system.n_stations": str(n)})
    kernels = build_kernels(setup.policy, setup.resolve_pi(), LAMBDA_PPS)
    start = time.perf_counter()
    try:
        model, = cycle_models([kernels], setup.timing, setup.config.per_state_per, n)
    except MemoryError:
        return {"n": n, "error": "MemoryError"}
    build_s = time.perf_counter() - start
    return {"n": n, "build_s": build_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cells": cell_total(n), "unknowns": len(model.space.counts)}


def run(n: int, max_gb: float | None) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, __file__, "--child", str(n)]
    if max_gb:
        cmd += ["--max-gb", str(max_gb)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"n": n, "error": tail[0]}
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="2,7,10,15,20",
                        help="comma-separated station counts")
    parser.add_argument("--max-gb", type=float, default=None,
                        help="address-space cap of each child, GiB")
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.max_gb)))
        return 0
    print(f"lambda = {LAMBDA_PPS:g} pkts/s, one fresh interpreter per N, BLAS on one thread")
    print(f"{'N':>3} {'build_s':>8} {'peak_rss_mb':>12} {'cells':>9} {'unknowns':>9}")
    failed = False
    for n in (int(x) for x in args.n.split(",") if x.strip()):
        row = run(n, args.max_gb)
        if "error" in row:
            failed = True
            print(f"{n:>3} failed: {row['error']}")
            continue
        print(f"{n:>3} {row['build_s']:>8.4f} {row['peak_rss_mb']:>12.1f} "
              f"{row['cells']:>9} {row['unknowns']:>9}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
