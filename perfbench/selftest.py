"""Self-test of the benchmark on tiny workloads (N=2, a short simulation).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both trace modes; that deliberately broken outputs count as failed
operations; and that the benchmark refuses to run without the sources.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = (
    run.Workload("tiny-analyze", "analyze", 2, (20.0,),
                 ("system.retry_limit=unlimited",), converged=(True,)),
    run.Workload("tiny-sim", "simulate", 2, (20.0,),
                 run.RAYLEIGH_28DB + ("system.retry_limit=7",),
                 schemes=("opportunistic", "dcf-arf"), duration_s=2.0),
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics() -> None:
    for wl in TINY:
        for trace, section in ((1, "per_layer"), (0, "end_to_end")):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.report(run.run_workload(wl, 1, 0.1, trace))
            want = {m["name"]: m["unit"] for m in run.SPEC[section]}
            got = result["metrics"]
            check(set(got) == set(want), f"{wl.name} trace={trace}: every {section} metric")
            check(all(got[n]["unit"] == u for n, u in want.items() if n in got),
                  f"{wl.name} trace={trace}: units as in BENCHMARK.json")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in got.values()), f"{wl.name} trace={trace}: finite values")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                  f"{wl.name} trace={trace}: no failed operation")


def broken_copy(wl: run.Workload, name: str) -> Path:
    dst = run.WORK / "selftest" / name
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(run.WORK / wl.name / "inv0", dst)
    return dst


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=1))


def check_broken_outputs() -> None:
    ana, sim = TINY
    op = sim.ops()[0]

    out = broken_copy(sim, "conservation")
    edit_json(out / op, lambda d: d["queues"]["ap0"].update(
        arrivals=d["queues"]["ap0"]["arrivals"] + 1))
    check(list(run.check_outputs(out, sim)) == [op], "sim conservation breach fails its run")

    out = broken_copy(sim, "nonfinite")
    edit_json(out / op, lambda d: d.update(uplink_pps=float("nan")))
    check(list(run.check_outputs(out, sim)) == [op], "non-finite sim throughput fails its run")

    out = broken_copy(sim, "repeat")
    (out / op).write_text((out / op).read_text() + " ")
    ref = run.WORK / sim.name / "inv0"
    check(list(run.repeat_mismatches(out, ref, sim)) == [op],
          "sim report differing from its repeat fails its run")

    ledger = run.Ledger(sim)
    ledger.record(ref, {"rc": 0})
    ledger.record(out, {"rc": 0})
    ledger.record(out, None)
    check((ledger.attempted, len(ledger.failures)) == (3 * len(sim.ops()), 1 + len(sim.ops())),
          "ledger counts repeat mismatches and failed invocations")

    row = ana.ops()[0]
    for name, col, value in (("identity", "pbar_a", "0.5"),
                             ("converged-flag", "converged", "0"),
                             ("nonfinite", "e_r_us", "nan")):
        out = broken_copy(ana, name)
        path = out / "analysis.csv"
        lines = path.read_text().splitlines()
        cols = lines[1].split(",")
        cells = lines[2].split(",")
        cells[cols.index(col)] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        check(list(run.check_outputs(out, ana)) == [row], f"analysis row with broken {col} fails")
    check(list(run.check_outputs(out.parent / "missing", ana)) == [row],
          "missing analysis.csv fails every row")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in Path(__file__).parent.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-light-n7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "refuses to run, printing no result, without the sources")


def main() -> int:
    check_metrics()
    check_broken_outputs()
    check_refuses_without_sources()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
