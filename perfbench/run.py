"""The oppmac benchmark: the real CLI verbs on named workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Each CLI invocation runs in a fresh child interpreter (``perfbench/child.py``),
one at a time, with BLAS pinned to one thread, importing the package from
``src/`` of this checkout.  With ``--trace 0`` a run first starts the
interpreter SETUP_REPEATS times to time set-up, then repeats the workload's
invocation until ``--seconds`` have passed (at least twice, so that every
output file is compared with a repeat of the same seed), and reports the
median of each end-to-end metric.  With ``--trace 1`` it repeats pairs of one
lightly traced invocation (spans around ``fixed_point`` and ``run_*`` only)
and one fully traced invocation, and reports the median per-layer numbers.

Times are reported as measured (``wall_s``, ``host_setup_s``) and rescaled to
a reference CPU speed (``wall_ref_s``, ``setup_s``): each is divided by the
``slowdown`` of its child, the mean time of ``child.SpeedProbe``'s loop during
it over PROBE_REF_S.  The host's speed drifts by tens of percent within
minutes; on a 2-vCPU VM the rescaling cut the spread of a workload's time
across runs by a factor of two to three, so the rescaled times are the
end-to-end metrics that BENCHMARK.json bounds.

Every output is checked.  An operation is one analysis row (one arrival
rate) or one simulator run; it fails if the invocation fails, if a check on
its output fails, or if its output file differs from the first invocation's.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it name every
metric with its unit, the output digests and the environment.  A full
record of the run is written to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_run"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 7
MIN_INVOCATIONS = 2
RUN_DEADLINE_S = 165.0       # a run ends within this, so the process within 180 s
IDENTITY_TOL = 1e-9          # |N (pbar_a + pbar_s) - 1|
FIXED_POINT_TOL = 1e-4       # |theta - lambda| / lambda on converged rows
PROBE_REF_S = 3.0e-4         # reference speed: child.SpeedProbe's loop in 0.3 ms

RAYLEIGH_28DB = ("channel.mode=rayleigh", "channel.mean_ebn0_db=28")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; ``converged`` pins each rate's analysis flag to
    the one the seed commit produced."""

    name: str
    verb: str
    n: int
    lambdas: tuple
    sets: tuple
    schemes: tuple = ()
    duration_s: float = 0.0
    converged: tuple = ()

    def cli_args(self, out: Path, seed: int) -> list[str]:
        args = [self.verb, "--lambda", ",".join(f"{x:g}" for x in self.lambdas),
                "--out", str(out), "--set", f"system.n_stations={self.n}"]
        for item in self.sets:
            args += ["--set", item]
        if self.verb == "simulate":
            args += ["--scheme", ",".join(self.schemes), "--seed", str(seed),
                     "--duration-s", repr(self.duration_s)]
        return args

    def ops(self) -> list[str]:
        """Operation ids, each tied to one row or one output file."""
        if self.verb == "analyze":
            return [f"row:{lam:g}" for lam in self.lambdas]
        return [f"sim_{s}_lam{lam:g}_rep0.json"
                for s in self.schemes for lam in self.lambdas]


# Why each workload: see BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("analyze-n10", "analyze", 10, (20.0, 50.0, 80.0),
             ("system.retry_limit=unlimited",),
             converged=(True, True, False)),
    Workload("sim-light-n7", "simulate", 7, (40.0,),
             RAYLEIGH_28DB + ("system.retry_limit=7",),
             schemes=("opportunistic", "dcf-arf", "dcf-threshold"), duration_s=30.0),
    Workload("sim-saturated-n15", "simulate", 15, (300.0,),
             RAYLEIGH_28DB + ("system.retry_limit=7",),
             schemes=("opportunistic", "dcf-arf"), duration_s=4.0),
)}


# ----- correctness checks ---------------------------------------------------


def check_analysis(path: Path, wl: Workload) -> dict[str, str]:
    """Failure reason per failed row op of ``analysis.csv``."""
    failures = {op: "row missing" for op in wl.ops()}
    if not path.is_file():
        return failures
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    expected = dict(zip(wl.lambdas, wl.converged))
    for line in lines[1:]:
        try:
            row = dict(zip(cols, (float(x) for x in line.split(","))))
            lam = row["lambda_pps"]
        except (ValueError, KeyError):
            continue
        op = f"row:{lam:g}"
        if op not in failures:
            continue
        identity = abs(wl.n * (row["pbar_a"] + row["pbar_s"]) - 1.0)
        converged = row["converged"] == 1.0
        if not all(math.isfinite(v) for v in row.values()):
            failures[op] = "non-finite field"
        elif identity > IDENTITY_TOL:
            failures[op] = f"|N(pbar_a+pbar_s)-1| = {identity:.3g}"
        elif converged != expected[lam]:
            failures[op] = f"converged={converged}, seed commit had {expected[lam]}"
        elif converged and max(abs(row["theta_ap_pps"] - lam),
                               abs(row["theta_sta_pps"] - lam)) / lam >= FIXED_POINT_TOL:
            failures[op] = "converged row misses lambda"
        else:
            del failures[op]
    return failures


def check_sim(path: Path) -> str | None:
    """Failure reason for one simulator report, or None."""
    if not path.is_file():
        return "report missing"
    try:
        rep = json.loads(path.read_text())
        rates = [rep["uplink_pps"], rep["downlink_pps"], rep["system_pps"]]
        for name, q in rep["queues"].items():
            if q["arrivals"] != q["delivered"] + q["dropped"] + q["backlog"]:
                return f"queue {name}: arrivals != delivered + dropped + backlog"
            rates.append(q["throughput_pps"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return "malformed report"
    if not all(isinstance(r, (int, float)) and math.isfinite(r) for r in rates):
        return "non-finite throughput"
    return None


def check_outputs(out: Path, wl: Workload) -> dict[str, str]:
    if wl.verb == "analyze":
        return check_analysis(out / "analysis.csv", wl)
    return {op: why for op in wl.ops() if (why := check_sim(out / op)) is not None}


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def repeat_mismatches(out: Path, ref: Path, wl: Workload) -> dict[str, str]:
    """Ops whose output differs from the reference invocation's."""
    now, then = digests(out), digests(ref)
    bad = {}
    for name in sorted(set(now) | set(then)):
        if now.get(name) == then.get(name):
            continue
        if name in wl.ops():
            bad[name] = "differs from repeat"
        elif name == "analysis.csv" and name in now and name in then:
            old = set((ref / name).read_text().splitlines())
            for line in (out / name).read_text().splitlines():
                if line not in old:
                    try:
                        bad[f"row:{float(line.split(',', 1)[0]):g}"] = "differs from repeat"
                    except ValueError:
                        bad.update({op: "header differs from repeat" for op in wl.ops()})
        else:
            bad.update({op: f"{name} differs from repeat" for op in wl.ops()})
    return bad


# ----- child processes ------------------------------------------------------


def child(mode: str, wl: Workload, seed: int, out: Path,
          deadline: float) -> tuple[float, dict | None]:
    """Run one child, killed at ``deadline`` (a ``perf_counter`` time);
    returns (process wall seconds, its result or None on failure)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    result_file = out.parent / f"{out.name}.result.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    cmd = [sys.executable, str(CHILD), mode, str(result_file), "--",
           *wl.cli_args(out, seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# {wl.name} {mode}: killed at the run's deadline")
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    (out.parent / f"{out.name}.log").write_text(proc.stdout)
    if proc.returncode != 0 or not result_file.is_file():
        tail = proc.stdout.strip().splitlines()[-1:]
        print(f"# {wl.name} {mode}: child exited {proc.returncode}: {''.join(tail)}")
        return wall, None
    result = json.loads(result_file.read_text())
    if result["rc"] != 0:
        print(f"# {wl.name} {mode}: oppmac exited {result['rc']}")
        return wall, None
    return wall, result


class Ledger:
    """Attempted and failed operations over all invocations of a run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.ref: Path | None = None

    def record(self, out: Path, result: dict | None) -> None:
        ops = self.wl.ops()
        self.attempted += len(ops)
        if result is None:
            bad = {op: "invocation failed" for op in ops}
        else:
            bad = check_outputs(out, self.wl)
            if self.ref is None:
                self.ref = out
            else:
                for op, why in repeat_mismatches(out, self.ref, self.wl).items():
                    bad.setdefault(op, why)
        self.failures += [f"{out.name} {op}: {why}" for op, why in sorted(bad.items())]


# ----- metrics ----------------------------------------------------------------


def collision_ratios(out: Path, wl: Workload) -> dict[str, float]:
    """collisions / (collisions + delivered) per MAC family, measured window."""
    tally = {"opportunistic": [0, 0], "dcf": [0, 0]}
    for op in wl.ops() if wl.verb == "simulate" else ():
        if check_sim(out / op) is not None:
            continue
        rep = json.loads((out / op).read_text())
        fam = tally["opportunistic" if rep["scheme"] == "opportunistic" else "dcf"]
        fam[0] += rep["collisions"]
        fam[1] += sum(q["delivered_measured"] for q in rep["queues"].values())
    return {f"sim.{k}.collision_ratio": (c / (c + d) if c + d else 0.0)
            for k, (c, d) in tally.items()}


def layer_metrics(light: dict, full: dict, out: Path, wl: Workload) -> dict[str, float]:
    """Per-layer numbers from one lightly traced and one traced invocation."""
    counts = full["counts"]

    def span(name: str, field: str, result: dict = full) -> float:
        return result["spans"].get(name, {}).get(field, 0)

    top = sum(span(n, "total_s", light)
              for n in ("analysis.fixed_point", "sim.opportunistic", "sim.dcf"))
    m = {}
    for name in ("kernels.p_hat_minislot", "kernels.build_kernels",
                 "analysis.transition_row", "analysis.census_summary"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
    for name in ("analysis.solve_renewal", "analysis.solve_tagged",
                 "analysis.linalg_solve", "analysis.model_build",
                 "sim.opportunistic", "sim.dcf"):
        m[f"{name}.self_s"] = span(name, "self_s")
    m["analysis.model_build.s"] = span("analysis.model_build", "total_s")
    m["analysis.renewal_unknowns"] = counts.get("analysis.renewal_unknowns", 0)
    m["analysis.tagged_unknowns"] = counts.get("analysis.tagged_unknowns", 0)
    m["analysis.fp_iterations"] = counts.get("analysis.fp_iterations", 0)
    calls = span("analysis.throughput", "calls")
    m["analysis.throughput.calls"] = calls
    m["analysis.fp_iter_ms"] = (1e3 * span("analysis.throughput", "total_s") / calls
                                if calls else 0.0)
    for mac in ("opportunistic", "dcf"):
        events = counts.get(f"sim.{mac}.events", 0)
        untraced = span(f"sim.{mac}", "total_s", light)
        m[f"sim.{mac}.events"] = events
        m[f"sim.{mac}.host_us_per_event"] = 1e6 * untraced / events if events else 0.0
    m.update(collision_ratios(out, wl))
    m["config.build_spec.s"] = span("config.build_spec", "total_s", light)
    m["cli.self_s"] = light["wall_s"] - top
    m["trace.overhead_s"] = full["wall_s"] - light["wall_s"]
    m["trace.self_sum_s"] = sum(s["self_s"] for s in full["spans"].values()) + m["cli.self_s"]
    m["trace.gap_s"] = m["trace.self_sum_s"] - light["wall_s"]
    return m


def median_dict(samples: list[dict]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def environment() -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "pinned_threads": PINNED_THREADS,
    }


# ----- one run ----------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the full record (see ``report``)."""
    work = WORK / wl.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ledger = Ledger(wl)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    record: dict = {"workload": wl.name, "seed": seed, "seconds": seconds,
                    "trace": trace, "environment": environment()}

    if trace == 0:
        child("setup", wl, seed, work / "setup-warm", deadline)   # fills the bytecode cache
        setup = []
        for k in range(SETUP_REPEATS):
            wall, res = child("setup", wl, seed, work / f"setup{k}", deadline)
            if res is None:
                raise SystemExit(f"{wl.name}: set-up child failed")
            slowdown = statistics.fmean(res["probe_s"]) / PROBE_REF_S
            setup.append({"setup_s": (wall - sum(res["probe_s"])) / slowdown,
                          "host_setup_s": wall, "slowdown": slowdown})
        record["setup_samples"] = setup

    samples, t_start, k = [], time.perf_counter(), 0
    while True:
        # start another invocation only while at least half of it fits
        elapsed = time.perf_counter() - t_start
        each = elapsed / k if k else 0.0
        if k >= (MIN_INVOCATIONS if trace == 0 else 1) and elapsed + each / 2 >= seconds:
            break
        if k >= 1 and time.perf_counter() + each > deadline:
            break
        if trace == 0:
            out = work / f"inv{k}"
            _, res = child("run", wl, seed, out, deadline)
            ledger.record(out, res)
            if res is not None:
                slowdown = statistics.fmean(res["probe_s"]) / PROBE_REF_S
                samples.append({"wall_ref_s": res["wall_s"] / slowdown,
                                "wall_s": res["wall_s"], "slowdown": slowdown,
                                "peak_rss_mb": res["peak_rss_mb"]})
        else:
            light_out, full_out = work / f"light{k}", work / f"trace{k}"
            _, light = child("light", wl, seed, light_out, deadline)
            ledger.record(light_out, light)
            _, full = child("trace", wl, seed, full_out, deadline)
            ledger.record(full_out, full)
            if light is not None and full is not None:
                samples.append(layer_metrics(light, full, full_out, wl))
                record["absent"] = full["absent"]
        k += 1
    if not samples:
        raise SystemExit(f"{wl.name}: no invocation succeeded")

    record.update(attempted=ledger.attempted, failed=len(ledger.failures),
                  failures=ledger.failures, invocations=k * (1 if trace == 0 else 2),
                  samples=samples,
                  digests=digests(ledger.ref) if ledger.ref else {})
    if trace == 0:
        med, med_setup = median_dict(samples), median_dict(setup)
        m = {"wall_ref_s": med["wall_ref_s"], "setup_s": med_setup["setup_s"],
             "peak_rss_mb": med["peak_rss_mb"], "wall_s": med["wall_s"],
             "host_setup_s": med_setup["host_setup_s"], "slowdown": med["slowdown"]}
        if wl.verb == "analyze":
            m["rows_per_s"] = len(wl.lambdas) / med["wall_s"]
        else:
            m["sim_s_per_s"] = len(wl.ops()) * wl.duration_s / med["wall_s"]
        m["failed_frac"] = len(ledger.failures) / ledger.attempted
        record["metrics"] = m
    else:
        record["metrics"] = median_dict(samples)
    return record


# Which end-to-end metric, on which workload, each per-layer number should
# move; a metric takes the entry of its longest matching prefix.  Shares are
# of an N=10 analysis row, profiled on the seed commit.
MOVES = {
    "kernels.p_hat_minislot": "wall_s on analyze-n10 (44% of a row); idle on the sim workloads",
    "kernels.build_kernels": "nothing: about 1 ms a row, kept to show it stays negligible",
    "analysis.transition_row": "wall_s on analyze-n10 (42% of a row)",
    "analysis.census_summary": "wall_s on analyze-n10 (2.5% of a row)",
    "analysis.solve_renewal": "wall_s on analyze-n10 (1.5% of a row)",
    "analysis.solve_tagged": "wall_s on analyze-n10 (7.5% of a row)",
    "analysis.linalg_solve": "wall_s on analyze-n10 only at larger N (1% at N=10, grows as unknowns^3)",
    "analysis.renewal_unknowns": "peak_rss_mb on analyze-n10",
    "analysis.tagged_unknowns": "peak_rss_mb on analyze-n10",
    "analysis.model_build": "wall_s on analyze-n10",
    "analysis.fp_": "wall_s on analyze-n10, by at most its share (about 1%)",
    "analysis.throughput": "wall_s on analyze-n10, by at most its share (about 1%)",
    "sim.": "wall_s on sim-light-n7 and sim-saturated-n15",
    "sim.opportunistic.events": "nothing: a count that repeats exactly for a seed",
    "sim.dcf.events": "nothing: a count that repeats exactly for a seed",
    "sim.opportunistic.collision_ratio": "nothing: modelled, a speed-only change leaves it identical",
    "sim.dcf.collision_ratio": "nothing: modelled, a speed-only change leaves it identical",
    "config.build_spec": "setup_s on every workload",
    "cli.self_s": "wall_s on every workload (predicted small)",
    "trace.": "nothing: the cost and the consistency check of the traced run",
}


def moves(metric: str) -> str:
    prefixes = [p for p in MOVES if metric.startswith(p)]
    return MOVES[max(prefixes, key=len)] if prefixes else ""


UNITS = {"wall_s": "s", "host_setup_s": "s", "slowdown": "ratio", "rows_per_s": "1/s",
         "sim_s_per_s": "s/s", "failed_frac": "ratio"}


def units() -> dict[str, str]:
    out = dict(UNITS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        out[m["name"]] = m["unit"]
    return out


def report(record: dict) -> dict:
    """Print the record's human lines; return the contract result object."""
    unit = units()
    wl, trace = record["workload"], record["trace"]
    print(f"# {wl} seed={record['seed']} trace={trace} "
          f"invocations={record['invocations']}")
    print("# env " + json.dumps(record["environment"], sort_keys=True))
    for name, digest in record["digests"].items():
        print(f"# sha256 {name} {digest}")
    for line in record["failures"]:
        print(f"# FAILED {line}")
    for name in record.get("absent", []):
        print(f"# absent wrap target {name}")
    wanted = [m["name"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]]
    for name in wanted + [n for n in record["metrics"] if n not in wanted]:
        value = record["metrics"][name]
        why = f"  # moves {moves(name)}" if trace == 1 else ""
        print(f"{wl} {name} = {value:.6g} {unit.get(name, '')}{why}")
    if trace == 1:
        m = record["metrics"]
        print(f"# trace check {wl}: self times sum to {m['trace.self_sum_s']:.4g} s, "
              f"{m['trace.gap_s']:+.3g} s from the untraced wall time; "
              f"tracing overhead {m['trace.overhead_s']:+.3g} s")
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{wl}-seed{record['seed']}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": unit[n]} for n in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if SPEC is None or not (SRC / "oppmac" / "__init__.py").is_file():
        print(f"error: no oppmac sources under {SRC} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [report(run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace))
               for n in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
