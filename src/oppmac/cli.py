"""Experiment controller.

Subcommands (all take --config, --lambda, --out and --set):
    analyze    fixed-point solutions over an arrival-rate grid -> analysis.csv
    simulate   replicated simulator runs -> per-run JSON + simulate.csv;
               also --scheme --reps --seed --duration-s
    validate   analysis vs simulation deltas per rate -> validate.csv;
               also --reps --seed --tolerance --duration-s
    compare    per-scheme throughput curves -> compare.csv;
               also --scheme --reps --seed --duration-s
A verb refuses other flags, repeated rates or schemes and an --out that is,
or lies beneath, a file; analyze and validate need rates > 0, and
simulate refuses two rates whose run files share a name (lam{rate:g}); the
verbs that simulate refuse a run, or the --reps runs of one scheme and rate
together, past MAX_SIM_WORK.  The simulator runs of a
verb spread over the CPUs of its affinity mask: one child per CPU is forked,
and run j goes to child j mod children; ``taskset -c 0`` keeps them
in-process.  On Linux a child dies with its parent.  The outputs do not
depend on the number of CPUs.
Exit codes: 0 success, 1 validation tolerance breach, 2 configuration error.
Outputs are deterministic for a given (config, seeds); every file carries a
header naming the units and the configuration hash.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import MAX_CELLS, cell_total, fixed_points
from .config import ConfigError, WlanSetup, default_setup, load_config, setup_hash
from .core import ParameterError
from .sim import SimReport, run_dcf, run_opportunistic

SIM_SCHEMES = ("opportunistic", "dcf-arf", "dcf-threshold")
ALL_SCHEMES = SIM_SCHEMES + ("analysis",)
# the schemes --scheme may name; without it a verb runs ExperimentSpec's default
VERB_SCHEMES = {"simulate": SIM_SCHEMES, "compare": ALL_SCHEMES}
# The work one simulator run, and the --reps runs of one (scheme, lambda)
# together, may take, in events: both the expected arrivals,
# 2N * lambda * duration, and the most contentions the duration holds, one per
# DIFS.  The costliest run of the repo's own, a tier-1 test's 20,000 s at
# N = 2, holds 5.9e8 contentions; the costliest by arrivals, CI's N = 7 at
# 5000 pkts/s for 1 s, expects 7e4.  Against --reps a run counts at least its
# fixed cost, its 2N + 5 random generators, however short it is.
MAX_SIM_WORK = 1e9


@dataclass
class ExperimentSpec:
    """One controller invocation: schemes, rate grid, replication plan."""

    setup: WlanSetup
    schemes: tuple = ("opportunistic",)
    lambdas: tuple = ()
    reps: int = 1
    out_dir: Path = Path("results")
    tolerance: float = 0.10
    duration_s: float = 30.0

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigError("--reps", "need at least one replication")
        bad = [s for s in self.schemes if s not in ALL_SCHEMES]
        if bad:
            raise ConfigError("--scheme", f"unknown scheme(s) {bad}")
        if not (math.isfinite(self.duration_s * 1e6) and self.duration_s > 0.0):
            raise ConfigError("--duration-s", f"must be > 0 and finite in microseconds, "
                                              f"got {self.duration_s!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ConfigError("--tolerance",
                              f"must be finite and >= 0, got {self.tolerance!r}")


def _run_seed(base: int, scheme: str, lam: float, rep: int) -> int:
    tag = f"{scheme}|{lam!r}|{rep}".encode()
    return (base + int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")) % 2**63


def _simulate_one(job) -> SimReport:
    """One simulator run; ``job`` is (setup, duration_s, overrides, scheme, lam, rep)."""
    setup, duration_s, overrides, scheme, lam, rep = job
    cfg = replace(setup.config, seed=_run_seed(setup.config.seed, scheme, lam, rep),
                  **overrides)
    if scheme == "opportunistic":
        return run_opportunistic(lam, cfg, setup.policy, setup.timing, setup.space,
                                 duration_us=duration_s * 1e6)
    return run_dcf(lam, cfg, setup.timing, setup.space, duration_us=duration_s * 1e6,
                   rate_adaptation=scheme.split("-", 1)[1])


def _run_share(jobs, cpu: int, cpus: list, fd: int, parent: int):
    """Body of a forked child: on Linux, asks to be SIGKILLed when its
    parent dies and exits at once if ``parent`` is already gone; moves to
    ``cpu``, then takes the whole mask back (a forked child starts on its
    parent's CPU, and the kernel can leave two children sharing one for a
    second), runs ``jobs`` and writes one pickle to ``fd``: ``(True,
    reports)`` or ``(False, (exception, its traceback))``.  It leaves
    through ``os._exit``, so it never unwinds into its parent's stack."""
    try:
        if sys.platform.startswith("linux"):
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(1)
        try:
            os.sched_setaffinity(0, [cpu])
            os.sched_setaffinity(0, cpus)
        except OSError:  # a CPU left the mask: stay where the kernel put this child
            pass
        try:
            payload = pickle.dumps((True, [_simulate_one(job) for job in jobs]))
        except Exception as exc:
            import traceback
            payload = pickle.dumps((False, (exc, traceback.format_exc())))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:  # reached only when no report was written
        os._exit(1)


def _runs_and_solutions(spec: ExperimentSpec, pairs, rates=None, **overrides):
    """The spec's ``reps`` reports of each (scheme, lambda) in ``pairs``, one
    list per pair, in order, and the fixed point at each of ``rates`` by
    rate; with ``rates`` None nothing is solved, else pi is resolved before
    any run starts.

    With w = min(runs, CPUs of the affinity mask) >= 2, w children are forked
    first, and child i runs jobs i, i + w, ...; the jobs are in its memory
    already, so only the reports cross a pipe.  The fixed points are solved
    here while the children run.  With one run, one CPU or no fork, the runs
    follow the solve in-process.  Every run has its own seed, so the reports
    do not depend on the path.  On every way out, each child not yet reaped
    is killed and reaped; a parent killed from outside takes its children
    along (``_run_share``).
    """
    setup = spec.setup
    pi = None if rates is None else setup.resolve_pi()
    jobs = [(setup, spec.duration_s, overrides, scheme, lam, rep)
            for scheme, lam in pairs for rep in range(spec.reps)]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    workers = min(len(jobs), len(cpus)) if hasattr(os, "fork") else 1
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        if workers >= 2:
            # child w starts on CPU w + 1 of the mask: with CPU w, paired runs
            # of the sim benchmarks on 2 CPUs were no faster and often slower
            parent = os.getpid()
            for w in range(workers):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _run_share(jobs[w::workers], cpus[(w + 1) % len(cpus)], cpus, write_fd,
                               parent)
                os.close(write_fd)
                children.append((pid, read_fd))
        try:
            sols = {} if rates is None else dict(zip(rates, fixed_points(
                rates, setup.config, setup.policy, pi, setup.timing)))
        except MemoryError:
            raise ConfigError("system.n_stations", f"the analysis model of "
                              f"{setup.config.n_stations} stations does not fit in "
                              f"memory") from None
        shares = []  # the reports of each child, read to EOF and reaped in order
        while children:
            pid, fd = children[0]
            with open(fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(fd)
            if not payload:
                raise RuntimeError(f"simulator child {pid} exited without a report "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            ok, result = pickle.loads(payload)
            if not ok:
                exc, trace = result
                raise exc from RuntimeError(f"in simulator child {pid}:\n{trace}")
            shares.append(result)
    finally:
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # job j ran on child j mod len(shares)
    reports = ([shares[j % len(shares)][j // len(shares)] for j in range(len(jobs))]
               if shares else list(map(_simulate_one, jobs)))
    return [reports[i:i + spec.reps] for i in range(0, len(jobs), spec.reps)], sols


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _cell(x) -> str:
    """A CSV cell: a string as is, None empty, a bool or an integer as an
    integer, any other number as the repr of its float."""
    if isinstance(x, int):  # a bool is an int
        return str(int(x))
    return x if isinstance(x, str) else "" if x is None else repr(float(x))


def _write_csv(spec: ExperimentSpec, verb: str, units: str, columns, rows) -> None:
    """``<out>/<verb>.csv``: a header naming the schema, the configuration
    hash and the units, the column names, then one line per row."""
    _write(spec.out_dir / f"{verb}.csv",
           [f"# schema={verb}-v1 config_hash={setup_hash(spec.setup)} units: {units}",
            ",".join(columns), *(",".join(map(_cell, row)) for row in rows)])


def _flag(sol) -> str:
    """A fixed point's state on a stdout line, with why it did not converge."""
    return "converged" if sol.converged else f"NOT CONVERGED ({sol.reason})"


def cmd_analyze(spec: ExperimentSpec) -> int:
    sols = _runs_and_solutions(spec, [], spec.lambdas)[1].values()
    _write_csv(spec, "analysis", "lambda_pps=pkts/s e_r_us=us theta=pkts/s",
               ("lambda_pps", "p_a", "p_s", "e_r_us", "pbar_a", "pbar_s",
                "theta_ap_pps", "theta_sta_pps", "converged", "iterations"),
               [(s.lambda_pps, s.p_a, s.p_s, s.expected_renewal_us, s.pbar_a, s.pbar_s,
                 s.theta_ap_pps, s.theta_sta_pps, s.converged, s.iterations) for s in sols])
    retry = spec.setup.config.retry_limit
    note = "" if retry is None else f" (the model ignores system.retry_limit={retry})"
    for s in sols:
        print(f"analyze lambda={s.lambda_pps:g}: {_flag(s)} "
              f"P_A={s.p_a:.4f} P_S={s.p_s:.4f}{note}")
    return 0


_SIM_METRICS = ("uplink_pps", "downlink_pps", "system_pps", "p_a_hat", "p_s_hat",
                "mean_renewal_us")


def _aggregate(reports: list[SimReport]) -> dict:
    out = {}
    for m in _SIM_METRICS:
        vals = [v for v in (getattr(r, m) for r in reports) if v is not None]
        mean = float(np.mean(vals)) if vals else float("nan")
        err = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else None
        out[m] = (mean, err)
    return out


def cmd_simulate(spec: ExperimentSpec) -> int:
    meta = {"config_hash": setup_hash(spec.setup),
            "units": {"throughput": "pkts/s", "time": "us"}}
    pairs = [(scheme, lam) for scheme in spec.schemes for lam in spec.lambdas]
    runs, _ = _runs_and_solutions(spec, pairs)  # every run ends before any file is written
    rows = []
    for (scheme, lam), reports in zip(pairs, runs):
        for rep, report in enumerate(reports):
            _write(spec.out_dir / f"sim_{scheme}_lam{lam:g}_rep{rep}.json",
                   [report.to_json(meta)])
        agg = _aggregate(reports)
        rows.append([scheme, lam, spec.reps, *(x for m in _SIM_METRICS for x in agg[m])])
        print(f"simulate {scheme} lambda={lam:g}: "
              f"system={agg['system_pps'][0]:.1f} pps over {spec.reps} rep(s)")
    _write_csv(spec, "simulate", "pps=pkts/s *_us=us",
               ["scheme", "lambda_pps", "reps",
                *(f"{m}_{stat}" for m in _SIM_METRICS for stat in ("mean", "stderr"))], rows)
    return 0


def validation_rows(solutions, sim_aggregates, tolerance: float):
    """Pure comparison: per-rate relative errors on P_A, P_S, E[R].

    ``sim_aggregates`` maps lambda -> dict with p_a_hat / p_s_hat /
    mean_renewal_us means.  Returns (rows, breached).
    """
    rows, breached = [], False
    for sol in solutions:
        sim = sim_aggregates[sol.lambda_pps]
        pairs = (
            ("p_a", sol.p_a, sim["p_a_hat"]),
            ("p_s", sol.p_s, sim["p_s_hat"]),
            ("e_r_us", sol.expected_renewal_us, sim["mean_renewal_us"]),
        )
        for metric, ana, meas in pairs:
            if meas is None or not sol.converged:
                rows.append((sol.lambda_pps, metric, ana, meas, None, False))
                breached = True
                continue
            rel = abs(meas - ana) / max(abs(ana), 1e-12)
            ok = rel <= tolerance
            breached = breached or not ok
            rows.append((sol.lambda_pps, metric, ana, meas, rel, ok))
    return rows, breached


def cmd_validate(spec: ExperimentSpec) -> int:
    # the analysis has no retry limit, so neither has its simulation
    runs, sols = _runs_and_solutions(spec, [("opportunistic", lam) for lam in spec.lambdas],
                                     spec.lambdas, retry_limit=None)
    # a metric that no replication measured is None, not _aggregate's NaN
    aggs = {lam: {m: None if math.isnan(mean) else mean
                  for m, (mean, _) in _aggregate(reports).items()}
            for lam, reports in zip(spec.lambdas, runs)}
    rows, breached = validation_rows(sols.values(), aggs, spec.tolerance)
    for lam, metric, ana, meas, rel, ok in rows:
        state = "ok" if ok else "BREACH"
        rel_txt = "n/a" if rel is None else f"{rel:.2%}"
        sim_txt = "n/a" if meas is None else f"{float(meas):.6g}"
        print(f"validate lambda={lam:g} {metric}: analysis={ana:.6g} "
              f"sim={sim_txt} err={rel_txt} [{state}]")
    _write_csv(spec, "validate", f"e_r_us=us tolerance={spec.tolerance!r}",
               ("lambda_pps", "metric", "analysis", "simulation", "rel_err", "within_tol"),
               rows)
    return 1 if breached else 0


def cmd_compare(spec: ExperimentSpec) -> int:
    n = spec.setup.config.n_stations
    pairs = [(scheme, lam) for scheme in spec.schemes if scheme != "analysis"
             for lam in spec.lambdas]
    rates = [lam for lam in spec.lambdas if lam > 0] if "analysis" in spec.schemes else None
    runs, sols = _runs_and_solutions(spec, pairs, rates)
    aggs = {pair: _aggregate(reports) for pair, reports in zip(pairs, runs)}
    rows = []
    for scheme in spec.schemes:
        for lam in spec.lambdas:
            note = ""
            if scheme != "analysis":
                agg = aggs[scheme, lam]
                up, down = agg["uplink_pps"][0], agg["downlink_pps"][0]
            elif lam <= 0:
                up = down = 0.0
            elif sols[lam].converged:
                up, down = n * sols[lam].theta_sta_pps, n * sols[lam].theta_ap_pps
            else:  # a nan row, flagged on stdout
                up = down = float("nan")
                note = f" {_flag(sols[lam])}"
            rows.append((scheme, lam, up, down, up + down))
            print(f"compare {scheme} lambda={lam:g}: system={up + down:.1f} pps{note}")
    _write_csv(spec, "compare", "pps=pkts/s",
               ("scheme", "lambda_pps", "uplink_pps", "downlink_pps", "system_pps"), rows)
    return 0


def _parse_lambdas(verb: str, text: str) -> tuple:
    """Comma-separated arrival rates, each a finite number >= 0; > 0 for the
    verbs that solve the analysis, at least one for validate, and for
    simulate no two that name the same run file (``lam{rate:g}``)."""
    try:
        lams = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError("--lambda", str(exc)) from None
    if not all(math.isfinite(x) and x >= 0.0 for x in lams):
        raise ConfigError("--lambda", f"rates must be finite and >= 0, got {text!r}")
    if len(set(lams)) < len(lams):
        raise ConfigError("--lambda", f"a rate repeats in {text!r}")
    if verb == "simulate" and len({f"{x:g}" for x in lams}) < len(lams):
        raise ConfigError("--lambda", f"two rates of {text!r} name the same run files "
                                      "sim_<scheme>_lam<rate:g>_rep<k>.json")
    if verb in ("analyze", "validate") and 0.0 in lams:
        raise ConfigError("--lambda", f"{verb} needs a positive arrival rate, got {text!r}")
    if verb == "validate" and not lams:
        raise ConfigError("--lambda", "validate needs at least one arrival rate")
    return lams


def build_spec(args) -> ExperimentSpec:
    # args holds only the flags its verb registered
    plan = {k: getattr(args, k) for k in ("reps", "tolerance", "duration_s") if k in args}
    if getattr(args, "scheme", ""):
        runnable = VERB_SCHEMES[args.command]
        schemes = tuple(s.strip() for s in args.scheme.split(","))
        if not set(schemes) <= set(runnable):
            raise ConfigError("--scheme", f"{args.command} runs only {runnable}, got {schemes}")
        if len(set(schemes)) < len(schemes):
            raise ConfigError("--scheme", f"a scheme repeats in {args.scheme!r}")
        plan["schemes"] = schemes
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(item, "expected key=value in --set")
        k, _, v = item.partition("=")
        overrides[k.strip()] = v.strip()
    if getattr(args, "seed", None) is not None:
        overrides["system.seed"] = str(args.seed)
    setup = (load_config(args.config, overrides) if args.config
             else default_setup(overrides))
    out = Path(args.out)  # a verb could not write beneath a file once its runs are done
    if any(os.path.lexists(p) and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigError("--out", f"{args.out!r} is, or lies beneath, a file")
    n = setup.config.n_stations  # an analysis too large is refused before it starts
    if (args.command in ("analyze", "validate") or "analysis" in plan.get("schemes", ())) \
            and cell_total(n) > MAX_CELLS:
        raise ConfigError("system.n_stations", f"the analysis of {n} stations has "
                          f"{cell_total(n):,} cells, more than the {MAX_CELLS:,} of 60 stations")
    spec = ExperimentSpec(setup=setup, lambdas=_parse_lambdas(args.command, args.lam),
                          out_dir=out, **plan)
    if args.command != "analyze" and set(spec.schemes) - {"analysis"}:
        _check_sim_work(spec)
    return spec


def _check_sim_work(spec: ExperimentSpec) -> None:
    """Refuses simulator work past MAX_SIM_WORK: on --duration-s when a run's
    duration holds too many contentions, else on --lambda when a run expects
    too many arrivals, else on --reps when the runs of one (scheme, lambda)
    together take too much of either, each run at least its fixed cost."""
    n, difs = spec.setup.config.n_stations, spec.setup.timing.difs_us
    contentions = spec.duration_s * 1e6 / difs
    if contentions > MAX_SIM_WORK:
        raise ConfigError("--duration-s", f"{spec.duration_s:g} s holds up to "
                          f"{contentions:.3g} contentions of one DIFS ({difs:g} us), more "
                          f"than the {MAX_SIM_WORK:.0e} events one run may take")
    lam = max(spec.lambdas, default=0.0)
    arrivals = 2 * n * lam * spec.duration_s
    if arrivals > MAX_SIM_WORK:
        raise ConfigError("--lambda", f"{lam:g} pkts/s per queue, over "
                          f"2N = {2 * n} queues for {spec.duration_s:g} s, expects "
                          f"{arrivals:.3g} arrivals, more than the {MAX_SIM_WORK:.0e} "
                          f"events one run may take")
    work = spec.reps * max(contentions, arrivals, 2 * n + 5)
    if work > MAX_SIM_WORK:
        raise ConfigError("--reps", f"{spec.reps} runs of one scheme and rate take up to "
                          f"{work:.3g} events together, more than the {MAX_SIM_WORK:.0e} "
                          f"events one run may take")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oppmac",
        description="Opportunistic WLAN MAC: analysis, simulation, validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("simulate", cmd_simulate),
                     ("validate", cmd_validate), ("compare", cmd_compare)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="configuration file path")
        p.add_argument("--lambda", dest="lam", default="",
                       help="comma-separated arrival rates, pkts/s per queue")
        if name in VERB_SCHEMES:
            p.add_argument("--scheme", default="",
                           help=f"comma-separated subset of {VERB_SCHEMES[name]}")
        if name != "analyze":  # the verbs that simulate
            p.add_argument("--reps", type=int, default=ExperimentSpec.reps)
            p.add_argument("--seed", type=int, default=None)
            if name == "validate":
                p.add_argument("--tolerance", type=float, default=ExperimentSpec.tolerance)
            p.add_argument("--duration-s", type=float, default=ExperimentSpec.duration_s,
                           help="simulated seconds per run")
        p.add_argument("--out", default="results")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        spec = build_spec(args)
        return args.func(spec)
    except ParameterError as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
