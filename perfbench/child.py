"""One oppmac CLI invocation in a fresh interpreter, timed from outside the package.

    python3 perfbench/child.py MODE RESULT_JSON -- CLI_ARGS...

MODE is one of

    setup   import oppmac and resolve the config from CLI_ARGS, then stop
            before any verb work (the verb functions are replaced by no-ops);
    run     call ``oppmac.cli.main(CLI_ARGS)`` with nothing wrapped;
    light   as ``run``, with spans only around the calls the CLI makes into
            ``fixed_point`` and ``run_*`` (a few dozen calls, no measurable cost);
    trace   as ``light``, plus spans around the analysis internals and a
            counter on ``heapq.heappop``; the spans are written next to
            RESULT_JSON, suffix ``.spans.json``, when the invocation ends.

In the setup and run modes a speed probe samples, from before the import to
the end, how fast this CPU currently runs Python.  The package is always
imported from ``<checkout>/src``.  RESULT_JSON receives the exit code, the
in-process wall time of ``cli.main`` less the probe's own time in it, peak
RSS, the probe samples, and per span name the call count, total and self
seconds.
"""

from __future__ import annotations

import functools
import heapq
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_EVERY_S = 0.01
PROBE_LOOP = 5000


class SpeedProbe:
    """Every PROBE_EVERY_S of wall time, times a fixed pure-Python loop.

    On a shared host the CPU's speed drifts by tens of percent over seconds
    to minutes.  The mean loop time over an invocation tracks the speed it
    ran at (on a 2-vCPU VM it correlated at about 0.9 with the time of a
    simulator invocation), so the benchmark rescales its times by it.  The
    loop costs about 3% of the invocation; its time is subtracted.
    """

    def __init__(self):
        self.samples: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []          # (span id, name) of the open spans
        self.counts: dict = {}
        self.absent: list = []

    def _patch(self, owner, attr: str, label: str, make):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(label)
        else:
            setattr(owner, attr, make(orig))

    def span(self, owner, attr: str, name: str, after=None):
        """Record a span around every call of ``owner.attr``; ``after`` sees
        the call's arguments and result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1][0] if stack else -1
                stack.append((sid, name))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[sid] = (name, t0, t1, parent)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._patch(owner, attr, f"{getattr(owner, '__name__', owner)}.{attr}", make)

    def count_calls(self, owner, attr: str, suffix: str):
        """Count calls of ``owner.attr`` under ``<enclosing span>.<suffix>``."""
        stack, counts = self.stack, self.counts

        def make(fn):
            def counter(*args):
                key = f"{stack[-1][1] if stack else 'outside'}.{suffix}"
                counts[key] = counts.get(key, 0) + 1
                return fn(*args)
            return counter

        self._patch(owner, attr, f"{owner.__name__}.{attr}", make)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def note_max(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (the span's
        duration minus the part its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for sid, (name, t0, t1, parent) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[sid]
        return out


def install_top(tracer: Tracer, cli) -> None:
    """The CLI's calls into the analysis and the simulators."""
    def fp_done(args, sol):
        tracer.add("analysis.fp_iterations", sol.iterations)

    tracer.span(cli, "fixed_point", "analysis.fixed_point", after=fp_done)
    tracer.span(cli, "run_opportunistic", "sim.opportunistic")
    tracer.span(cli, "run_dcf", "sim.dcf")
    tracer.span(cli, "build_spec", "config.build_spec")


def install_layers(tracer: Tracer, analysis) -> None:
    """Spans inside the analysis and the simulator's event counter."""
    import numpy

    def model_done(args, _):
        model = args[0]
        for attr, key in (("renewal_by_census", "analysis.renewal_unknowns"),
                          ("tagged_ap", "analysis.tagged_unknowns")):
            vec = getattr(model, attr, None)
            if vec is None:
                tracer.absent.append(f"CycleModel.{attr}")
            else:
                tracer.note_max(key, len(vec))

    tracer.span(analysis, "build_kernels", "kernels.build_kernels")
    tracer.span(analysis, "p_hat_minislot", "kernels.p_hat_minislot")
    model = getattr(analysis, "CycleModel", None)
    if model is None:
        tracer.absent.append("analysis.CycleModel")
    else:
        tracer.span(model, "__init__", "analysis.model_build", after=model_done)
        for attr, name in (("census_summary", "analysis.census_summary"),
                           ("_transition_row", "analysis.transition_row"),
                           ("_solve_renewal", "analysis.solve_renewal"),
                           ("_solve_tagged", "analysis.solve_tagged"),
                           ("throughput", "analysis.throughput")):
            tracer.span(model, attr, name)
    tracer.span(numpy.linalg, "solve", "analysis.linalg_solve")
    tracer.count_calls(heapq, "heappop", "events")


def main(argv: list[str]) -> int:
    mode, result_path = argv[0], Path(argv[1])
    if argv[2] != "--" or mode not in ("setup", "run", "light", "trace"):
        print("usage: child.py setup|run|light|trace RESULT_JSON -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    cli_args = argv[3:]
    probe = SpeedProbe()
    if mode in ("setup", "run"):
        probe.start()
    sys.path.insert(0, str(SRC))
    import oppmac.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"oppmac imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if mode == "setup":
        for verb in ("cmd_analyze", "cmd_simulate", "cmd_validate", "cmd_compare"):
            if not hasattr(cli, verb):
                print(f"cannot stop before verb work: no cli.{verb}", file=sys.stderr)
                return 2
            setattr(cli, verb, lambda spec: 0)
    if mode in ("light", "trace"):
        install_top(tracer, cli)
    if mode == "trace":
        import oppmac.analysis
        install_layers(tracer, oppmac.analysis)

    before = len(probe.samples)
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    wall = time.perf_counter() - t0 - sum(probe.samples[before:])
    probe.stop()

    result = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_s": probe.samples,
        "spans": tracer.summary(),
        "counts": tracer.counts,
        "absent": sorted(set(tracer.absent)),
    }
    if mode == "trace":
        with open(result_path.with_suffix(".spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
