"""Smoke test of scripts/sim_cost.py on a short grid."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sim_cost.py"


def test_sim_cost_smoke():
    out = subprocess.run([sys.executable, str(SCRIPT), "--n", "2", "--lambda", "40,5000",
                          "--duration-s", "0.2", "--repeats", "1"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    assert [(r[0], r[2]) for r in rows] == [
        (scheme, lam) for scheme in ("opportunistic", "dcf-arf", "dcf-threshold")
        for lam in ("40", "5000")]
    for scheme, n, lam, wall, arrivals, at_empty, contentions, lone, full in rows:
        arrivals, at_empty = int(arrivals), int(at_empty)
        contentions, lone, full = int(contentions), int(lone), int(full)
        assert float(wall) > 0.0 and 0 < at_empty <= arrivals and contentions > 0
        if lam == "5000":  # past capacity nearly every arrival finds a backlog
            assert at_empty < arrivals / 100
            assert lone < contentions / 100
            if scheme == "opportunistic":  # nearly all of them batch rows
                assert full > 0.9 * contentions
        else:  # below it nearly every contention has one queue to itself
            assert lone > 0.9 * contentions
            assert full == 0
