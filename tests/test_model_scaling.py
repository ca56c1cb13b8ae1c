"""Smoke test of scripts/model_scaling.py at small N."""

import math
import subprocess
import sys
from pathlib import Path

from oppmac.analysis import CensusSpace

from oracles import move_table_reference

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "model_scaling.py"


def test_model_scaling_smoke():
    out = subprocess.run([sys.executable, str(SCRIPT), "--n", "2,3"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == [2, 3]
    for n, build_s, peak_mb, cells, unknowns in rows:
        n = int(n)
        assert float(build_s) > 0.0 and float(peak_mb) > 0.0
        # the cells of the moves out of the censuses of all n pairs
        assert int(cells) == len(move_table_reference(CensusSpace(n))[0])
        assert int(unknowns) == math.comb(n + 3, 3)
