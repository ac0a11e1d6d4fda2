"""The package runs on the standard library: numpy is a test dependency only.

A fresh interpreter, in which every ``import numpy`` fails, imports the
package and runs each layer once: a rate, a cold `maximize` per source
model, a warm two-point scan (through `raw_from_point`), the grid oracle
and the CLI.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import math, sys
sys.modules["numpy"] = None  # any import numpy now raises ImportError
import pnp_bb84
from pnp_bb84 import (BoundConventions, OptimizationProblem, PhysicalParams,
                      ProtocolPoint, Scenario, cli, evaluate_rate,
                      grid_oracle, maximize, scan_distance)

point = ProtocolPoint(scenario=Scenario.NO_DECOY_INFINITE, distance_km=20.0,
                      delta=9e-3, lam=2.5e-6)
assert evaluate_rate(point, PhysicalParams(), BoundConventions()).rate > 0
for scenario, km in [(Scenario.NO_DECOY_FINITE, 20.0),
                     (Scenario.DECOY_INFINITE, 60.0)]:
    n_pulses = 5e10 if scenario.finite else math.inf
    result = maximize(OptimizationProblem(scenario, km, n_pulses))
    assert result.best_rate > 0 and type(result.best_raw) is tuple
records = scan_distance(Scenario.NO_DECOY_INFINITE, math.inf, [20.0, 22.0])
assert [r.no_key for r in records] == [False, False]
for scenario, resolution in [(Scenario.NO_DECOY_INFINITE, 20),
                             (Scenario.DECOY_INFINITE, 8)]:
    assert grid_oracle(OptimizationProblem(scenario, 20.0),
                       resolution).best_rate > 0
out = sys.argv[1]
assert cli.main(["lmax", "--scenario", "no_decoy_infinite", "--out", out]) == 0
assert cli.main(["scan", "--scenario", "decoy_infinite", "--lmin", "0",
                 "--lmax-km", "2", "--out", out]) == 0
print("ok")
"""


def test_package_runs_with_numpy_blocked(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "lmax_no_decoy_infinite.csv", "scan_decoy_infinite_inf.csv"]
