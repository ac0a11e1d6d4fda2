"""Build ``perfbench/reference.json``, the answers the benchmark checks.

    python3 perfbench/make_reference.py --seeds 0-15 --jobs 2

Run it on the code whose answers are trusted; it overwrites the reference.

* Best-known rates: at every optimized operating point, the highest rate that
  ``maximize`` reaches over all seeds tried, cold (maximize_cold) or warm
  (the solver_chain scan).  One seed's output is not the reference: seeds
  differ by a few percent at some points, and that gap must stay visible.
* L_max and N_A^th: the best value over the seeds (longest distance, fewest
  pulses), with every seed's value kept for the record.
* Sweep pool and grid optima: deterministic, evaluated once.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _seed_job(seed: int) -> dict:
    """Every optimized answer one seed gives: cold maximize and the CLI chain."""
    run.use_checkout_src()
    import workloads
    from pnp_bb84 import optimize

    cold = {}
    for key, problem in workloads.cold_inputs(seed):
        result = optimize.maximize(problem)
        cold[key] = {"rate": result.best_rate,
                     "evaluations": result.evaluations,
                     "raw": [float(x) for x in result.best_raw]}
    workdir = run.output_dir()
    chain = {}
    for op in workloads.chain_pass(workloads.chain_inputs(seed), workdir):
        if op.error is not None:
            raise RuntimeError(f"seed {seed}: {op.error}")
        chain.update(dict(op.checks))
    return {"seed": seed, "cold": cold, "chain": chain}


def _parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def build(seeds: list[int], jobs: int) -> dict:
    run.use_checkout_src()
    import numpy
    import scipy
    import workloads
    from pnp_bb84 import optimize

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(jobs) as pool:
        per_seed = pool.map(_seed_job, seeds)

    best_rate: dict = {}
    centres: dict = {}
    lmax, nath = [], []
    for res in per_seed:
        seed = res["seed"]
        found = [(k, v["rate"]) for k, v in res["cold"].items()]
        for key, value in res["chain"].items():
            kind, _, name = key.partition(":")
            if kind == "rate":
                found.append((name, value))
            elif kind == "lmax":
                lmax.append(value)
            elif kind == "nath":
                nath.append(value)
        for key, rate in found:
            entry = best_rate.setdefault(key, {"rate": rate, "seed": seed,
                                               "reached": []})
            entry["reached"].append(rate)
            if rate > entry["rate"]:
                entry.update(rate=rate, seed=seed)
        for key, cold in res["cold"].items():
            if key not in centres or cold["rate"] > centres[key][0]:
                centres[key] = (cold["rate"], cold["raw"])
    reference = {
        "seeds": seeds,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "best_rate": best_rate,
        "evaluations": {key: [r["cold"][key]["evaluations"] for r in per_seed]
                        for key in per_seed[0]["cold"]},
        "centres": {key: raw for key, (_, raw) in centres.items()},
        "lmax": {workloads.LMAX_SCENARIO.value:
                 {"value": max(lmax), "per_seed": lmax}},
        "nath": {workloads.NATH_SCENARIO.value:
                 {"value": min(nath), "per_seed": nath}},
    }

    reference["grid"] = {key[len("grid:"):]:
                         optimize.grid_oracle(problem, res).best_rate
                         for key, problem, res in workloads.grid_inputs()}
    sweep = {}
    for key, problem, centre, size in workloads.sweep_centres(reference):
        entries = []
        for j in range(size):
            status, rate = workloads.evaluate_point(
                problem, workloads.sweep_raw(centre, key, j))
            entries.append(rate if status == "ok" else status)
        sweep[key] = entries
    reference["sweep"] = sweep
    return reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15",
                        help="inclusive seed range, as in 0-15")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    reference = build(_parse_seeds(args.seeds), args.jobs)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
