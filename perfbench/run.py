"""Run one workload of the pnp_bb84 benchmark and print its metrics.

    python3 perfbench/run.py --workload maximize_cold --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and imports ``pnp_bb84`` from its ``src/``.
With ``--trace 0`` it repeats whole passes of the workload for up to
``--seconds`` (at least one pass) and reports the end-to-end metrics of
BENCHMARK.json, every time calibrated to a nominal machine speed (see
``calibrate.py``); with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics, uncalibrated.  Every operation is
checked against
``perfbench/reference.json``.  Each metric is printed as ``name value unit``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, with
provenance and the operations of the first pass, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import Calibrator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 3
# a fresh interpreter: import the package, then finish one evaluate_rate call
SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import pnp_bb84
t1 = time.perf_counter()
from pnp_bb84 import (BoundConventions, PhysicalParams, ProtocolPoint,
                      Scenario, evaluate_rate)
point = ProtocolPoint(scenario=Scenario.NO_DECOY_INFINITE, distance_km=20.0,
                      lam=4.2e-5, delta=0.009)
evaluate_rate(point, PhysicalParams(), BoundConventions())
print(t1 - t0, time.perf_counter() - t1)
"""
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_CHUNK_OPS = 1000   # consecutive operations per tail estimate
WORKLOADS = ("maximize_cold", "solver_chain", "point_sweep")


def use_checkout_src() -> None:
    """Import ``pnp_bb84`` from this checkout's ``src/``; exit when absent."""
    package = SRC / "pnp_bb84"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run the benchmark "
                         "from the root of a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pnp_bb84
    if not Path(pnp_bb84.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: pnp_bb84 was imported from "
                         f"{pnp_bb84.__file__}, not from {SRC}")


def output_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# --- measurements -------------------------------------------------------------

def measure_setup(repeats: int = SETUP_REPEATS) -> dict:
    """Median set-up time of fresh processes, and its import/first-call split.

    ``setup_s`` is calibrated to the nominal machine; the split is raw.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    total, raw, imported, first = [], [], [], []
    with Calibrator() as cal:
        for _ in range(repeats):
            cal.between_ops()
            t0 = cal.clock()
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                                  env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120, check=True)
            t1 = cal.clock()
            raw.append(t1 - t0)
            total.append((t1 - t0) * cal.speed(t0, t1))
            import_s, first_s = (float(x) for x in proc.stdout.split())
            imported.append(import_s)
            first.append(first_s)
    return {"setup_s": statistics.median(total),
            "setup_raw_s": statistics.median(raw),
            "setup.import_s": statistics.median(imported),
            "setup.first_eval_s": statistics.median(first)}


def tail_latency(samples: list[float]) -> tuple[float, str]:
    """The highest listed percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum is
    reported instead.
    """
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return float(np.percentile(samples, p)), f"p{p:g}"
    return max(samples), "max"


def provenance() -> dict:
    import scipy
    from pnp_bb84 import _accel

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout is not a git repository
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        src_lines += len(data.splitlines())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numba_active": _accel.NUMBA_ACTIVE,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def judge(passes: list, reference: dict) -> dict:
    """Check every op; a later pass must also repeat the first pass exactly."""
    import workloads

    attempted = failed = 0
    gaps, failures = [], []
    first = passes[0][1]
    for p, (_, ops) in enumerate(passes):
        for i, op in enumerate(ops):
            ok, op_gaps = workloads.check_op(op, reference)
            repeated = p == 0 or (op.evaluations, op.checks) == (
                first[i].evaluations, first[i].checks)
            attempted += 1
            if not (ok and repeated):
                failed += 1
                failures.append({"pass": p, "op": i, "error": op.error,
                                 "repeated": repeated, "checks": op.checks})
            gaps.extend(op_gaps)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "rate_gap_max": max(gaps) if gaps else None}


def sweep_status_shares(ops: list) -> dict:
    counts: dict = {}
    for op in ops:
        if op.kind != "point" or op.error is not None:
            continue
        status, rate = op.checks[0][1]
        if status == "ok":
            status = "ok_positive" if rate > 0 else "ok_nonpositive"
        counts[status] = counts.get(status, 0) + 1
    total = sum(counts.values())
    return {k: v / total for k, v in sorted(counts.items())} if total else {}


def end_to_end(passes: list, verdict: dict, cal) -> tuple[dict, dict]:
    """End-to-end metrics; every time is calibrated to the nominal machine.

    Each is taken per pass and reported as the median over passes; the tail
    is taken per chunk of ``TAIL_CHUNK_OPS`` consecutive operations (or per
    pass, if shorter) and reported as the median over chunks, so neither the
    tail percentile nor its noise depends on how many passes fitted (one
    p99 per pass moved by 15% from pass to pass).  A pass's
    wall time is the sum of its operations' times, which leaves out the
    benchmark's own bookkeeping between operations.  A short operation
    that starts right after a calibration sample counts in the wall time but
    not in the latency percentiles: such operations crowded the p99.
    """
    walls, evals_per_s, p50s, tails, raw_walls = [], [], [], [], []
    after_sample = 0
    for _, ops in passes:
        times = [op.seconds * cal.speed(op.start, op.start + op.seconds)
                 for op in ops]
        walls.append(sum(times))
        raw_walls.append(sum(op.seconds for op in ops))
        evals_per_s.append(sum(op.evaluations for op in ops) / walls[-1])
        latencies = []
        previous_end = -math.inf
        for t, op in zip(times, ops):
            if cal.follows_sample(previous_end, op.start, op.seconds):
                after_sample += 1
            elif op.kind != "grid":
                latencies.append(t * 1e3)
            previous_end = op.start + op.seconds
        p50s.append(statistics.median(latencies))
        chunks = [latencies[i:i + TAIL_CHUNK_OPS] for i in
                  range(0, len(latencies) - TAIL_CHUNK_OPS + 1,
                        TAIL_CHUNK_OPS)] or [latencies]
        for chunk in chunks:
            tail, tail_label = tail_latency(chunk)
            tails.append(tail)
    gap = verdict["rate_gap_max"]
    metrics = {
        "wall_s": statistics.median(walls),
        "op_ms_p50": statistics.median(p50s),
        "op_ms_tail": statistics.median(tails),
        "evals_per_s": statistics.median(evals_per_s),
        "rate_attained_min": 1.0 - gap if gap is not None else 0.0,
        "ok_frac": 1.0 - verdict["failed"] / verdict["attempted"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(passes), "op_samples_per_pass": len(latencies),
              "op_ms_tail_percentile": tail_label,
              "op_ms_tail_chunks": len(tails),
              "rate_gap_max": gap,
              "failed_frac": verdict["failed"] / verdict["attempted"],
              "ops_after_sample": after_sample,
              "wall_raw_s": statistics.median(raw_walls),
              "calibration_loop_ms": cal.loop_ms(),
              "calibration_samples": len(cal.loops)}
    detail["calibration"] = {"times": cal.times, "loops": cal.loops}
    return metrics, detail


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict, setup_repeats: int = SETUP_REPEATS,
            **runner_options) -> dict:
    """Run one workload; returns the printed result and the full record."""
    import tracing
    import workloads

    workdir = output_dir()
    setup = measure_setup(setup_repeats)
    run_pass = workloads.make_runner(workload, seed, reference, workdir,
                                     **runner_options)
    passes = []
    if trace:
        t0 = time.perf_counter()
        ops = run_pass()
        passes.append((time.perf_counter() - t0, ops))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            ops = run_pass(on_op=tracer.begin_op)
            passes.append((time.perf_counter() - t0, ops))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["setup.first_eval_s"] = setup["setup.first_eval_s"]
        metrics["trace.overhead_s"] = passes[1][0] - passes[0][0]
        tracer.save(workdir / f"spans-{workload}-seed{seed}.npz")
        verdict = judge(passes, reference)
        detail = {"untraced_wall_s": passes[0][0],
                  "traced_wall_s": passes[1][0]}
        units = metric_units()[1]
    else:
        # whole passes only: stop before a pass that would overrun --seconds
        start = time.perf_counter()
        with Calibrator() as cal:
            while not passes or (time.perf_counter() - start
                                 + passes[-1][0] <= seconds):
                t0 = time.perf_counter()
                ops = run_pass(on_op=cal.between_ops, clock=cal.clock)
                passes.append((time.perf_counter() - t0, ops))
        verdict = judge(passes, reference)
        metrics, detail = end_to_end(passes, verdict, cal)
        metrics["setup_s"] = setup["setup_s"]
        detail.update(setup)
        units = metric_units()[0]
    if workload == "point_sweep":
        detail["sweep_status_shares"] = sweep_status_shares(passes[0][1])
    result = {"correct": verdict["failed"] == 0,
              "attempted": verdict["attempted"],
              "failed": verdict["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": provenance(), "detail": detail,
              "failures": verdict["failures"], "result": result,
              "first_pass_ops": [
                  {"kind": op.kind, "start": op.start, "seconds": op.seconds,
                   "evaluations": op.evaluations, "checks": op.checks,
                   "error": op.error} for op in passes[0][1]]}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_src()
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), load_reference())
    path = output_dir() / (f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = record["result"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for key, value in record["provenance"].items():
        print(f"provenance {key} {value}")
    for key, value in record["detail"].items():
        if key != "calibration":
            print(f"detail {key} {value}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"full record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
