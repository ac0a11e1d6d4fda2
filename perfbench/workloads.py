"""Workloads of the pnp_bb84 benchmark: inputs, one pass, reference checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, which is how the library and the CLI are
used.  A pass runs every operation of a workload once and returns one `Op`
per operation; `check_op` compares its values with the committed reference.

Why each workload:

* ``maximize_cold`` -- cold ``maximize`` (no warm starts) at six operating
  points.  The Nelder-Mead driver and the 13-dimensional decoy_finite kernel
  do almost all the work; ``scans`` does none.
* ``solver_chain`` -- ``lmax``, ``nath`` and a two-point ``scan`` through
  ``cli.main`` in this process.  Exercises ``scans``, the warm-start path
  (``raw_from_point`` and the warm chain), ``cli`` and ``io_csv``; a change
  that spends fewer starts when warm shows here and not in maximize_cold.
* ``point_sweep`` -- jittered points evaluated directly through
  ``point_from_raw`` and ``evaluate_rate``, plus ``grid_oracle`` on both
  infinite-key scenarios.  ``rates`` and ``_kernels`` do all the work and the
  Nelder-Mead driver none, so an evaluation-budget change must not move it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from pnp_bb84 import cli, optimize, rates, scans
from pnp_bb84.optimize import OptimizationProblem
from pnp_bb84.params import Scenario

# (scenario, distance_km, n_pulses) of the cold maximize workload; their
# optima are also the centres of the point sweep
COLD_POINTS = (
    (Scenario.NO_DECOY_INFINITE, 20.0, math.inf),
    (Scenario.NO_DECOY_FINITE, 20.0, 5e10),
    (Scenario.DECOY_INFINITE, 60.0, math.inf),
    (Scenario.DECOY_FINITE, 20.0, 5e10),
    (Scenario.DECOY_FINITE, 60.0, 5e10),
    (Scenario.DECOY_FINITE, 60.0, 1e12),
)

SCAN_SCENARIO, SCAN_NA, SCAN_KM = Scenario.DECOY_FINITE, 5e10, (58.0, 60.0)
LMAX_SCENARIO = Scenario.DECOY_INFINITE
NATH_SCENARIO = Scenario.NO_DECOY_FINITE

# grid oracle at the resolutions the test suite uses
GRIDS = ((Scenario.NO_DECOY_INFINITE, 200), (Scenario.DECOY_INFINITE, 56))
GRID_KM = 20.0

# The sweep draws from a committed pool of jittered raw vectors, so that every
# point it can evaluate has a reference rate.  Jitter is uniform in raw space
# around each reference optimum: uniform draws over the whole raw box give
# non-positive rates 97% of the time, which users do not evaluate.
SWEEP_POOL = 1024      # jittered points per scenario, split among its centres
SWEEP_SCALE = 0.3      # half-width of the jitter in every raw coordinate
SWEEP_POINTS = 3072    # pool points one pass evaluates, chosen by the seed

# reference tolerances
RATE_MISS_TOL = 0.10   # relative shortfall below the best-known rate that fails
LMAX_STEP_KM = 0.1     # solver resolution of find_lmax
NATH_STEP_DECADES = 0.05  # solver resolution of find_na_threshold
EXACT_RTOL = 1e-9      # deterministic values (sweep rates, grid optima)


def point_key(scenario: Scenario, distance_km: float, n_pulses: float) -> str:
    return f"{scenario.value}@{distance_km:g}km/{n_pulses:g}"


def cold_problem(scenario: Scenario, distance_km: float, n_pulses: float,
                 seed: int = 0) -> OptimizationProblem:
    return OptimizationProblem(scenario=scenario, distance_km=distance_km,
                               n_pulses=n_pulses, seed=seed)


@dataclass
class Op:
    """One operation of a pass and the values its reference check reads.

    ``checks`` holds ``(reference key, value)`` pairs; ``error`` is the repr
    of an exception the operation raised unexpectedly.  ``start`` and
    ``seconds`` are read from the pass's clock.
    """

    kind: str
    seconds: float
    evaluations: int
    checks: list = field(default_factory=list)
    error: Optional[str] = None
    start: float = 0.0


def _noop() -> None:
    pass


# --- maximize_cold ------------------------------------------------------------

def cold_inputs(seed: int) -> list:
    return [(point_key(sc, d, n), cold_problem(sc, d, n, seed))
            for sc, d, n in COLD_POINTS]


def cold_pass(inputs: list, on_op: Callable[[], None] = _noop,
              clock: Callable[[], float] = time.perf_counter) -> list:
    ops = []
    for key, problem in inputs:
        on_op()
        t0 = clock()
        try:
            result = optimize.maximize(problem)
        except Exception as exc:  # the op fails; the pass goes on
            ops.append(Op("maximize", clock() - t0, 0,
                          [("rate:" + key, None)], repr(exc), t0))
            continue
        ops.append(Op("maximize", clock() - t0, result.evaluations,
                      [("rate:" + key, result.best_rate)], start=t0))
    return ops


# --- solver_chain -------------------------------------------------------------

def chain_inputs(seed: int) -> list:
    """CLI argument lists; ``--out`` is appended per pass."""
    seed_args = ["--seed", str(seed)]
    return [
        ["lmax", "--scenario", LMAX_SCENARIO.value] + seed_args,
        ["nath", "--scenario", NATH_SCENARIO.value] + seed_args,
        ["scan", "--scenario", SCAN_SCENARIO.value, "--na", f"{SCAN_NA:g}",
         "--lmin", f"{SCAN_KM[0]:g}", "--lmax-km", f"{SCAN_KM[-1]:g}",
         "--lstep", f"{SCAN_KM[1] - SCAN_KM[0]:g}"] + seed_args,
    ]


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _chain_checks(command: str, out: Path) -> list:
    """Read the values a CLI command wrote back from its CSV output."""
    if command == "lmax":
        rows = _csv_rows(out / f"lmax_{LMAX_SCENARIO.value}.csv")
        return [("lmax:" + LMAX_SCENARIO.value, float(rows[0]["lmax_km"]))]
    if command == "nath":
        rows = _csv_rows(out / f"nath_{NATH_SCENARIO.value}.csv")
        return [("nath:" + NATH_SCENARIO.value,
                 float(rows[0]["na_threshold"]))]
    tag = f"{SCAN_NA:.0e}".replace("+", "")
    rows = _csv_rows(out / f"scan_{SCAN_SCENARIO.value}_{tag}.csv")
    found = {float(r["L_km"]): float(r["rate"]) for r in rows}
    return [("rate:" + point_key(SCAN_SCENARIO, km, SCAN_NA), found.get(km))
            for km in SCAN_KM]


@contextlib.contextmanager
def _counting_evaluations(counter: list):
    """Sum ``OptimizationResult.evaluations`` over the solvers' maximizes."""
    inner = scans.maximize

    def counted(problem, *args, **kwargs):
        result = inner(problem, *args, **kwargs)
        counter[0] += result.evaluations
        return result

    scans.maximize = counted
    try:
        yield
    finally:
        scans.maximize = inner


def chain_pass(inputs: list, workdir: Path,
               on_op: Callable[[], None] = _noop,
               clock: Callable[[], float] = time.perf_counter) -> list:
    ops = []
    out = Path(tempfile.mkdtemp(prefix="chain-", dir=workdir))
    try:
        for argv in inputs:
            on_op()
            counter = [0]
            stdout = io.StringIO()
            t0 = clock()
            try:
                with _counting_evaluations(counter), \
                        contextlib.redirect_stdout(stdout):
                    code = cli.main(argv + ["--out", str(out)])
                seconds = clock() - t0
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
                checks = _chain_checks(argv[0], out)
            except Exception as exc:  # the op fails; the pass goes on
                ops.append(Op("cli", clock() - t0, counter[0],
                              [], f"{argv[0]}: {exc!r}", t0))
                continue
            ops.append(Op("cli", seconds, counter[0], checks, start=t0))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return ops


# --- point_sweep --------------------------------------------------------------

def sweep_raw(centre: np.ndarray, key: str, index: int) -> np.ndarray:
    """Pool point ``index`` around ``centre``; exact, so the reference holds.

    Offsets are multiples of 1/1000 drawn from a string-seeded Mersenne
    Twister, whose stream is fixed across Python versions and platforms.
    """
    rng = random.Random(f"{key}#{index}")
    steps = [rng.randrange(-1000, 1001) for _ in range(centre.size)]
    return centre + SWEEP_SCALE * (np.array(steps, dtype=np.float64) / 1000.0)


def sweep_centres(reference: dict) -> list:
    """(key, problem, centre raw, pool size) of every sweep centre."""
    per_scenario = Counter(sc for sc, _, _ in COLD_POINTS)
    centres = []
    for sc, d, n in COLD_POINTS:
        key = point_key(sc, d, n)
        raw = np.array(reference["centres"][key], dtype=np.float64)
        centres.append((key, cold_problem(sc, d, n), raw,
                        SWEEP_POOL // per_scenario[sc]))
    return centres


def sweep_inputs(seed: int, reference: dict,
                 n_points: int = SWEEP_POINTS) -> list:
    """The seed picks which pool points a pass evaluates, and their order.

    Every scenario gets the same share of the points, three quarters of its
    pool.  A fixed mix keeps the median latency inside one scenario's
    cluster (left to chance, it sat between clusters and moved by 15% from
    seed to seed), and a large share keeps the few slow points of the tail
    from changing much with the seed.
    """
    rng = random.Random(seed)
    centres = sweep_centres(reference)
    chosen = []
    for scenario in Scenario:
        pool = [(c, j) for c, (_, problem, _, size) in enumerate(centres)
                if problem.scenario is scenario for j in range(size)]
        chosen.extend(rng.sample(pool, n_points // len(Scenario)))
    rng.shuffle(chosen)
    points = []
    for c, j in chosen:
        key, problem, centre, _ = centres[c]
        points.append((f"sweep:{key}#{j}", problem,
                       sweep_raw(centre, key, j)))
    return points


def grid_inputs() -> list:
    return [(f"grid:{sc.value}@{GRID_KM:g}km/r{res}",
             cold_problem(sc, GRID_KM, math.inf), res) for sc, res in GRIDS]


def evaluate_point(problem: OptimizationProblem, raw: np.ndarray) -> tuple:
    """(status, rate) of one raw vector: "ok" or the rejecting error class."""
    try:
        point = optimize.point_from_raw(problem, raw)
        rate = rates.evaluate_rate(point, problem.phys,
                                   problem.conventions).rate
    except rates.RateEvaluationError as exc:
        return type(exc).__name__, None
    return "ok", rate


def sweep_pass(points: list, grids: list,
               on_op: Callable[[], None] = _noop,
               clock: Callable[[], float] = time.perf_counter) -> list:
    ops = []
    for key, problem, raw in points:
        on_op()
        t0 = clock()
        try:
            value = evaluate_point(problem, raw)
        except Exception as exc:  # the op fails; the pass goes on
            ops.append(Op("point", clock() - t0, 1, [(key, None)],
                          repr(exc), t0))
            continue
        ops.append(Op("point", clock() - t0, 1, [(key, value)], start=t0))
    for key, problem, resolution in grids:
        on_op()
        t0 = clock()
        try:
            result = optimize.grid_oracle(problem, resolution)
        except Exception as exc:  # the op fails; the pass goes on
            ops.append(Op("grid", clock() - t0, 0, [(key, None)],
                          repr(exc), t0))
            continue
        ops.append(Op("grid", clock() - t0, result.evaluations,
                      [(key, result.best_rate)], start=t0))
    return ops


# --- running a workload -------------------------------------------------------

def make_runner(workload: str, seed: int, reference: dict, workdir: Path,
                sweep_points: int = SWEEP_POINTS):
    """A callable running one pass of ``workload`` on inputs from ``seed``.

    It takes the pass's optional ``on_op`` hook, called before each
    operation, and the ``clock`` that times the operations.
    """
    if workload == "maximize_cold":
        inputs = cold_inputs(seed)
        return lambda **hooks: cold_pass(inputs, **hooks)
    if workload == "solver_chain":
        inputs = chain_inputs(seed)
        return lambda **hooks: chain_pass(inputs, workdir, **hooks)
    if workload == "point_sweep":
        points = sweep_inputs(seed, reference, sweep_points)
        grids = grid_inputs()
        return lambda **hooks: sweep_pass(points, grids, **hooks)
    raise ValueError(f"unknown workload {workload!r}")


# --- reference checks ---------------------------------------------------------

def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=EXACT_RTOL, abs_tol=1e-18)


def sweep_expected(reference: dict, name: str):
    """Pool entry of sweep point ``<centre key>#<index>``: its reference rate,
    or the name of the error class that rejects it."""
    centre, _, index = name.rpartition("#")
    return reference["sweep"][centre][int(index)]


def check_value(key: str, value,
                reference: dict) -> tuple[bool, Optional[float]]:
    """Whether ``value`` passes the reference check for ``key``.

    Also returns the rate gap for optimized rates: the relative shortfall
    below the best-known rate, 0 when equal or higher.
    """
    kind, _, name = key.partition(":")
    if kind == "sweep":
        expected = sweep_expected(reference, name)
        if value is None:
            return False, None
        status, rate = value
        if isinstance(expected, str) or status != "ok":
            return status == expected, None
        return math.isfinite(rate) and _close(rate, expected), None
    if value is None or not math.isfinite(value):
        return False, None
    value = float(value)
    if kind == "rate":
        best = reference["best_rate"][name]["rate"]
        gap = max(0.0, (best - value) / best)
        return gap <= RATE_MISS_TOL, gap
    if kind == "grid":
        best = reference["grid"][name]
        return _close(value, best), max(0.0, (best - value) / best)
    if kind == "lmax":
        expected = reference["lmax"][name]["value"]
        return abs(value - expected) <= LMAX_STEP_KM + 1e-9, None
    if kind == "nath":
        expected = reference["nath"][name]["value"]
        return (value > 0 and abs(math.log10(value) - math.log10(expected))
                <= NATH_STEP_DECADES + 1e-9), None
    raise KeyError(f"no reference check for {key!r}")


def check_op(op: Op, reference: dict) -> tuple[bool, list]:
    """Whether an op passed every check, and the rate gaps it produced."""
    ok = op.error is None and bool(op.checks)
    gaps = []
    for key, value in op.checks:
        passed, gap = check_value(key, value, reference)
        ok = ok and passed
        if gap is not None:
            gaps.append(gap)
    return ok, gaps
