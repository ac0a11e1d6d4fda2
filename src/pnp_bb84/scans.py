"""Distance scans and threshold solvers reproducing the headline results.

The CLI's ``figure`` command composes them into the files behind the summary
figures: each is the file one `scan` or `lmax` run writes.

A scan of two rows or more runs each later row's heuristic start in a
worker process, ahead of the main process's warm chain, when it may: the
process may run on two CPUs (``os.sched_getaffinity``), the ``fork`` start
method exists, no other thread runs, since forking a threaded process is
unsafe, and the process is not a daemonic one such as a pool's worker.  A
row's heuristic start reads that row's problem and nothing else; only its
warm starts and polish read the previous row.  So the
worker runs `_heuristic_end` for rows 1, 2, ... in grid order and sends
each end back, and the main process runs row 0 as `maximize` always does
and then, for each later row, the warm starts and the polish, with the
worker's end in place of the heuristic start's run.  Start order and the
tie rule are unchanged, so every row's floats, evaluations and
``converged`` are those of the sequential scan, and so are the files: under
``taskset -c 0`` (one CPU) the scan runs sequentially.  The worker is
forked after the generated objectives are imported and checked
(`optimize._generated` caches them), so it does not load them again.  It
catches every exception and then sends None, after which the main process
runs the remaining heuristic starts itself, and it is joined, terminated
first if the scan raises, before `scan_distance` returns: no process
outlives a scan, and no worker traceback reaches the user.  A fork the
system refuses (OSError) leaves the whole scan to the main process.

`find_lmax` and `find_na_threshold` stay sequential.  Each of their calls is
one question whose next distance or pulse count depends on the answer, and
a targeted call stops at its first proven key, which a heuristic start run
elsewhere would not watch for.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
import threading
from typing import Callable, Iterator, Optional, Sequence

from .numerics import check_range
from .optimize import (OptimizationProblem, OptimizationResult,
                       _generated, _heuristic_end, maximize)
from .params import BoundConventions, PhysicalParams, Scenario
from .rates import ProtocolPoint

DEFAULT_THRESHOLD = 1e-9     # positivity convention for the maximal distance
_L_CAP_KM = 200.0            # coarse-march ceiling for the distance solver
_L_COARSE_STEP_KM = 10.0
_L_RESOLUTION_KM = 0.1
_NA_LOG_RANGE = (6.0, 18.0)  # pulse-count threshold search, log10
_NA_LOG_RESOLUTION = 0.05


class ThresholdOutsideRangeError(RuntimeError):
    """No pulse-count threshold inside the search range."""


def _warm_chain(scenario: Scenario, phys: PhysicalParams,
                conventions: BoundConventions
                ) -> Callable[..., OptimizationResult]:
    """``solve(key, distance_km, n_pulses, **options)``: `maximize` at that
    point with ``options`` (``target``, ``heuristic_end``), warm started from
    the two recorded optima whose keys are nearest ``key``.

    Each solve records its result's point under ``key``, an early-stopped
    one too, overwriting any earlier one; ties in ``|k - key|`` go to the key
    recorded first.
    """
    found: dict[float, ProtocolPoint] = {}

    def solve(key: float, distance_km: float, n_pulses: float,
              **options) -> OptimizationResult:
        # one pass over the keys; ties go to the key recorded first, as
        # in sorted(found, key=...)[:2]
        nearest = heapq.nsmallest(2, found, key=lambda k: abs(k - key))
        result = maximize(OptimizationProblem(
            scenario=scenario, distance_km=distance_km, n_pulses=n_pulses,
            phys=phys, conventions=conventions,
            warm_starts=tuple(found[k] for k in nearest)), **options)
        found[key] = result.best_point
        return result

    return solve


def _walk(has_key: Callable[[float], bool], key_end: float, step: float,
          last: int) -> int:
    """Largest ``k <= last`` with a key at every grid point ``key_end + j *
    step``, ``0 < j <= k``: asks j = 1, 2, ... and stops at its one "no",
    since a "yes" may stop at its first proven key and a "no" runs in full.
    """
    k = 0
    while k < last and has_key(key_end + (k + 1) * step):
        k += 1
    return k


def _key_end_search(has_key: Callable[[float], bool], key_end: float,
                    far_end: float, width: float) -> tuple[float, bool]:
    """Midpoint of the grid cell where ``has_key`` flips, and whether that
    cell is the one next to ``far_end``.

    ``has_key`` is true at ``key_end`` and taken to be false at ``far_end``;
    neither end is asked.  The grid splits ``[key_end, far_end]`` into the
    fewest 2^K cells no wider than ``width``, as many as halving the bracket
    down to ``width`` makes, and `_walk` probes its points one cell at a time
    away from ``key_end``, so the search asks at most one "no".  The midpoint
    ``key_end + (k + 0.5) * step`` of the last cell is the float the halving
    loop returns for the same cell whenever the grid points are exact, as
    they are for the solvers' brackets.
    """
    cells = 1
    while abs(far_end - key_end) / cells > width:
        cells *= 2
    step = (far_end - key_end) / cells
    k = _walk(has_key, key_end, step, cells - 1)
    return key_end + (k + 0.5) * step, k == cells - 1


def scan_distance(scenario: Scenario, n_pulses: float,
                  l_grid: Sequence[float],
                  phys: PhysicalParams = PhysicalParams(),
                  conventions: BoundConventions = BoundConventions()
                  ) -> list[OptimizationResult]:
    """`maximize`'s result at every grid distance, warm-starting along the
    scan: one `OptimizationResult` per distance, with its evaluations and
    whether it converged.

    A row with ``best_rate <= 0`` has no key; it is still returned, so
    cutoff behaviour stays visible.  With two rows or more the heuristic
    starts of the later rows run in a worker process when `_may_fork`
    (module docstring); the results are the same either way.
    """
    grid = list(l_grid)
    if not grid:
        raise ValueError("l_grid must be non-empty")
    for dist in grid:
        check_range("distance_km", dist, 0.0, math.inf, hi_open=True)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("l_grid must be strictly increasing")
    solve = _warm_chain(scenario, phys, conventions)
    if len(grid) == 1 or not _may_fork():
        return [solve(dist, dist, n_pulses) for dist in grid]

    def problem_at(dist: float) -> OptimizationProblem:
        return OptimizationProblem(scenario=scenario, distance_km=dist,
                                   n_pulses=n_pulses, phys=phys,
                                   conventions=conventions)

    # loaded here, not at import; the objectives imported before the fork,
    # for both processes
    import multiprocessing
    _generated()
    context = multiprocessing.get_context("fork")
    ends, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_heuristic_ends,
                             args=(sender, map(problem_at, grid[1:])))
    try:
        worker.start()
    except OSError:  # no process to be had: every row runs here
        ends.close()
        sender.close()
        return [solve(dist, dist, n_pulses) for dist in grid]
    sender.close()
    try:
        results = [solve(grid[0], grid[0], n_pulses)]
        for dist, end in zip(grid[1:], _received(ends)):
            results.append(solve(dist, dist, n_pulses, heuristic_end=end))
    except BaseException:
        worker.terminate()
        raise
    finally:
        worker.join()
        ends.close()
    return results


def _may_fork() -> bool:
    """Whether a scan may fork its worker: two CPUs, ``fork``, one thread,
    and not in a daemonic process (a pool's worker), which may not have
    children."""
    import multiprocessing
    return (_second_cpu() and threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def _second_cpu() -> bool:
    """Whether this process may run on two CPUs or more."""
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _send_heuristic_ends(conn, problems) -> None:
    """The worker: `_heuristic_end` of each problem, sent in order.  After
    any exception, a problem's construction too, it sends None and stops."""
    try:
        for problem in problems:
            conn.send(_heuristic_end(problem))
    # not re-raised: multiprocessing would print its traceback, a Ctrl-C's
    # too, which the main process gets and reports itself
    except BaseException:
        with contextlib.suppress(BaseException):
            conn.send(None)
    finally:
        conn.close()


def _received(conn) -> Iterator[Optional[tuple]]:
    """The ends the worker sends, then None for every later row: the main
    process runs those heuristic starts itself."""
    with contextlib.suppress(EOFError, OSError):
        while (end := conn.recv()) is not None:
            yield end
    while True:
        yield None


def solve_lmax_profile(rate_at: Callable[..., float],
                       rate_threshold: float) -> float:
    """Largest distance with ``rate_at(L) > rate_threshold``.

    Assumes a non-increasing profile: after 0 km, `_walk` marches in
    `_L_COARSE_STEP_KM` steps up to `_L_CAP_KM` (returned if every step has
    a key), then `_key_end_search` walks the bracket between the last step
    with a key and the first without one on its 128-cell grid (0.078125 km
    cells, the finest halving of 10 km no wider than `_L_RESOLUTION_KM`),
    one cell at a time from the bracket's key end.

    Every march and search step only asks whether the rate is above the
    threshold, so it calls ``rate_at(L, rate_threshold)``, which may return
    any proven rate above the threshold instead of the optimum (`maximize`'s
    ``target``).  A "yes" thus stops at its first proven key and a "no"
    solves in full, which is why each walk ends at its first "no".  Once
    the bracket is known, one untargeted ``rate_at(lo)`` at its key end
    solves that distance in full, so that the search starts from an optimum
    rather than from the first key proven there.  A rate that is not finite
    raises ValueError (nan would pass for a key).
    """
    check_range("rate_threshold", rate_threshold, 0.0, math.inf, hi_open=True)

    def rate(dist, *target):
        r = rate_at(dist, *target)
        if math.isfinite(r):
            return r
        raise ValueError(f"rate_at({dist} km) = {r!r} is not finite")

    def has_key(dist):
        return rate(dist, rate_threshold) > rate_threshold

    if not has_key(0.0):
        return 0.0
    steps = round(_L_CAP_KM / _L_COARSE_STEP_KM)
    lo = _walk(has_key, 0.0, _L_COARSE_STEP_KM, steps) * _L_COARSE_STEP_KM
    if lo == _L_CAP_KM:
        return _L_CAP_KM
    rate(lo)
    return _key_end_search(has_key, lo, lo + _L_COARSE_STEP_KM,
                           _L_RESOLUTION_KM)[0]


def find_lmax(scenario: Scenario, n_pulses: float,
              rate_threshold: float = DEFAULT_THRESHOLD,
              phys: PhysicalParams = PhysicalParams(),
              conventions: BoundConventions = BoundConventions()) -> float:
    """Maximal secure distance at the given positivity threshold, in km."""
    solve = _warm_chain(scenario, phys, conventions)
    return solve_lmax_profile(
        lambda dist, target=None: solve(dist, dist, n_pulses,
                                        target=target).best_rate,
        rate_threshold)


def find_na_threshold(scenario: Scenario,
                      rate_threshold: float = DEFAULT_THRESHOLD,
                      phys: PhysicalParams = PhysicalParams(),
                      conventions: BoundConventions = BoundConventions()
                      ) -> float:
    """Smallest pulse count with a positive maximal secure distance.

    Since the optimized rate is non-increasing in distance, a positive
    maximal distance is equivalent to the optimized rate at L = 0 exceeding
    the threshold.  Each probe only asks that question, so each `maximize`
    stops at the first rate it proves above the threshold, while a "no"
    runs every start in full.  After checking the top of `_NA_LOG_RANGE`,
    `_key_end_search` walks its 256-cell grid in log pulse count
    (0.046875 decades, the finest halving of 12 decades no wider than
    `_NA_LOG_RESOLUTION`) one cell at a time down from the top, where the
    answers are cheap "yes"es, and stops at its first "no".  The floor of
    the range is asked only when the walk reaches the lowest cell; a key
    there raises ThresholdOutsideRangeError, as does no key at the top.
    """
    if not scenario.finite:
        raise ValueError("pulse-count threshold applies to finite scenarios only")
    check_range("rate_threshold", rate_threshold, 0.0, math.inf, hi_open=True)
    lo_log, hi_log = _NA_LOG_RANGE
    solve = _warm_chain(scenario, phys, conventions)

    def positive(log_na: float) -> bool:
        return solve(log_na, 0.0, 10.0 ** log_na,
                     target=rate_threshold).best_rate > rate_threshold

    if not positive(hi_log):
        raise ThresholdOutsideRangeError(
            f"no positive rate up to n_pulses = 1e{hi_log:.0f}")
    log_na, floor_cell = _key_end_search(positive, hi_log, lo_log,
                                         _NA_LOG_RESOLUTION)
    if floor_cell and positive(lo_log):
        raise ThresholdOutsideRangeError(
            f"threshold below the search floor n_pulses = 1e{lo_log:.0f}")
    return 10.0 ** log_na

