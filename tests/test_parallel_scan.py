"""A scan's heuristic starts in a worker process (`scans.scan_distance`).

The worker runs each later row's heuristic start ahead of the main
process's warm chain.  Its results must be the sequential scan's, row by
row, whether the worker runs, fails or is cut short, and no process may
outlive a scan.
"""

import math
import multiprocessing
import os
import threading
import time

import pytest

from pnp_bb84 import (BoundConventions, InfeasibleProblemError,
                      OptimizationProblem, Scenario, maximize, scans)
from pnp_bb84.optimize import _heuristic_end

D_FIN = Scenario.DECOY_FINITE
# 66 km is past the decoy_finite cutoff at 5e10 pulses (about 64.5 km)
NO_KEY_GRID = (D_FIN, 5e10, [62.0, 64.0, 66.0])
VARIANT_GRID = (Scenario.NO_DECOY_FINITE, 5e10, [10.0, 20.0, 30.0],
                BoundConventions().replace(single_photon_mass="strict",
                                           sifting_factor="half"))


def _scan(monkeypatch, two_cpus, scenario, n_pulses, grid, *conventions):
    """The scan's results, and for each row whether its `maximize` got a
    heuristic end from the worker."""
    monkeypatch.setattr(scans, "_second_cpu", lambda: two_cpus)
    inner, from_worker = scans.maximize, []

    def recorded(problem, **options):
        from_worker.append(options.get("heuristic_end") is not None)
        return inner(problem, **options)

    monkeypatch.setattr(scans, "maximize", recorded)
    kwargs = {"conventions": conventions[0]} if conventions else {}
    try:
        return scans.scan_distance(scenario, n_pulses, grid,
                                   **kwargs), from_worker
    finally:
        monkeypatch.setattr(scans, "maximize", inner)


def _assert_same_rows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.best_rate == b.best_rate
        assert a.best_raw == b.best_raw
        assert a.best_point == b.best_point
        assert a.evaluations == b.evaluations
        assert a.converged == b.converged
        assert a == b


@pytest.mark.parametrize("case", [NO_KEY_GRID, VARIANT_GRID],
                         ids=["decoy_finite-no-key-row", "conventions"])
def test_worker_gives_the_sequential_rows(monkeypatch, case):
    sequential, seq_ends = _scan(monkeypatch, False, *case)
    parallel, par_ends = _scan(monkeypatch, True, *case)
    _assert_same_rows(parallel, sequential)
    assert seq_ends == [False] * len(case[2])
    assert par_ends == [False] + [True] * (len(case[2]) - 1)
    assert multiprocessing.active_children() == []
    if case is NO_KEY_GRID:
        assert [r.best_rate > 0 for r in parallel] == [True, True, False]


@pytest.mark.parametrize("fails_at", [0, 1])
def test_a_failing_worker_leaves_the_rows_and_stderr_alone(monkeypatch, capfd,
                                                          fails_at):
    # the worker raises at its first or second row; the main process then
    # runs every remaining heuristic start itself, and the worker prints
    # no traceback
    sequential, _ = _scan(monkeypatch, False, *NO_KEY_GRID)
    done = []

    def flaky(problem):
        if len(done) == fails_at:
            raise RuntimeError("worker failure")
        done.append(problem)
        return _heuristic_end(problem)

    monkeypatch.setattr(scans, "_heuristic_end", flaky)
    capfd.readouterr()
    parallel, ends = _scan(monkeypatch, True, *NO_KEY_GRID)
    captured = capfd.readouterr()
    assert (captured.out, captured.err) == ("", "")
    _assert_same_rows(parallel, sequential)
    assert ends == [False] + [True] * fails_at + [False] * (2 - fails_at)
    assert multiprocessing.active_children() == []


def test_a_later_infeasible_row_raises_as_in_sequence(monkeypatch):
    # no photon survives 16000 km: the worker's problem raises there, and so
    # does the main process's, with the sequential scan's error
    case = (Scenario.DECOY_INFINITE, math.inf, [20.0, 16000.0])
    errors = []
    for two_cpus in (False, True):
        with pytest.raises(InfeasibleProblemError, match="underflows") as exc:
            _scan(monkeypatch, two_cpus, *case)
        errors.append(str(exc.value))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]


def test_a_scan_that_raises_ends_its_busy_worker(monkeypatch, capfd):
    # the main process raises at its first row while the worker is still
    # busy (here asleep): it is terminated and joined before the error
    # leaves scan_distance, not waited for
    def refused(problem, **options):
        raise InfeasibleProblemError("refused at row 0")

    monkeypatch.setattr(scans, "_second_cpu", lambda: True)
    monkeypatch.setattr(scans, "_heuristic_end", lambda _: time.sleep(600))
    monkeypatch.setattr(scans, "maximize", refused)
    capfd.readouterr()
    t0 = time.monotonic()
    with pytest.raises(InfeasibleProblemError, match="refused at row 0"):
        scans.scan_distance(D_FIN, 5e10, [56.0, 58.0])
    assert time.monotonic() - t0 < 60.0
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


def test_a_refused_fork_runs_the_scan_here(monkeypatch):
    def refused():
        raise BlockingIOError("Resource temporarily unavailable")

    sequential, _ = _scan(monkeypatch, False, *VARIANT_GRID)
    monkeypatch.setattr(os, "fork", refused)
    parallel, ends = _scan(monkeypatch, True, *VARIANT_GRID)
    _assert_same_rows(parallel, sequential)
    assert ends == [False] * 3
    assert multiprocessing.active_children() == []


def test_targeted_solvers_and_one_row_scans_stay_sequential(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was considered")

    monkeypatch.setattr(scans, "_may_fork", no_fork)
    scans.scan_distance(Scenario.NO_DECOY_INFINITE, math.inf, [20.0])
    scans.find_lmax(Scenario.NO_DECOY_INFINITE, math.inf, 1e-4)


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(scans, "_second_cpu", lambda: True)
    assert scans._may_fork()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not scans._may_fork()
    finally:
        release.set()
        other.join()


def _scan_in_pool_worker(grid):
    return scans.scan_distance(Scenario.NO_DECOY_INFINITE, math.inf, grid)


def test_a_pool_worker_scans_without_a_worker_of_its_own():
    # a daemonic process may not start children: its scans run sequentially
    grid = [20.0, 22.0]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        rows = pool.apply_async(_scan_in_pool_worker, (grid,)).get(timeout=120)
    _assert_same_rows(rows, _scan_in_pool_worker(grid))


def test_maximize_takes_the_heuristic_end_in_place_of_its_run():
    problem = OptimizationProblem(D_FIN, 60.0, 5e10)
    end = _heuristic_end(problem)
    assert maximize(problem, heuristic_end=end) == maximize(problem)
    with pytest.raises(ValueError, match="target"):
        maximize(problem, 1e-9, heuristic_end=end)
