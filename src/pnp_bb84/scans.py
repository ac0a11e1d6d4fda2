"""Distance scans and threshold solvers reproducing the headline results.

`figure_datasets` composes them into the files behind the summary figures:
each is the `io_csv` scan or lmax file of one scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import io_csv
from .numerics import check_range
from .optimize import OptimizationProblem, OptimizationResult, maximize
from .params import BoundConventions, PhysicalParams, Scenario
from .rates import ProtocolPoint, RateBreakdown

DEFAULT_THRESHOLD = 1e-9     # positivity convention for the maximal distance
_L_CAP_KM = 200.0            # coarse-march ceiling for the distance solver
_L_COARSE_STEP_KM = 10.0
_L_RESOLUTION_KM = 0.1
_NA_LOG_RANGE = (6.0, 18.0)  # pulse-count threshold search, log10
_NA_LOG_RESOLUTION = 0.05


class ThresholdOutsideRangeError(RuntimeError):
    """No pulse-count threshold inside the search range."""


@dataclass(frozen=True)
class ScanRecord:
    """One row of a distance or pulse-count scan."""

    scenario: Scenario
    distance_km: float
    n_pulses: float
    rate: float
    no_key: bool
    point: ProtocolPoint
    breakdown: RateBreakdown

    @property
    def mu(self) -> float:
        return self.breakdown.mu

    @property
    def mu_decoy(self) -> Optional[float]:
        return self.breakdown.mu_decoy

    @property
    def sample_fraction(self) -> Optional[float]:
        """Sacrificed fraction of the sifted key used for error estimation."""
        if self.point.m_e is None:
            return None
        return self.point.m_e / self.breakdown.sifted

    @property
    def key_length(self) -> float:
        return self.rate * self.n_pulses


def _warm_chain(scenario: Scenario, phys: PhysicalParams,
                conventions: BoundConventions
                ) -> Callable[..., OptimizationResult]:
    """``solve(key, distance_km, n_pulses, target=None)``: `maximize` at that
    point, warm started from the two recorded optima whose keys are nearest
    ``key``, stopping early once a rate above ``target`` is proven.

    Each solve records its result's point under ``key``, an early-stopped
    one too, overwriting any earlier one; ties in ``|k - key|`` go to the key
    recorded first.
    """
    found: dict[float, ProtocolPoint] = {}

    def solve(key: float, distance_km: float, n_pulses: float,
              target: Optional[float] = None) -> OptimizationResult:
        nearest = sorted(found, key=lambda k: abs(k - key))[:2]
        result = maximize(OptimizationProblem(
            scenario=scenario, distance_km=distance_km, n_pulses=n_pulses,
            phys=phys, conventions=conventions,
            warm_starts=tuple(found[k] for k in nearest)), target=target)
        found[key] = result.best_point
        return result

    return solve


def _bisect(below: Callable[[float], bool], lo: float, hi: float,
            width: float) -> float:
    """Midpoint of ``[lo, hi]`` halved until no wider than ``width``;
    ``below(x)`` says whether the sought point lies below ``x``."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def scan_distance(scenario: Scenario, n_pulses: float,
                  l_grid: Sequence[float],
                  phys: PhysicalParams = PhysicalParams(),
                  conventions: BoundConventions = BoundConventions()
                  ) -> list[ScanRecord]:
    """Optimize the rate at every grid distance, warm-starting along the scan.

    Records with non-positive rate are flagged ``no_key`` but still emitted so
    cutoff behaviour stays visible.
    """
    grid = list(l_grid)
    if not grid:
        raise ValueError("l_grid must be non-empty")
    for dist in grid:
        check_range("distance_km", dist, 0.0, math.inf, hi_open=True)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("l_grid must be strictly increasing")
    solve = _warm_chain(scenario, phys, conventions)
    records = []
    for dist in grid:
        result = solve(dist, dist, n_pulses)
        records.append(ScanRecord(
            scenario=scenario, distance_km=dist, n_pulses=n_pulses,
            rate=result.best_rate, no_key=result.best_rate <= 0.0,
            point=result.best_point, breakdown=result.breakdown))
    return records


def solve_lmax_profile(rate_at: Callable[..., float],
                       rate_threshold: float) -> float:
    """Largest distance with ``rate_at(L) > rate_threshold``.

    Assumes a non-increasing profile: marches from 0 km in `_L_COARSE_STEP_KM`
    steps up to `_L_CAP_KM` (returned if every step has a key), then bisects
    the bracket between the last step with a key and the first without one to
    `_L_RESOLUTION_KM`.

    Every march and bisection step only asks whether the rate is above the
    threshold, so it calls ``rate_at(L, rate_threshold)``, which may return
    any proven rate above the threshold instead of the optimum (`maximize`'s
    ``target``).  Once the bracket is known, one untargeted ``rate_at(lo)``
    at its key end solves that distance in full, so that the bisection
    starts from an optimum rather than from the first key proven there.  A
    rate that is not finite raises ValueError (nan would pass for a key).
    """
    check_range("rate_threshold", rate_threshold, 0.0, math.inf, hi_open=True)

    def rate(dist, *target):
        r = rate_at(dist, *target)
        if math.isfinite(r):
            return r
        raise ValueError(f"rate_at({dist} km) = {r!r} is not finite")

    def no_key(dist):
        return rate(dist, rate_threshold) <= rate_threshold

    if no_key(0.0):
        return 0.0
    lo, dist = 0.0, _L_COARSE_STEP_KM
    while dist <= _L_CAP_KM + 1e-9:
        if no_key(dist):
            rate(lo)
            return _bisect(no_key, lo, dist, _L_RESOLUTION_KM)
        lo = dist
        dist += _L_COARSE_STEP_KM
    return _L_CAP_KM


def find_lmax(scenario: Scenario, n_pulses: float,
              rate_threshold: float = DEFAULT_THRESHOLD,
              phys: PhysicalParams = PhysicalParams(),
              conventions: BoundConventions = BoundConventions()) -> float:
    """Maximal secure distance at the given positivity threshold, in km."""
    solve = _warm_chain(scenario, phys, conventions)
    return solve_lmax_profile(
        lambda dist, target=None: solve(dist, dist, n_pulses,
                                        target).best_rate,
        rate_threshold)


def find_na_threshold(scenario: Scenario,
                      rate_threshold: float = DEFAULT_THRESHOLD,
                      phys: PhysicalParams = PhysicalParams(),
                      conventions: BoundConventions = BoundConventions()
                      ) -> float:
    """Smallest pulse count with a positive maximal secure distance.

    Since the optimized rate is non-increasing in distance, a positive
    maximal distance is equivalent to the optimized rate at L = 0 exceeding
    the threshold; the search bisects that condition in log pulse count.
    Each probe only asks that question, so each `maximize` stops at the first
    rate it proves above the threshold.
    """
    if not scenario.finite:
        raise ValueError("pulse-count threshold applies to finite scenarios only")
    check_range("rate_threshold", rate_threshold, 0.0, math.inf, hi_open=True)
    lo_log, hi_log = _NA_LOG_RANGE
    solve = _warm_chain(scenario, phys, conventions)

    def positive(log_na: float) -> bool:
        return solve(log_na, 0.0, 10.0 ** log_na,
                     rate_threshold).best_rate > rate_threshold

    if not positive(hi_log):
        raise ThresholdOutsideRangeError(
            f"no positive rate up to n_pulses = 1e{hi_log:.0f}")
    if positive(lo_log):
        raise ThresholdOutsideRangeError(
            f"threshold below the search floor n_pulses = 1e{lo_log:.0f}")
    return 10.0 ** _bisect(positive, lo_log, hi_log, _NA_LOG_RESOLUTION)


# --- figure datasets ------------------------------------------------------------

FIG2_NA = (5e10, 1e11, 1e12, 1e14)
FIG5_NA = (5e10, 1e11, 1e12, 1e14, 1e16)
FIG3_LOG_NA_STEP = 0.25

_FIGURE_IDS = ("fig2", "fig3", "fig5")


def _default_l_grid(scenario: Scenario) -> list[float]:
    top = 44.0 if not scenario.uses_decoy else 130.0
    steps = int(round(top / 2.0))
    return [2.0 * i for i in range(steps + 1)]


def figure_datasets(figure_id: str, out_dir,
                    phys: PhysicalParams = PhysicalParams(),
                    conventions: BoundConventions = BoundConventions(),
                    l_grid: Optional[Sequence[float]] = None,
                    na_list: Optional[Sequence[float]] = None,
                    threshold: Optional[float] = None) -> list[Path]:
    """Write the `scan` or `lmax` files behind one of the summary figures.

    fig2 (no decoy) and fig5 (decoy) scan the finite-key scenario at each
    pulse count and the asymptotic scenario once; fig3 writes the maximal
    distance of both finite-key scenarios over the pulse counts and of both
    asymptotic ones.  Each file is the one `scan` or `lmax` writes for the
    same inputs.  Returns the paths written.  The default grids cover the
    full benchmark curves and take a while; pass ``l_grid``/``na_list`` to
    restrict them.  Only fig2 and fig5 read ``l_grid``, and only fig3 reads
    ``threshold`` (None is `DEFAULT_THRESHOLD`); passing either to a figure
    that does not read it raises ValueError.
    """
    if figure_id not in _FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of "
                         f"{_FIGURE_IDS}")
    if figure_id == "fig3" and l_grid is not None:
        raise ValueError("fig3 takes no l_grid: its solvers choose the "
                         "distances")
    if figure_id != "fig3" and threshold is not None:
        raise ValueError(f"{figure_id} takes no threshold: it scans rates")
    if threshold is None:
        threshold = DEFAULT_THRESHOLD
    check_range("threshold", threshold, 0.0, math.inf, hi_open=True)
    if na_list is not None and not na_list:
        raise ValueError("na_list must be non-empty")
    # every figure solves finite-key scenarios at these pulse counts
    for na in na_list or ():
        Scenario.NO_DECOY_FINITE.check_pulse_count(na)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if figure_id in ("fig2", "fig5"):
        decoy = figure_id == "fig5"
        fin_sc = Scenario.DECOY_FINITE if decoy else Scenario.NO_DECOY_FINITE
        inf_sc = Scenario.DECOY_INFINITE if decoy else Scenario.NO_DECOY_INFINITE
        nas = list(na_list if na_list is not None
                   else (FIG5_NA if decoy else FIG2_NA))
        io_csv.check_scan_names(fin_sc, nas)
        grid = list(l_grid if l_grid is not None else _default_l_grid(fin_sc))
        runs = [(fin_sc, na) for na in nas] + [(inf_sc, math.inf)]
        return [io_csv.write_scan(out, scan_distance(sc, na, grid, phys,
                                                     conventions))
                for sc, na in runs]

    # fig3: maximal distance vs log pulse count, plus the asymptotes
    nas = list(na_list) if na_list is not None else [
        10.0 ** (8.0 + FIG3_LOG_NA_STEP * i)
        for i in range(int((16.0 - 8.0) / FIG3_LOG_NA_STEP) + 1)]
    written = []
    for sc in Scenario:
        rows = [(na, find_lmax(sc, na, threshold, phys, conventions))
                for na in (nas if sc.finite else [math.inf])]
        written.append(io_csv.write_lmax(out, sc, rows, threshold))
    return written
