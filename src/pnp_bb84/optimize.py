"""Rate maximization over the free parameters of a scenario.

The search runs in an unconstrained "raw" space mapped bijectively onto the
feasible set (log-sigmoid intervals for scalars, softmax simplices for the
class probabilities and the error-budget split), so every point the search
visits is feasible by construction.  The local method is Nelder-Mead from
multiple deterministic starts: a low-discrepancy batch, a physics-informed
heuristic, and any caller-provided warm starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .params import BoundConventions, PhysicalParams, Scenario
from .rates import ErrorBudget, ProtocolPoint, RateBreakdown, evaluate_rate

RAW_DIM = {
    Scenario.NO_DECOY_INFINITE: 2,
    Scenario.NO_DECOY_FINITE: 7,
    Scenario.DECOY_INFINITE: 3,
    Scenario.DECOY_FINITE: 13,
}

_START_SPAN = 3.0      # sobol starts cover raw coordinates in [-span, span]
_RATE_TIE_TOL = 1e-12  # ties in rate break toward smaller delta


class InfeasibleProblemError(ValueError):
    """No feasible point exists for the requested scenario and geometry."""


@dataclass(frozen=True)
class OptimizationProblem:
    scenario: Scenario
    distance_km: float
    n_pulses: float = math.inf
    phys: PhysicalParams = field(default_factory=PhysicalParams)
    conventions: BoundConventions = field(default_factory=BoundConventions)
    seed: int = 0
    n_starts: int = 16
    max_evals_per_start: Optional[int] = None
    warm_starts: tuple[ProtocolPoint, ...] = ()

    def __post_init__(self) -> None:
        # every check is written so that nan fails it
        if self.scenario.finite and not 0.0 < self.n_pulses < math.inf:
            raise ValueError("finite scenarios need a finite positive n_pulses")
        if not 0.0 <= self.distance_km < math.inf:
            raise ValueError(f"distance_km={self.distance_km!r} must be finite "
                             "and non-negative")
        if not self.n_starts >= 1:
            raise ValueError("n_starts must be at least 1")

    @property
    def dim(self) -> int:
        return RAW_DIM[self.scenario]


@dataclass(frozen=True)
class OptimizationResult:
    best_rate: float
    best_point: Optional[ProtocolPoint]
    breakdown: Optional[RateBreakdown]
    best_raw: np.ndarray
    evaluations: int
    converged: bool


# --- raw <-> point maps ---------------------------------------------------------

def _logit_of_logrange(x: float, log_lo: float, log_span: float) -> float:
    # inverse of `_kernels.logrange_kernel`; the range is one of its *_LOG pairs
    s = (math.log(x) - log_lo) / log_span
    s = min(max(s, 1e-15), 1.0 - 1e-15)
    return math.log(s / (1.0 - s))


def point_from_raw(problem: OptimizationProblem, raw: np.ndarray) -> ProtocolPoint:
    """Map an unconstrained raw vector onto a feasible protocol point."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (problem.dim,):
        raise ValueError(f"raw vector must have shape ({problem.dim},)")
    z = raw.tolist()
    arr = problem.phys.to_array()
    flags = problem.conventions.to_flags()
    m_a, eta = _kernels.channel_at(problem.distance_km, arr)
    sc = problem.scenario
    if sc is Scenario.NO_DECOY_INFINITE:
        lam, delta = _kernels.params_no_decoy_infinite(z, m_a, eta, arr, flags)
        return ProtocolPoint(scenario=sc, distance_km=problem.distance_km,
                             lam=lam, delta=delta)
    if sc is Scenario.NO_DECOY_FINITE:
        lam, delta, finite = _kernels.params_no_decoy_finite(
            z, m_a, eta, problem.n_pulses, arr, flags)
        _, m_e, e_pa, e_bar, e_u, e_e = finite
        budget = ErrorBudget(eps_pa=e_pa, eps_bar=e_bar, eps_u=e_u, eps_e=e_e)
        return ProtocolPoint(scenario=sc, distance_km=problem.distance_km,
                             n_pulses=problem.n_pulses, lam=lam, delta=delta,
                             m_e=m_e, budget=budget)
    if sc is Scenario.DECOY_INFINITE:
        lam_s, lam_d, delta = _kernels.params_decoy_infinite(
            z, m_a, eta, arr, flags)
        return ProtocolPoint(scenario=sc, distance_km=problem.distance_km,
                             lam_s=lam_s, lam_d=lam_d, delta=delta)
    lam_s, lam_d, delta, finite = _kernels.params_decoy_finite(
        z, m_a, eta, problem.n_pulses, arr, flags)
    _, m_e, p_s, p_d, e_pa, e_bar, e_us, e_ud, e_uv, e_es = finite
    budget = ErrorBudget(eps_pa=e_pa, eps_bar=e_bar, eps_u_s=e_us,
                         eps_u_d=e_ud, eps_u_v=e_uv, eps_e_s=e_es)
    return ProtocolPoint(scenario=sc, distance_km=problem.distance_km,
                         n_pulses=problem.n_pulses, lam_s=lam_s, lam_d=lam_d,
                         delta=delta, m_e=m_e, p_s=p_s, p_d=p_d,
                         p_v=1.0 - p_s - p_d, budget=budget)


def raw_from_point(problem: OptimizationProblem, point: ProtocolPoint) -> np.ndarray:
    """Right inverse of :func:`point_from_raw` on the feasible set."""
    if point.scenario is not problem.scenario:
        raise ValueError("point scenario does not match the problem")
    phys = problem.phys
    m_a, eta = _kernels.channel_at(problem.distance_km, phys.to_array())
    cap = _kernels.lambda_cap_kernel(point.delta, m_a, phys.q_split)
    z_delta = _logit_of_logrange(point.delta, *_kernels.DELTA_LOG)
    sc = problem.scenario
    budget_total = phys.eps_free
    if sc is Scenario.NO_DECOY_INFINITE:
        z_u = _logit_of_logrange(point.lam / cap, *_kernels.U_LOG)
        return np.array([z_delta, z_u])
    if sc is Scenario.DECOY_INFINITE:
        z_u = _logit_of_logrange(point.lam_s / cap, *_kernels.U_LOG)
        z_r = _logit_of_logrange(point.lam_d / point.lam_s, *_kernels.RATIO_LOG)
        return np.array([z_delta, z_u, z_r])
    with_eta = problem.conventions.to_flags()[0]
    if sc is Scenario.NO_DECOY_FINITE:
        z_u = _logit_of_logrange(point.lam / cap, *_kernels.U_LOG)
        mu = m_a * point.lam * phys.q_split
        q, _ = _kernels.gain_qber_kernel(mu, eta, phys.y0, phys.e_det, phys.e0,
                                         with_eta)
        sifted = 0.5 * q * problem.n_pulses
        z_m = _logit_of_logrange(point.m_e / sifted, *_kernels.MFRAC_LOG)
        b = point.budget
        return np.array([z_delta, z_u, z_m,
                         math.log(b.eps_pa / budget_total),
                         math.log(b.eps_bar / budget_total),
                         math.log(b.eps_u / budget_total),
                         math.log(b.eps_e / budget_total)])
    z_u = _logit_of_logrange(point.lam_s / cap, *_kernels.U_LOG)
    z_r = _logit_of_logrange(point.lam_d / point.lam_s, *_kernels.RATIO_LOG)
    mu_s = m_a * point.lam_s * phys.q_split
    q_s, _ = _kernels.gain_qber_kernel(mu_s, eta, phys.y0, phys.e_det, phys.e0,
                                       with_eta)
    sifted = 0.5 * problem.n_pulses * point.p_s * q_s
    z_m = _logit_of_logrange(point.m_e / sifted, *_kernels.MFRAC_LOG)
    b = point.budget
    return np.array([z_delta, z_u, z_r, z_m,
                     math.log(point.p_s), math.log(point.p_d),
                     math.log(point.p_v),
                     math.log(b.eps_pa / budget_total),
                     math.log(b.eps_bar / budget_total),
                     math.log(b.eps_u_s / budget_total),
                     math.log(b.eps_u_d / budget_total),
                     math.log(b.eps_u_v / budget_total),
                     math.log(b.eps_e_s / budget_total)])


def _heuristic_raw(problem: OptimizationProblem) -> np.ndarray:
    """A single physics-informed start near the typical optimum basin.

    Window wide enough for a ~1e-8 tagged fraction, signal intensity around
    0.35 photons (decoy) or half the channel transmittance (no decoy), a mild
    decoy ratio, a 10% sampling fraction and flat simplex weights.
    """
    phys = problem.phys
    m_a, eta = _kernels.channel_at(problem.distance_km, phys.to_array())
    a = math.sqrt(m_a * (1.0 - phys.q_split) / 2.0)
    delta = min(max(4.0 / a, _kernels.DELTA_LO * 2), 0.5)
    cap = _kernels.lambda_cap_kernel(delta, m_a, phys.q_split)
    if problem.scenario.uses_decoy:
        mu = 0.35
    else:
        mu = min(0.7 * eta, 0.35)
    lam = min(mu / (m_a * phys.q_split), cap * 0.999)
    u = max(min(lam / cap, 0.99), _kernels.U_LO * 10)
    raw = np.zeros(problem.dim)
    raw[0] = _logit_of_logrange(delta, *_kernels.DELTA_LOG)
    raw[1] = _logit_of_logrange(u, *_kernels.U_LOG)
    if problem.scenario is Scenario.NO_DECOY_FINITE:
        raw[2] = _logit_of_logrange(0.1, *_kernels.MFRAC_LOG)
    elif problem.scenario is Scenario.DECOY_INFINITE:
        raw[2] = _logit_of_logrange(0.1, *_kernels.RATIO_LOG)
    elif problem.scenario is Scenario.DECOY_FINITE:
        raw[2] = _logit_of_logrange(0.15, *_kernels.RATIO_LOG)
        raw[3] = _logit_of_logrange(0.1, *_kernels.MFRAC_LOG)
        raw[4:7] = np.log([0.55, 0.35, 0.10])
    return raw


def _sobol_starts(dim: int, n: int, seed: int) -> np.ndarray:
    # imported here: scipy.stats alone takes longer to load than the package
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = 1 << max(0, (n - 1).bit_length())
    pts = sampler.random(m)[:n]
    return (pts - 0.5) * (2.0 * _START_SPAN)


def _objective_fn(problem: OptimizationProblem) -> Callable[[np.ndarray], float]:
    arr = problem.phys.to_array()
    flags = problem.conventions.to_flags()
    m_a, eta = _kernels.channel_at(problem.distance_km, arr)
    sc = problem.scenario
    n_pulses = problem.n_pulses
    if sc is Scenario.NO_DECOY_INFINITE:
        kern = _kernels.objective_no_decoy_infinite
        return lambda raw: kern(raw.tolist(), m_a, eta, arr, flags)
    if sc is Scenario.NO_DECOY_FINITE:
        kern = _kernels.objective_no_decoy_finite
        return lambda raw: kern(raw.tolist(), m_a, eta, n_pulses, arr, flags)
    if sc is Scenario.DECOY_INFINITE:
        kern = _kernels.objective_decoy_infinite
        return lambda raw: kern(raw.tolist(), m_a, eta, arr, flags)
    kern = _kernels.objective_decoy_finite
    return lambda raw: kern(raw.tolist(), m_a, eta, n_pulses, arr, flags)


def _delta_of_raw(raw: np.ndarray) -> float:
    return _kernels.logrange_kernel(raw[0], *_kernels.DELTA_LOG)


def maximize(problem: OptimizationProblem,
             objective: Optional[Callable[[np.ndarray], float]] = None,
             ) -> OptimizationResult:
    """Maximize the scenario rate (or an injected raw-space objective).

    Deterministic for a fixed problem seed.  Ties in the achieved value are
    broken toward the smaller untagged-window width.
    """
    # imported here: scipy.optimize alone takes longer to load than the package
    from scipy.optimize import minimize

    fn = objective if objective is not None else _objective_fn(problem)
    dim = problem.dim
    maxfev = problem.max_evals_per_start or 600 * dim
    starts: list[np.ndarray] = [np.zeros(dim), _heuristic_raw(problem)]
    for wp in problem.warm_starts:
        starts.append(raw_from_point(problem, wp))
    n_sobol = max(0, problem.n_starts - len(starts))
    if n_sobol:
        starts.extend(_sobol_starts(dim, n_sobol, problem.seed))

    neg = lambda raw: -fn(raw)
    best_val = -math.inf
    best_raw = starts[0]
    best_delta = math.inf
    evaluations = 0
    for x0 in starts:
        res = minimize(neg, x0, method="Nelder-Mead",
                       options=dict(maxfev=maxfev, xatol=1e-6, fatol=1e-11))
        evaluations += res.nfev
        val = -res.fun
        d = _delta_of_raw(res.x)
        if val > best_val + _RATE_TIE_TOL or (
                abs(val - best_val) <= _RATE_TIE_TOL and d < best_delta):
            best_val, best_raw, best_delta = val, res.x, d

    polish = minimize(neg, best_raw, method="Nelder-Mead",
                      options=dict(maxfev=2 * maxfev, xatol=1e-6, fatol=1e-11))
    evaluations += polish.nfev
    converged = bool(polish.success)
    if -polish.fun > best_val:
        best_val, best_raw = -polish.fun, polish.x

    if objective is not None:
        return OptimizationResult(best_rate=best_val, best_point=None,
                                  breakdown=None, best_raw=np.asarray(best_raw),
                                  evaluations=evaluations, converged=converged)

    if best_val <= _kernels.PENALTY + 1.0:
        raise InfeasibleProblemError(
            f"no feasible point found for {problem.scenario.value} at "
            f"L={problem.distance_km} km, n_pulses={problem.n_pulses}")

    point = point_from_raw(problem, np.asarray(best_raw))
    if problem.scenario.finite:
        point = _round_sample_count(problem, point)
    breakdown = evaluate_rate(point, problem.phys, problem.conventions)
    return OptimizationResult(best_rate=breakdown.rate, best_point=point,
                              breakdown=breakdown, best_raw=np.asarray(best_raw),
                              evaluations=evaluations, converged=converged)


def _round_sample_count(problem: OptimizationProblem,
                        point: ProtocolPoint) -> ProtocolPoint:
    """Round m_e to the nearest integer >= 1 (reported points are integral).

    Degenerate points whose sifted key is shorter than two bits keep the
    real-valued m_e: no integer sample size fits there.
    """
    breakdown = evaluate_rate(point, problem.phys, problem.conventions)
    m_e = max(1.0, float(round(point.m_e)))
    if m_e >= breakdown.sifted:
        m_e = math.floor(breakdown.sifted - 1e-9)
        if m_e < 1.0 or m_e >= breakdown.sifted:
            return point
    from dataclasses import replace
    return replace(point, m_e=m_e)


def _grid_axis(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [math.sqrt(lo * hi)]
    return np.geomspace(lo, hi, n).tolist()


def grid_oracle(problem: OptimizationProblem, resolution: int) -> OptimizationResult:
    """Exhaustive log-spaced grid search; brute-force oracle for `maximize`.

    Only available for the infinite-key scenarios, whose parameter spaces are
    two- and three-dimensional.
    """
    if problem.scenario not in (Scenario.NO_DECOY_INFINITE, Scenario.DECOY_INFINITE):
        raise ValueError("grid oracle only covers the infinite-key scenarios")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    arr = problem.phys.to_array()
    flags = problem.conventions.to_flags()
    m_a, eta = _kernels.channel_at(problem.distance_km, arr)
    deltas = _grid_axis(_kernels.DELTA_LO, _kernels.DELTA_HI, resolution)
    us = _grid_axis(_kernels.U_LO, _kernels.U_HI, resolution)
    if problem.scenario is Scenario.NO_DECOY_INFINITE:
        best, bi, bj = _kernels.grid_no_decoy_infinite(
            m_a, eta, deltas, us, arr, flags)
        if bi < 0:
            raise InfeasibleProblemError("grid found no feasible point")
        cap = _kernels.lambda_cap_kernel(deltas[bi], m_a, problem.phys.q_split)
        point = ProtocolPoint(scenario=problem.scenario,
                              distance_km=problem.distance_km,
                              lam=us[bj] * cap, delta=deltas[bi])
        evals = len(deltas) * len(us)
    else:
        ratios = _grid_axis(_kernels.RATIO_LO, _kernels.RATIO_HI, resolution)
        best, bi, bj, bk = _kernels.grid_decoy_infinite(
            m_a, eta, deltas, us, ratios, arr, flags)
        if bi < 0:
            raise InfeasibleProblemError("grid found no feasible point")
        cap = _kernels.lambda_cap_kernel(deltas[bi], m_a, problem.phys.q_split)
        lam_s = us[bj] * cap
        point = ProtocolPoint(scenario=problem.scenario,
                              distance_km=problem.distance_km,
                              lam_s=lam_s, lam_d=lam_s * ratios[bk],
                              delta=deltas[bi])
        evals = len(deltas) * len(us) * len(ratios)
    breakdown = evaluate_rate(point, problem.phys, problem.conventions)
    return OptimizationResult(best_rate=breakdown.rate, best_point=point,
                              breakdown=breakdown,
                              best_raw=raw_from_point(problem, point),
                              evaluations=evals, converged=True)
