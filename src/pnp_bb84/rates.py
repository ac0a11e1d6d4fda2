"""Secure-key-rate evaluation for the four protocol scenarios.

``evaluate_rate`` is a pure function of a :class:`ProtocolPoint`; concurrent
evaluation over many points is the expected usage.  Negative rates are
returned as computed — callers decide what "no key" means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .numerics import check_probability, statistical_deviation
from .params import BoundConventions, PhysicalParams, Scenario


class RateEvaluationError(ValueError):
    """A protocol point outside the domain of its rate formula."""


class BoundUnavailableError(RateEvaluationError):
    """The decoy estimator cannot produce a usable single-photon bound."""


class NoUntaggedPulsesError(RateEvaluationError):
    pass


class FluctuationTooLargeError(RateEvaluationError):
    pass


class EmptyRawKeyError(RateEvaluationError):
    pass


class WindowViolationError(RateEvaluationError):
    pass


class DecoyOrderingError(RateEvaluationError):
    pass


_STATUS_ERRORS = {
    1.0: (WindowViolationError, "window condition violated"),
    2.0: (NoUntaggedPulsesError, "no untagged pulses"),
    3.0: (FluctuationTooLargeError, "fluctuation exceeds untagged probability"),
    4.0: (EmptyRawKeyError, "empty raw key"),
    5.0: (DecoyOrderingError,
          "decoy ordering violated (lambda_d must be below lambda_s)"),
}


@dataclass(frozen=True)
class ErrorBudget:
    """Split of the optimizable part of the security parameter.

    The no-decoy scenarios use (eps_u, eps_e); the decoy scenarios use the
    class-resolved (eps_u_s, eps_u_d, eps_u_v, eps_e_s).  Together with the
    fixed error-correction share the components must sum to the total
    security parameter.
    """

    eps_pa: float
    eps_bar: float
    eps_u: Optional[float] = None
    eps_e: Optional[float] = None
    eps_u_s: Optional[float] = None
    eps_u_d: Optional[float] = None
    eps_u_v: Optional[float] = None
    eps_e_s: Optional[float] = None

    def components(self) -> tuple[float, ...]:
        return tuple(c for c in (self.eps_pa, self.eps_bar, self.eps_u,
                                 self.eps_e, self.eps_u_s, self.eps_u_d,
                                 self.eps_u_v, self.eps_e_s) if c is not None)

    def validate(self, scenario: Scenario, phys: PhysicalParams) -> None:
        if scenario.uses_decoy:
            needed = ("eps_u_s", "eps_u_d", "eps_u_v", "eps_e_s")
            banned = ("eps_u", "eps_e")
        else:
            needed = ("eps_u", "eps_e")
            banned = ("eps_u_s", "eps_u_d", "eps_u_v", "eps_e_s")
        for name in needed:
            if getattr(self, name) is None:
                raise ValueError(f"{scenario.value} budget requires {name}")
        for name in banned:
            if getattr(self, name) is not None:
                raise ValueError(f"{scenario.value} budget must not set {name}")
        for name in ("eps_pa", "eps_bar") + needed:
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name}={value!r} must lie strictly in (0, 1)")
        total = sum(self.components())
        if not math.isclose(total, phys.eps_free, rel_tol=1e-9):
            raise ValueError(
                f"budget components sum to {total:.6e}, expected "
                f"{phys.eps_free:.6e} (= eps_total - eps_ec)")

    @classmethod
    def equal_split(cls, scenario: Scenario, phys: PhysicalParams) -> "ErrorBudget":
        if scenario.uses_decoy:
            share = phys.eps_free / 6.0
            return cls(eps_pa=share, eps_bar=share, eps_u_s=share,
                       eps_u_d=share, eps_u_v=share, eps_e_s=share)
        share = phys.eps_free / 4.0
        return cls(eps_pa=share, eps_bar=share, eps_u=share, eps_e=share)


@dataclass(frozen=True)
class ProtocolPoint:
    """Free parameters of one scenario at one (distance, pulse count)."""

    scenario: Scenario
    distance_km: float
    n_pulses: float = math.inf
    lam: Optional[float] = None
    lam_s: Optional[float] = None
    lam_d: Optional[float] = None
    delta: float = 0.0
    m_e: Optional[float] = None
    p_s: Optional[float] = None
    p_d: Optional[float] = None
    p_v: Optional[float] = None
    budget: Optional[ErrorBudget] = None

    def validate(self, phys: PhysicalParams) -> None:
        # every check is written so that nan fails it
        if not 0.0 <= self.distance_km < math.inf:
            raise ValueError(f"distance_km={self.distance_km!r} must be finite "
                             "and non-negative")
        # the window's lower edge (1 - delta) m_a must stay positive
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta={self.delta!r} must lie strictly in (0, 1)")
        if self.scenario.uses_decoy:
            if self.lam_s is None or self.lam_d is None:
                raise ValueError("decoy scenarios require lam_s and lam_d")
            if not 0 < self.lam_d < self.lam_s <= 1:
                raise ValueError("decoy transmittances must satisfy "
                                 "0 < lam_d < lam_s <= 1")
        else:
            if self.lam is None or not 0 < self.lam <= 1:
                raise ValueError("no-decoy scenarios require lam in (0, 1]")
        if self.scenario.finite:
            if not 0.0 < self.n_pulses < math.inf:
                raise ValueError("finite scenarios require a finite n_pulses > 0")
            if self.m_e is None or not 0.0 < self.m_e < math.inf:
                raise ValueError("finite scenarios require a finite m_e > 0")
            if self.budget is None:
                raise ValueError("finite scenarios require an error budget")
            self.budget.validate(self.scenario, phys)
        if self.scenario is Scenario.DECOY_FINITE:
            probs = (self.p_s, self.p_d, self.p_v)
            if any(p is None or not 0.0 < p <= 1.0 for p in probs):
                raise ValueError("decoy_finite requires p_s, p_d, p_v in (0, 1]")
            if not math.isclose(sum(probs), 1.0, rel_tol=0, abs_tol=1e-12):
                raise ValueError("class probabilities must sum to 1 within 1e-12")


@dataclass(frozen=True)
class RateBreakdown:
    """All intermediates of one rate evaluation (signal class where split)."""

    rate: float
    mu: float
    gain: float
    qber: float
    p_untagged: float
    q_u_lower: float
    q_u_upper: float
    q1u_lower: float
    e1u_upper: float
    finite_correction: float
    n_raw: float
    sifted: float
    mu_decoy: Optional[float] = None
    gain_decoy: Optional[float] = None
    qber_decoy: Optional[float] = None
    p_untagged_decoy: Optional[float] = None
    p_untagged_vacuum: Optional[float] = None


def untagged_bounds(x: float, p_u_lower: float) -> tuple[float, float]:
    """Upper/lower bounds of an untagged observable given a tagging bound.

    ``x`` is the measured whole-ensemble value (gain, or error-weighted
    gain); the tagged fraction is assumed adversarial.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    check_probability(p_u_lower, "p_u_lower")
    if p_u_lower == 0:
        raise NoUntaggedPulsesError("no untagged pulses (p_u_lower = 0)")
    upper = x / p_u_lower
    lower = max(0.0, (x - (1.0 - p_u_lower)) / p_u_lower)
    return upper, lower


def q1u_lower_no_decoy(q_u_lower: float, p0: float, p1: float) -> float:
    """Lower bound on the single-photon untagged gain, clamped at zero."""
    return max(0.0, q_u_lower + p0 + p1 - 1.0)


def finite_correction_delta(n: float, eps_pe: float, eps_bar: float,
                            eps_pa: float) -> float:
    """Finite-key rate penalty; positive, strictly decreasing in n."""
    if not n > 0:
        raise EmptyRawKeyError(f"empty raw key (n={n!r})")
    for name, value in (("eps_pe", eps_pe), ("eps_bar", eps_bar),
                        ("eps_pa", eps_pa)):
        if not 0 < value < 1:
            raise ValueError(f"{name}={value!r} must lie strictly in (0, 1)")
    return _kernels.finite_delta_kernel(n, eps_pe, eps_bar, eps_pa)


def q1u_lower_decoy(q_u_s_upper: float, q_u_d_lower: float,
                    q_u_v_upper: float, source_signal, source_decoy,
                    estimator: str = "paired") -> float:
    """Single-photon untagged gain lower bound from the two-decoy estimator.

    ``source_signal``/``source_decoy`` are the :class:`~pnp_bb84.source.SourceConfig`
    of the two non-vacuum classes (sharing window and geometry).  Raises
    :class:`BoundUnavailableError` when the estimator denominator closes
    (indistinguishable classes); callers then treat the bound as zero.
    """
    from .params import (DECOY_EST_ALTERNATE, DECOY_EST_PAIRED,
                         DECOY_EST_STRICT)
    code = {DECOY_EST_PAIRED: 0, DECOY_EST_ALTERNATE: 1,
            DECOY_EST_STRICT: 2}[estimator]
    s, d = source_signal, source_decoy
    s.require_window()
    q1u, _, den = _kernels._decoy_q1u_e1u(
        s.m_a, s.delta, s.lambda_prime, d.lambda_prime, q_u_s_upper,
        q_u_d_lower, q_u_v_upper, 0.0, 0.0, code)
    # distinguish a closed denominator from a clamped-to-zero numerator
    if den <= 0.0:
        raise BoundUnavailableError(
            "bound unavailable: decoy class indistinguishable from signal")
    return q1u


def e1u_upper_decoy(eq_u_s_upper: float, p0_s_lower: float,
                    eq_u_v_lower: float, q1u_s_lower: float) -> float:
    """Single-photon untagged QBER upper bound, floored at zero."""
    if q1u_s_lower <= 0.0:
        raise BoundUnavailableError(
            "bound unavailable: single-photon gain bound is zero")
    return max(0.0, (eq_u_s_upper - p0_s_lower * eq_u_v_lower) / q1u_s_lower)


def _to_breakdown(res: tuple, scenario: Scenario) -> RateBreakdown:
    decoy = scenario.uses_decoy
    return RateBreakdown(
        rate=res[1], mu=res[2], gain=res[4], qber=res[5],
        p_untagged=res[8], q_u_lower=res[11], q_u_upper=res[12],
        q1u_lower=res[13], e1u_upper=res[14], finite_correction=res[15],
        n_raw=res[16], sifted=res[17],
        mu_decoy=res[3] if decoy else None,
        gain_decoy=res[6] if decoy else None,
        qber_decoy=res[7] if decoy else None,
        p_untagged_decoy=res[9] if decoy else None,
        p_untagged_vacuum=res[10] if decoy else None,
    )


def _run_kernel(point: ProtocolPoint, phys: PhysicalParams,
                conventions: BoundConventions, n_pulses: float,
                m_e: Optional[float]) -> RateBreakdown:
    """Breakdown of the scenario's rate kernel at ``point``, raising on a bad status."""
    arr = phys.to_array()
    flags = conventions.to_flags()
    m_a, eta = _kernels.channel_at(point.distance_km, arr)
    sc = point.scenario
    b = point.budget
    if sc.uses_decoy:
        finite = None if not sc.finite else (
            n_pulses, m_e, point.p_s, point.p_d, b.eps_pa, b.eps_bar,
            b.eps_u_s, b.eps_u_d, b.eps_u_v, b.eps_e_s)
        res = _kernels.rate_decoy(m_a, eta, point.lam_s, point.lam_d,
                                  point.delta, arr, flags, finite)
    else:
        finite = None if not sc.finite else (
            n_pulses, m_e, b.eps_pa, b.eps_bar, b.eps_u, b.eps_e)
        res = _kernels.rate_no_decoy(m_a, eta, point.lam, point.delta, arr,
                                     flags, finite)
    if res[0] != _kernels.STATUS_OK:
        exc, message = _STATUS_ERRORS[res[0]]
        raise exc(message)
    return _to_breakdown(res, sc)


def evaluate_rate(point: ProtocolPoint,
                  phys: PhysicalParams,
                  conventions: BoundConventions) -> RateBreakdown:
    """Evaluate the secure key rate and its intermediates at one point.

    Raises a :class:`RateEvaluationError` subclass when the point lies
    outside the formula's domain; an unavailable single-photon bound is not
    an error (the privacy term is simply zero).
    """
    point.validate(phys)
    return _run_kernel(point, phys, conventions, point.n_pulses, point.m_e)


def evaluate_rate_finite_limit(point: ProtocolPoint, phys: PhysicalParams,
                               conventions: BoundConventions) -> RateBreakdown:
    """Finite evaluator with every fluctuation and finite-size term zeroed.

    Used by the limit-recovery checks: the result must coincide with the
    corresponding infinite-key evaluator.
    """
    if not point.scenario.finite:
        raise ValueError("limit evaluation only applies to finite scenarios")
    # n_pulses and m_e both go to infinity so every deviation term vanishes
    return _run_kernel(point, phys, conventions, math.inf, math.inf)
