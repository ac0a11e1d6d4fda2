"""Secure-key-rate evaluation for the four protocol scenarios.

``evaluate_rate`` is a pure function of a :class:`ProtocolPoint`; concurrent
evaluation over many points is the expected usage.  Negative rates are
returned as computed — callers decide what "no key" means.  The formulas
live in `_kernels`; `RateBreakdown` reports every intermediate of one
evaluation.

One ``evaluate_rate(point_from_raw(problem, raw))`` builds its records in one
step (`_record`), not field by field through their generated ``__init__``.
CPU µs per point (Python 3.11, x86-64) for no_decoy_infinite / decoy_infinite
/ no_decoy_finite / decoy_finite: 12.6 / 15.4 / 19.9 / 28.4 field by field,
9.6 / 12.4 / 15.9 / 23.9 in one step.  The kernels take 3.2 / 5.7 / 5.7 /
9.8 of it, the records 5.3 / 5.3 / 6.9 / 7.4 field by field and 2.6 / 2.6 /
4.0 / 4.1 in one step, validation 0.4-2.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from . import _kernels
from .numerics import check_range
from .params import BoundConventions, PhysicalParams, Scenario


class RateEvaluationError(ValueError):
    """A protocol point outside the domain of its rate formula."""


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
          "decoy ordering violated (lambda_d must lie in (0, lambda_s), and "
          "p_s, p_d and p_v = 1 - p_s - p_d must each be above 0)"),
}


# The error-budget entries of each source model, keyed on
# `Scenario.uses_decoy`, in the order the rate kernels' ``finite`` tuple
# carries them (after n_pulses, m_e and, with decoys, p_s and p_d)
_BUDGET_FIELDS = {
    False: ("eps_pa", "eps_bar", "eps_u", "eps_e"),
    True: ("eps_pa", "eps_bar", "eps_u_s", "eps_u_d", "eps_u_v", "eps_e_s"),
}
_BUDGET_VALUES = {decoy: attrgetter(*names)
                  for decoy, names in _BUDGET_FIELDS.items()}
# the entries only the other source model sets, None in a valid budget
_FOREIGN_VALUES = {decoy: attrgetter(*_BUDGET_FIELDS[not decoy][2:])
                   for decoy in _BUDGET_FIELDS}
# each `ErrorBudget` field in order, as an index into a source model's
# shares with a None appended: index -1 leaves the field unset
_BUDGET_SLOTS = {False: itemgetter(0, 1, 2, 3, -1, -1, -1, -1),
                 True: itemgetter(0, 1, -1, -1, 2, 3, 4, 5)}


def budget_fields(scenario: Scenario) -> tuple[str, ...]:
    """The `ErrorBudget` fields a scenario sets, in the kernels' order."""
    return _BUDGET_FIELDS[scenario.uses_decoy]


def _record(cls, values: Sequence):
    """``cls(*values)`` in one step, ``values`` holding every field in order:
    the generated ``__init__`` sets one field per ``object.__setattr__``, at
    twice the cost.  It skips ``__post_init__``, which no record defines."""
    record = object.__new__(cls)
    record.__dict__.update(zip(cls.__match_args__, values))
    return record


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

    def values(self, scenario: Scenario) -> tuple[float, ...]:
        """The entries of `budget_fields` (None where unset), in its order."""
        return _BUDGET_VALUES[scenario.uses_decoy](self)

    def validate(self, scenario: Scenario, phys: PhysicalParams) -> None:
        decoy = scenario.uses_decoy
        values = _BUDGET_VALUES[decoy](self)
        for name, value in zip(_BUDGET_FIELDS[decoy], values):
            check_range(name, value, 0.0, 1.0, True, True)
        foreign = _FOREIGN_VALUES[decoy](self)
        if foreign.count(None) != len(foreign):
            name = next(name for name, value
                        in zip(_BUDGET_FIELDS[not decoy][2:], foreign)
                        if value is not None)
            raise ValueError(f"{scenario.value} budget must not set {name}")
        total = sum(values)
        if not math.isclose(total, phys.eps_free, rel_tol=1e-9):
            raise ValueError(
                f"budget components sum to {total:.6e}, expected "
                f"{phys.eps_free:.6e} (= eps_total - eps_ec)")

    @classmethod
    def of(cls, scenario: Scenario, shares: Sequence[float]) -> "ErrorBudget":
        """The budget with `budget_fields` set to ``shares``, in its order."""
        return _record(cls, _BUDGET_SLOTS[scenario.uses_decoy]((*shares, None)))

    @classmethod
    def equal_split(cls, scenario: Scenario, phys: PhysicalParams) -> "ErrorBudget":
        n = len(budget_fields(scenario))
        return cls.of(scenario, [phys.eps_free / n] * n)


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

    # n_pulses, m_e, p_s, p_d, p_v and budget at their defaults
    _ASYMPTOTIC_DEFAULTS = (math.inf, None, None, None, None, None)

    def validate(self, phys: PhysicalParams) -> None:
        # the ends are positional and each field is read once: this runs in
        # every `evaluate_rate`
        sc = self.scenario
        check_range("distance_km", self.distance_km, 0.0, math.inf, False,
                    True)
        # the window's lower edge (1 - delta) m_a must stay positive
        check_range("delta", self.delta, 0.0, 1.0, True, True)
        if sc.uses_decoy:
            lam_s = check_range("lam_s", self.lam_s, 0.0, 1.0, True)
            if not check_range("lam_d", self.lam_d, 0.0, 1.0, True) < lam_s:
                raise ValueError("decoy scenarios require lam_d < lam_s")
        else:
            check_range("lam", self.lam, 0.0, 1.0, True)
        n_pulses, budget = self.n_pulses, self.budget
        if not sc.finite:
            # the pulse-count rule leaves n_pulses at its default, inf, and
            # no other finite-key field applies: one comparison checks all
            if (n_pulses, self.m_e, self.p_s, self.p_d, self.p_v,
                    budget) != self._ASYMPTOTIC_DEFAULTS:
                sc.check_pulse_count(n_pulses)
                raise ValueError(f"{sc.value} points take no m_e, p_s, p_d, "
                                 "p_v or budget")
            return
        sc.check_pulse_count(n_pulses)
        check_range("m_e", self.m_e, 0.0, math.inf, True, True)
        if budget is None:
            raise ValueError("finite scenarios require an error budget")
        budget.validate(sc, phys)
        if sc.uses_decoy:
            p_s = check_range("p_s", self.p_s, 0.0, 1.0, True)
            p_d = check_range("p_d", self.p_d, 0.0, 1.0, True)
            p_v = check_range("p_v", self.p_v, 0.0, 1.0, True)
            if not math.isclose(p_s + p_d + p_v, 1.0, rel_tol=0,
                                abs_tol=1e-12):
                raise ValueError("class probabilities must sum to 1 "
                                 "within 1e-12")


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


# the breakdown-tuple slot (`_kernels` docstring) of each `RateBreakdown`
# field in order, by source model; slot -1, a None appended to the tuple,
# leaves the decoy fields unset without decoys
_BREAKDOWN_SLOTS = {
    False: itemgetter(1, 2, 4, 5, 8, 11, 12, 13, 14, 15, 16, 17,
                      -1, -1, -1, -1, -1),
    True: itemgetter(1, 2, 4, 5, 8, 11, 12, 13, 14, 15, 16, 17,
                     3, 6, 7, 9, 10),
}


def _run_kernel(point: ProtocolPoint, phys: PhysicalParams,
                conventions: BoundConventions, n_pulses: float,
                m_e: Optional[float]) -> RateBreakdown:
    """Breakdown of the scenario's rate kernel at ``point``, raising on a bad status."""
    arr = phys.to_array()
    flags = conventions.to_flags()
    m_a, eta = _kernels.channel_at(point.distance_km, arr)
    sc = point.scenario
    decoy = sc.uses_decoy
    finite = None
    if sc.finite:
        shares = _BUDGET_VALUES[decoy](point.budget)
        finite = ((n_pulses, m_e, point.p_s, point.p_d, *shares) if decoy
                  else (n_pulses, m_e, *shares))
    if decoy:
        res = _kernels.rate_decoy(m_a, eta, point.lam_s, point.lam_d,
                                  point.delta, arr, flags, finite)
    else:
        res = _kernels.rate_no_decoy(m_a, eta, point.lam, point.delta, arr,
                                     flags, finite)
    if res[0] != _kernels.STATUS_OK:
        exc, message = _STATUS_ERRORS[res[0]]
        raise exc(message)
    return _record(RateBreakdown, _BREAKDOWN_SLOTS[decoy](res + (None,)))


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
    point.validate(phys)
    # n_pulses and m_e both go to infinity so every deviation term vanishes
    return _run_kernel(point, phys, conventions, math.inf, math.inf)
