"""Rate evaluators: bound arithmetic, finite-key corrections, invariants."""

import math
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from pnp_bb84 import (BoundConventions, DecoyOrderingError, EmptyRawKeyError,
                      ErrorBudget, PhysicalParams, ProtocolPoint, Scenario,
                      evaluate_rate, evaluate_rate_finite_limit)
from pnp_bb84 import _kernels, rates
from pnp_bb84._kernels import (e1u_decoy_kernel, finite_delta_kernel,
                               q1u_no_decoy_kernel, untagged_lower_kernel)
from pnp_bb84.optimize import OptimizationProblem, point_from_raw
from pnp_bb84.rates import RateBreakdown, budget_fields

PHYS = PhysicalParams()
CONV = BoundConventions()


def nd_inf_point(dist=20.0, lam=2.5e-6, delta=9e-3):
    return ProtocolPoint(scenario=Scenario.NO_DECOY_INFINITE,
                         distance_km=dist, lam=lam, delta=delta)


def nd_fin_point(dist=20.0, n_pulses=5e10, lam=2.5e-6, delta=9e-3,
                 m_e=7.6e5, budget=None):
    budget = budget or ErrorBudget.equal_split(Scenario.NO_DECOY_FINITE, PHYS)
    return ProtocolPoint(scenario=Scenario.NO_DECOY_FINITE, distance_km=dist,
                         n_pulses=n_pulses, lam=lam, delta=delta, m_e=m_e,
                         budget=budget)


def decoy_inf_point(dist=60.0, lam_s=6.6e-4, lam_d=1.5e-5, delta=0.023):
    return ProtocolPoint(scenario=Scenario.DECOY_INFINITE, distance_km=dist,
                         lam_s=lam_s, lam_d=lam_d, delta=delta)


def decoy_fin_point(dist=60.0, n_pulses=5e10, lam_s=6.6e-4, lam_d=1.0e-4,
                    delta=0.023, m_e=1.4e6, p_s=0.41, p_d=0.58, budget=None):
    budget = budget or ErrorBudget.equal_split(Scenario.DECOY_FINITE, PHYS)
    return ProtocolPoint(scenario=Scenario.DECOY_FINITE, distance_km=dist,
                         n_pulses=n_pulses, lam_s=lam_s, lam_d=lam_d,
                         delta=delta, m_e=m_e, p_s=p_s, p_d=p_d,
                         p_v=1.0 - p_s - p_d, budget=budget)


class TestUntaggedBounds:
    def test_zero_observable(self):
        assert untagged_lower_kernel(0.0, 0.95) == 0.0

    def test_all_untagged(self):
        assert untagged_lower_kernel(0.37, 1.0) == pytest.approx(0.37,
                                                                 rel=1e-15)

    def test_direct_arithmetic(self):
        lower = untagged_lower_kernel(0.1, 0.95)
        assert lower == pytest.approx((0.1 - 0.05) / 0.95, rel=1e-12)
        assert lower == pytest.approx(0.05263, rel=1e-4)

    def test_clamped_at_zero(self):
        # the tagged share can hold the whole observable
        assert untagged_lower_kernel(0.04, 0.95) == 0.0


class TestQ1uLower:
    def test_all_mass_in_zero_and_one(self):
        assert q1u_no_decoy_kernel(1.0, 0.6, 0.4) == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        assert q1u_no_decoy_kernel(0.05, 0.4, 0.4) == 0.0

    def test_direct_arithmetic(self):
        assert q1u_no_decoy_kernel(0.05, 0.60, 0.38) == pytest.approx(
            0.03, rel=1e-12)


class TestFiniteCorrection:
    def test_direct_arithmetic(self):
        term1 = math.log2(2 / 1e-10) / 1e6
        term2 = 7 * math.sqrt((1 - math.log2(1e-10)) / 1e6)
        term3 = 2 * math.log2(1 / (2 * 1e-10)) / 1e6
        assert term1 == pytest.approx(3.42e-5, rel=1e-2)
        assert term2 == pytest.approx(4.094e-2, rel=1e-3)
        assert term3 == pytest.approx(6.44e-5, rel=1e-2)
        value = finite_delta_kernel(1e6, 1e-10, 1e-10, 1e-10)
        assert value == pytest.approx(term1 + term2 + term3, rel=1e-12)
        assert value == pytest.approx(0.0410, rel=1e-2)

    def test_vanishes_for_long_keys(self):
        for eps in (1e-12, 1e-10, 1e-6):
            assert finite_delta_kernel(1e14, eps, eps, eps) < 1e-5

    def test_middle_term_dominates(self):
        n, eps = 1e8, 1e-10
        term2 = 7 * math.sqrt((1 - math.log2(eps)) / n)
        total = finite_delta_kernel(n, eps, eps, eps)
        assert term2 / total > 0.9

    def test_strictly_decreasing_in_n(self):
        values = [finite_delta_kernel(n, 1e-10, 1e-10, 1e-10)
                  for n in np.geomspace(1e3, 1e15, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNoDecoyInfinite:
    def test_no_single_photon_credit_means_no_key(self):
        # large intensity: multiphoton mass wipes out the single-photon bound
        bd = evaluate_rate(nd_inf_point(lam=2.4e-4, delta=9e-3), PHYS, CONV)
        assert bd.q1u_lower == 0.0
        assert bd.rate == pytest.approx(
            -0.5 * bd.gain * PHYS.f_ec * _h2(bd.qber), rel=1e-12)
        assert bd.rate < 0

    def test_ideal_channel_rate_is_half_the_gain(self):
        # no detector noise: QBER 0, nearly all detections single-photon untagged
        phys = PhysicalParams(y0=0.0, e_det=0.0, f_ec=1.0)
        point = ProtocolPoint(scenario=Scenario.NO_DECOY_INFINITE,
                              distance_km=0.0, lam=2e-7, delta=0.02)
        bd = evaluate_rate(point, phys, CONV)
        assert bd.qber == 0.0
        assert bd.rate == pytest.approx(0.5 * bd.gain, rel=5e-2)
        assert bd.rate <= 0.5 * bd.gain

    def test_bound_ordering(self):
        for lam in np.geomspace(5e-7, 5e-6, 6):
            bd = evaluate_rate(nd_inf_point(lam=lam), PHYS, CONV)
            assert bd.q_u_lower <= bd.q_u_upper + 1e-15
            assert bd.q1u_lower <= bd.q_u_upper + 1e-15

    def test_strict_never_exceeds_mixed(self):
        mixed = evaluate_rate(nd_inf_point(), PHYS, CONV)
        strict = evaluate_rate(
            nd_inf_point(), PHYS, CONV.replace(single_photon_mass="strict"))
        assert strict.q1u_lower <= mixed.q1u_lower
        assert strict.rate <= mixed.rate


class TestFiniteLimits:
    def test_forced_zero_limit_recovers_infinite_exactly(self):
        fin = nd_fin_point()
        inf_bd = evaluate_rate(nd_inf_point(), PHYS, CONV)
        lim_bd = evaluate_rate_finite_limit(fin, PHYS, CONV)
        assert asdict(lim_bd) == asdict(inf_bd)

    def test_forced_zero_limit_decoy(self):
        # infinite evaluator fixes the signal probability at 1/2
        fin = decoy_fin_point(p_s=0.5, p_d=0.45)
        inf_bd = evaluate_rate(decoy_inf_point(lam_d=1.0e-4), PHYS, CONV)
        lim_bd = evaluate_rate_finite_limit(fin, PHYS, CONV)
        assert asdict(lim_bd) == asdict(inf_bd)

    def test_large_pulse_count_convergence(self):
        # 1/sqrt(n) corrections leave ~1e-5 residue at 1e18 pulses
        conv = CONV.replace(sifting_factor="half")
        inf_bd = evaluate_rate(nd_inf_point(dist=10.0, lam=9e-6), PHYS, conv)
        fin_bd = evaluate_rate(
            nd_fin_point(dist=10.0, n_pulses=1e18, lam=9e-6, m_e=1e13),
            PHYS, conv)
        assert fin_bd.rate == pytest.approx(inf_bd.rate, rel=1e-4)

    def test_large_pulse_count_convergence_decoy(self):
        # the vacuum-class deviation decays as 1/sqrt(N) against the tiny
        # background error-gain, so the point must be well conditioned
        conv = CONV.replace(sifting_factor="half")
        lam_s = 1.0521e-4
        inf_bd = evaluate_rate(
            decoy_inf_point(dist=20.0, lam_s=lam_s, lam_d=0.15 * lam_s,
                            delta=0.009), PHYS, conv)
        share = PHYS.eps_free / 7.0
        budget = ErrorBudget(eps_pa=share, eps_bar=share, eps_u_s=share,
                             eps_u_d=share, eps_u_v=2 * share, eps_e_s=share)
        fin_bd = evaluate_rate(
            decoy_fin_point(dist=20.0, n_pulses=1e18, lam_s=lam_s,
                            lam_d=0.15 * lam_s, delta=0.009, m_e=1e15,
                            p_s=0.5, p_d=0.25, budget=budget),
            PHYS, conv)
        assert fin_bd.rate == pytest.approx(inf_bd.rate, rel=1e-4)

    def test_exact_sifting_factor_identity(self):
        # exact accounting equals the half-shorthand scaled by the kept fraction
        half = evaluate_rate(nd_fin_point(),
                             PHYS, CONV.replace(sifting_factor="half"))
        exact = evaluate_rate(nd_fin_point(), PHYS, CONV)
        kept = 1.0 - nd_fin_point().m_e / half.sifted
        assert exact.rate == pytest.approx(half.rate * kept, rel=1e-12)

    def test_finite_strictly_below_infinite(self):
        inf_bd = evaluate_rate(nd_inf_point(), PHYS, CONV)
        for n_pulses in (1e10, 1e12, 1e14):
            fin_bd = evaluate_rate(nd_fin_point(n_pulses=n_pulses), PHYS, CONV)
            assert fin_bd.rate < inf_bd.rate

    def test_finite_strictly_below_infinite_decoy(self):
        inf_bd = evaluate_rate(decoy_inf_point(lam_d=1.0e-4), PHYS, CONV)
        for n_pulses in (1e10, 1e12, 1e14):
            fin_bd = evaluate_rate(
                decoy_fin_point(n_pulses=n_pulses, p_s=0.5, p_d=0.45),
                PHYS, CONV)
            assert fin_bd.rate < inf_bd.rate


class TestDecoyEvaluators:
    def test_degenerate_decoy_gives_no_single_photon_bound(self):
        # lambda_d -> lambda_s: the estimator denominator closes
        bd = evaluate_rate(decoy_inf_point(lam_d=6.59e-4), PHYS, CONV)
        assert bd.q1u_lower == 0.0
        assert bd.rate < 0

    def test_vacuum_class_is_pure_background(self):
        # the decoy kernel takes the vacuum class's gain and error rate as
        # (y0, e0_vac): what the gain model gives at zero intensity
        assert _kernels.gain_qber_kernel(0.0, 0.045, PHYS.y0, PHYS.e_det,
                                         PHYS.e0, 1) == (PHYS.y0, PHYS.e0_vac)

    def test_class_probability_sum_enforced(self):
        bad = ProtocolPoint(
            scenario=Scenario.DECOY_FINITE, distance_km=60.0, n_pulses=5e10,
            lam_s=6.6e-4, lam_d=1e-4, delta=0.023, m_e=1e6, p_s=0.4, p_d=0.4,
            p_v=0.3, budget=ErrorBudget.equal_split(Scenario.DECOY_FINITE, PHYS))
        with pytest.raises(ValueError):
            bad.validate(PHYS)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ErrorBudget(eps_pa=1e-10, eps_bar=1e-10, eps_u=1e-10,
                        eps_e=1e-10).validate(Scenario.DECOY_FINITE, PHYS)
        b = ErrorBudget(eps_pa=1e-10, eps_bar=1e-10, eps_u=1e-10, eps_e=1e-10)
        with pytest.raises(ValueError):  # does not sum to the free budget
            b.validate(Scenario.NO_DECOY_FINITE, PHYS)

    def test_estimator_variants_ordering(self):
        # the strict estimate never exceeds the bound-reuse one
        paired = evaluate_rate(decoy_inf_point(lam_d=1.0e-4), PHYS, CONV)
        strict = evaluate_rate(
            decoy_inf_point(lam_d=1.0e-4), PHYS,
            CONV.replace(decoy_estimator="strict"))
        assert strict.q1u_lower <= paired.q1u_lower + 1e-15

    def test_alternate_variant_evaluates(self):
        bd = evaluate_rate(decoy_inf_point(lam_d=1.0e-4), PHYS,
                           CONV.replace(decoy_estimator="alternate"))
        assert math.isfinite(bd.rate)


def source_args(point, phys=PHYS):
    """(m_a, lambda'), the source's arguments of the rate kernels at a
    no-decoy ``point``, or (m_a, lambda'_s, lambda'_d) at a decoy one."""
    m_a, _ = _kernels.channel_at(point.distance_km, phys.to_array())
    lams = ((point.lam_s, point.lam_d) if point.scenario.uses_decoy
            else (point.lam,))
    return (m_a, *(_kernels.lambda_prime_kernel(lam, phys.q_split)
                   for lam in lams))


class TestDecoyEstimatorOps:
    def _estimate(self, q_u_s_up, q_u_d_low, q_u_v_up, lam_d=1.0e-4,
                  eq_s_up=0.0, eq_v_low=0.0):
        """`_decoy_q1u_e1u` with the signal class at 60 km, lam_s 6.6e-4."""
        m_a, lam_p_s, lam_p_d = source_args(decoy_inf_point(lam_d=lam_d))
        return _kernels._decoy_q1u_e1u(m_a, 0.023, lam_p_s, lam_p_d,
                                       q_u_s_up, q_u_d_low, q_u_v_up,
                                       eq_s_up, eq_v_low, 0)

    def test_indistinguishable_classes_unavailable(self):
        # the estimator's denominator closes: no bound, whatever the gains
        q1u, e1u = self._estimate(1e-3, 1e-4, 1e-6, lam_d=6.6e-4 * 0.999999)
        assert q1u == 0.0
        assert math.isnan(e1u)

    def test_all_gains_zero_gives_zero(self):
        assert self._estimate(0.0, 0.0, 0.0)[0] == 0.0

    def test_matches_full_evaluator(self):
        # composing the op by hand reproduces the breakdown's bounds
        bd = evaluate_rate(decoy_inf_point(lam_d=1.0e-4), PHYS, CONV)
        q_u_s_up = bd.gain / bd.p_untagged
        q_u_d_low = untagged_lower_kernel(bd.gain_decoy, bd.p_untagged)
        q_u_v_up = PHYS.y0 / bd.p_untagged
        eq_v_low = untagged_lower_kernel(PHYS.e0_vac * PHYS.y0,
                                         bd.p_untagged_vacuum)
        value = self._estimate(q_u_s_up, q_u_d_low, q_u_v_up,
                               eq_s_up=bd.gain * bd.qber / bd.p_untagged,
                               eq_v_low=eq_v_low)
        assert value == (bd.q1u_lower, bd.e1u_upper)

    def test_error_bound_clamps_and_identity(self):
        assert e1u_decoy_kernel(0.0, 0.5, 1.0, 0.1) == 0.0  # negative numerator
        assert e1u_decoy_kernel(0.05, 0.5, 0.0, 0.5) == pytest.approx(0.1)


class TestHelpersReproduceThePipeline:
    """The rate kernels call each formula kernel, so the formula kernels
    give a breakdown's fields exactly, not approximately."""

    def test_no_decoy_bounds(self):
        point = nd_inf_point()
        bd = evaluate_rate(point, PHYS, CONV)
        m_a, lam_p = source_args(point)
        assert bd.q_u_upper == bd.gain / bd.p_untagged
        assert untagged_lower_kernel(bd.gain, bd.p_untagged) == bd.q_u_lower
        assert 0.0 < bd.q1u_lower < bd.q_u_upper  # no clamp binds
        p0 = _kernels.photon_kernel(m_a, point.delta, lam_p, 0, 0)
        p1 = _kernels.photon_kernel(m_a, point.delta, lam_p, 1, 1)
        assert q1u_no_decoy_kernel(bd.q_u_lower, p0, p1) == bd.q1u_lower
        assert _kernels.mu_kernel(m_a, point.lam, PHYS.q_split) == bd.mu
        assert _kernels.coverage_kernel(point.delta, m_a, PHYS.q_split,
                                        1) == bd.p_untagged

    def test_decoy_error_bound(self):
        point = decoy_inf_point(lam_d=1.0e-4)
        bd = evaluate_rate(point, PHYS, CONV)
        m_a, lam_p_s, _ = source_args(point)
        eq_v_low = untagged_lower_kernel(PHYS.e0_vac * PHYS.y0,
                                         bd.p_untagged_vacuum)
        value = e1u_decoy_kernel(
            bd.gain * bd.qber / bd.p_untagged,
            _kernels.photon_kernel(m_a, point.delta, lam_p_s, 0, 0),
            eq_v_low, bd.q1u_lower)
        assert value == bd.e1u_upper > 0.0

    def test_finite_correction(self):
        point = nd_fin_point()
        bd = evaluate_rate(point, PHYS, CONV)
        b = point.budget
        assert bd.finite_correction == finite_delta_kernel(
            bd.n_raw, min(b.eps_u, b.eps_e), b.eps_bar, b.eps_pa) > 0.0


class TestScenarioAxes:
    @pytest.mark.parametrize("scenario,decoy,finite", [
        (Scenario.NO_DECOY_INFINITE, False, False),
        (Scenario.NO_DECOY_FINITE, False, True),
        (Scenario.DECOY_INFINITE, True, False),
        (Scenario.DECOY_FINITE, True, True),
    ])
    def test_flags(self, scenario, decoy, finite):
        assert (scenario.uses_decoy, scenario.finite) == (decoy, finite)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_budget_of_sets_the_budget_fields_in_order(self, scenario):
        names = budget_fields(scenario)
        shares = [1e-10 * (i + 1) for i in range(len(names))]
        budget = ErrorBudget.of(scenario, shares)
        assert budget.values(scenario) == tuple(shares)
        assert [getattr(budget, n) for n in names] == shares
        assert budget.components() == tuple(shares)
        assert budget == ErrorBudget(**dict(zip(names, shares)))


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("make,field", [
        (nd_inf_point, "distance_km"), (nd_inf_point, "delta"),
        (nd_inf_point, "lam"), (nd_fin_point, "n_pulses"),
        (nd_fin_point, "m_e"), (decoy_inf_point, "lam_s"),
        (decoy_inf_point, "lam_d"), (decoy_fin_point, "p_s"),
        (decoy_fin_point, "p_d"), (decoy_fin_point, "p_v"),
    ])
    def test_point_field(self, make, field, value):
        point = replace(make(), **{field: value})
        with pytest.raises(ValueError):
            point.validate(PHYS)
        with pytest.raises(ValueError):
            evaluate_rate(point, PHYS, CONV)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("scenario,field", [
        (Scenario.NO_DECOY_FINITE, name)
        for name in ("eps_pa", "eps_bar", "eps_u", "eps_e")] + [
        (Scenario.DECOY_FINITE, name)
        for name in ("eps_pa", "eps_bar", "eps_u_s", "eps_u_d", "eps_u_v",
                     "eps_e_s")])
    def test_budget_field(self, scenario, field, value):
        budget = replace(ErrorBudget.equal_split(scenario, PHYS),
                         **{field: value})
        with pytest.raises(ValueError, match=field):
            budget.validate(scenario, PHYS)

    def test_nan_delta_no_longer_gives_a_rate(self):
        # this point used to evaluate to -3.51e-4 with status ok
        with pytest.raises(ValueError, match="delta"):
            evaluate_rate(nd_inf_point(delta=math.nan), PHYS, CONV)

    @pytest.mark.parametrize("delta", [1.0, 1.5])
    def test_delta_of_one_or_more(self, delta):
        # delta=1.5 used to evaluate to -2.33e-5 with status ok, although the
        # window's lower edge (1 - delta) m_a is negative
        point = nd_inf_point(delta=delta)
        with pytest.raises(ValueError, match="delta"):
            point.validate(PHYS)
        with pytest.raises(ValueError, match="delta"):
            evaluate_rate(point, PHYS, CONV)


def _public_copy(record):
    """``record`` rebuilt through its class's generated ``__init__``, keyword
    by keyword, from the same field values (a budget rebuilt likewise)."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    if values.get("budget") is not None:
        values["budget"] = _public_copy(values["budget"])
    return type(record)(**values)


# the error `evaluate_rate` raises for each non-ok kernel status
STATUS_ERRORS = [
    (1.0, rates.WindowViolationError, "window condition violated"),
    (2.0, rates.NoUntaggedPulsesError, "no untagged pulses"),
    (3.0, rates.FluctuationTooLargeError,
     "fluctuation exceeds untagged probability"),
    (4.0, EmptyRawKeyError, "empty raw key"),
    (5.0, DecoyOrderingError,
     "decoy ordering violated (lambda_d must lie in (0, lambda_s), and "
     "p_s, p_d and p_v = 1 - p_s - p_d must each be above 0)"),
]


def test_vanishing_vacuum_share_is_a_decoy_ordering_error():
    # the shares pass validate (their sum is 1 within 1e-12), but the kernel
    # takes p_v = 1 - p_s - p_d, which is 0.0 here, with lambda_d < lambda_s
    point = replace(decoy_fin_point(dist=20.0, delta=9e-3, m_e=7.6e5,
                                    p_s=0.5, p_d=0.5), p_v=1e-13)
    assert point.lam_d < point.lam_s
    with pytest.raises(DecoyOrderingError, match=r"p_v = 1 - p_s - p_d"):
        evaluate_rate(point, PHYS, CONV)


class TestRecordsBuiltInOneStep:
    """`point_from_raw` and `evaluate_rate` build their frozen records
    without the generated ``__init__``; each must be indistinguishable from
    the record the public constructor builds from the same values."""

    @staticmethod
    def _records(scenario, n_pulses):
        problem = OptimizationProblem(scenario=scenario, distance_km=20.0,
                                      n_pulses=n_pulses, phys=PHYS)
        point = point_from_raw(problem, [0.1 * (k + 1) for k in
                                         range(problem.dim)])
        return point, evaluate_rate(point, PHYS, CONV)

    def test_no_record_has_a_post_init_hook(self):
        # the one-step build skips __post_init__
        for cls in (ErrorBudget, ProtocolPoint, RateBreakdown):
            assert not hasattr(cls, "__post_init__")

    @pytest.mark.parametrize("scenario,n_pulses", [
        (Scenario.NO_DECOY_INFINITE, math.inf),
        (Scenario.NO_DECOY_FINITE, 5e10),
        (Scenario.DECOY_INFINITE, math.inf),
        (Scenario.DECOY_FINITE, 5e10)])
    def test_fast_records_equal_public_ones(self, scenario, n_pulses):
        point, breakdown = self._records(scenario, n_pulses)
        records = [point, breakdown]
        if scenario.finite:
            records.append(point.budget)
        assert evaluate_rate(_public_copy(point), PHYS, CONV) == breakdown
        for fast in records:
            public = _public_copy(fast)
            assert type(fast) is type(public)
            assert asdict(fast) == asdict(public)
            assert fast == public and not fast != public
            assert hash(fast) == hash(public)
            assert repr(fast) == repr(public)
            assert list(vars(fast).items()) == list(vars(public).items())
            first = fields(fast)[0].name
            other = {first: "changed"}
            assert replace(fast, **other) == replace(public, **other)
            assert replace(fast) == public
            with pytest.raises(FrozenInstanceError):
                setattr(fast, first, getattr(public, first))
            with pytest.raises(FrozenInstanceError):
                delattr(fast, first)

    @pytest.mark.parametrize("status,error,message", STATUS_ERRORS)
    @pytest.mark.parametrize("scenario,n_pulses", [
        (Scenario.NO_DECOY_INFINITE, math.inf),
        (Scenario.NO_DECOY_FINITE, 5e10),
        (Scenario.DECOY_INFINITE, math.inf),
        (Scenario.DECOY_FINITE, 5e10)])
    def test_same_error_for_each_kernel_status(self, monkeypatch, scenario,
                                               n_pulses, status, error,
                                               message):
        point, _ = self._records(scenario, n_pulses)
        failing = (status,) + (math.nan,) * 17
        for name in ("rate_no_decoy", "rate_decoy"):
            monkeypatch.setattr(_kernels, name, lambda *args: failing)
        for built in (point, _public_copy(point)):
            with pytest.raises(error) as raised:
                evaluate_rate(built, PHYS, CONV)
            assert type(raised.value) is error
            assert str(raised.value) == message


def _h2(x):
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)
