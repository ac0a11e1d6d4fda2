"""Source-side model: monitored window, envelopes, untagged probabilities."""

import math

import mpmath
import numpy as np
import pytest

from pnp_bb84 import (BoundConventions, ErrorBudget, PhysicalParams,
                      ProtocolPoint, Scenario, evaluate_rate)
from pnp_bb84._kernels import (channel_at, coverage_kernel,
                               lambda_prime_kernel, mu_kernel, photon_kernel,
                               window_violated, xi_kernel)

mpmath.mp.dps = 50


def m_a_at(m_bright=1e6, dist=0.0, loss=0.21):
    """Mean photon number reaching the sender, as the rate kernels take it."""
    phys = PhysicalParams(m_bright=m_bright, loss_coeff=loss)
    return channel_at(dist, phys.to_array())[0]


def upper(m_a, delta, lam_p, n):
    return photon_kernel(float(m_a), delta, lam_p, n, 1)


def lower(m_a, delta, lam_p, n):
    return photon_kernel(float(m_a), delta, lam_p, n, 0)


class TestSourceModel:
    def test_derived_fields(self):
        assert m_a_at(dist=40.0) == pytest.approx(1e6 * 10 ** (-0.84),
                                                  rel=1e-12)
        assert lambda_prime_kernel(0.01, 0.01) == pytest.approx(
            0.01 * 0.01 / 0.99, rel=1e-12)

    def test_window_condition(self):
        tight = lambda_prime_kernel(1e-7, 0.01)
        assert not window_violated(m_a_at(), 0.01, tight)
        loose = lambda_prime_kernel(0.9, 0.01)
        assert window_violated(m_a_at(), 0.01, loose)


class TestMeanOutputIntensity:
    def test_zero_distance_unit_transmittance(self):
        assert mu_kernel(m_a_at(), 1.0, 0.01) == pytest.approx(1e4, rel=1e-12)

    def test_full_attenuation(self):
        assert mu_kernel(m_a_at(), 0.0, 0.01) == 0.0

    def test_forty_km_arithmetic(self):
        expected = 1e6 * 10 ** (-0.21 * 40 / 10) * 0.01 * 0.01
        assert expected == pytest.approx(14.45, rel=1e-3)
        assert mu_kernel(m_a_at(dist=40.0), 0.01, 0.01) == pytest.approx(
            expected, rel=1e-12)

    def test_passive_active_equivalence(self):
        # mu computed through the equivalent active arrangement must agree
        m_a = m_a_at(dist=17.0)
        for lam in (1e-6, 1e-5, 1e-4):
            active = m_a * lambda_prime_kernel(lam, 0.01) * (1 - 0.01)
            assert mu_kernel(m_a, lam, 0.01) == pytest.approx(active,
                                                              rel=1e-12)


class TestPhotonBounds:
    def test_zero_transmittance(self):
        m_a = m_a_at()
        assert upper(m_a, 0.01, 0.0, 0) == 1.0
        assert lower(m_a, 0.01, 0.0, 0) == 1.0
        for n in (1, 2, 5):
            assert upper(m_a, 0.01, 0.0, n) == 0.0
            assert lower(m_a, 0.01, 0.0, n) == 0.0

    def test_window_collapse_matches_exact_binomial(self):
        # delta = 0 with integer m_a: both envelopes equal Binomial(m_a, lam')
        m_a, lam_p = 20, 0.02
        for n in range(0, m_a + 1):
            exact = math.comb(m_a, n) * lam_p ** n * (1 - lam_p) ** (m_a - n)
            assert upper(m_a, 0.0, lam_p, n) == pytest.approx(exact, rel=1e-12)
            assert lower(m_a, 0.0, lam_p, n) == pytest.approx(exact, rel=1e-12)

    def test_against_log_space_gamma_oracle(self):
        m_a, delta, lam_p = 20, 0.1, 0.02
        hi = (1 + delta) * m_a
        expected = float(
            mpmath.exp(mpmath.loggamma(hi + 1) - mpmath.loggamma(2)
                       - mpmath.loggamma(hi) + mpmath.log(lam_p)
                       + (hi - 1) * mpmath.log(1 - lam_p)))
        assert upper(m_a, delta, lam_p, 1) == pytest.approx(expected,
                                                            rel=1e-10)

    def test_cutoffs_beyond_window(self):
        # window [18, 22]: each envelope vanishes just past its edge
        args = (20, 0.1, 0.02)
        assert upper(*args, 23) == 0.0   # above (1+delta) m_a
        assert lower(*args, 19) == 0.0   # above (1-delta) m_a
        assert upper(*args, 21) > 0.0
        assert upper(*args, 22) > 0.0
        assert lower(*args, 18) > 0.0

    @pytest.mark.parametrize("m_a", [3, 7, 20, 50])
    @pytest.mark.parametrize("lam_p", [0.001, 0.005, 0.015])
    def test_envelope_dominance_brute_force(self, m_a, lam_p):
        # every integer source size inside the window obeys the envelopes
        delta = 0.2
        lo = math.ceil((1 - delta) * m_a)
        hi = math.floor((1 + delta) * m_a)
        slack = 1e-12  # lgamma round-off where the window edge is an integer
        for m in range(lo, hi + 1):
            for n in range(0, m + 1):
                exact = math.comb(m, n) * lam_p ** n * (1 - lam_p) ** (m - n)
                assert lower(m_a, delta, lam_p, n) <= (
                    exact * (1 + slack) + 1e-300)
                assert exact <= (
                    upper(m_a, delta, lam_p, n) * (1 + slack) + 1e-300)

    @pytest.mark.parametrize("m_a,delta,lam_p", [(30, 0.15, 0.01),
                                                 (20, 0.1, 0.02)])
    def test_lower_below_upper(self, m_a, delta, lam_p):
        for n in range(0, 40):
            assert lower(m_a, delta, lam_p, n) <= (
                upper(m_a, delta, lam_p, n) + 1e-15)


def finite_breakdown(n_pulses, m_bright=1e6):
    """`evaluate_rate` of a no-decoy finite point at 0 km, delta = 0.01."""
    phys = PhysicalParams(m_bright=m_bright)
    point = ProtocolPoint(
        scenario=Scenario.NO_DECOY_FINITE, distance_km=0.0,
        n_pulses=n_pulses, lam=1e-5, delta=0.01, m_e=1e5,
        budget=ErrorBudget.equal_split(Scenario.NO_DECOY_FINITE, phys))
    return point, evaluate_rate(point, phys, BoundConventions())


class TestUntaggedProbability:
    def test_empty_window(self):
        assert coverage_kernel(0.0, m_a_at(), 0.01, 1) == 0.0

    def test_full_coverage(self):
        assert coverage_kernel(0.9, m_a_at(), 0.01, 1) > 1 - 1e-12

    def test_published_value(self):
        arg = 0.01 * math.sqrt(1e4 * 0.99 / 2)
        assert arg == pytest.approx(0.7036, abs=2e-4)
        value = coverage_kernel(0.01, m_a_at(m_bright=1e4), 0.01, 1)
        assert value == pytest.approx(0.680, abs=1e-3)
        mp_arg = mpmath.mpf(0.01) * mpmath.sqrt(
            mpmath.mpf(1e4) * (1 - mpmath.mpf(0.01)) / 2)
        assert value == pytest.approx(float(mpmath.erf(mp_arg)), rel=1e-12)

    def test_monotone_in_delta_and_m_a(self):
        values = [coverage_kernel(d, m_a_at(), 0.01, 1)
                  for d in np.linspace(1e-4, 0.1, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        values = [coverage_kernel(0.01, m_a_at(m_bright=m), 0.01, 1)
                  for m in np.geomspace(1e2, 1e8, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_finite_limit_recovers_infinite(self):
        _, bd = finite_breakdown(1e12)
        p_inf = coverage_kernel(0.01, m_a_at(), 0.01, 1)
        assert abs(bd.p_untagged - p_inf) < 1e-5

    def test_finite_composes_the_two_oracles(self):
        # the breakdown's untagged probability is the coverage less the
        # deviation of an n_pulses-sample estimate at eps_u
        point, bd = finite_breakdown(5e10, m_bright=1e4)
        expected = (coverage_kernel(0.01, m_a_at(m_bright=1e4), 0.01, 1)
                    - xi_kernel(point.budget.eps_u, 5e10))
        assert bd.p_untagged == pytest.approx(expected, rel=1e-12)
