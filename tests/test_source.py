"""Source-side model: monitored window, envelopes, untagged probabilities."""

import math

import mpmath
import numpy as np
import pytest

from pnp_bb84 import (PhysicalParams, SourceConfig, WindowConditionError,
                      mean_output_intensity, photon_bound_lower,
                      photon_bound_upper, statistical_deviation,
                      untagged_probability_finite,
                      untagged_probability_infinite)

mpmath.mp.dps = 50

PHYS = PhysicalParams()


def cfg(m_bright=1e6, q_split=0.01, loss=0.21, dist=0.0, delta=0.01, lam=1e-5):
    return SourceConfig(m_bright=m_bright, q_split=q_split, loss_coeff=loss,
                        distance_km=dist, delta=delta, lam=lam)


def cfg_from_lambda_prime(m_a, delta, lam_p):
    # q_split = 1/2 makes the effective transmittance equal lam itself
    return SourceConfig(m_bright=m_a, q_split=0.5, loss_coeff=0.21,
                        distance_km=0.0, delta=delta, lam=lam_p)


class TestSourceConfig:
    def test_derived_fields(self):
        c = cfg(dist=40.0, lam=0.01)
        assert c.m_a == pytest.approx(1e6 * 10 ** (-0.84), rel=1e-12)
        assert c.lambda_prime == pytest.approx(0.01 * 0.01 / 0.99, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(q_split=1.5)
        with pytest.raises(ValueError):
            cfg(lam=1.5)
        with pytest.raises(ValueError):
            cfg(delta=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["m_bright", "q_split", "loss",
                                       "dist", "delta", "lam"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            cfg(**{field: value})

    def test_window_flag(self):
        tight = cfg(lam=1e-7)
        assert tight.window_valid
        loose = cfg(lam=0.9)
        assert not loose.window_valid
        with pytest.raises(WindowConditionError):
            photon_bound_upper(loose, 1)


class TestMeanOutputIntensity:
    def test_zero_distance_unit_transmittance(self):
        c = cfg(dist=0.0, lam=1.0, delta=0.0)
        assert mean_output_intensity(c) == pytest.approx(1e4, rel=1e-12)

    def test_full_attenuation(self):
        assert mean_output_intensity(cfg(lam=0.0)) == 0.0

    def test_forty_km_arithmetic(self):
        c = cfg(dist=40.0, lam=0.01)
        expected = 1e6 * 10 ** (-0.21 * 40 / 10) * 0.01 * 0.01
        assert expected == pytest.approx(14.45, rel=1e-3)
        assert mean_output_intensity(c) == pytest.approx(expected, rel=1e-12)

    def test_passive_active_equivalence(self):
        # mu computed through the equivalent active arrangement must agree
        for lam in (1e-6, 1e-5, 1e-4):
            c = cfg(lam=lam, dist=17.0)
            active = c.m_a * c.lambda_prime * (1 - c.q_split)
            assert mean_output_intensity(c) == pytest.approx(active, rel=1e-12)


class TestPhotonBounds:
    def test_zero_transmittance(self):
        c = cfg(lam=0.0)
        assert photon_bound_upper(c, 0) == 1.0
        assert photon_bound_lower(c, 0) == 1.0
        for n in (1, 2, 5):
            assert photon_bound_upper(c, n) == 0.0
            assert photon_bound_lower(c, n) == 0.0

    def test_window_collapse_matches_exact_binomial(self):
        # delta = 0 with integer m_a: both envelopes equal Binomial(m_a, lam')
        m_a, lam_p = 20, 0.02
        c = cfg_from_lambda_prime(m_a, 0.0, lam_p)
        for n in range(0, m_a + 1):
            exact = math.comb(m_a, n) * lam_p ** n * (1 - lam_p) ** (m_a - n)
            assert photon_bound_upper(c, n) == pytest.approx(exact, rel=1e-12)
            assert photon_bound_lower(c, n) == pytest.approx(exact, rel=1e-12)

    def test_against_log_space_gamma_oracle(self):
        m_a, delta, lam_p = 20, 0.1, 0.02
        c = cfg_from_lambda_prime(m_a, delta, lam_p)
        hi = (1 + delta) * m_a
        expected = float(
            mpmath.exp(mpmath.loggamma(hi + 1) - mpmath.loggamma(2)
                       - mpmath.loggamma(hi) + mpmath.log(lam_p)
                       + (hi - 1) * mpmath.log(1 - lam_p)))
        assert photon_bound_upper(c, 1) == pytest.approx(expected, rel=1e-10)

    def test_cutoffs_beyond_window(self):
        # window [18, 22]: each envelope vanishes just past its edge
        c = cfg_from_lambda_prime(20, 0.1, 0.02)
        assert photon_bound_upper(c, 23) == 0.0   # above (1+delta) m_a
        assert photon_bound_lower(c, 19) == 0.0   # above (1-delta) m_a
        assert photon_bound_upper(c, 21) > 0.0
        assert photon_bound_upper(c, 22) > 0.0
        assert photon_bound_lower(c, 18) > 0.0

    @pytest.mark.parametrize("m_a", [3, 7, 20, 50])
    @pytest.mark.parametrize("lam_p", [0.001, 0.005, 0.015])
    def test_envelope_dominance_brute_force(self, m_a, lam_p):
        # every integer source size inside the window obeys the envelopes
        delta = 0.2
        c = cfg_from_lambda_prime(m_a, delta, lam_p)
        lo = math.ceil((1 - delta) * m_a)
        hi = math.floor((1 + delta) * m_a)
        slack = 1e-12  # lgamma round-off where the window edge is an integer
        for m in range(lo, hi + 1):
            for n in range(0, m + 1):
                exact = math.comb(m, n) * lam_p ** n * (1 - lam_p) ** (m - n)
                assert photon_bound_lower(c, n) <= exact * (1 + slack) + 1e-300
                assert exact <= photon_bound_upper(c, n) * (1 + slack) + 1e-300

    @pytest.mark.parametrize("m_a,delta,lam_p", [(30, 0.15, 0.01),
                                                 (20, 0.1, 0.02)])
    def test_lower_below_upper(self, m_a, delta, lam_p):
        c = cfg_from_lambda_prime(m_a, delta, lam_p)
        for n in range(0, 40):
            assert photon_bound_lower(c, n) <= photon_bound_upper(c, n) + 1e-15


class TestUntaggedProbability:
    def test_empty_window(self):
        assert untagged_probability_infinite(cfg(delta=0.0)) == 0.0

    def test_full_coverage(self):
        assert untagged_probability_infinite(cfg(delta=0.9)) > 1 - 1e-12

    def test_published_value(self):
        c = SourceConfig(m_bright=1e4, q_split=0.01, loss_coeff=0.21,
                         distance_km=0.0, delta=0.01, lam=1e-5)
        arg = 0.01 * math.sqrt(1e4 * 0.99 / 2)
        assert arg == pytest.approx(0.7036, abs=2e-4)
        assert untagged_probability_infinite(c) == pytest.approx(0.680,
                                                                 abs=1e-3)

    def test_monotone_in_delta_and_m_a(self):
        values = [untagged_probability_infinite(cfg(delta=d))
                  for d in np.linspace(1e-4, 0.1, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        values = [untagged_probability_infinite(cfg(m_bright=m))
                  for m in np.geomspace(1e2, 1e8, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_finite_limit_recovers_infinite(self):
        c = cfg()
        p_inf = untagged_probability_infinite(c)
        p_fin = untagged_probability_finite(c, 1e-9, 1e12)
        assert abs(p_fin - p_inf) < 1e-5

    def test_finite_clamped_at_zero(self):
        c = cfg(delta=0.0)
        assert untagged_probability_finite(c, 1e-9, 1e6) == 0.0

    def test_finite_composes_the_two_oracles(self):
        c = SourceConfig(m_bright=1e4, q_split=0.01, loss_coeff=0.21,
                         distance_km=0.0, delta=0.01, lam=1e-5)
        expected = (untagged_probability_infinite(c)
                    - statistical_deviation(1e-10, 5e10))
        assert untagged_probability_finite(c, 1e-10, 5e10) == pytest.approx(
            expected, rel=1e-12)
