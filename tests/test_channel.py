"""Detection model: transmittance, gain and QBER."""

import math
import random

import numpy as np
import pytest

from pnp_bb84 import (PhysicalParams, channel_transmittance, gain_and_qber,
                      vacuum_observables)

PHYS = PhysicalParams()


class TestChannelTransmittance:
    def test_zero_distance(self):
        assert channel_transmittance(0.045, 0.21, 0.0) == 0.045

    def test_one_decade(self):
        dist = 10.0 / 0.21
        assert channel_transmittance(0.045, 0.21, dist) == pytest.approx(
            0.0045, rel=1e-12)

    def test_sixty_km(self):
        assert channel_transmittance(0.045, 0.21, 60.0) == pytest.approx(
            2.473e-3, rel=1e-3)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            channel_transmittance(0.045, 0.21, -1.0)

    def test_same_floats_as_the_kernels(self):
        # `_kernels.channel_at` is the one home of the attenuation
        from pnp_bb84 import SourceConfig, _kernels

        phys = PhysicalParams(eta_bob=0.3, loss_coeff=0.17, m_bright=3.7e5)
        arr = phys.to_array()
        rng = random.Random(11)
        for _ in range(200):
            dist = rng.uniform(0.0, 300.0)
            m_a, eta = _kernels.channel_at(dist, arr)
            assert channel_transmittance(phys.eta_bob, phys.loss_coeff,
                                         dist) == eta
            source = SourceConfig.from_params(phys, dist, 0.1, 0.0)
            assert source.m_a == m_a


class TestGainAndQber:
    def test_vacuum_input_is_pure_background(self):
        q, e = gain_and_qber(0.0, 0.045, PHYS)
        assert q == pytest.approx(1.7e-6, rel=1e-12)
        assert e == pytest.approx(0.5, rel=1e-12)

    def test_saturated_detection(self):
        q, e = gain_and_qber(1e6, 1.0, PHYS)
        assert q == pytest.approx(1.0 + PHYS.y0, rel=1e-12)
        assert e == pytest.approx(PHYS.e_det, rel=1e-3)

    def test_direct_arithmetic_point(self):
        # mu * eta = 0.1
        q, e = gain_and_qber(0.1, 1.0, PHYS)
        q_expected = 1.7e-6 + (1 - math.exp(-0.1))
        e_expected = (0.5 * 1.7e-6 + 0.033 * (1 - math.exp(-0.1))) / q_expected
        assert q == pytest.approx(q_expected, rel=1e-12)
        assert q == pytest.approx(0.09516, rel=1e-3)
        assert e == pytest.approx(e_expected, rel=1e-12)
        assert e == pytest.approx(0.03301, rel=1e-3)

    def test_gain_increasing_qber_decreasing(self):
        mus = np.geomspace(1e-4, 10, 60)
        gains, errors = zip(*(gain_and_qber(mu, 0.045, PHYS) for mu in mus))
        assert all(a < b for a, b in zip(gains, gains[1:]))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_gain_increasing_in_eta(self):
        etas = np.geomspace(1e-4, 1.0, 40)
        gains = [gain_and_qber(0.5, eta, PHYS)[0] for eta in etas]
        assert all(a < b for a, b in zip(gains, gains[1:]))

    def test_qber_between_detector_and_background_error(self):
        for mu in np.geomspace(1e-5, 5, 40):
            _, e = gain_and_qber(mu, 0.045, PHYS)
            assert PHYS.e_det <= e <= PHYS.e0

    def test_no_eta_variant(self):
        q_with, _ = gain_and_qber(0.5, 0.045, PHYS, with_eta=True)
        q_without, _ = gain_and_qber(0.5, 0.045, PHYS, with_eta=False)
        assert q_without > q_with

    def test_zero_gain_is_rejected(self):
        # a dark-free detector that no photon reaches never clicks: the
        # qber would be 0/0
        with pytest.raises(ValueError, match="gain is 0"):
            gain_and_qber(0.0, 0.5, PhysicalParams(y0=0.0))


class TestVacuumObservables:
    def test_defaults(self):
        assert vacuum_observables(PHYS) == (1.7e-6, 0.5)

    def test_dark_free_detector(self):
        phys = PhysicalParams(y0=0.0)
        assert vacuum_observables(phys) == (0.0, 0.5)

    def test_consistent_with_zero_intensity_gain(self):
        q, e = gain_and_qber(0.0, 0.045, PHYS)
        assert (q, e) == vacuum_observables(PHYS)
