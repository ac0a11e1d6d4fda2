"""Detection model: transmittance, gain and QBER."""

import math
import random

import numpy as np
import pytest

from pnp_bb84 import (BoundConventions, PhysicalParams, ProtocolPoint,
                      Scenario, evaluate_rate)
from pnp_bb84._kernels import channel_at, gain_qber_kernel, mu_kernel

PHYS = PhysicalParams()


def eta_at(dist, eta_bob=0.045, loss=0.21):
    """Overall transmittance from the sender's output to a detection."""
    phys = PhysicalParams(eta_bob=eta_bob, loss_coeff=loss)
    return channel_at(dist, phys.to_array())[1]


def gain_and_error(mu, eta, phys=PHYS, with_eta=True):
    return gain_qber_kernel(mu, eta, phys.y0, phys.e_det, phys.e0,
                            1 if with_eta else 0)


class TestChannelTransmittance:
    def test_zero_distance(self):
        assert eta_at(0.0) == 0.045

    def test_one_decade(self):
        assert eta_at(10.0 / 0.21) == pytest.approx(0.0045, rel=1e-12)

    def test_sixty_km(self):
        assert eta_at(60.0) == pytest.approx(2.473e-3, rel=1e-3)

    def test_same_floats_as_the_kernels(self):
        # `_kernels.channel_at` is the one home of the attenuation: the
        # breakdown's intensity and gain are built from its m_a and eta
        phys = PhysicalParams(eta_bob=0.3, loss_coeff=0.17, m_bright=3.7e5)
        arr = phys.to_array()
        rng = random.Random(11)
        for _ in range(200):
            dist = rng.uniform(0.0, 300.0)
            m_a, eta = channel_at(dist, arr)
            point = ProtocolPoint(scenario=Scenario.NO_DECOY_INFINITE,
                                  distance_km=dist, lam=1e-6, delta=0.1)
            bd = evaluate_rate(point, phys, BoundConventions())
            assert bd.mu == mu_kernel(m_a, 1e-6, phys.q_split)
            assert bd.gain == gain_and_error(bd.mu, eta, phys)[0]


class TestGainAndQber:
    def test_vacuum_input_is_pure_background(self):
        q, e = gain_and_error(0.0, 0.045)
        assert q == pytest.approx(1.7e-6, rel=1e-12)
        assert e == pytest.approx(0.5, rel=1e-12)

    def test_saturated_detection(self):
        q, e = gain_and_error(1e6, 1.0)
        assert q == pytest.approx(1.0 + PHYS.y0, rel=1e-12)
        assert e == pytest.approx(PHYS.e_det, rel=1e-3)

    def test_direct_arithmetic_point(self):
        # mu * eta = 0.1
        q, e = gain_and_error(0.1, 1.0)
        q_expected = 1.7e-6 + (1 - math.exp(-0.1))
        e_expected = (0.5 * 1.7e-6 + 0.033 * (1 - math.exp(-0.1))) / q_expected
        assert q == pytest.approx(q_expected, rel=1e-12)
        assert q == pytest.approx(0.09516, rel=1e-3)
        assert e == pytest.approx(e_expected, rel=1e-12)
        assert e == pytest.approx(0.03301, rel=1e-3)

    def test_gain_increasing_qber_decreasing(self):
        mus = np.geomspace(1e-4, 10, 60)
        gains, errors = zip(*(gain_and_error(mu, 0.045) for mu in mus))
        assert all(a < b for a, b in zip(gains, gains[1:]))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_gain_increasing_in_eta(self):
        etas = np.geomspace(1e-4, 1.0, 40)
        gains = [gain_and_error(0.5, eta)[0] for eta in etas]
        assert all(a < b for a, b in zip(gains, gains[1:]))

    def test_qber_between_detector_and_background_error(self):
        for mu in np.geomspace(1e-5, 5, 40):
            _, e = gain_and_error(mu, 0.045)
            assert PHYS.e_det <= e <= PHYS.e0

    def test_no_eta_variant(self):
        q_with, _ = gain_and_error(0.5, 0.045, with_eta=True)
        q_without, _ = gain_and_error(0.5, 0.045, with_eta=False)
        assert q_without > q_with

    def test_zero_gain_has_no_qber(self):
        # a dark-free detector that no photon reaches never clicks: the
        # qber would be 0/0, and the rate kernels report an empty raw key
        q, e = gain_and_error(0.0, 0.5, PhysicalParams(y0=0.0))
        assert q == 0.0
        assert math.isnan(e)


class TestVacuumObservables:
    # the vacuum class is pure background: the decoy kernel reads its gain
    # and error rate from the ``phys`` layout slots of y0 and e0_vac
    def test_defaults(self):
        arr = PHYS.to_array()
        assert (arr[2], arr[5]) == (PHYS.y0, PHYS.e0_vac) == (1.7e-6, 0.5)

    def test_dark_free_detector(self):
        arr = PhysicalParams(y0=0.0).to_array()
        assert (arr[2], arr[5]) == (0.0, 0.5)

    def test_consistent_with_zero_intensity_gain(self):
        assert gain_and_error(0.0, 0.045) == (PHYS.y0, PHYS.e0_vac)
