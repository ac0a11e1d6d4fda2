"""Special-function kernels against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from pnp_bb84._kernels import h2_kernel, log_choose_kernel, xi_kernel

mpmath.mp.dps = 50


def mp_entropy(x) -> float:
    x = mpmath.mpf(x)
    if x == 0 or x == 1:
        return 0.0
    return float(-x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2))


def mp_deviation(eps, m) -> float:
    eps, m = mpmath.mpf(eps), mpmath.mpf(m)
    return float(mpmath.sqrt((mpmath.log(1 / eps) + 2 * mpmath.log(m + 1))
                             / (2 * m)))


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert h2_kernel(0.5) == 1.0

    def test_degenerate_endpoints(self):
        assert h2_kernel(0.0) == 0.0
        assert h2_kernel(1.0) == 0.0

    def test_arbitrary_point_against_oracle(self):
        assert h2_kernel(0.11) == pytest.approx(mp_entropy(0.11), rel=1e-12)
        assert h2_kernel(0.11) == pytest.approx(0.49992, abs=1e-5)

    def test_symmetry(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert h2_kernel(x) == pytest.approx(h2_kernel(1 - x), abs=1e-14)

    def test_range(self):
        values = [h2_kernel(x) for x in np.linspace(0, 1, 201)]
        assert min(values) >= 0.0
        assert max(values) <= 1.0


class TestStatisticalDeviation:
    def test_against_oracle(self):
        assert xi_kernel(1e-9, 1e6) == pytest.approx(mp_deviation(1e-9, 1e6),
                                                     rel=1e-12)
        assert xi_kernel(1e-9, 1e6) == pytest.approx(4.917e-3, rel=1e-3)
        assert xi_kernel(1e-10, 1e6) == pytest.approx(5.03e-3, rel=1e-3)

    def test_vanishes_for_large_samples(self):
        assert xi_kernel(0.5, 1e12) < 1e-5
        assert xi_kernel(0.5, math.inf) == 0.0

    def test_monotone_decreasing_in_m(self):
        for eps in (1e-12, 1e-9, 1e-3, 0.5):
            values = [xi_kernel(eps, m) for m in np.geomspace(10, 1e14, 40)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_eps(self):
        for m in (1e2, 1e6, 1e12):
            values = [xi_kernel(eps, m)
                      for eps in np.geomspace(1e-15, 0.9, 40)]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestLogBinomialCoeff:
    def test_integer_cases_match_exact_binomial(self):
        for upper in range(0, 31):
            for n in range(0, upper + 1):
                expected = math.log(math.comb(upper, n))
                assert log_choose_kernel(float(upper), float(n)) == (
                    pytest.approx(expected, abs=1e-10))

    def test_choose_zero_is_one(self):
        assert log_choose_kernel(5.5, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_five_choose_two(self):
        assert log_choose_kernel(5.0, 2.0) == pytest.approx(math.log(10),
                                                            rel=1e-12)

    def test_real_upper_against_gamma_oracle(self):
        expected = float(mpmath.loggamma(10.3 + 1) - mpmath.loggamma(4 + 1)
                         - mpmath.loggamma(10.3 - 4 + 1))
        assert log_choose_kernel(10.3, 4.0) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_zero_above_the_window(self):
        assert log_choose_kernel(10.3, 11.0) == -math.inf
        assert math.exp(log_choose_kernel(10.3, 11.0)) == 0.0
