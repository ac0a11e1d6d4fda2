"""Special functions and statistical-deviation primitives.

Pure, stateless and safe for concurrent use; the arithmetic lives in the
scalar kernels of ``_kernels`` and these wrappers only add domain validation.
"""

from __future__ import annotations

import math

from . import _kernels

# standard error function / complement, re-exported for the model modules
erf = math.erf
erfc = math.erfc


def check_probability(value: float, name: str = "value") -> float:
    """Validate a probability-valued quantity, returning it unchanged."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name}={value!r} is not a probability in [0, 1]")
    return value


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with the 0*log(0) = 0 convention."""
    check_probability(x, "x")
    return _kernels.h2_kernel(x)


def statistical_deviation(epsilon: float, m: float) -> float:
    """Deviation bound for an estimate from m samples at failure probability epsilon.

    Equals sqrt((ln(1/epsilon) + 2 ln(m+1)) / (2m)); decreasing in both
    arguments.  ``m = inf`` returns exactly zero.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon={epsilon!r} must lie strictly in (0, 1)")
    if not m > 0:
        raise ValueError(f"m={m!r} must be positive")
    return _kernels.xi_kernel(epsilon, m)


def log_binomial_coeff(upper: float, n: int) -> float:
    """ln C(upper, n) for real non-negative ``upper``, -inf when n > upper.

    The generalization through the gamma function keeps the photon-number
    window arithmetic in log space, where exponents of order 1e5 are safe.
    """
    if upper < 0:
        raise ValueError(f"upper={upper!r} must be non-negative")
    if n < 0:
        raise ValueError(f"n={n!r} must be non-negative")
    return _kernels.log_choose_kernel(float(upper), float(n))
