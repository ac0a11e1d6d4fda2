"""Special functions, statistical-deviation primitives and range checks.

Pure, stateless and safe for concurrent use; the arithmetic lives in the
scalar kernels of ``_kernels`` and these wrappers only add domain validation.
"""

from __future__ import annotations

import math
import numbers

from . import _kernels

# standard error function and its complement, public exports of the package
erf = math.erf
erfc = math.erfc

# math.lgamma overflows above about 2.556e305.  Every photon-number window
# edge (1 + delta) m_a lies below 2 m_bright, so with these caps on the
# source brightness and on a binomial's upper argument every lgamma the
# kernels take is finite.
M_BRIGHT_MAX = 1e305
BINOMIAL_UPPER_MAX = 2.0 * M_BRIGHT_MAX


def check_range(name: str, value: float, lo: float, hi: float,
                lo_open: bool = False, hi_open: bool = False) -> float:
    """Return ``value`` if it lies between ``lo`` and ``hi``, each end closed
    unless its ``*_open`` flag is set; else raise ValueError naming ``name``.

    The test only compares, so nan, and anything that does not compare with
    a number (None, a string), fails every interval, and inf passes only an
    interval closed at inf: ``hi=math.inf, hi_open=True`` spells "finite".
    A number no float can hold, such as the int 10**400, fails every
    interval too, since the kernels' float arithmetic would overflow on it.
    """
    try:
        if (lo < value < hi or (value == lo and not lo_open)
                or (value == hi and not hi_open)):
            float(value)
            return value
    except (TypeError, OverflowError):
        pass
    if lo == hi:
        domain = f"{lo:g}"
    elif lo == 0 and hi == math.inf and hi_open:
        domain = "finite and " + ("positive" if lo_open else "non-negative")
    else:
        domain = (f"in {'(' if lo_open else '['}{lo:g}, "
                  f"{hi:g}{')' if hi_open else ']'}")
    raise ValueError(f"{name}={value!r} must be {domain}")


def check_integer(name: str, value: int, lo: int) -> int:
    """Return ``value`` if it is an integer of at least ``lo``, else raise
    ValueError naming ``name``.  A bool is not taken for an integer."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name}={value!r} must be an integer")
    return check_range(name, value, lo, math.inf, hi_open=True)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with the 0*log(0) = 0 convention."""
    check_range("x", x, 0.0, 1.0)
    return _kernels.h2_kernel(x)


def statistical_deviation(epsilon: float, m: float) -> float:
    """Deviation bound for an estimate from m samples at failure probability epsilon.

    Equals sqrt((ln(1/epsilon) + 2 ln(m+1)) / (2m)); decreasing in both
    arguments.  ``m = inf`` returns exactly zero.
    """
    check_range("epsilon", epsilon, 0.0, 1.0, lo_open=True, hi_open=True)
    check_range("m", m, 0.0, math.inf, lo_open=True)
    return _kernels.xi_kernel(epsilon, m)


def log_binomial_coeff(upper: float, n: int) -> float:
    """ln C(upper, n) for real non-negative ``upper``, -inf when n > upper.

    The generalization through the gamma function keeps the photon-number
    window arithmetic in log space, where exponents of order 1e5 are safe.
    """
    check_range("upper", upper, 0.0, BINOMIAL_UPPER_MAX)
    check_range("n", n, 0.0, math.inf, hi_open=True)
    return _kernels.log_choose_kernel(float(upper), float(n))
