"""Range checks for the inputs of every public entry point.

Pure, stateless and safe for concurrent use.  The formulas themselves live
in the scalar kernels of ``_kernels``.
"""

from __future__ import annotations

import math
import numbers

# math.lgamma overflows above about 2.556e305.  Every photon-number window
# edge (1 + delta) m_a lies below 2 m_bright, since delta < 1 and m_a <=
# m_bright, so with this cap on the source brightness every lgamma the
# kernels take, ln Gamma(u + 1) for u up to 2 m_bright = 2e305, is finite.
M_BRIGHT_MAX = 1e305


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

