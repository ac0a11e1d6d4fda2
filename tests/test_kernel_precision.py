"""Float error of the rate kernels, against their own source run in mpmath.

The twin is `_kernels.py` itself, executed without its ``from math import``
line and with mpmath's functions in its namespace, so it holds no second copy
of any formula and cannot drift from the kernels.  Fed the same inputs as
mpmath numbers at 60 digits, it gives the breakdown tuple the float kernels
approximate.
"""

import math
from pathlib import Path

import mpmath
import pytest

from pnp_bb84 import BoundConventions, PhysicalParams, _kernels
from test_golden import POINTS

PHYS = PhysicalParams()
FLAGS = BoundConventions().to_flags()
DPS = 60

# relative bound, by source model, on every slot that is finite and nonzero
# on both sides.  The rate slot has the largest error: ln C(u, n) taken as a
# difference of lgamma values loses digits, and without decoys the bound
# q_u_lower + P_0 + P_1 - 1 cancels, which magnifies P_1's error.
REL_BOUND = {False: 1e-6, True: 1e-9}


def _twin():
    source = Path(_kernels.__file__).read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("from math import")]
    assert len(kept) == len(lines) - 1
    namespace = dict(
        __name__="kernels_twin", erf=mpmath.erf, exp=mpmath.exp,
        expm1=mpmath.expm1, log1p=mpmath.log1p, log=mpmath.log,
        sqrt=mpmath.sqrt, isfinite=mpmath.isfinite, lgamma=mpmath.loggamma,
        log2=lambda x: mpmath.log(x, 2))
    with mpmath.workdps(DPS):
        exec(compile("".join(kept), "kernels_twin", "exec"), namespace)
    return namespace


@pytest.fixture(scope="module")
def twin():
    return _twin()


def _breakdown(kernels, point, num):
    """The rate kernel's breakdown tuple at ``point``, every float input
    passed through ``num``; ``kernels`` maps names to the kernel functions."""
    arr = tuple(map(num, PHYS.to_array()))
    m_a, eta = kernels["channel_at"](num(point.distance_km), arr)
    finite = None
    if point.scenario.finite:
        finite = (point.n_pulses, point.m_e)
        if point.scenario.uses_decoy:
            finite += (point.p_s, point.p_d)
        finite = tuple(map(num, finite + point.budget.values(point.scenario)))
    if point.scenario.uses_decoy:
        return kernels["rate_decoy"](m_a, eta, num(point.lam_s),
                                     num(point.lam_d), num(point.delta), arr,
                                     FLAGS, finite)
    return kernels["rate_no_decoy"](m_a, eta, num(point.lam),
                                    num(point.delta), arr, FLAGS, finite)


def _is_nan(x):
    return x != x


@pytest.mark.parametrize("name", sorted(POINTS))
def test_float_kernel_matches_mpmath_twin(twin, name):
    point = POINTS[name]
    got = _breakdown(vars(_kernels), point, float)
    with mpmath.workdps(DPS):
        exact = _breakdown(twin, point, mpmath.mpf)
    assert len(got) == len(exact) == 18
    assert got[0] == exact[0]
    assert [_is_nan(x) for x in got] == [_is_nan(x) for x in exact]
    bound = REL_BOUND[point.scenario.uses_decoy]
    for slot, (f, x) in enumerate(zip(got, exact)):
        if not (math.isfinite(f) and mpmath.isfinite(x)) or 0 in (f, x):
            continue
        error = abs((mpmath.mpf(f) - x) / x)
        assert error <= bound, (slot, f, x, float(error))
