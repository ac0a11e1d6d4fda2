"""Float error of the rate kernels, against their own source run in mpmath.

The twin is `_kernels.py` itself, executed without its ``from math import``
line and with mpmath's functions in its namespace, so it holds no second copy
of any formula and cannot drift from the kernels.  Fed the same inputs as
mpmath numbers at 60 digits, it gives the breakdown tuple the float kernels
approximate, at the golden points and at the property suite's random
draws.
"""

import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings

from pnp_bb84 import (BoundConventions, OptimizationProblem, PhysicalParams,
                      Scenario, _kernels, point_from_raw)
from test_golden import POINTS
from test_properties import CONVENTIONS, draws

PHYS = PhysicalParams()
FLAGS = BoundConventions().to_flags()
DPS = 60

# relative bound, by source model, on every slot that is finite and nonzero
# on both sides.  The rate slot has the largest error: ln C(u, n) taken as a
# difference of lgamma values loses digits, and without decoys the bound
# q_u_lower + P_0 + P_1 - 1 cancels, which magnifies P_1's error.
REL_BOUND = {False: 1e-6, True: 1e-9}
# the same bound over the random draws, any source model.  The golden
# points' 1e-9 decoy bound does not hold there: all but one of the 3,000
# draws stay within 1.45e-6 (no_decoy_finite, rate), but at one
# decoy_infinite draw (91.75 km, no key) q1u_lower = 1.1e-14 is what is
# left of untagged gains near 1.7e-6, and it and e1u_upper lose 1.7e-5
DRAW_REL_BOUND = 2e-5


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


def _breakdown(kernels, point, num, flags=FLAGS):
    """The rate kernel's breakdown tuple at ``point`` under the convention
    ``flags``, every float input passed through ``num``; ``kernels`` maps
    names to the kernel functions."""
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
                                     flags, finite)
    return kernels["rate_no_decoy"](m_a, eta, num(point.lam),
                                    num(point.delta), arr, flags, finite)


def _is_nan(x):
    return x != x


def _check_twin(twin, point, bound, flags=FLAGS):
    """The float and the twin breakdowns agree in status, in their nan
    slots and, to ``bound`` relative, in every slot finite and nonzero on
    both sides."""
    got = _breakdown(vars(_kernels), point, float, flags)
    with mpmath.workdps(DPS):
        exact = _breakdown(twin, point, mpmath.mpf, flags)
    assert len(got) == len(exact) == 18
    assert got[0] == exact[0]
    assert [_is_nan(x) for x in got] == [_is_nan(x) for x in exact]
    for slot, (f, x) in enumerate(zip(got, exact)):
        if not (math.isfinite(f) and mpmath.isfinite(x)) or 0 in (f, x):
            continue
        error = abs((mpmath.mpf(f) - x) / x)
        assert error <= bound, (slot, f, x, float(error))


@pytest.mark.parametrize("name", sorted(POINTS))
def test_float_kernel_matches_mpmath_twin(twin, name):
    point = POINTS[name]
    _check_twin(twin, point, REL_BOUND[point.scenario.uses_decoy])


@pytest.mark.parametrize("conv_name", list(CONVENTIONS))
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_float_kernel_matches_mpmath_twin_over_random_draws(twin, scenario,
                                                            conv_name):
    conv = CONVENTIONS[conv_name]

    @settings(max_examples=250, derandomize=True, deadline=None,
              database=None)
    @given(draws(scenario))
    def check(draw):
        distance_km, n_pulses, raw = draw
        problem = OptimizationProblem(scenario, distance_km, n_pulses,
                                      conventions=conv)
        _check_twin(twin, point_from_raw(problem, raw), DRAW_REL_BOUND,
                    conv.to_flags())

    check()
