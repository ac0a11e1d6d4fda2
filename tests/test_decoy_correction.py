"""The multiphoton remainder of the decoy estimator and its zero gate.

`_kernels.decoy_correction_kernel` returns 0.0, before any libm call, once
(1 - delta) m_a reaches `DECOY_CORRECTION_ZERO_FROM`.  The gate must move no
float: wherever it fires, the kernel's own log-space value lies below -700,
where the ungated kernel returns 0.0 as well, and below it both run the same
code.  The ungated kernels are the kernel's own source with the gate taken
out, so they hold no second copy of the formula.  Where the remainder is
nonzero (small m_a) it is checked against the mpmath twin.
"""

import ast
import inspect
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnp_bb84 import _kernels
from pnp_bb84._kernels import DECOY_CORRECTION_ZERO_FROM as ZERO_FROM
from pnp_bb84._kernels import decoy_correction_kernel as gated
from pnp_bb84.numerics import M_BRIGHT_MAX
from test_kernel_precision import DPS, _twin

ONE_MINUS_ULP = 1.0 - 2.0 ** -53  # the largest float below 1
TINY = math.ulp(0.0)  # the smallest positive float
# relative bound on the remainder against the twin: lc is a sum of terms of
# magnitude up to about ln Gamma(322) = 1535 below the gate, each rounded to
# about 1e-16 relative, and exp turns lc's absolute error into a relative one
REL_BOUND = 1e-11


GATE = ("if (1.0 - delta) * m_a >= DECOY_CORRECTION_ZERO_FROM:\n"
        "    return 0.0")


def _kernel_tree():
    return ast.parse(inspect.getsource(_kernels.decoy_correction_kernel))


def _without_gate(log_space=False):
    """`decoy_correction_kernel` compiled without its first statement, the
    gate; with ``log_space`` also without its final zero branch and exp, so
    that it returns the log-space value lc itself."""
    tree = _kernel_tree()
    body = tree.body[0].body
    assert ast.unparse(body.pop(0)) == GATE
    if log_space:
        assert [ast.unparse(s) for s in body[-2:]] == [
            "if lc < -700.0:\n    return 0.0", "return exp(lc)"]
        body[-2:] = ast.parse("return lc").body
    namespace = dict(vars(_kernels))
    exec(compile(tree, "ungated", "exec"), namespace)
    return namespace["decoy_correction_kernel"]


UNGATED = _without_gate()
LOG_SPACE = _without_gate(log_space=True)


def _fires(delta, m_a):
    return (1.0 - delta) * m_a >= ZERO_FROM


def _check(delta, m_a, lam_p_d, p2s_low):
    """Gated and ungated agree bit for bit; where the gate fires the
    ungated log-space value is below -700."""
    args = (delta, m_a, lam_p_d, p2s_low)
    assert gated(*args).hex() == UNGATED(*args).hex(), args
    if _fires(delta, m_a):
        assert gated(*args) == 0.0
        assert LOG_SPACE(*args) < -700.0, args


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


# the domain and its edges: delta up to 1 - 2**-53, lambda'_d up to the same,
# P_2 up to 1, m_a up to M_BRIGHT_MAX.  delta >= 1e-300 and m_a >= 1e-6 keep
# 2 delta m_a a positive float, as it is on the rate kernel's status-ok path
# (P_2 > 0 there needs (1 - delta) m_a >= 2; a subnormal delta times a small
# m_a would make the ungated kernel take log(0.0))
DELTAS = st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                   _log_uniform(1e-300, 0.5),
                   st.integers(1, 53).map(lambda k: 1.0 - 2.0 ** -k))
LAM_PS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   _log_uniform(TINY, 0.5),
                   st.integers(1, 53).map(lambda k: 1.0 - 2.0 ** -k))
P2S = st.one_of(st.just(1.0), _log_uniform(1e-300, 1.0))


def test_gate_is_the_kernels_first_statement():
    assert ast.unparse(_kernel_tree().body[0].body[0]) == GATE


@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(DELTAS, _log_uniform(ZERO_FROM, M_BRIGHT_MAX), LAM_PS, P2S)
def test_ungated_value_underflows_wherever_the_gate_fires(delta, x, lam_p_d,
                                                          p2s_low):
    # m_a such that (1 - delta) m_a is about x, capped at the brightest source
    m_a = min(x / (1.0 - delta), M_BRIGHT_MAX)
    _check(delta, m_a, lam_p_d, p2s_low)


@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(DELTAS, _log_uniform(1e-6, M_BRIGHT_MAX), LAM_PS, P2S)
def test_gated_and_ungated_agree_over_the_domain(delta, m_a, lam_p_d,
                                                 p2s_low):
    _check(delta, m_a, lam_p_d, p2s_low)


def _below_gate(delta):
    """The largest m_a at which (1 - delta) m_a stays below the constant."""
    m_a = ZERO_FROM / (1.0 - delta)
    while _fires(delta, m_a):
        m_a = math.nextafter(m_a, 0.0)
    return m_a


EDGE_DELTAS = [1e-300, _kernels.DELTA_LO, 0.5, _kernels.DELTA_HI,
               ONE_MINUS_ULP]


@pytest.mark.parametrize("delta", EDGE_DELTAS)
@pytest.mark.parametrize("lam_p_d", [TINY, 0.5, ONE_MINUS_ULP])
@pytest.mark.parametrize("p2s_low", [1e-300, 1.0])
def test_domain_edges(delta, lam_p_d, p2s_low):
    below = _below_gate(delta)
    at = math.nextafter(below, math.inf)
    assert not _fires(delta, below) and _fires(delta, at)
    for m_a in (below, at, M_BRIGHT_MAX):
        _check(delta, m_a, lam_p_d, p2s_low)


@pytest.fixture(scope="module")
def twin():
    return _twin()


def _check_twin(twin, delta, m_a, lam_p_d, p2s_low):
    """The float remainder against the twin's at ``DPS`` digits, where the
    float one is nonzero; returns the float remainder."""
    got = gated(delta, m_a, lam_p_d, p2s_low)
    with mpmath.workdps(DPS):
        exact = twin["decoy_correction_kernel"](
            *map(mpmath.mpf, (delta, m_a, lam_p_d, p2s_low)))
        if got != 0.0:
            error = abs((mpmath.mpf(got) - exact) / exact)
            assert error <= REL_BOUND, (delta, m_a, lam_p_d, p2s_low,
                                        float(error))
    return got


@pytest.mark.parametrize("delta,m_a,lam_p_d,p2s_low", [
    (0.5, 10.0, 1e-3, 0.2), (9e-3, 2.0, 1e-8, 1e-12), (0.9, 50.0, 0.3, 1.0),
    (1e-5, 150.0, 1e-4, 1e-3), (0.5, 200.0, 1e-6, 0.5)])
def test_nonzero_remainder_matches_mpmath_twin(twin, delta, m_a, lam_p_d,
                                               p2s_low):
    assert _check_twin(twin, delta, m_a, lam_p_d, p2s_low) > 0.0


def test_remainder_below_the_gate_matches_mpmath_twin(twin):
    @settings(max_examples=500, derandomize=True, deadline=None,
              database=None)
    @given(st.floats(_kernels.DELTA_LO, _kernels.DELTA_HI),
           _log_uniform(1e-3, 640.0), _log_uniform(1e-12, 0.9),
           _log_uniform(1e-30, 1.0))
    def check(delta, m_a, lam_p_d, p2s_low):
        _check_twin(twin, delta, m_a, lam_p_d, p2s_low)

    check()
