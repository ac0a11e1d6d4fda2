"""Property suite: random raw vectors through `point_from_raw` and
`evaluate_rate`, for the four scenarios under three convention sets.

Every draw either raises ValueError (`RateEvaluationError` included) or
gives a finite rate whose breakdown keeps the orderings the bounds promise.
The draws are derandomized, so the suite is deterministic.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pnp_bb84 import (BoundConventions, OptimizationProblem, Scenario,
                      evaluate_rate, evaluate_rate_finite_limit,
                      point_from_raw)
from pnp_bb84.optimize import RAW_DIM

CONVENTIONS = {
    "default": BoundConventions(),
    "strict": BoundConventions.strict(),
    "variants": BoundConventions(gain_model="without_eta",
                                 window_coverage="half_outside",
                                 decoy_estimator="alternate",
                                 sifting_factor="half"),
}

def draws(scenario):
    n_pulses = (st.floats(6.0, 16.0).map(lambda e: 10.0 ** e)
                if scenario.finite else st.just(math.inf))
    raw = st.lists(st.floats(-8.0, 8.0), min_size=RAW_DIM[scenario],
                   max_size=RAW_DIM[scenario])
    return st.tuples(st.floats(0.0, 150.0), n_pulses, raw)


@pytest.mark.parametrize("conv_name", list(CONVENTIONS))
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_rate_breakdown_invariants(scenario, conv_name):
    conv = CONVENTIONS[conv_name]

    @settings(max_examples=250, derandomize=True, deadline=None,
              database=None)
    @given(draws(scenario))
    def check(draw):
        distance_km, n_pulses, raw = draw
        problem = OptimizationProblem(scenario, distance_km, n_pulses,
                                      conventions=conv)
        point = point_from_raw(problem, raw)
        try:
            bd = evaluate_rate(point, problem.phys, conv)
        except ValueError:
            return
        assert math.isfinite(bd.rate)
        assert bd.q_u_lower <= bd.q_u_upper
        assert 0.0 <= bd.q1u_lower <= bd.q_u_upper
        assert math.isnan(bd.e1u_upper) or bd.e1u_upper >= 0.0
        assert bd.finite_correction >= 0.0
        if scenario.finite:
            limit = evaluate_rate_finite_limit(point, problem.phys, conv)
            # finite-size effects never create a key; below zero the
            # sampled-bit factor 1 - m_e/sifted shrinks a negative rate
            # toward zero, so there the finite rate may exceed the limit
            assert bd.rate <= max(limit.rate, 0.0)

    check()
