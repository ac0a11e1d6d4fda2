"""The in-package Nelder-Mead must take scipy's steps exactly.

`optimize._nelder_mead` is a port of scipy's Nelder-Mead with the options
`maximize` uses.  Each case runs both on the same objective, scipy with an
``initial_simplex`` built by the port's ``x0[k] + step`` arithmetic, and
requires the same final vertex, value, evaluation count and success flag,
compared with ``==``: a single reordered float operation or a different
vertex order after a tie shows up as a mismatch.  scipy runs with
``np.argsort`` made stable, the port's tie rule; numpy's default sort
breaks ties by a SIMD path that depends on the CPU.
"""

import functools
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import minimize

from pnp_bb84 import OptimizationProblem, Scenario
from pnp_bb84.optimize import _INITIAL_STEP, _nelder_mead, _objective_fn


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def initial_simplex(x0):
    x0 = [float(v) for v in x0]
    sim = [list(x0)]
    for k in range(len(x0)):
        y = list(x0)
        y[k] = x0[k] + _INITIAL_STEP
        sim.append(y)
    return np.array(sim)


_STABLE_ARGSORT = functools.partial(np.argsort, kind="stable")


def assert_matches_scipy(f, x0, maxfev):
    with warnings.catch_warnings(), \
            mock.patch.object(np, "argsort", _STABLE_ARGSORT):
        # inf - inf in scipy's convergence test when the budget is tiny
        warnings.simplefilter("ignore", RuntimeWarning)
        want = minimize(f, np.array(x0, dtype=float), method="Nelder-Mead",
                        options=dict(maxfev=maxfev, xatol=1e-6, fatol=1e-11,
                                     initial_simplex=initial_simplex(x0)))
    x, fun, nfev, success = _nelder_mead(lambda z: f(np.array(z)), x0, maxfev)
    assert x == want.x.tolist()
    assert _same(fun, float(want.fun))
    assert nfev == want.nfev
    assert success == want.success
    return success


def quadratic(n, seed):
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=n)
    scale = rng.uniform(0.5, 4.0, size=n)
    return lambda x: float(np.sum(scale * (x - centre) ** 2))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_quadratic_from_random_starts(n):
    rng = np.random.default_rng(n)
    for seed in range(4):
        x0 = rng.normal(scale=2.0, size=n).tolist()
        assert_matches_scipy(quadratic(n, seed), x0, 600 * n)


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_rosenbrock_runs_out_of_budget(n):
    assert not assert_matches_scipy(rosenbrock, [-1.2] * n, 100)


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_start_with_zero_coordinates(n):
    # scipy's default rule would step a zero coordinate by 0.00025 and a
    # nonzero one by 5%; the port steps every coordinate by the same amount
    x0 = [0.0 if k % 2 else 0.7 for k in range(n)]
    assert_matches_scipy(quadratic(n, 11), x0, 600 * n)
    assert_matches_scipy(quadratic(n, 12), [0.0] * n, 600 * n)


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_step_is_absolute(n):
    # starts where 5% of a coordinate is far from the absolute step: all
    # zeros, large coordinates, and the corners of the random-start box
    q = quadratic(n, 51)
    for x0 in ([0.0] * n, [1e3 * (-1) ** k for k in range(n)],
               [3.0] * n, [-3.0] * n, [3.0 * (-1) ** k for k in range(n)]):
        assert_matches_scipy(q, x0, 600 * n)
    seen = []
    _nelder_mead(lambda z: seen.append(list(z)) or q(np.array(z)),
                 [0.0] * n, n + 1)
    assert seen == np.vstack([np.zeros(n), _INITIAL_STEP * np.eye(n)]).tolist()


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_plateau_objective_with_tied_values(n):
    # floored to a grid, so vertices share values and the order after each
    # step comes from the tie-breaking of the sort
    q = quadratic(n, 21)
    floored = lambda x: math.floor(q(x) * 4.0) / 4.0
    flat_axis = lambda x: q(np.concatenate([x[:1], np.clip(x[1:], -0.2, 0.2)]))
    rng = np.random.default_rng(5)
    for _ in range(3):
        x0 = rng.normal(scale=2.0, size=n).tolist()
        assert_matches_scipy(floored, x0, 600 * n)
        assert_matches_scipy(flat_axis, x0, 600 * n)


def test_tie_rule_makes_no_numpy_call():
    # a quadratic floored to integers: most values the driver sees repeat
    # one it has seen, so ties decide much of the vertex order, which the
    # driver must find without numpy's CPU-dependent sort
    for n in (2, 3, 7, 13):
        q = quadratic(n, 81)
        floored = lambda x: math.floor(q(x))
        seen = []
        with mock.patch.object(np, "argsort", side_effect=AssertionError):
            _nelder_mead(lambda z: seen.append(floored(np.array(z))) or
                         seen[-1], [1.5] * n, 600 * n)
        assert len(set(seen)) < len(seen) / 2
        assert_matches_scipy(floored, [1.5] * n, 600 * n)


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_objective_with_a_nan_region(n):
    q = quadratic(n, 31)
    holed = lambda x: math.nan if x[0] > 0.6 else q(x)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x0 = rng.normal(scale=1.0, size=n).tolist()
        x0[0] = -abs(x0[0])
        assert_matches_scipy(holed, x0, 600 * n)
    # a start inside the region: nan vertices from the first step
    assert_matches_scipy(holed, [1.0] * n, 200)


@pytest.mark.parametrize("n", [2, 3, 7, 13])
def test_every_budget_up_to_sixty(n):
    # the budget runs out in the initial simplex, in a reflection,
    # expansion or contraction, and part-way through a shrink
    q = quadratic(n, 41)
    floored = lambda x: math.floor(q(x) * 2.0) / 2.0
    for maxfev in range(n + 1, 61):
        assert_matches_scipy(q, [1.5] * n, maxfev)
        assert_matches_scipy(floored, [1.5] * n, maxfev)
        assert_matches_scipy(rosenbrock, [-1.2] * n, maxfev)


@pytest.mark.parametrize("scenario,n_pulses", [
    (Scenario.NO_DECOY_INFINITE, math.inf),
    (Scenario.DECOY_FINITE, 5e10),
])
def test_rate_objective_with_penalty_plateaus(scenario, n_pulses):
    # infeasible raw vectors all score the same penalty
    problem = OptimizationProblem(scenario=scenario, distance_km=60.0,
                                  n_pulses=n_pulses)
    rate = _objective_fn(problem)
    neg = lambda x: -rate(x.tolist())
    rng = np.random.default_rng(2)
    for _ in range(3):
        x0 = rng.uniform(-3.0, 3.0, size=problem.dim).tolist()
        assert_matches_scipy(neg, x0, 300 * problem.dim)


def _reference_step(sim):
    # a plain loop: the vertices 0..n-1 added left to right, then / n, then
    # the reflection of the last vertex
    n = len(sim) - 1
    xbar = []
    for j in range(n):
        total = sim[0][j]
        for vertex in sim[1:n]:
            total = total + vertex[j]
        xbar.append(total / n)
    return xbar, [2.0 * c - w for c, w in zip(xbar, sim[n])]


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308 / 3, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e308, -1e308, 0.1, 1.0, -1.0, 1e-16]


@pytest.mark.parametrize("n", range(1, 14))
def test_generated_step_is_the_reference_loop_bit_for_bit(n):
    from pnp_bb84.optimize import _step_fn

    rng = random.Random(n)
    draw = lambda: (rng.choice(_SPECIAL) if rng.random() < 0.4
                    else rng.choice([1.0, 1e-8, 1e300]) * rng.uniform(-1, 1))
    sims = [[[draw() for _ in range(n)] for _ in range(n + 1)]
            for _ in range(300)]
    # sums that round away from the exact sum or overflow on the way, and
    # a sum of -0.0, which keeps its sign
    sims += [[[0.1] * n for _ in range(n + 1)],
             [[(1.0, 1e-16)[i % 2]] * n for i in range(n + 1)],
             [[(1e308, -1e308, 1e308)[i % 3]] * n for i in range(n + 1)],
             [[-0.0] * n for _ in range(n + 1)]]
    step = _step_fn(n)
    for sim in sims:
        got, want = step(sim), _reference_step(sim)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            # float.hex tells -0.0 from 0.0 and prints every nan as "nan"
            assert g.hex() == w.hex(), (sim, got, want)


# the comprehensions the generated moves stand for, in the same float order
_REFERENCE_MOVES = {
    "expand": lambda c, w: [3.0 * a - 2.0 * b for a, b in zip(c, w)],
    "outside": lambda c, w: [1.5 * a - 0.5 * b for a, b in zip(c, w)],
    "inside": lambda c, w: [0.5 * a + 0.5 * b for a, b in zip(c, w)],
    "shrink": lambda s0, s: [a + 0.5 * (b - a) for a, b in zip(s0, s)],
}


@pytest.mark.parametrize("n", range(1, 14))
def test_generated_moves_are_the_reference_comprehensions_bit_for_bit(n):
    from pnp_bb84.optimize import _step_fn

    rng = random.Random(100 + n)
    draw = lambda: (rng.choice(_SPECIAL) if rng.random() < 0.4
                    else rng.choice([1.0, 1e-8, 1e300]) * rng.uniform(-1, 1))
    pairs = [([draw() for _ in range(n)], [draw() for _ in range(n)])
             for _ in range(300)]
    # differences and sums that overflow, and signed zeros
    pairs += [([1e308] * n, [-1e308] * n), ([-1e308] * n, [1e308] * n),
              ([-0.0] * n, [-0.0] * n), ([0.0] * n, [-0.0] * n)]
    moves = {f.__name__: f for f in _step_fn(n).moves}
    assert moves.keys() == _REFERENCE_MOVES.keys()
    for name, reference in _REFERENCE_MOVES.items():
        for a, b in pairs:
            got, want = moves[name](a, b), reference(a, b)
            assert len(got) == n
            assert [g.hex() for g in got] == [w.hex() for w in want], (
                name, a, b, got, want)
