"""Reparameterization, multi-start search, grid oracle."""

import functools
import itertools
import math

import numpy as np
import pytest

from pnp_bb84 import (BoundConventions, OptimizationProblem, PhysicalParams,
                      Scenario, _kernels, grid_oracle, maximize,
                      point_from_raw, raw_from_point)
from pnp_bb84 import optimize
from pnp_bb84.optimize import RAW_DIM

PHYS = PhysicalParams()

ALL_SCENARIOS = [
    (Scenario.NO_DECOY_INFINITE, math.inf),
    (Scenario.NO_DECOY_FINITE, 5e10),
    (Scenario.DECOY_INFINITE, math.inf),
    (Scenario.DECOY_FINITE, 5e10),
]


def problem_for(scenario, n_pulses, dist=20.0, seed=0, **kw):
    return OptimizationProblem(scenario=scenario, distance_km=dist,
                               n_pulses=n_pulses, phys=PHYS, seed=seed, **kw)


class TestReparameterization:
    @pytest.mark.parametrize("scenario,n_pulses", ALL_SCENARIOS)
    def test_any_raw_vector_is_feasible(self, scenario, n_pulses):
        problem = problem_for(scenario, n_pulses)
        rng = np.random.default_rng(42)
        for _ in range(300):
            raw = rng.normal(scale=3.0, size=problem.dim)
            point = point_from_raw(problem, raw)
            point.validate(PHYS)  # raises on any violated invariant
            lam = point.lam_s if scenario.uses_decoy else point.lam
            lam_p = lam * PHYS.q_split / (1 - PHYS.q_split)
            m_a = PHYS.m_bright * 10 ** (-PHYS.loss_coeff * 20.0 / 10)
            assert (1 + point.delta) * m_a * lam_p < 1.0

    @pytest.mark.parametrize("scenario,n_pulses", ALL_SCENARIOS)
    def test_round_trip(self, scenario, n_pulses):
        problem = problem_for(scenario, n_pulses)
        rng = np.random.default_rng(7)
        for _ in range(50):
            point = point_from_raw(problem, rng.normal(scale=2.5,
                                                       size=problem.dim))
            again = point_from_raw(problem, raw_from_point(problem, point))
            for name in ("lam", "lam_s", "lam_d", "delta", "m_e", "p_s",
                         "p_d", "p_v"):
                a, b = getattr(point, name), getattr(again, name)
                if a is None:
                    assert b is None
                else:
                    assert b == pytest.approx(a, rel=1e-10)
            if point.budget is not None:
                for c_a, c_b in zip(point.budget.components(),
                                    again.budget.components()):
                    assert c_b == pytest.approx(c_a, rel=1e-10)

    @pytest.mark.parametrize("name", ["DELTA", "U", "RATIO", "MFRAC"])
    def test_range_maps_invert_each_other(self, name):
        # both maps take the same *_LOG pair; inside the logit's 1e-15 clamps
        # the sigmoid map returns what the logit was given
        lo = getattr(_kernels, f"{name}_LO")
        hi = getattr(_kernels, f"{name}_HI")
        log_range = getattr(_kernels, f"{name}_LOG")
        rng = np.random.default_rng(5)
        fracs = [*rng.uniform(1e-9, 1.0 - 1e-9, size=500),
                 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12]
        for s in fracs:
            x = lo * (hi / lo) ** s
            z = optimize._logit_of_logrange(x, log_range)
            assert _kernels.logrange_kernel(z, log_range) == \
                pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("asymptotic,finite", [
        (Scenario.NO_DECOY_INFINITE, Scenario.NO_DECOY_FINITE),
        (Scenario.DECOY_INFINITE, Scenario.DECOY_FINITE),
    ], ids=["no_decoy", "decoy"])
    def test_asymptotic_map_reads_the_layout_prefix(self, asymptotic, finite):
        # one map per source model: at N = inf it reads the head of the
        # finite layout and gives the same floats, with no finite tail
        params = (_kernels.params_decoy if finite.uses_decoy
                  else _kernels.params_no_decoy)
        arr, flags = PHYS.to_array(), BoundConventions().to_flags()
        m_a, eta = _kernels.channel_at(20.0, arr)
        rng = np.random.default_rng(11)
        for _ in range(200):
            raw = rng.normal(scale=3.0, size=RAW_DIM[finite]).tolist()
            *head, none = params(raw[:RAW_DIM[asymptotic]], m_a, eta,
                                 math.inf, arr, flags)
            *full, tail = params(raw, m_a, eta, 5e10, arr, flags)
            assert none is None and tail is not None
            assert head == full

    def test_zero_vector_is_the_interior_default(self):
        problem = problem_for(Scenario.DECOY_FINITE, 5e10)
        point = point_from_raw(problem, np.zeros(problem.dim))
        # simplex weights all equal, scalars at their log-range midpoints
        assert point.p_s == pytest.approx(1 / 3, rel=1e-12)
        assert point.p_d == pytest.approx(1 / 3, rel=1e-12)
        comps = point.budget.components()
        assert all(c == pytest.approx(PHYS.eps_free / 6, rel=1e-12)
                   for c in comps)
        from pnp_bb84._kernels import DELTA_HI, DELTA_LO
        assert point.delta == pytest.approx(math.sqrt(DELTA_LO * DELTA_HI),
                                            rel=1e-12)

    def test_budget_sums_to_free_budget(self):
        problem = problem_for(Scenario.NO_DECOY_FINITE, 1e11)
        rng = np.random.default_rng(3)
        for _ in range(100):
            point = point_from_raw(problem, rng.normal(scale=3.0, size=7))
            assert sum(point.budget.components()) == pytest.approx(
                PHYS.eps_free, rel=1e-12)


class TestProblemValidation:
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("field", ("distance_km", "n_pulses"))
    def test_non_finite_field_rejected(self, field, value):
        kw = dict(scenario=Scenario.DECOY_FINITE, distance_km=20.0,
                  n_pulses=5e10)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            OptimizationProblem(**kw)

    @pytest.mark.parametrize("value", (5e10, math.nan, 0.0))
    @pytest.mark.parametrize("scenario", (Scenario.NO_DECOY_INFINITE,
                                          Scenario.DECOY_INFINITE))
    def test_asymptotic_scenario_rejects_a_pulse_count(self, scenario, value):
        # an asymptotic key has N = inf; any other value would be ignored
        with pytest.raises(ValueError, match="n_pulses"):
            OptimizationProblem(scenario=scenario, distance_km=20.0,
                                n_pulses=value)


@functools.cache
def _maximize_at(scenario, dist, seed):
    return maximize(problem_for(scenario, 5e10, dist=dist, seed=seed))


class TestMaximize:
    def test_seeded_determinism(self):
        a = maximize(problem_for(Scenario.DECOY_FINITE, 5e10, dist=30.0))
        b = maximize(problem_for(Scenario.DECOY_FINITE, 5e10, dist=30.0))
        assert a.best_rate == b.best_rate
        assert a.best_point == b.best_point
        assert a.evaluations == b.evaluations

    def test_result_matches_its_own_point(self):
        from pnp_bb84 import evaluate_rate
        result = maximize(problem_for(Scenario.NO_DECOY_FINITE, 5e10))
        again = evaluate_rate(result.best_point, PHYS,
                              problem_for(Scenario.NO_DECOY_FINITE,
                                          5e10).conventions)
        assert again.rate == pytest.approx(result.best_rate, rel=1e-12)

    def test_sample_count_reported_as_integer(self):
        result = maximize(problem_for(Scenario.NO_DECOY_FINITE, 5e10))
        assert result.best_point.m_e == round(result.best_point.m_e)
        assert result.best_point.m_e >= 1

    def test_warm_start_is_used(self):
        base = maximize(problem_for(Scenario.DECOY_FINITE, 5e10, dist=55.0))
        warmed = maximize(problem_for(
            Scenario.DECOY_FINITE, 5e10, dist=58.0,
            warm_starts=(base.best_point,)))
        assert warmed.best_rate > 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("scenario,dist,best_known", [
        (Scenario.NO_DECOY_FINITE, 20.0, 1.949353e-6),
        (Scenario.DECOY_FINITE, 60.0, 4.231357e-6),
        (Scenario.DECOY_FINITE, 64.0, 2.549001e-7),
    ])
    def test_reaches_best_known_rate(self, scenario, dist, best_known, seed):
        # The first two are the best-known optima over seeds 0-15
        # (perfbench/reference.json).  A simplex that steps the error-budget
        # coordinates by 0.00025 never leaves the equal split and stops at
        # 0.973 and 0.985 of them.  The third, half a kilometre inside the
        # cutoff, is what 16 starts of 600 evaluations per dimension reach on
        # every seed; with an initial step of 0.5 every start ends on the
        # no-key plateau near -1.9e-9 instead.  The seed changes nothing:
        # at no_decoy_finite 20 km, seed 5, a seeded random start once won
        # and, polished, stopped 4e-5 below the first optimum.
        result = _maximize_at(scenario, dist, seed)
        assert result.best_rate >= 0.9999 * best_known
        seed_0 = _maximize_at(scenario, dist, 0)
        assert (result.best_rate, result.best_raw, result.evaluations) == \
            (seed_0.best_rate, seed_0.best_raw, seed_0.evaluations)

    def test_reaches_the_heuristic_basin_optimum_at_0km(self):
        # a random start once won here and stopped 4.8e-7 below it
        result = maximize(problem_for(Scenario.NO_DECOY_FINITE, 1e12,
                                      dist=0.0))
        assert result.best_rate >= 1.3778008856743935e-04 * (1 - 1e-12)

    def test_signal_probability_dominates_for_huge_pulse_counts(self):
        # with quasi-infinite statistics almost every pulse should be signal
        result = maximize(problem_for(Scenario.DECOY_FINITE, 1e16))
        assert result.best_point.p_s > 0.9

    def test_rate_non_decreasing_in_pulse_count(self):
        rates = [maximize(problem_for(Scenario.NO_DECOY_FINITE, na,
                                      dist=15.0)).best_rate
                 for na in (1e10, 1e11, 1e12)]
        for a, b in zip(rates, rates[1:]):
            assert b >= a * 0.98  # optimizer tolerance

    def test_no_decoy_infinite_rate_scale_at_20km(self):
        # the asymptotic no-decoy optimum at 20 km sits at a few 1e-5
        result = maximize(problem_for(Scenario.NO_DECOY_INFINITE, math.inf))
        assert 5e-6 < result.best_rate < 1e-4


class TestTarget:
    """`maximize(problem, target=t)` stops at the first reported point with a
    rate above ``t``; a search that never gets there is the untargeted one."""

    def test_no_key_point_runs_the_full_search(self):
        problem = problem_for(Scenario.DECOY_FINITE, 5e10, dist=70.0)
        full = maximize(problem)
        targeted = maximize(problem, target=1e-9)
        assert full.best_rate <= 0.0
        assert (targeted.best_raw, targeted.best_rate, targeted.evaluations,
                targeted.converged) == (full.best_raw, full.best_rate,
                                        full.evaluations, full.converged)

    def test_unreachable_target_runs_the_full_search(self):
        problem = problem_for(Scenario.NO_DECOY_INFINITE, math.inf)
        full = maximize(problem)
        targeted = maximize(problem, target=1.0)
        assert (targeted.best_raw, targeted.best_rate, targeted.evaluations,
                targeted.best_point) == (full.best_raw, full.best_rate,
                                         full.evaluations, full.best_point)

    @pytest.mark.parametrize("scenario,dist,n_pulses,target", [
        (Scenario.NO_DECOY_INFINITE, 20.0, math.inf, 1e-9),
        (Scenario.NO_DECOY_FINITE, 20.0, 5e10, 1e-9),
        (Scenario.DECOY_INFINITE, 60.0, math.inf, 1e-9),
        (Scenario.DECOY_FINITE, 60.0, 5e10, 1e-9),
        # just below the optimum, 2.549e-7, half a kilometre inside the cutoff
        (Scenario.DECOY_FINITE, 64.0, 5e10, 2.5e-7),
    ])
    def test_key_point_stops_at_a_reported_rate_above_the_target(
            self, scenario, dist, n_pulses, target):
        from pnp_bb84 import evaluate_rate

        problem = problem_for(scenario, n_pulses, dist=dist)
        full = maximize(problem)
        targeted = maximize(problem, target=target)
        assert targeted.best_rate > target
        assert not targeted.converged
        assert targeted.evaluations < full.evaluations
        # the rate is that of the reported point, m_e rounded
        if scenario.finite:
            assert targeted.best_point.m_e == round(targeted.best_point.m_e)
        assert evaluate_rate(targeted.best_point, PHYS,
                             problem.conventions).rate == targeted.best_rate
        assert point_from_raw(problem, targeted.best_raw).delta == \
            targeted.best_point.delta


class TestNoKeyPolish:
    """Only a best end with a key is polished; without one the result is
    the best start's end, with that start's own ``converged`` flag."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every `_nelder_mead` call's budget and return value."""
        runs = []
        real = optimize._nelder_mead

        def spy(f, x0, maxfev):
            out = real(f, x0, maxfev)
            runs.append((maxfev, out))
            return out

        monkeypatch.setattr(optimize, "_nelder_mead", spy)
        return runs

    @pytest.mark.parametrize("warm_km", [None, 64.0], ids=["cold", "warm"])
    def test_no_key_point_runs_only_its_starts(self, runs, warm_km):
        # 70 km lies past the 5e10 cutoff (64.49 km); the warm start is the
        # optimum inside it, with a key, as in a bisection of find_lmax
        warm = () if warm_km is None else (maximize(problem_for(
            Scenario.DECOY_FINITE, 5e10, dist=warm_km)).best_point,)
        runs.clear()
        result = maximize(problem_for(Scenario.DECOY_FINITE, 5e10, dist=70.0,
                                      warm_starts=warm))
        assert result.best_rate <= 0.0
        assert len(runs) == 1 + len(warm)
        assert all(maxfev == optimize._MAX_EVALS for maxfev, _ in runs)
        assert result.evaluations == sum(out[2] for _, out in runs)
        # the result is the winning start's end, with its flag
        winner, = [out for _, out in runs
                   if tuple(out[0]) == result.best_raw]
        assert result.converged is winner[3]

    def test_key_point_is_polished(self, runs):
        result = maximize(problem_for(Scenario.DECOY_FINITE, 5e10, dist=60.0))
        assert result.best_rate > 0.0
        polish = [out for maxfev, out in runs
                  if maxfev == 2 * optimize._MAX_EVALS]
        assert len(runs) == 1 + len(polish) and polish
        assert result.evaluations == sum(out[2] for _, out in runs)
        assert result.converged is polish[-1][3]


class TestGridOracle:
    def test_resolution_one_is_the_midpoint(self):
        problem = problem_for(Scenario.NO_DECOY_INFINITE, math.inf)
        result = grid_oracle(problem, 1)
        from pnp_bb84._kernels import DELTA_HI, DELTA_LO
        assert result.best_point.delta == pytest.approx(
            math.sqrt(DELTA_LO * DELTA_HI), rel=1e-12)
        assert result.evaluations == 1

    def test_nested_refinement_is_monotone(self):
        problem = problem_for(Scenario.NO_DECOY_INFINITE, math.inf)
        coarse = grid_oracle(problem, 41)
        fine = grid_oracle(problem, 81)  # 2k-1 points nest the k-point grid
        assert fine.best_rate >= coarse.best_rate - 1e-15

    @pytest.mark.parametrize("dist", [10.0, 20.0, 30.0])
    def test_search_agrees_with_oracle_no_decoy(self, dist):
        problem = problem_for(Scenario.NO_DECOY_INFINITE, math.inf, dist=dist)
        searched = maximize(problem)
        gridded = grid_oracle(problem, 200)
        assert abs(searched.best_rate - gridded.best_rate) <= \
            0.02 * abs(gridded.best_rate)

    @pytest.mark.parametrize("dist", [10.0, 20.0, 30.0])
    def test_search_agrees_with_oracle_decoy(self, dist):
        problem = problem_for(Scenario.DECOY_INFINITE, math.inf, dist=dist)
        searched = maximize(problem)
        gridded = grid_oracle(problem, 56)
        assert searched.best_rate >= gridded.best_rate * 0.98

    def test_only_infinite_scenarios(self):
        with pytest.raises(ValueError):
            grid_oracle(problem_for(Scenario.NO_DECOY_FINITE, 5e10), 10)

    @pytest.mark.parametrize("scenario,largest", [
        (Scenario.NO_DECOY_INFINITE, 10000), (Scenario.DECOY_INFINITE, 464)])
    def test_cell_count_is_capped_before_any_axis(self, monkeypatch,
                                                  scenario, largest):
        # no grid is built: reaching an axis proves the cap let it through
        class AxisBuilt(Exception):
            pass

        def axis(*args):
            raise AxisBuilt

        monkeypatch.setattr(optimize, "_grid_axis", axis)
        problem = problem_for(scenario, math.inf)
        with pytest.raises(ValueError, match="cells, more than 100000000"):
            grid_oracle(problem, largest + 1)
        with pytest.raises(AxisBuilt):
            grid_oracle(problem, largest)


def _brute_force_best(rate_at, axes):
    """Best status-ok rate over every cell of ``axes``, and the first cell
    (row-major) that attains it, found by listing the whole grid."""
    ok = []
    for cell in itertools.product(*(range(len(axis)) for axis in axes)):
        res = rate_at(*(axis[i] for axis, i in zip(axes, cell)))
        if res[0] == _kernels.STATUS_OK:
            ok.append((cell, res[1]))
    best = max(rate for _, rate in ok)
    return best, next(cell for cell, rate in ok if rate == best)


GRID_KM = (0.0, 20.0, 60.0, 150.0)
# every flag the asymptotic kernels read, at both or all three settings
NO_DECOY_CONVENTIONS = [
    BoundConventions(gain_model=g, window_coverage=w, single_photon_mass=s)
    for g in ("with_eta", "without_eta")
    for w in ("half_inside", "half_outside")
    for s in ("mixed", "strict")]
DECOY_CONVENTIONS = [
    BoundConventions(gain_model=g, window_coverage=w, decoy_estimator=d)
    for g in ("with_eta", "without_eta")
    for w in ("half_inside", "half_outside")
    for d in ("paired", "alternate", "strict")]


class TestGridKernels:
    """The grid kernels behind `grid_oracle` against a brute-force maximum
    over the rate kernels on the same axes (axes of unequal length, so a
    swapped index shows)."""

    @staticmethod
    def _channel(dist):
        arr = PHYS.to_array()
        return (*_kernels.channel_at(dist, arr), arr)

    @pytest.mark.parametrize("conventions", NO_DECOY_CONVENTIONS)
    @pytest.mark.parametrize("dist", GRID_KM)
    def test_no_decoy_grid_is_the_brute_force_best(self, dist, conventions):
        m_a, eta, arr = self._channel(dist)
        flags = conventions.to_flags()
        axes = [optimize._grid_axis(_kernels.DELTA_LO, _kernels.DELTA_HI, 14),
                optimize._grid_axis(_kernels.U_LO, _kernels.U_HI, 12)]

        def rate_at(delta, u):
            lam = u * _kernels.lambda_cap_kernel(delta, m_a, PHYS.q_split)
            return _kernels.rate_no_decoy(m_a, eta, lam, delta, arr, flags)

        best, *cell = _kernels.grid_no_decoy_infinite(m_a, eta, *axes, arr,
                                                      flags)
        assert (best, tuple(cell)) == _brute_force_best(rate_at, axes)

    @pytest.mark.parametrize("conventions", DECOY_CONVENTIONS)
    @pytest.mark.parametrize("dist", GRID_KM)
    def test_decoy_grid_is_the_brute_force_best(self, dist, conventions):
        m_a, eta, arr = self._channel(dist)
        flags = conventions.to_flags()
        axes = [optimize._grid_axis(_kernels.DELTA_LO, _kernels.DELTA_HI, 14),
                optimize._grid_axis(_kernels.U_LO, _kernels.U_HI, 12),
                optimize._grid_axis(_kernels.RATIO_LO, _kernels.RATIO_HI, 10)]

        def rate_at(delta, u, ratio):
            lam_s = u * _kernels.lambda_cap_kernel(delta, m_a, PHYS.q_split)
            return _kernels.rate_decoy(m_a, eta, lam_s, lam_s * ratio, delta,
                                       arr, flags)

        best, *cell = _kernels.grid_decoy_infinite(m_a, eta, *axes, arr,
                                                   flags)
        assert (best, tuple(cell)) == _brute_force_best(rate_at, axes)
