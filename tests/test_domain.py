"""Input domain of every public entry point that takes a number.

Each entry point, fed nan, +inf, -inf or one finite value outside its
domain, raises ValueError before any arithmetic: config files and CLI flags
raise ConfigError, which the CLI reports as one ``error:`` line with exit
code 1.  Where inf is a documented limit (a deviation from m = inf samples,
the finite-key penalty at n = inf, a pulse count of inf) it stays accepted.
"""

import math

import numpy as np
import pytest

from pnp_bb84 import (BoundConventions, EmptyRawKeyError, ErrorBudget,
                      InfeasibleProblemError, OptimizationProblem,
                      PhysicalParams, ProtocolPoint, Scenario, SourceConfig,
                      binary_entropy, channel_transmittance, e1u_upper_decoy,
                      evaluate_rate, evaluate_rate_finite_limit,
                      figure_datasets, find_lmax, find_na_threshold,
                      finite_correction_delta, gain_and_qber, grid_oracle,
                      log_binomial_coeff, maximize, photon_bound_lower,
                      photon_bound_upper, point_from_raw, q1u_lower_decoy,
                      q1u_lower_no_decoy, raw_from_point,
                      scan_distance, solve_lmax_profile,
                      statistical_deviation, untagged_bounds,
                      untagged_probability_finite,
                      untagged_probability_infinite)
from pnp_bb84 import scans
from pnp_bb84.cli import main
from pnp_bb84.config import ConfigError, RunConfig, parse_config
from pnp_bb84.numerics import BINOMIAL_UPPER_MAX, M_BRIGHT_MAX
from pnp_bb84.rates import budget_fields

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an int no float holds: the float arithmetic overflows on it
PHYS = PhysicalParams()
CONV = BoundConventions()
ND_INF, ND_FIN = Scenario.NO_DECOY_INFINITE, Scenario.NO_DECOY_FINITE
D_INF, D_FIN = Scenario.DECOY_INFINITE, Scenario.DECOY_FINITE


def source(**kw):
    fields = dict(m_bright=1e6, q_split=0.01, loss_coeff=0.21,
                  distance_km=60.0, delta=0.023, lam=6.6e-4)
    fields.update(kw)
    return SourceConfig(**fields)


def point(scenario, **kw):
    """A point of ``scenario`` at which `evaluate_rate` succeeds."""
    fields = dict(scenario=scenario, distance_km=20.0, delta=9e-3)
    if scenario.uses_decoy:
        fields.update(lam_s=6.6e-4, lam_d=1.0e-4)
    else:
        fields.update(lam=2.5e-6)
    if scenario.finite:
        fields.update(n_pulses=5e10, m_e=7.6e5,
                      budget=ErrorBudget.equal_split(scenario, PHYS))
        if scenario.uses_decoy:
            fields.update(p_s=0.41, p_d=0.58, p_v=0.01)
    fields.update(kw)
    return ProtocolPoint(**fields)


def problem(scenario=ND_FIN, **kw):
    n_pulses = 5e10 if scenario.finite else INF
    return OptimizationProblem(**{"scenario": scenario, "distance_km": 20.0,
                                  "n_pulses": n_pulses, **kw})


def no_rate(distance_km):
    raise AssertionError("the range check must come before any rate")


def cases(name, call, out_of_range, inf_ok=False):
    """nan, -inf, ``out_of_range`` (one value or a tuple of them) and,
    unless inf is a documented limit, +inf, each passed to ``call``."""
    if not isinstance(out_of_range, tuple):
        out_of_range = (out_of_range,)
    values = [NAN, -INF, *out_of_range] + ([] if inf_ok else [INF])
    return [pytest.param(call, value, id=f"{name}="
                         + ("10**400" if value == HUGE else repr(value)))
            for value in values]


PHYS_FIELDS = {"eta_bob": 0.0, "loss_coeff": -0.1, "y0": 1.5, "e_det": -0.1,
               "e0": 1.5, "e0_vac": 1.5, "f_ec": 0.9,
               # above about 2.556e305 math.lgamma overflows
               "m_bright": (0.0, 1e307),
               "q_split": 1.0, "eps_total": 1.0, "eps_ec": 1e-9}
SOURCE_FIELDS = {"m_bright": (0.0, 1e307), "q_split": 0.0, "loss_coeff": -0.1,
                 "distance_km": -1.0, "delta": 2.0, "lam": 1.5}
POINT_FIELDS = [(ND_INF, "distance_km", (-1.0, HUGE)),
                (ND_INF, "delta", 1.0), (ND_INF, "lam", 0.0),
                (D_INF, "lam_s", 1.5), (D_INF, "lam_d", 0.0),
                (ND_FIN, "n_pulses", (0.0, HUGE)),
                (ND_FIN, "m_e", (0.0, HUGE)), (D_FIN, "p_s", 0.0),
                (D_FIN, "p_d", 1.5), (D_FIN, "p_v", 0.0)]
BUDGET_FIELDS = [(ND_FIN, "eps_pa"), (ND_FIN, "eps_u"), (ND_FIN, "eps_e"),
                 (D_FIN, "eps_bar"), (D_FIN, "eps_u_s"), (D_FIN, "eps_u_d"),
                 (D_FIN, "eps_u_v"), (D_FIN, "eps_e_s")]
EPS = 1e-10

PYTHON_API = [
    *cases("binary_entropy", binary_entropy, 1.5),
    *cases("statistical_deviation.epsilon",
           lambda v: statistical_deviation(v, 1e6), 1.0),
    *cases("statistical_deviation.m",
           lambda v: statistical_deviation(1e-9, v), 0.0, inf_ok=True),
    *cases("log_binomial_coeff.upper", lambda v: log_binomial_coeff(v, 1),
           (-1.0, 1e308)),
    *cases("log_binomial_coeff.n", lambda v: log_binomial_coeff(5.0, v),
           -1.0),
    *cases("channel_transmittance.eta_bob",
           lambda v: channel_transmittance(v, 0.21, 10.0), 0.0),
    *cases("channel_transmittance.loss_coeff",
           lambda v: channel_transmittance(0.045, v, 10.0), -1.0),
    *cases("channel_transmittance.distance_km",
           lambda v: channel_transmittance(0.045, 0.21, v), -1.0),
    *cases("gain_and_qber.mu", lambda v: gain_and_qber(v, 0.01, PHYS), -0.1),
    *cases("gain_and_qber.eta", lambda v: gain_and_qber(0.1, v, PHYS), 1.5),
    *cases("untagged_bounds.x", lambda v: untagged_bounds(v, 0.5), 1.5),
    *cases("untagged_bounds.p_u_lower", lambda v: untagged_bounds(0.1, v),
           1.5),
    *cases("q1u_lower_no_decoy.q_u_lower",
           lambda v: q1u_lower_no_decoy(v, 0.1, 0.1), -0.1),
    *cases("q1u_lower_no_decoy.p0",
           lambda v: q1u_lower_no_decoy(0.1, v, 0.1), 1.5),
    *cases("q1u_lower_no_decoy.p1",
           lambda v: q1u_lower_no_decoy(0.1, 0.1, v), -0.1),
    *cases("q1u_lower_decoy.q_u_s_upper", lambda v: q1u_lower_decoy(
        v, 1e-4, 1e-6, source(), source(lam=1e-4)), -0.1),
    *cases("q1u_lower_decoy.q_u_d_lower", lambda v: q1u_lower_decoy(
        1e-3, v, 1e-6, source(), source(lam=1e-4)), 1.5),
    *cases("q1u_lower_decoy.q_u_v_upper", lambda v: q1u_lower_decoy(
        1e-3, 1e-4, v, source(), source(lam=1e-4)), -0.1),
    *cases("e1u_upper_decoy.eq_u_s_upper",
           lambda v: e1u_upper_decoy(v, 0.1, 0.1, 0.1), -0.1),
    *cases("e1u_upper_decoy.p0_s_lower",
           lambda v: e1u_upper_decoy(0.1, v, 0.1, 0.1), 1.5),
    *cases("e1u_upper_decoy.eq_u_v_lower",
           lambda v: e1u_upper_decoy(0.1, 0.1, v, 0.1), 1.5),
    *cases("e1u_upper_decoy.q1u_s_lower",
           lambda v: e1u_upper_decoy(0.1, 0.1, 0.1, v), -0.1),
    *cases("finite_correction_delta.n",
           lambda v: finite_correction_delta(v, EPS, EPS, EPS), 0.0,
           inf_ok=True),
    *cases("finite_correction_delta.eps_pe",
           lambda v: finite_correction_delta(1e6, v, EPS, EPS), 1.0),
    *cases("finite_correction_delta.eps_bar",
           lambda v: finite_correction_delta(1e6, EPS, v, EPS), 0.0),
    *cases("finite_correction_delta.eps_pa",
           lambda v: finite_correction_delta(1e6, EPS, EPS, v), 1.0),
    *[c for name, bad in PHYS_FIELDS.items()
      for c in cases(f"PhysicalParams.{name}",
                     lambda v, name=name: PhysicalParams(**{name: v}), bad)],
    *[c for name, bad in SOURCE_FIELDS.items()
      for c in cases(f"SourceConfig.{name}",
                     lambda v, name=name: source(**{name: v}), bad)],
    *cases("photon_bound_upper.n", lambda v: photon_bound_upper(source(), v),
           (-1.0, 0.5, 1e-300)),
    *cases("photon_bound_lower.n", lambda v: photon_bound_lower(source(), v),
           (-1.0, 0.5, 1e-300)),
    *cases("untagged_probability_finite.epsilon_u",
           lambda v: untagged_probability_finite(source(), v, 1e10), 1.0),
    *cases("untagged_probability_finite.n_pulses",
           lambda v: untagged_probability_finite(source(), EPS, v), 0.0,
           inf_ok=True),
    *[c for sc, name, bad in POINT_FIELDS
      for c in cases(f"evaluate_rate.{sc.value}.{name}",
                     lambda v, sc=sc, name=name: evaluate_rate(
                         point(sc, **{name: v}), PHYS, CONV), bad)],
    *[c for sc, name in BUDGET_FIELDS
      for c in cases(f"ErrorBudget.{sc.value}.{name}",
                     lambda v, sc=sc, name=name: evaluate_rate(point(
                         sc, budget=ErrorBudget.of(sc, [
                             v if n == name else EPS
                             for n in budget_fields(sc)])), PHYS, CONV),
                     1.0)],
    *cases("evaluate_rate_finite_limit.delta",
           lambda v: evaluate_rate_finite_limit(point(ND_FIN, delta=v), PHYS,
                                                CONV), 1.0),
    *cases("raw_from_point.delta",
           lambda v: raw_from_point(problem(), point(ND_FIN, delta=v)), 0.0),
    *cases("OptimizationProblem.distance_km",
           lambda v: problem(distance_km=v), (-1.0, HUGE)),
    *cases("OptimizationProblem.n_pulses", lambda v: problem(n_pulses=v),
           (0.0, HUGE)),
    *cases("OptimizationProblem.seed", lambda v: problem(seed=v), -1),
    *cases("maximize.target", lambda v: maximize(problem(), target=v),
           -2e6),
    *cases("grid_oracle.resolution",
           lambda v: grid_oracle(problem(ND_INF), v), 0),
    *cases("scan_distance.l_grid",
           lambda v: scan_distance(ND_INF, INF, [0.0, v]), (-1.0, HUGE)),
    *cases("scan_distance.n_pulses",
           lambda v: scan_distance(ND_FIN, v, [0.0]), (0.0, HUGE)),
    *cases("solve_lmax_profile.rate_threshold",
           lambda v: solve_lmax_profile(no_rate, v), -1e-9),
    *cases("find_lmax.rate_threshold",
           lambda v: find_lmax(D_INF, INF, rate_threshold=v), -1e-9),
    *cases("find_lmax.n_pulses", lambda v: find_lmax(ND_FIN, v),
           (0.0, HUGE)),
    *cases("find_na_threshold.rate_threshold",
           lambda v: find_na_threshold(ND_FIN, rate_threshold=v), -1e-9),
]

# figure_datasets, which also needs a directory to write to
FIGURE_CASES = [
    *cases("threshold", lambda v, out: figure_datasets(
        "fig3", out, na_list=[5e10], threshold=v), -1e-9),
    *cases("na_list", lambda v, out: figure_datasets(
        "fig5", out, na_list=[5e10, v], l_grid=[0.0]), (0.0, HUGE)),
    *cases("l_grid", lambda v, out: figure_datasets(
        "fig2", out, na_list=[5e10], l_grid=[0.0, v]), -1.0),
    pytest.param(lambda v, out: figure_datasets("fig5", out, na_list=v,
                                                l_grid=[0.0]),
                 [], id="na_list=[]"),
    # arguments the figure does not read, at values it would accept
    *(pytest.param(lambda v, out, fig=fig: figure_datasets(
        fig, out, na_list=[5e10], l_grid=[0.0], threshold=v),
        1e-9, id=f"{fig}-threshold") for fig in ("fig2", "fig5")),
    pytest.param(lambda v, out: figure_datasets("fig3", out, na_list=[5e10],
                                                l_grid=v),
                 [0.0], id="fig3-l_grid"),
]


@pytest.fixture
def no_search(monkeypatch):
    """Fail any test that reaches the optimizer."""
    def refuse(problem, target=None):
        raise AssertionError("the range check must come before any search")
    monkeypatch.setattr(scans, "maximize", refuse)


@pytest.mark.parametrize("call,value", PYTHON_API)
def test_python_entry_point_rejects(call, value, no_search):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call,value", FIGURE_CASES)
def test_figure_datasets_rejects(call, value, no_search, tmp_path):
    with pytest.raises(ValueError):
        call(value, tmp_path)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_problem_past_attenuation_underflow_is_infeasible(scenario):
    # m_a and eta are 0.0 at 16000 km; the heuristic start and the
    # parameter maps would divide by them
    with pytest.raises(InfeasibleProblemError, match="underflows"):
        problem(scenario, distance_km=16000.0)
    problem(scenario, distance_km=15000.0)


@pytest.mark.parametrize("index", [0, 12])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_point_from_raw_rejects_a_non_finite_coordinate(index, value):
    # the parameter maps pass nan through to delta; only evaluating the
    # point would catch it
    raw = [0.0] * 13
    raw[index] = value
    with pytest.raises(ValueError, match="finite"):
        point_from_raw(problem(D_FIN), raw)


@pytest.mark.parametrize("raw", [
    [0.0] * 12, [0.0] * 14, [[0.0]] * 13, [0.0] * 12 + ["0.5"],
    [0.0] * 12 + [None]],
    ids=["too-short", "too-long", "nested", "numeric-text", "none"])
def test_point_from_raw_rejects_a_malformed_vector(raw):
    with pytest.raises(ValueError, match="raw vector"):
        point_from_raw(problem(D_FIN), raw)


def test_point_from_raw_takes_any_sequence_of_numbers():
    raw = [0.3, -1.2, 0.7, -0.1, 0.4, 0.2, -2.0, 0.0, 1.0, -1.0, 0.5, 3.0,
           -0.3]
    want = point_from_raw(problem(D_FIN), raw)
    assert point_from_raw(problem(D_FIN), tuple(raw)) == want
    assert point_from_raw(problem(D_FIN), np.array(raw)) == want


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_zero_gain_is_an_empty_raw_key(scenario):
    # with y0 = 0 the signal gain underflows to 0 beyond about 7,800 km,
    # well inside the 15,350 km attenuation underflow
    # (finite keys are checked at N = inf, where no fluctuation fails first)
    phys = PhysicalParams(y0=0.0)
    evaluate = (evaluate_rate_finite_limit if scenario.finite
                else evaluate_rate)
    with pytest.raises(EmptyRawKeyError):
        evaluate(point(scenario, distance_km=10000.0), phys, CONV)
    with pytest.raises(InfeasibleProblemError, match="no feasible point"):
        maximize(problem(scenario, distance_km=10000.0, phys=phys))


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_brightest_accepted_source_is_searched_without_overflow(scenario):
    # every window edge (1 + delta) m_a lies below 2 m_bright, where
    # math.lgamma is still finite: it overflows above about 2.556e305
    phys = PhysicalParams(m_bright=M_BRIGHT_MAX)
    result = maximize(problem(scenario, distance_km=0.0, phys=phys))
    assert math.isfinite(result.best_rate)


def test_brightness_caps_stay_accepted():
    cfg = source(m_bright=M_BRIGHT_MAX, distance_km=0.0, delta=0.5,
                 lam=1e-310)
    assert 0.0 <= photon_bound_upper(cfg, 1) <= 1.0
    assert math.isfinite(log_binomial_coeff(BINOMIAL_UPPER_MAX, 1))


@pytest.mark.parametrize("scenario", [ND_FIN, D_FIN], ids=lambda s: s.value)
def test_raw_from_point_rejects_a_zero_gain(scenario):
    phys = PhysicalParams(y0=0.0)
    with pytest.raises(ValueError, match="gain is 0"):
        raw_from_point(problem(scenario, distance_km=10000.0, phys=phys),
                       point(scenario, distance_km=10000.0))


RUN_FIELDS = {"lmin_km": -1.0, "lmax_km": -1.0, "lstep_km": 0.0,
              "threshold": -1e-9}
CONFIG_CASES = [
    *[c for name, bad in RUN_FIELDS.items()
      for c in cases(f"RunConfig.{name}",
                     lambda v, name=name: RunConfig(**{name: v}), bad)],
    *cases("RunConfig.na_list", lambda v: RunConfig(na_list=(v,)), 0.0,
           inf_ok=True),
    *cases("RunConfig.seed", lambda v: RunConfig(seed=v), -1),
    *cases("parse_config.seed", lambda v: parse_config(f"seed = {v!r}\n"),
           -1),
    *[c for key, bad in [*PHYS_FIELDS.items(), *RUN_FIELDS.items()]
      for c in cases(f"parse_config.{key}",
                     lambda v, key=key: parse_config(f"{key} = {v!r}\n"),
                     bad)],
]


@pytest.mark.parametrize("call,value", CONFIG_CASES)
def test_config_rejects(call, value):
    with pytest.raises(ConfigError):
        call(value)


@pytest.mark.parametrize("flag,out_of_range", [
    ("--lmin", -1.0), ("--lmax-km", -1.0), ("--lstep", 0.0),
    ("--threshold", -1e-9), ("--na", 0.0)])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "out-of-range"])
def test_cli_flag_is_a_one_line_error(flag, out_of_range, value, tmp_path,
                                      capsys, no_search):
    if value == "out-of-range":
        value = repr(out_of_range)
    args = ["scan", "--scenario", "no_decoy_finite", "--na", "5e10",
            f"{flag}={value}", "--out", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("scenario", [ND_INF, D_INF])
@pytest.mark.parametrize("field,value", [
    ("n_pulses", 5e10), ("m_e", 3.0), ("p_s", 0.9), ("p_d", 0.05),
    ("p_v", 0.05), ("budget", ErrorBudget.equal_split(D_FIN, PHYS))])
def test_asymptotic_point_takes_no_finite_key_field(scenario, field, value):
    # such a point used to evaluate to the asymptotic rate, the field ignored
    bad = point(scenario, **{field: value})
    with pytest.raises(ValueError, match=field):
        bad.validate(PHYS)
    with pytest.raises(ValueError, match=field):
        evaluate_rate(bad, PHYS, CONV)


def test_documented_infinite_limits_stay_accepted():
    assert statistical_deviation(1e-9, INF) == 0.0
    assert finite_correction_delta(INF, EPS, EPS, EPS) == 0.0
    assert untagged_probability_finite(source(), EPS, INF) == (
        untagged_probability_infinite(source()))
    assert RunConfig(na_list=(INF,)).na_list == (INF,)
    assert evaluate_rate(point(ND_INF, n_pulses=INF), PHYS, CONV).rate > 0
