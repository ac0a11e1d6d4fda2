"""Input domain of every public entry point that takes a number.

Each entry point, fed nan, +inf, -inf or one finite value outside its
domain, raises ValueError before any arithmetic: config files and CLI flags
raise ConfigError, which the CLI reports as one ``error:`` line with exit
code 1.  Where inf is a documented limit (a pulse count of inf, and in the
kernels a deviation from m = inf samples and the finite-key penalty at
n = inf) it stays accepted.
"""

import math
import re

import numpy as np
import pytest

import pnp_bb84
from pnp_bb84 import (BoundConventions, EmptyRawKeyError, ErrorBudget,
                      InfeasibleProblemError, OptimizationProblem,
                      PhysicalParams, ProtocolPoint, Scenario, _kernels,
                      evaluate_rate, evaluate_rate_finite_limit, find_lmax,
                      find_na_threshold, grid_oracle, maximize,
                      point_from_raw, raw_from_point, scan_distance,
                      solve_lmax_profile)
from pnp_bb84 import scans
from pnp_bb84.cli import main
from pnp_bb84.config import ConfigError, RunConfig, parse_config
from pnp_bb84.numerics import M_BRIGHT_MAX
from pnp_bb84.rates import budget_fields

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an int no float holds: the float arithmetic overflows on it
PHYS = PhysicalParams()
CONV = BoundConventions()
ND_INF, ND_FIN = Scenario.NO_DECOY_INFINITE, Scenario.NO_DECOY_FINITE
D_INF, D_FIN = Scenario.DECOY_INFINITE, Scenario.DECOY_FINITE


def point_fields(scenario):
    """The fields that a point of ``scenario`` reads, at values where
    `evaluate_rate` succeeds."""
    fields = dict(distance_km=20.0, delta=9e-3)
    if scenario.uses_decoy:
        fields.update(lam_s=6.6e-4, lam_d=1.0e-4)
    else:
        fields.update(lam=2.5e-6)
    if scenario.finite:
        fields.update(n_pulses=5e10, m_e=7.6e5,
                      budget=ErrorBudget.equal_split(scenario, PHYS))
        if scenario.uses_decoy:
            fields.update(p_s=0.41, p_d=0.58, p_v=0.01)
    return fields


def point(scenario, **kw):
    """A point of ``scenario`` at which `evaluate_rate` succeeds."""
    return ProtocolPoint(scenario=scenario, **{**point_fields(scenario), **kw})


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
# the out-of-range values of each number a point holds
POINT_FIELDS = {"distance_km": (-1.0, HUGE), "delta": (0.0, 1.0), "lam": 0.0,
                "lam_s": 1.5, "lam_d": 0.0, "n_pulses": (0.0, 0.5, HUGE),
                "m_e": (0.0, HUGE), "p_s": 0.0, "p_d": 1.5, "p_v": 0.0}
# the entry points that take a point, each with the scenarios it takes
POINT_ENTRIES = {
    "evaluate_rate": (list(Scenario),
                      lambda pt: evaluate_rate(pt, PHYS, CONV)),
    "evaluate_rate_finite_limit": (
        [ND_FIN, D_FIN], lambda pt: evaluate_rate_finite_limit(pt, PHYS, CONV)),
    "raw_from_point": (list(Scenario),
                       lambda pt: raw_from_point(problem(pt.scenario), pt)),
}
EPS = 1e-10

PYTHON_API = [
    *[c for name, bad in PHYS_FIELDS.items()
      for c in cases(f"PhysicalParams.{name}",
                     lambda v, name=name: PhysicalParams(**{name: v}), bad)],
    # every number of a point, in each scenario that reads it, at each entry
    # point that takes the point; the budget's shares go by ErrorBudget where
    # evaluate_rate checks them
    *[c for entry, (scenarios, call) in POINT_ENTRIES.items()
      for sc in scenarios for name in point_fields(sc) if name in POINT_FIELDS
      for c in cases(f"{entry}.{sc.value}.{name}",
                     lambda v, sc=sc, name=name, call=call: call(
                         point(sc, **{name: v})), POINT_FIELDS[name])],
    *[c for entry, (scenarios, call) in POINT_ENTRIES.items()
      for sc in scenarios if sc.finite for name in budget_fields(sc)
      for c in cases(("ErrorBudget" if entry == "evaluate_rate" else entry)
                     + f".{sc.value}.{name}",
                     lambda v, sc=sc, name=name, call=call: call(point(
                         sc, budget=ErrorBudget.of(sc, [
                             v if n == name else EPS
                             for n in budget_fields(sc)]))),
                     1.0)],
    *cases("OptimizationProblem.distance_km",
           lambda v: problem(distance_km=v), (-1.0, HUGE)),
    *cases("OptimizationProblem.n_pulses", lambda v: problem(n_pulses=v),
           (0.0, 0.5, HUGE)),
    *cases("OptimizationProblem.seed", lambda v: problem(seed=v), (-1, True)),
    *cases("maximize.target", lambda v: maximize(problem(), target=v),
           -2e6),
    *cases("grid_oracle.resolution",
           lambda v: grid_oracle(problem(ND_INF), v), (0, True)),
    *cases("scan_distance.l_grid",
           lambda v: scan_distance(ND_INF, INF, [0.0, v]), (-1.0, HUGE)),
    *cases("scan_distance.n_pulses",
           lambda v: scan_distance(ND_FIN, v, [0.0]), (0.0, 0.5, HUGE)),
    *cases("solve_lmax_profile.rate_threshold",
           lambda v: solve_lmax_profile(no_rate, v), -1e-9),
    *cases("find_lmax.rate_threshold",
           lambda v: find_lmax(D_INF, INF, rate_threshold=v), -1e-9),
    *cases("find_lmax.n_pulses", lambda v: find_lmax(ND_FIN, v),
           (0.0, 0.5, HUGE)),
    *cases("find_na_threshold.rate_threshold",
           lambda v: find_na_threshold(ND_FIN, rate_threshold=v), -1e-9),
]

# the arguments after ``figure`` for each bad value of a figure dataset's
# input; the fig5 scans are at 0 km only
FIG5_AT_0KM = ("fig5", "--lmin", "0", "--lmax-km", "0")
FIGURE_CASES = [
    *cases("threshold", lambda v: ["fig3", "--na", "5e10",
                                   f"--threshold={v!r}"], -1e-9),
    *cases("na_list", lambda v: [*FIG5_AT_0KM, f"--na=5e10,{v!r}"],
           (0.0, 0.5, HUGE)),
    *cases("l_grid", lambda v: ["fig2", "--na", "5e10", "--lmin", "0",
                                f"--lmax-km={v!r}"], -1.0),
    pytest.param(lambda v: [*FIG5_AT_0KM, f"--na={','.join(v)}"], [],
                 id="na_list=[]"),
    # flags the figure does not read, at values it would accept
    *(pytest.param(lambda v, fig=fig: [fig, "--na", "5e10", "--lmin", "0",
                                       "--lmax-km", "0", f"--threshold={v!r}"],
                   1e-9, id=f"{fig}-threshold") for fig in ("fig2", "fig5")),
    pytest.param(lambda v: ["fig3", "--na", "5e10", f"--lmax-km={v!r}"], 0.0,
                 id="fig3-l_grid"),
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


PUBLIC_NAMES = [
    "BoundConventions", "DecoyOrderingError", "EmptyRawKeyError",
    "ErrorBudget", "FluctuationTooLargeError", "InfeasibleProblemError",
    "NoUntaggedPulsesError", "OptimizationProblem", "OptimizationResult",
    "PhysicalParams", "ProtocolPoint", "RateBreakdown", "RateEvaluationError",
    "Scenario", "WindowViolationError", "evaluate_rate",
    "evaluate_rate_finite_limit", "find_lmax", "find_na_threshold",
    "grid_oracle", "maximize", "point_from_raw", "raw_from_point",
    "scan_distance", "solve_lmax_profile",
]
# the public names that take no number from outside, so have no domain case
NO_NUMBERS = {
    **dict.fromkeys(["DecoyOrderingError", "EmptyRawKeyError",
                     "FluctuationTooLargeError", "InfeasibleProblemError",
                     "NoUntaggedPulsesError", "RateEvaluationError",
                     "WindowViolationError"],
                    "an exception"),
    "OptimizationResult": "a result record, built by maximize",
    "RateBreakdown": "a result record, built by evaluate_rate",
    "Scenario": "an enum: only its members exist",
    "BoundConventions": "an input record of convention names, not numbers",
}
# the public names whose numbers are checked under another name: a point's
# fields by the evaluate_rate cases, a raw vector by its own tests here
CHECKED_AS = {
    "ProtocolPoint": "evaluate_rate",
    "point_from_raw": "test_point_from_raw_rejects_a_non_finite_coordinate",
}


def test_every_public_entry_point_has_a_domain_case():
    assert sorted(pnp_bb84.__all__) == PUBLIC_NAMES
    checked = {re.split(r"[.=]", param.id, maxsplit=1)[0]
               for param in PYTHON_API}
    checked.update(name for name in globals() if name.startswith("test_"))
    unchecked = [name for name in PUBLIC_NAMES if name not in NO_NUMBERS
                 and CHECKED_AS.get(name, name) not in checked]
    assert unchecked == []


@pytest.mark.parametrize("args,value", FIGURE_CASES)
def test_figure_datasets_rejects(args, value, no_search, tmp_path, capsys):
    assert main(["figure", *args(value), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_problem_past_attenuation_underflow_is_infeasible(scenario):
    # m_a and eta are 0.0 at 16000 km; the heuristic start and the
    # parameter maps would divide by them
    with pytest.raises(InfeasibleProblemError, match="underflows"):
        problem(scenario, distance_km=16000.0)
    problem(scenario, distance_km=15000.0)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_problem_where_q_split_times_m_a_underflows_is_infeasible(scenario):
    # m_a is about 1e-318 at 3150 km here, not 0, but q_split * m_a rounds
    # to 0.0 and the encoder's transmittance cap divides by it
    phys = PhysicalParams(m_bright=1e-3, q_split=1e-9, loss_coeff=1.0)
    with pytest.raises(InfeasibleProblemError, match="q_split"):
        problem(scenario, distance_km=3150.0, phys=phys)


@pytest.mark.parametrize("index", [0, 12])
@pytest.mark.parametrize("value", [NAN, INF, -INF,
                                   pytest.param(HUGE, id="10**400")])
def test_point_from_raw_rejects_a_non_finite_coordinate(index, value):
    # the parameter maps pass nan through to delta; only evaluating the
    # point would catch it.  10**400 overflows the conversion to a float
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


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="Known defect: the decoy parameter map takes p_v = 1 - p_s - p_d, "
           "which rounds below 0 when the vacuum weight is under about 1e-16 "
           "of the total, so point_from_raw returns a point that "
           "evaluate_rate refuses.  The objective scores it as status 5, so "
           "maximize is unaffected; the mend (p_v = wv/wt) moves floats and "
           "lands with the one float-moving re-pin (ROADMAP item 10).")
def test_point_from_raw_maps_onto_a_feasible_point():
    # signal weight e^40, vacuum weight e^-40: the map returns p_s = 1.0 and
    # p_v = -4.248354255291589e-18, which evaluate_rate refuses
    raw = [0.0, 0.0, 0.0, 0.0, 40.0, 0.0, -40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    pt = point_from_raw(problem(D_FIN), raw)
    evaluate_rate(pt, PHYS, CONV)
    assert pt.p_v > 0.0


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
    # M_BRIGHT_MAX's guarantee: the envelope at the brightest accepted
    # source, and a log-binomial at its highest window edge, 2 m_bright
    lam_p = _kernels.lambda_prime_kernel(1e-310, PHYS.q_split)
    assert 0.0 <= _kernels.photon_kernel(M_BRIGHT_MAX, 0.5, lam_p, 1, 1) <= 1.0
    assert math.isfinite(_kernels.log_choose_kernel(2.0 * M_BRIGHT_MAX, 1.0))


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
    *cases("RunConfig.na_list", lambda v: RunConfig(na_list=(v,)), (0.0, 0.5),
           inf_ok=True),
    *cases("parse_config.na", lambda v: parse_config(f"na = {v!r}\n"),
           (0.0, 0.5), inf_ok=True),
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


def test_a_finite_key_needs_at_least_one_pulse():
    # below one pulse n * p_s underflowed to 0 in xi_kernel, and
    # evaluate_rate raised ZeroDivisionError at a point validate accepted
    bad = ProtocolPoint(scenario=D_FIN, distance_km=20.0, n_pulses=1e-300,
                        p_s=1e-30, p_d=0.5, p_v=0.5 - 1e-30, lam_s=1e-10,
                        lam_d=1e-11, delta=0.01, m_e=1e-320,
                        budget=ErrorBudget.equal_split(D_FIN, PHYS))
    with pytest.raises(ValueError, match="n_pulses"):
        evaluate_rate(bad, PHYS, CONV)
    point(D_FIN, n_pulses=1.0).validate(PHYS)


def test_documented_infinite_limits_stay_accepted():
    assert _kernels.xi_kernel(1e-9, INF) == 0.0
    assert _kernels.finite_delta_kernel(INF, EPS, EPS, EPS) == 0.0
    assert evaluate_rate_finite_limit(point(ND_FIN), PHYS, CONV).p_untagged == (
        evaluate_rate(point(ND_INF), PHYS, CONV).p_untagged)
    assert RunConfig(na_list=(INF,)).na_list == (INF,)
    assert evaluate_rate(point(ND_INF, n_pulses=INF), PHYS, CONV).rate > 0
