"""Scans, threshold solvers and the files they write."""

import contextlib
import csv
import math
import signal

import pytest

from pnp_bb84 import (PhysicalParams, Scenario, evaluate_rate, scan_distance,
                      solve_lmax_profile)
from pnp_bb84.cli import main
from pnp_bb84.params import BoundConventions
from pnp_bb84.scans import _L_CAP_KM
from pnp_bb84 import io_csv

PHYS = PhysicalParams()
CONV = BoundConventions()


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after ``seconds``, so a loop that
    never ends fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestLmaxProfileSolver:
    def test_analytic_exponential_profile(self):
        # 1e-3 * 10^(-L/10) crosses 1e-9 at exactly 60 km
        profile = lambda dist, target=None: 1e-3 * 10 ** (-dist / 10)
        lmax = solve_lmax_profile(profile, 1e-9)
        assert lmax == pytest.approx(60.0, abs=0.1)

    def test_zero_when_dead_at_origin(self):
        assert solve_lmax_profile(lambda dist, target=None: 1e-12,
                                  1e-9) == 0.0

    def test_cap_when_never_crossing(self):
        assert solve_lmax_profile(lambda dist, target=None: 1.0,
                                  1e-9) == _L_CAP_KM

    def test_yes_no_answers_pin_the_bracket_and_midpoints(self):
        # a key up to 37 km and none beyond; the rates with a key rise with
        # distance, which no step compares, so only the yes/no answers and
        # the one untargeted solve at the bracket's key end (30 km) appear.
        # The walk probes the 0.078125-km cells of [30, 40] one at a time
        # from 30 km and stops at its first "no", cell 90 (37.03125 km)
        calls = []

        def profile(dist, target=None):
            calls.append((dist, target))
            return 1e-6 * (1.0 + dist) if dist <= 37.0 else -1e-10

        assert solve_lmax_profile(profile, 1e-9) == 36.9921875
        march = [(10.0 * i, 1e-9) for i in range(5)]
        probes = [(30.0 + k * 0.078125, 1e-9) for k in range(1, 91)]
        assert calls == march + [(30.0, None)] + probes

    @pytest.mark.parametrize("nan_from_km,named_km", [(0.0, 0.0),
                                                     (55.0, 60.0)])
    def test_nan_rate_is_refused(self, nan_from_km, named_km):
        # nan fails every comparison: unchecked, the march reads it as a key
        # all the way to the cap
        def profile(dist, target=None):
            return math.nan if dist >= nan_from_km else 1e-3 * 10 ** (-dist / 10)

        with pytest.raises(ValueError, match=rf"rate_at\({named_km} km\)"):
            solve_lmax_profile(profile, 1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(rate_threshold=math.nan), dict(rate_threshold=math.inf),
        dict(rate_threshold=-1e-9),
    ])
    def test_bad_arguments_rejected_before_any_rate(self, kwargs):
        calls = []

        def rate_at(dist, target=None):
            calls.append(dist)
            return 1e-3 * 10 ** (-dist / 10)

        args = dict(rate_threshold=1e-9) | kwargs
        with pytest.raises(ValueError):
            solve_lmax_profile(rate_at, **args)
        assert calls == []


@pytest.mark.parametrize("threshold", [math.nan, -1e-9, math.inf])
def test_solvers_reject_threshold_before_optimizing(monkeypatch, threshold):
    from pnp_bb84 import find_lmax, find_na_threshold, scans

    calls = []
    monkeypatch.setattr(scans, "maximize",
                        lambda problem, target=None: calls.append(problem))
    with pytest.raises(ValueError, match="rate_threshold"):
        find_lmax(Scenario.DECOY_INFINITE, math.inf, rate_threshold=threshold)
    with pytest.raises(ValueError, match="rate_threshold"):
        find_na_threshold(Scenario.NO_DECOY_FINITE, rate_threshold=threshold)
    assert calls == []


def _recording_maximize(monkeypatch):
    """Record ``(distance_km, target, rate)`` of every solver `maximize`."""
    from pnp_bb84 import scans

    calls, inner = [], scans.maximize

    def recorded(problem, target=None):
        result = inner(problem, target=target)
        calls.append((problem.distance_km, target, result.best_rate))
        return result

    monkeypatch.setattr(scans, "maximize", recorded)
    return calls


def test_lmax_solves_in_full_only_at_the_bracket_key_end(monkeypatch):
    # every march and search step only asks whether the rate is above the
    # threshold; the one full solve, at the bracket's key end, warm starts
    # the search from an optimum, and the first probe is one 128th of the
    # bracket above it
    from pnp_bb84 import find_lmax

    calls = _recording_maximize(monkeypatch)
    assert find_lmax(Scenario.DECOY_INFINITE, math.inf, 1e-9) == 123.3203125
    full = [i for i, (_, target, _) in enumerate(calls) if target is None]
    assert len(full) == 1
    march = calls[:full[0]]
    assert [dist for dist, _, _ in march] == \
        [10.0 * i for i in range(len(march))]
    assert [rate > 1e-9 for _, _, rate in march] == \
        [True] * (len(march) - 1) + [False]
    lo, hi = march[-2][0], march[-1][0]
    assert calls[full[0]][0] == lo
    assert calls[full[0] + 1][0] == lo + (hi - lo) / 128
    assert {target for i, (_, target, _) in enumerate(calls)
            if i != full[0]} == {1e-9}


def test_every_pulse_count_probe_is_targeted(monkeypatch):
    from pnp_bb84 import find_na_threshold

    calls = _recording_maximize(monkeypatch)
    assert find_na_threshold(Scenario.NO_DECOY_FINITE, 1e-9) == \
        947463525.65537536
    assert calls and {target for _, target, _ in calls} == {1e-9}


def _halving(below, lo, hi, width):
    """The plain bisection the threshold solvers used before their key-end
    search: the midpoint of ``[lo, hi]`` halved until no wider than
    ``width``, with ``below(x)`` saying whether the flip lies below x."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _step_maximize(monkeypatch, has_key):
    """Stub `scans.maximize` with rate 1.0 where ``has_key(problem)`` and
    0.0 elsewhere; returns the list of probed pulse counts."""
    from types import SimpleNamespace

    from pnp_bb84 import scans

    probed = []

    def maximize(problem, target=None):
        probed.append(problem.n_pulses)
        return SimpleNamespace(best_rate=1.0 if has_key(problem) else 0.0,
                               best_point=None)

    monkeypatch.setattr(scans, "maximize", maximize)
    return probed


class TestKeyEndSearch:
    """The key-end search returns the float the halving loop returns, for
    every bracket the solvers form and every cell the flip can lie in,
    probes only its grid, and asks at most one targeted "no" per grid level
    it walks."""

    @pytest.mark.parametrize("lo", [10.0 * k for k in range(20)])
    def test_lmax_matches_halving_in_every_cell(self, lo):
        step = 10.0 / 128
        for cell in range(128):
            flip = lo + (cell + 0.5) * step
            calls = []

            def profile(dist, target=None):
                calls.append((dist, target))
                return 1.0 if dist < flip else 0.0

            assert solve_lmax_profile(profile, 1e-9) == \
                _halving(lambda x: x > flip, lo, lo + 10.0, 0.1)
            full = [i for i, (_, target) in enumerate(calls) if target is None]
            assert calls[full[0]] == (lo, None) and len(full) == 1
            for dist, _ in calls[full[0] + 1:]:
                index = (dist - lo) / step
                assert index == int(index) and 0 < index < 128
            # one "no" ends the march, at most one the bracket's walk
            march, bracket = calls[:full[0]], calls[full[0] + 1:]
            assert [dist > flip for dist, _ in march].count(True) == 1
            assert [dist > flip for dist, _ in bracket].count(True) <= 1

    def test_nath_matches_halving_in_every_cell(self, monkeypatch):
        from pnp_bb84 import find_na_threshold

        step = 12.0 / 256
        grid = {10.0 ** (18.0 - j * step) for j in range(257)}
        for cell in range(256):
            flip = 6.0 + (cell + 0.5) * step
            probed = _step_maximize(
                monkeypatch, lambda problem: problem.n_pulses > 10.0 ** flip)
            assert find_na_threshold(Scenario.NO_DECOY_FINITE) == \
                10.0 ** _halving(lambda x: x > flip, 6.0, 18.0, 0.05)
            assert set(probed) <= grid
            # the floor is asked only when the flip is in the lowest cell
            assert (1e6 in probed) == (cell == 0)
            # the walk down the grid, or the floor after it, asks one "no"
            assert [na <= 10.0 ** flip for na in probed].count(True) == 1


class TestPulseCountRange:
    def test_no_key_at_the_top_of_the_range(self, monkeypatch):
        from pnp_bb84 import find_na_threshold
        from pnp_bb84.scans import ThresholdOutsideRangeError

        probed = _step_maximize(monkeypatch, lambda problem: False)
        with pytest.raises(ThresholdOutsideRangeError,
                           match="no positive rate up to n_pulses = 1e18"):
            find_na_threshold(Scenario.DECOY_FINITE)
        assert probed == [1e18]

    def test_key_at_the_floor_of_the_range(self, monkeypatch):
        from pnp_bb84 import find_na_threshold
        from pnp_bb84.scans import ThresholdOutsideRangeError

        probed = _step_maximize(monkeypatch, lambda problem: True)
        with pytest.raises(ThresholdOutsideRangeError,
                           match="threshold below the search floor "
                                 "n_pulses = 1e6"):
            find_na_threshold(Scenario.NO_DECOY_FINITE)
        assert probed[0] == 1e18 and probed[-1] == 1e6
        assert probed[-2] == 10.0 ** (6.0 + 12.0 / 256)

    def test_golden_run_never_probes_the_floor(self, monkeypatch):
        # the search ends far above the floor, so 1e6 pulses are never asked
        from pnp_bb84 import find_na_threshold, scans

        probed, inner = [], scans.maximize

        def recorded(problem, target=None):
            probed.append(problem.n_pulses)
            return inner(problem, target=target)

        monkeypatch.setattr(scans, "maximize", recorded)
        assert find_na_threshold(Scenario.NO_DECOY_FINITE, 1e-9) == \
            947463525.65537536
        assert probed[0] == 1e18 and 1e6 not in probed


class TestScanDistance:
    def test_rates_decrease_with_distance(self):
        records = scan_distance(Scenario.NO_DECOY_INFINITE, math.inf,
                                [0.0, 10.0, 20.0], PHYS, CONV)
        rates = [r.best_rate for r in records]
        assert rates[0] > rates[1] > rates[2] > 0

    def test_round_trip_integrity(self):
        # every emitted rate re-evaluates from its recorded parameters
        records = scan_distance(Scenario.NO_DECOY_FINITE, 5e10,
                                [10.0, 20.0], PHYS, CONV)
        for record in records:
            again = evaluate_rate(record.best_point, PHYS, CONV)
            assert again.rate == pytest.approx(record.best_rate, rel=1e-12)

    def test_no_key_flagging(self):
        records = scan_distance(Scenario.NO_DECOY_FINITE, 5e10,
                                [10.0, 40.0], PHYS, CONV)
        assert not records[0].best_rate <= 0
        assert records[1].best_rate <= 0

    def test_sampling_fraction_grows_with_distance(self):
        records = scan_distance(Scenario.NO_DECOY_FINITE, 5e10,
                                [5.0, 10.0, 15.0, 20.0], PHYS, CONV)
        fracs = [r.best_point.m_e / r.breakdown.sifted for r in records]
        for a, b in zip(fracs, fracs[1:]):
            assert b >= a * 0.98  # optimizer noise tolerance

    def test_finite_curves_ordered_by_pulse_count(self):
        rates = [scan_distance(Scenario.DECOY_FINITE, na, [20.0],
                               PHYS, CONV)[0].best_rate
                 for na in (5e10, 1e12, 1e14)]
        assert rates[0] < rates[1] < rates[2]
        # at short range, optimizing the class probabilities beats the
        # equal-probability asymptote (which fixes the signal share at 1/2)
        asym = scan_distance(Scenario.DECOY_INFINITE, math.inf, [20.0],
                             PHYS, CONV)[0].best_rate
        assert rates[1] > asym

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_distance(Scenario.NO_DECOY_INFINITE, math.inf, [], PHYS, CONV)
        with pytest.raises(ValueError):
            scan_distance(Scenario.NO_DECOY_INFINITE, math.inf, [5.0, 5.0],
                          PHYS, CONV)

    @pytest.mark.parametrize("grid", [[0.0, 10.0, math.nan],
                                      [0.0, 10.0, math.inf], [-1.0, 10.0]])
    def test_bad_grid_value_rejected_before_optimizing(self, monkeypatch,
                                                       grid):
        from pnp_bb84 import scans

        calls = []
        monkeypatch.setattr(scans, "maximize",
                            lambda problem, target=None: calls.append(problem))
        with pytest.raises(ValueError, match="finite and non-negative"):
            scan_distance(Scenario.NO_DECOY_INFINITE, math.inf, grid, PHYS,
                          CONV)
        assert calls == []


class TestCsvEmission:
    def test_byte_identical_reruns(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            records = scan_distance(Scenario.NO_DECOY_FINITE, 5e10,
                                    [10.0, 15.0], PHYS, CONV)
            (tmp_path / run).mkdir()
            paths.append(io_csv.write_scan(tmp_path / run, records))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_and_row_arity(self, tmp_path):
        records = scan_distance(Scenario.DECOY_FINITE, 5e10, [20.0],
                                PHYS, CONV)
        path = io_csv.write_scan(tmp_path, records)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == list(io_csv.columns_for(Scenario.DECOY_FINITE))
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    @pytest.mark.parametrize("scenario,header", [
        (Scenario.NO_DECOY_INFINITE, "lam,delta,mu"),
        (Scenario.NO_DECOY_FINITE, "lam,delta,mu,m_e,r_sample,eps_pa,eps_bar,"
                                   "eps_u,eps_e,n_raw,key_length"),
        (Scenario.DECOY_INFINITE, "lam_s,lam_d,delta,mu_s,mu_d,p_s"),
        (Scenario.DECOY_FINITE, "lam_s,lam_d,delta,mu_s,mu_d,p_s,p_d,p_v,m_e,"
                                "r_sample,eps_pa,eps_bar,eps_u_s,eps_u_d,"
                                "eps_u_v,eps_e_s,n_raw,key_length"),
    ], ids=lambda v: v.value if isinstance(v, Scenario) else "")
    def test_documented_column_contract(self, scenario, header):
        # the README "CSV columns" list, literally
        assert ",".join(io_csv.columns_for(scenario)) == (
            "scenario,L_km,n_pulses,rate,no_key," + header)

    def test_one_scenario_per_file(self, tmp_path):
        records = (scan_distance(Scenario.NO_DECOY_INFINITE, math.inf,
                                 [10.0], PHYS, CONV)
                   + scan_distance(Scenario.DECOY_INFINITE, math.inf,
                                   [10.0], PHYS, CONV))
        with pytest.raises(ValueError, match="one scenario"):
            io_csv.write_scan(tmp_path, records)
        assert not list(tmp_path.glob("*.csv"))

    def test_one_pulse_count_per_scan_file(self, tmp_path):
        records = [r for na in (5e10, 1e12) for r in scan_distance(
            Scenario.NO_DECOY_FINITE, na, [10.0], PHYS, CONV)]
        with pytest.raises(ValueError, match="one pulse count"):
            io_csv.write_scan(tmp_path, records)
        assert not list(tmp_path.glob("*.csv"))

    def test_scan_tag_reads_back_as_the_pulse_count(self):
        from pnp_bb84.cli import _FIGURES

        figures = [na for figure in _FIGURES.values()
                   for na in figure.pulse_counts]
        for na in (*figures, 1e10):
            tag = io_csv.scan_tag(na)
            assert float(tag) == na
            if float(f"{na:.0e}") == na:  # the one-digit tag stays
                assert tag == f"{na:.0e}".replace("+", "")
        assert io_csv.scan_tag(5.4e10) == "5.4e10"
        assert io_csv.scan_tag(math.inf) == "inf"

    def test_int_pulse_count_no_float_equals_is_tagged_as_its_float(
            self, tmp_path):
        # no float equals 10**17 + 1, so the tag search used to loop forever
        na = 10**17 + 1
        with _deadline(5):
            assert io_csv.scan_tag(na) == "1e17"
            with pytest.raises(io_csv.ScanNameCollisionError):
                io_csv.check_scan_names(Scenario.NO_DECOY_FINITE,
                                        [10**17, na])
            path = io_csv.write_scan(tmp_path, scan_distance(
                Scenario.NO_DECOY_FINITE, na, [0.0], PHYS, CONV))
        assert path.name == "scan_no_decoy_finite_1e17.csv"
        assert [float(row["n_pulses"]) for row in _csv_rows(path)] == [1e17]

    def test_seventeen_digit_round_trip(self):
        value = 1.2345678901234567e-5
        assert float(io_csv.fmt(value)) == value


class TestFigureDatasets:
    def test_fig2_smoke(self, tmp_path):
        assert main(["figure", "fig2", "--na", "5e10", "--lmin", "0",
                     "--lmax-km", "10", "--lstep", "10",
                     "--out", str(tmp_path)]) == 0
        written = sorted(tmp_path.iterdir())
        assert [p.name for p in written] == [
            "scan_no_decoy_finite_5e10.csv", "scan_no_decoy_infinite_inf.csv"]
        for path in written:
            lines = path.read_text().strip().split("\n")
            assert len(lines) == 3

    def test_fig5_smoke(self, tmp_path):
        assert main(["figure", "fig5", "--na", "5e10", "--lmin", "10",
                     "--lmax-km", "20", "--lstep", "10",
                     "--out", str(tmp_path)]) == 0
        finite, asymptotic = sorted(tmp_path.iterdir())
        assert finite.name == "scan_decoy_finite_5e10.csv"
        assert asymptotic.name == "scan_decoy_infinite_inf.csv"
        # decoy resources grow with distance; intensities stay ordered
        rows = _csv_rows(finite)
        assert float(rows[1]["p_d"]) >= float(rows[0]["p_d"])
        for row in rows + _csv_rows(asymptotic):
            assert 0.0 <= float(row["mu_d"]) < float(row["mu_s"])

    def test_unknown_figure_rejected(self, tmp_path):
        assert main(["figure", "fig9", "--out", str(tmp_path)]) == 1
        assert not list(tmp_path.iterdir())
