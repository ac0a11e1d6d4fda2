"""Golden values: the scalar kernels must keep reproducing these exactly.

The numbers were recorded from the previous numpy-scalar implementation of
the kernels.  A change to the kernel arithmetic that reorders a single float
operation shows up here first, as a breakdown slot drifting past 1e-12 or an
evaluation count that differs.
"""

import math
import random
from dataclasses import asdict

import pytest

from pnp_bb84 import (BoundConventions, ErrorBudget, OptimizationProblem,
                      PhysicalParams, ProtocolPoint, Scenario, evaluate_rate,
                      maximize)

PHYS = PhysicalParams()
CONV = BoundConventions()

POINTS = {
    "no_decoy_infinite": ProtocolPoint(
        scenario=Scenario.NO_DECOY_INFINITE, distance_km=20.0, lam=2.5e-6,
        delta=9e-3),
    "no_decoy_finite": ProtocolPoint(
        scenario=Scenario.NO_DECOY_FINITE, distance_km=20.0, n_pulses=5e10,
        lam=2.5e-6, delta=9e-3, m_e=7.6e5,
        budget=ErrorBudget.equal_split(Scenario.NO_DECOY_FINITE, PHYS)),
    "decoy_infinite": ProtocolPoint(
        scenario=Scenario.DECOY_INFINITE, distance_km=60.0, lam_s=6.6e-4,
        lam_d=1.5e-5, delta=0.023),
    "decoy_finite": ProtocolPoint(
        scenario=Scenario.DECOY_FINITE, distance_km=60.0, n_pulses=5e10,
        lam_s=6.6e-4, lam_d=1.0e-4, delta=0.023, m_e=1.4e6, p_s=0.41,
        p_d=0.58, p_v=1.0 - 0.41 - 0.58,
        budget=ErrorBudget.equal_split(Scenario.DECOY_FINITE, PHYS)),
}

_NO_DECOY = dict(mu_decoy=None, gain_decoy=None, qber_decoy=None,
                 p_untagged_decoy=None, p_untagged_vacuum=None)

GOLDEN = {
    "no_decoy_infinite": dict(
        rate=1.7997569088444843e-05, mu=0.00950473490801403,
        gain=0.00016429875359845833, qber=0.03783205126400575,
        p_untagged=0.9999999663955889, q_u_lower=0.00016426515470734947,
        q_u_upper=0.0001642987591196214, q1u_lower=0.00011764676890568815,
        e1u_upper=0.05283408058347956, finite_correction=0.0,
        n_raw=math.inf, sifted=math.inf, **_NO_DECOY),
    "no_decoy_finite": dict(
        rate=1.8769903001618843e-06, mu=0.00950473490801403,
        gain=0.00016429875359845833, qber=0.03783205126400575,
        p_untagged=0.9999732296234578, q_u_lower=0.0001375320588412645,
        q_u_upper=0.00016430315205570592, q1u_lower=9.09136730395943e-05,
        e1u_upper=0.07866176048001003, finite_correction=0.02202328726643502,
        n_raw=3347468.839961458, sifted=4107468.839961458, **_NO_DECOY),
    "decoy_infinite": dict(
        rate=4.7441766410847365e-05, mu=0.36269697674603224,
        gain=0.0008982235433709351, qber=0.033883855701466674,
        p_untagged=0.9999999189160874, q_u_lower=2.2003384218192292e-05,
        q_u_upper=0.0008982236162024203, q1u_lower=0.0005947942205550825,
        e1u_upper=0.05028075014629233, finite_correction=0.0,
        n_raw=math.inf, sifted=math.inf, mu_decoy=0.008243113107864368,
        gain_decoy=2.208446634665602e-05, qber_decoy=0.06894834430401396,
        p_untagged_decoy=0.9999999189160874,
        p_untagged_vacuum=0.9999999189160874),
    "decoy_finite": dict(
        rate=-4.171741464002676e-06, mu=0.36269697674603224,
        gain=0.0008982235433709351, qber=0.033883855701466674,
        p_untagged=0.9999585674282893, q_u_lower=0.00010257236012978868,
        q_u_upper=0.0008982607606243146, q1u_lower=0.00039054313883361705,
        e1u_upper=0.08774269836297018, finite_correction=0.014541992985715698,
        n_raw=7806791.319552084, sifted=9206791.319552084,
        mu_decoy=0.05495408738576246, gain_decoy=0.00013758859372662652,
        qber_decoy=0.03877010040219899, p_untagged_decoy=0.999964980174337,
        p_untagged_vacuum=0.9997495579304315),
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_breakdown_matches_golden(name):
    got = asdict(evaluate_rate(POINTS[name], PHYS, CONV))
    want = GOLDEN[name]
    assert got.keys() == want.keys()
    for field, value in want.items():
        if value is None:
            assert got[field] is None, field
        else:
            assert math.isclose(got[field], value, rel_tol=1e-12), field


# The four maximize pins were recorded with the absolute initial simplex step,
# the heuristic start alone (no warm starts) with 2000 evaluations and the
# repeated polish.  The search has no blind starts and uses no seed.  The
# test ids name the scenario only, so a re-pin keeps them.
@pytest.mark.parametrize("scenario,distance,evaluations,best_rate", [
    (Scenario.NO_DECOY_INFINITE, 20.0, 169, 1.799815007963616e-05),
    (Scenario.DECOY_INFINITE, 60.0, 310, 4.781475758071307e-05),
], ids=["no_decoy_infinite", "decoy_infinite"])
def test_maximize_matches_golden(scenario, distance, evaluations, best_rate):
    result = maximize(OptimizationProblem(scenario=scenario,
                                          distance_km=distance))
    assert result.evaluations == evaluations
    assert math.isclose(result.best_rate, best_rate, rel_tol=1e-12)


@pytest.mark.parametrize("scenario,distance,evaluations,best_rate", [
    (Scenario.NO_DECOY_FINITE, 20.0, 1307, 1.9493524711330676e-06),
    (Scenario.DECOY_FINITE, 60.0, 4106, 4.231356701679911e-06),
], ids=["no_decoy_finite", "decoy_finite"])
def test_maximize_finite_matches_golden(scenario, distance, evaluations,
                                        best_rate):
    # the counts pin every simplex step
    result = maximize(OptimizationProblem(
        scenario=scenario, distance_km=distance, n_pulses=5e10))
    assert result.evaluations == evaluations
    assert math.isclose(result.best_rate, best_rate, rel_tol=1e-12)


# The six cold maximizes of perfbench's maximize_cold workload, each end
# vertex pinned to the last bit (`float.hex`): a moved float shows here even
# where the evaluation count and the rate hold.  Two points are pinned only
# here: decoy_finite at 20 km / 5e10 and at 60 km / 1e12 pulses.
COLD_MAXIMIZE = {
    "no_decoy_infinite_20km": (
        Scenario.NO_DECOY_INFINITE, 20.0, math.inf, 169,
        1.799815007963616e-05, [
            "0x1.92602d7058fd2p-2", "0x1.60e81df7a11fap+0",
        ]),
    "no_decoy_finite_20km_5e10": (
        Scenario.NO_DECOY_FINITE, 20.0, 5e10, 1307,
        1.9493524711330676e-06, [
            "0x1.933aadb23dbb0p-2", "0x1.5e4cff0227a90p+0",
            "0x1.fefa51a21dc51p+0", "-0x1.0c76b3a7ddffcp+2",
            "0x1.043908e32c8cep+1", "0x1.65c808733945ap+1",
            "0x1.28cd4565e3f73p+0",
        ]),
    "decoy_infinite_60km": (
        Scenario.DECOY_INFINITE, 60.0, math.inf, 310,
        4.781475758071307e-05, [
            "0x1.8dcbe6230db87p-1", "0x1.8e4f0972bc73ap+1",
            "-0x1.017ef30f9de58p-3",
        ]),
    "decoy_finite_20km_5e10": (
        Scenario.DECOY_FINITE, 20.0, 5e10, 4666,
        0.0004324992721710523, [
            "0x1.62f0b52286d25p-2", "0x1.832a0edf69173p+1",
            "0x1.e193a5432096ep+0", "0x1.10986a3c2f394p+0",
            "0x1.3e5dbb96c71d2p+1", "0x1.979a3b94e69aep-2",
            "-0x1.143671b8450e8p+3", "-0x1.3f71b8e505072p+2",
            "0x1.6b31a5d8a3823p+1", "-0x1.9d9daa40b9c3cp+1",
            "0x1.15a901daa7841p+2", "-0x1.0e1b0fc5466c1p+2",
            "0x1.8ebd199fa13ddp+1",
        ]),
    "decoy_finite_60km_5e10": (
        Scenario.DECOY_FINITE, 60.0, 5e10, 4106,
        4.231356701679911e-06, [
            "0x1.72d1ba9fa9c1ep-1", "0x1.7f9a1d46229b2p+1",
            "0x1.02bf5a04bb541p+1", "0x1.e58baf76fcfb8p+0",
            "-0x1.1f03b272b9918p-1", "-0x1.a4d697edb47ecp-3",
            "-0x1.28cffe9b66464p+3", "-0x1.96b773941b256p+1",
            "0x1.bfce33e3ebeeap+1", "-0x1.bd0047292d172p+1",
            "0x1.242f2a4d7688ep+2", "-0x1.bd1cac58a2a76p+1",
            "0x1.5b9eb15e8c578p+1",
        ]),
    "decoy_finite_60km_1e12": (
        Scenario.DECOY_FINITE, 60.0, 1e12, 4219,
        4.3704399666787946e-05, [
            "0x1.74a6418e754eap-1", "0x1.82c22362c4631p+1",
            "0x1.cbb4814cb3e3dp+0", "0x1.02e1e04b79a4ap+0",
            "0x1.5afeac541af06p+1", "0x1.3038d4c3db92bp+0",
            "-0x1.f51eed466c9e4p+2", "-0x1.31d8e56bec018p+2",
            "0x1.fed56937bce45p+1", "-0x1.997bf39633ff2p+1",
            "0x1.8b7a147bc4852p+2", "-0x1.5eb2c5038b51dp+1",
            "0x1.13acbf7b3147cp+2",
        ]),
}


@pytest.mark.parametrize("name", list(COLD_MAXIMIZE))
def test_cold_maximize_matches_golden_to_the_bit(name):
    scenario, distance, n_pulses, evaluations, best_rate, raw = \
        COLD_MAXIMIZE[name]
    result = maximize(OptimizationProblem(
        scenario=scenario, distance_km=distance, n_pulses=n_pulses))
    assert result.evaluations == evaluations
    assert math.isclose(result.best_rate, best_rate, rel_tol=1e-12)
    assert [x.hex() for x in result.best_raw] == raw


def test_shared_envelope_terms_match_photon_kernels():
    # the decoy estimator's envelopes share their log-gamma terms; the
    # general photon kernels stay the reference and must agree bit for bit
    from pnp_bb84 import _kernels as k

    rng = random.Random(3)
    for _ in range(300):
        m_a = 10 ** rng.uniform(-0.5, 6.0)
        delta = 10 ** rng.uniform(-5.0, 0.1)
        lam_p = rng.choice([0.0, 10 ** rng.uniform(-9.0, -0.01)])
        hi, lo = (1.0 + delta) * m_a, (1.0 - delta) * m_a
        lower = k._envelope(lam_p, hi, lo, *k._log_binomials(lo))
        upper = k._envelope(lam_p, lo, hi, *k._log_binomials(hi))
        for n in range(3):
            assert lower[n] == k.photon_kernel(m_a, delta, lam_p, n, 0)
            assert upper[n] == k.photon_kernel(m_a, delta, lam_p, n, 1)


# Warm starts: `raw_from_point` maps a recorded point back to raw space and
# `_heuristic_raw` builds the physics-informed start.  The cold maximize pins
# above never reach the first, so both are pinned bit for bit at the points
# of POINTS, and a warm-started scan pins the two together.
RAW_OF_POINT = {
    "no_decoy_infinite": [0.39009509545358617, 1.3777106354430375],
    "no_decoy_finite": [
        0.39009509545358617, 1.3777106354430375, 1.9754177611499697,
        -1.3862943611198906, -1.3862943611198906, -1.3862943611198906,
        -1.3862943611198906],
    "decoy_infinite": [0.7471407562093093, 3.1119403725112327,
                       0.3605304004036325],
    "decoy_finite": [
        0.7471407562093093, 3.1119403725112327, 1.3562969350826384,
        1.848776842994103, -0.8915981192837836, -0.5447271754416722,
        -4.605170185988079, -1.791759469228055, -1.791759469228055,
        -1.791759469228055, -1.791759469228055, -1.791759469228055,
        -1.791759469228055],
}

HEURISTIC_RAW = {
    "no_decoy_infinite": [0.39891933473566354, 1.4413890209369],
    "no_decoy_finite": [0.39891933473566354, 1.4413890209369,
                        1.6116172046215098, 0.0, 0.0, 0.0, 0.0],
    "decoy_infinite": [0.7685346172773295, 3.075912262315877,
                       1.0988295138056459],
    "decoy_finite": [
        0.7685346172773295, 3.075912262315877, 1.3496104414792913,
        1.6116172046215098, -0.5978370007556204, -1.0498221244986778,
        -2.3025850929940455, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
}


def _problem_at(point):
    return OptimizationProblem(scenario=point.scenario,
                               distance_km=point.distance_km,
                               n_pulses=point.n_pulses)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_raw_from_point_matches_golden(name):
    from pnp_bb84.optimize import raw_from_point

    raw = raw_from_point(_problem_at(POINTS[name]), POINTS[name])
    assert list(raw) == RAW_OF_POINT[name]


@pytest.mark.parametrize("name", sorted(POINTS))
def test_heuristic_raw_matches_golden(name):
    from pnp_bb84.optimize import _heuristic_raw

    assert list(_heuristic_raw(_problem_at(POINTS[name]))) == \
        HEURISTIC_RAW[name]


def test_warm_started_scan_matches_golden(monkeypatch):
    # the 60 km point starts from the 58 km optimum through raw_from_point
    from pnp_bb84 import scans

    runs = []
    inner = scans.maximize

    def counted(problem, **options):
        # the 60 km row's heuristic end may come from the scan's worker
        result = inner(problem, **options)
        runs.append((len(problem.warm_starts), result.evaluations))
        return result

    monkeypatch.setattr(scans, "maximize", counted)
    records = scans.scan_distance(Scenario.DECOY_FINITE, 5e10, [58.0, 60.0])
    assert runs == [(0, 8523), (1, 4793)]
    assert [r.evaluations for r in records] == [8523, 4793]
    for record, rate in zip(records, [7.536910004601047e-06,
                                      4.2313567658183105e-06]):
        assert math.isclose(record.best_rate, rate, rel_tol=1e-12)


# The solver answers, as the CSVs write them (17 significant
# digits).  Any change to the search that moves a yes/no decision shows up
# here.
def test_find_lmax_matches_golden():
    from pnp_bb84.scans import find_lmax

    assert find_lmax(Scenario.DECOY_INFINITE, math.inf) == 123.3203125


# Each search near a finite-key cutoff runs no-key maximizes warm started
# from the probes before it, so a change to the work a no-key search does can
# move these answers: recording only full results in the warm chain moved
# the 1e12 answer to 88.5546875.  The 1e13 cutoff lies in a narrow basin
# that the search finds only from the full solve at the bracket's key
# end: without it, warm started from the march's early stops, the answer
# falls to 101.2109375.
@pytest.mark.parametrize("n_pulses,lmax", [
    (5e10, 64.4921875), (1e12, 88.6328125), (1e13, 101.3671875),
    (1e14, 109.1015625)],
    ids=["5e10", "1e12", "1e13", "1e14"])
def test_find_lmax_decoy_finite_matches_golden(n_pulses, lmax):
    from pnp_bb84.scans import find_lmax

    assert find_lmax(Scenario.DECOY_FINITE, n_pulses) == lmax


def test_find_lmax_no_decoy_finite_matches_golden():
    from pnp_bb84.scans import find_lmax

    assert find_lmax(Scenario.NO_DECOY_FINITE, 5e10) == 21.5234375


def test_find_na_threshold_matches_golden():
    from pnp_bb84.scans import find_na_threshold

    assert find_na_threshold(Scenario.NO_DECOY_FINITE) == 947463525.65537536


def test_find_na_threshold_decoy_finite_matches_golden():
    from pnp_bb84.scans import find_na_threshold

    assert find_na_threshold(Scenario.DECOY_FINITE) == 135772714.2105184
