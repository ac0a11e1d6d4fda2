"""Scalar rate kernels.

Plain Python on Python floats, with the ``math`` module only.  The layouts
below arrive as tuples (`PhysicalParams.to_array`, `BoundConventions.to_flags`)
and raw optimizer vectors as lists.  The channel attenuation is hoisted out
of the kernels: each takes the mean photon number ``m_a`` reaching the
sender and the overall transmittance ``eta`` from `channel_at`, computed
once per problem or per call.  The Python-facing layers (`rates`,
`optimize`, `scans`) wrap these kernels in dataclasses and validation.

Each formula has one home here, called by the rate kernels: lambda' =
lam q/(1 - q) in `lambda_prime_kernel`, the window condition
(1 + delta) m_a lambda' < 1 in `window_violated`, the mean output intensity
m_a lam q in `mu_kernel`, and `attenuation`, `photon_kernel`,
`coverage_kernel`, `gain_qber_kernel`, `_decoy_q1u_e1u`,
`untagged_lower_kernel`, `q1u_no_decoy_kernel`, `e1u_decoy_kernel`,
`h2_kernel`, `xi_kernel` and `finite_delta_kernel`.  The package exports
none of them; `rates.RateBreakdown` reports every intermediate of one
evaluation.

Layouts shared with the Python-facing layers:

``phys`` (11 floats):
    eta_bob, loss_coeff, y0, e_det, e0, e0_vac, f_ec, m_bright, q_split,
    eps_total, eps_ec

``flags`` (5 ints):
    gain_with_eta, coverage_half_inside, single_photon_mixed,
    decoy_estimator (0 paired / 1 alternate / 2 strict), sifting_exact

Finite-key arguments (``finite``, the optional last argument of a rate
kernel; None for an asymptotic key), budget entries as `rates.budget_fields`:
    rate_no_decoy: (n_pulses, m_e, eps_pa, eps_bar, eps_u, eps_e)
    rate_decoy:    (n_pulses, m_e, p_s, p_d, eps_pa, eps_bar, eps_us, eps_ud,
                    eps_uv, eps_es)
The asymptotic key is the limit N -> inf of the finite one: the fluctuation,
empty-key, Delta and sifting stages are skipped, and the decoy kernel fixes
p_s to `ASYMPTOTIC_P_S`.

The parameter maps and objectives are one per source model, as the rate
kernels are, with one signature: ``params_<model>(raw, m_a, eta, n_pulses,
phys, flags)`` and likewise ``objective_<model>``.  A map returns the rest
of its rate kernel's arguments, ``(lam, delta, finite)`` or ``(lam_s, lam_d,
delta, finite)``.  Raw layout: ``delta``, ``u`` (lam or lam_s over its cap),
with decoys the decoy ratio, then with a finite key the sample fraction,
with decoys the three class weights, and one weight per budget entry.  The
asymptotic key, ``n_pulses`` = inf, reads only the prefix up to the decoy
ratio and gets ``finite`` None.  A scalar goes through ``logrange_kernel(z,
log_range)``, a sigmoid onto ``(lo, hi)`` given as one of the ``*_LOG``
pairs ``(ln lo, ln hi - ln lo)``; the maps pass the pair, not its entries,
which spares a star-call per scalar.  The per-scenario names (``rate_``,
``params_`` or ``objective_`` and the scenario) are aliases, kept only
because `optimize._kernel` and perfbench/tracing.py look kernels up by them.

Breakdown tuple (18 float slots):
    0 status, 1 rate, 2 mu_signal, 3 mu_decoy, 4 gain_signal, 5 qber_signal,
    6 gain_decoy, 7 qber_decoy, 8 pu_signal, 9 pu_decoy, 10 pu_vacuum,
    11 qu_lower, 12 qu_upper, 13 q1u_lower, 14 e1u_upper,
    15 finite_correction, 16 n_raw, 17 sifted
The no-decoy kernel leaves the decoy slots (3, 6, 7, 9, 10) nan.  Slots are
set stage by stage, and a failing stage leaves the later ones nan:

    status 1, 5   only the status
    status 2      mu, gain and qber (2-7) and the coverage in slots 8-10
    status 3      as 2, with the deviation subtracted in slots 8-10
    status 4      as 3, plus n_raw and sifted
    status 0      every slot; e1u_upper stays nan where q1u_lower is 0,
                  and qber_decoy where gain_decoy is 0

An asymptotic key sets slots 15-17 to 0, inf, inf whatever the status.

Status codes: 0 ok, 1 window condition violated, 2 no untagged pulses,
3 fluctuation exceeds untagged probability, 4 empty raw key,
5 decoy ordering violated.  Status 3 needs a finite key; status 4 means a
zero signal gain or, with a finite key, too short a sifted key.
"""

from __future__ import annotations

from math import erf, exp, expm1, isfinite, lgamma, log, log1p, log2, sqrt

NAN = float("nan")
INF = float("inf")

# reparameterization ranges (log-spaced sigmoid maps)
DELTA_LO, DELTA_HI = 1e-5, 0.9
U_LO, U_HI = 1e-10, 0.9999
RATIO_LO, RATIO_HI = 1e-4, 0.9995
MFRAC_LO, MFRAC_HI = 1e-6, 0.995

# (ln lo, ln hi - ln lo) of each range, the last argument of `logrange_kernel`
DELTA_LOG = (log(DELTA_LO), log(DELTA_HI) - log(DELTA_LO))
U_LOG = (log(U_LO), log(U_HI) - log(U_LO))
RATIO_LOG = (log(RATIO_LO), log(RATIO_HI) - log(RATIO_LO))
MFRAC_LOG = (log(MFRAC_LO), log(MFRAC_HI) - log(MFRAC_LO))

_LGAMMA_2 = lgamma(2.0)   # ln 1!
_LGAMMA_3 = lgamma(3.0)   # ln 2!

STATUS_OK = 0.0
STATUS_WINDOW = 1.0
STATUS_NO_UNTAGGED = 2.0
STATUS_FLUCTUATION = 3.0
STATUS_EMPTY_KEY = 4.0
STATUS_ORDERING = 5.0

PENALTY = -1.0e6

# signal share of the asymptotic decoy protocol: each pulse is signal or decoy
# with probability 1/2
ASYMPTOTIC_P_S = 0.5


# --- elementary pieces --------------------------------------------------------

def attenuation(loss_coeff, dist):
    """Channel transmittance over ``dist`` km at ``loss_coeff`` dB/km."""
    return 10.0 ** (-loss_coeff * dist / 10.0)


def channel_at(dist, phys):
    """(m_a, eta): sender-side mean photon number and overall transmittance."""
    att = attenuation(phys[1], dist)
    return phys[7] * att, phys[0] * att


def lambda_prime_kernel(lam, q_split):
    return lam * q_split / (1.0 - q_split)


def window_violated(m_a, delta, lam_p):
    return (1.0 + delta) * m_a * lam_p >= 1.0 or lam_p > 1.0


def mu_kernel(m_a, lam, q_split):
    return m_a * lam * q_split


def h2_kernel(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def xi_kernel(eps, m):
    # statistical deviation of an m-sample estimate at failure probability eps
    if not isfinite(m):
        return 0.0
    return sqrt((log(1.0 / eps) + 2.0 * log(m + 1.0)) / (2.0 * m))


def log_choose_kernel(upper, n):
    # generalized binomial coefficient via log-gamma; zero (=-inf) above the window
    if n > upper:
        return -INF
    return lgamma(upper + 1.0) - lgamma(n + 1.0) - lgamma(upper - n + 1.0)


def photon_kernel(m_a, delta, lam_p, n, upper):
    # upper (upper = 1) or lower photon-number envelope, window (1+-delta)m_a
    if lam_p <= 0.0:
        return 1.0 if n == 0 else 0.0
    hi = (1.0 + delta) * m_a
    lo = (1.0 - delta) * m_a
    bound, zero_bound = (hi, lo) if upper == 1 else (lo, hi)
    if n == 0:
        return exp(zero_bound * log1p(-lam_p))
    if n > bound:
        return 0.0
    return exp(log_choose_kernel(bound, n) + n * log(lam_p)
               + (bound - n) * log1p(-lam_p))


def _log_binomials(bound):
    """ln C(bound, 1) and ln C(bound, 2), sharing ln Gamma(bound + 1).

    A value is nan where its envelope term vanishes (n > bound); callers
    test that condition themselves, as `photon_kernel` does.
    """
    if 1 > bound:
        return NAN, NAN
    lg = lgamma(bound + 1.0)
    c1 = lg - _LGAMMA_2 - lgamma(bound - 1.0 + 1.0)
    if 2 > bound:
        return c1, NAN
    return c1, lg - _LGAMMA_3 - lgamma(bound - 2.0 + 1.0)


def _envelope(lam_p, zero_bound, bound, c1, c2):
    """P_0, P_1, P_2 of one photon-number envelope, as `photon_kernel` gives.

    The lower envelope has ``zero_bound`` = hi and ``bound`` = lo, the upper
    one lo and hi; ``c1``, ``c2`` come from `_log_binomials(bound)`.
    """
    if lam_p <= 0.0:
        return 1.0, 0.0, 0.0
    log_lp = log(lam_p)
    log_q = log1p(-lam_p)
    p1 = 0.0 if 1 > bound else exp(c1 + log_lp + (bound - 1.0) * log_q)
    p2 = 0.0 if 2 > bound else exp(c2 + 2 * log_lp + (bound - 2.0) * log_q)
    return exp(zero_bound * log_q), p1, p2


def coverage_kernel(delta, m_a, q_split, half_inside):
    if half_inside == 1:
        arg = delta * sqrt(m_a * (1.0 - q_split) / 2.0)
    else:
        arg = delta * sqrt(m_a * (1.0 - q_split)) / 2.0
    return erf(arg)


def gain_qber_kernel(mu, eta, y0, e_det, e0, with_eta):
    x = mu * eta if with_eta == 1 else mu
    detected = -expm1(-x)  # 1 - exp(-x)
    q = y0 + detected
    if q == 0.0:  # no click at all, so no error rate (y0 = 0 far out)
        return q, NAN
    return q, (e0 * y0 + e_det * detected) / q


def finite_delta_kernel(n, eps_pe, eps_bar, eps_pa):
    # rate penalty from finite raw-key length
    if not isfinite(n):
        return 0.0
    return (log2(2.0 / eps_pe) / n
            + 7.0 * sqrt((1.0 - log2(eps_bar)) / n)
            + 2.0 * log2(1.0 / (2.0 * eps_pa)) / n)


def decoy_correction_kernel(delta, m_a, lam_p_d, p2s_low):
    # multiphoton remainder of the single-photon estimator, in log space;
    # underflows to zero for any realistic pulse count
    if delta <= 0.0 or p2s_low <= 0.0 or lam_p_d >= 1.0:
        return 0.0
    lc = (log(2.0 * delta * m_a)
          + (2.0 * delta * m_a - 1.0) * log1p(-lam_p_d)
          + log(p2s_low)
          - lgamma((1.0 - delta) * m_a + 2.0))
    if lc < -700.0:
        return 0.0
    return exp(lc)


def untagged_lower_kernel(x, p_u):
    # lower bound on the untagged part of x, the tagged share adversarial
    low = (x - (1.0 - p_u)) / p_u
    return 0.0 if low < 0.0 else low


def q1u_no_decoy_kernel(qu_low, p0, p1):
    # single-photon untagged gain: what P_0 and P_1 leave of qu_low, or 0
    q1u = qu_low + p0 + p1 - 1.0
    return 0.0 if q1u < 0.0 else q1u


def e1u_decoy_kernel(eq_s_up, p0s_low, eq_v_low, q1u):
    # single-photon untagged error rate, vacuum errors removed, floored at 0
    e1u = (eq_s_up - p0s_low * eq_v_low) / q1u
    return 0.0 if e1u < 0.0 else e1u


def _decoy_q1u_e1u(m_a, delta, lam_p_s, lam_p_d, qu_s_up, qu_d_low, qu_v_up,
                   eq_s_up, eq_v_low, estimator):
    """Single-photon untagged gain (lower) and error (upper) for the signal class.

    The signal class uses lower envelopes and the decoy class upper ones;
    both share the log-binomials of the window edges.  Where the estimator's
    denominator is <= 0 the bound is unavailable, and the gain comes back 0.
    """
    hi = (1.0 + delta) * m_a
    lo = (1.0 - delta) * m_a
    c1_lo, c2_lo = _log_binomials(lo)
    c1_hi, c2_hi = _log_binomials(hi)
    p0s_l, p1s_l, p2s_l = _envelope(lam_p_s, hi, lo, c1_lo, c2_lo)
    p0d_u, p1d_u, p2d_u = _envelope(lam_p_d, lo, hi, c1_hi, c2_hi)

    if estimator == 0:      # paired: one bound per (class, n), reused everywhere
        vac = p0s_l * p2d_u - p0d_u * p2s_l
        den = p1d_u * p2s_l - p1s_l * p2d_u
    else:
        p2s_u = _envelope(lam_p_s, lo, hi, c1_hi, c2_hi)[2]
        p2d_l = _envelope(lam_p_d, hi, lo, c1_lo, c2_lo)[2]
        if estimator == 1:  # alternate: zero-photon-weighted vacuum subtraction
            vac = p0s_l * p2d_l - p0d_u * p0s_l
        else:               # strict: every slot bounded in the safe direction
            vac = p0s_l * p2d_l - p0d_u * p2s_u
        den = p1d_u * p2s_u - p1s_l * p2d_l

    corr = decoy_correction_kernel(delta, m_a, lam_p_d, p2s_l)
    q1u = 0.0
    if den > 0.0:
        num = qu_d_low * p2s_l - qu_s_up * p2d_u + qu_v_up * vac - corr
        q1u = p1s_l * num / den
        if q1u < 0.0:
            q1u = 0.0
        elif q1u > qu_s_up:
            q1u = qu_s_up
    if q1u <= 0.0:
        return 0.0, NAN
    return q1u, e1u_decoy_kernel(eq_s_up, p0s_l, eq_v_low, q1u)


def _privacy(q1u, e1u, p_u=1.0):
    """Privacy-amplification term p_u q1u (1 - h2(min(e1u, 1/2))), 0 without q1u."""
    if q1u > 0.0:
        return p_u * q1u * (1.0 - h2_kernel(e1u if e1u < 0.5 else 0.5))
    return 0.0


# --- rate evaluators ----------------------------------------------------------
#
# One evaluator per source model.  Each runs its stages in order while the
# status stays ok and returns the breakdown tuple from one place; slots of
# stages not reached stay nan.  ``finite`` is None for an asymptotic key,
# the limit N -> inf in which every deviation and the penalty Delta vanish.

def rate_no_decoy(m_a, eta, lam, delta, phys, flags, finite=None):
    q_split = phys[8]
    lam_p = lambda_prime_kernel(lam, q_split)
    rate = mu = q = e = p_u = qu_low = qu_up = q1u = e1u = NAN
    if finite is None:
        corr, n_raw, sifted = 0.0, INF, INF
    else:
        n_pulses, m_e, eps_pa, eps_bar, eps_u, eps_e = finite
        corr = n_raw = sifted = NAN
    status = STATUS_OK
    if window_violated(m_a, delta, lam_p):
        status = STATUS_WINDOW
    else:
        mu = mu_kernel(m_a, lam, q_split)
        q, e = gain_qber_kernel(mu, eta, phys[2], phys[3], phys[4], flags[0])
        p_u = coverage_kernel(delta, m_a, q_split, flags[1])
        if p_u <= 0.0:
            status = STATUS_NO_UNTAGGED
    if finite is not None and status == STATUS_OK:
        p_u -= xi_kernel(eps_u, n_pulses)
        if p_u <= 0.0:
            status = STATUS_FLUCTUATION
        else:
            if isfinite(n_pulses):
                sifted = 0.5 * q * n_pulses
                n_raw = sifted - m_e
            else:
                sifted = n_raw = INF
    if status == STATUS_OK and (q == 0.0 or n_raw <= 0.0):
        status = STATUS_EMPTY_KEY
    if status == STATUS_OK:
        qu_up = q / p_u
        qu_low = untagged_lower_kernel(q, p_u)
        # lower P_0; P_1 of the upper (mixed) or lower envelope; at most qu_up
        q1u = q1u_no_decoy_kernel(qu_low, photon_kernel(m_a, delta, lam_p, 0, 0),
                                  photon_kernel(m_a, delta, lam_p, 1, flags[2]))
        if q1u > qu_up:
            q1u = qu_up
        if q1u > 0.0:
            e_up = e if finite is None else e + xi_kernel(eps_e, m_e)
            e1u = q * e_up / q1u
        rate = 0.5 * (-q * phys[6] * h2_kernel(e) + _privacy(q1u, e1u))
        if finite is not None:
            corr = finite_delta_kernel(n_raw, min(eps_u, eps_e), eps_bar, eps_pa)
            rate -= 0.5 * q * corr
            if flags[4] == 1 and isfinite(sifted):
                rate *= 1.0 - m_e / sifted
    return (status, rate, mu, NAN, q, e, NAN, NAN, p_u, NAN, NAN,
            qu_low, qu_up, q1u, e1u, corr, n_raw, sifted)


def rate_decoy(m_a, eta, lam_s, lam_d, delta, phys, flags, finite=None):
    q_split = phys[8]
    lam_p_s = lambda_prime_kernel(lam_s, q_split)
    lam_p_d = lambda_prime_kernel(lam_d, q_split)
    rate = mu_s = mu_d = q_s = e_s = q_d = e_d = pu_s = pu_d = pu_v = NAN
    qu_d_low = qu_s_up = q1u = e1u = NAN
    if finite is None:
        p_s = ASYMPTOTIC_P_S
        corr, n_raw, sifted = 0.0, INF, INF
        unordered = False
    else:
        (n_pulses, m_e, p_s, p_d, eps_pa, eps_bar, eps_us, eps_ud, eps_uv,
         eps_es) = finite
        p_v = 1.0 - p_s - p_d
        corr = n_raw = sifted = NAN
        unordered = p_v <= 0.0 or p_s <= 0.0 or p_d <= 0.0
    status = STATUS_OK
    if lam_d >= lam_s or lam_d <= 0.0 or unordered:
        status = STATUS_ORDERING
    elif window_violated(m_a, delta, lam_p_s):
        status = STATUS_WINDOW
    else:
        y0, e_det, e0 = phys[2], phys[3], phys[4]
        mu_s = mu_kernel(m_a, lam_s, q_split)
        mu_d = mu_kernel(m_a, lam_d, q_split)
        q_s, e_s = gain_qber_kernel(mu_s, eta, y0, e_det, e0, flags[0])
        q_d, e_d = gain_qber_kernel(mu_d, eta, y0, e_det, e0, flags[0])
        pu_s = pu_d = pu_v = p_u_inf = coverage_kernel(delta, m_a, q_split,
                                                        flags[1])
        if p_u_inf <= 0.0:
            status = STATUS_NO_UNTAGGED
    if finite is not None and status == STATUS_OK:
        pu_s = p_u_inf - xi_kernel(eps_us, n_pulses * p_s)
        pu_d = p_u_inf - xi_kernel(eps_ud, n_pulses * p_d)
        pu_v = p_u_inf - xi_kernel(eps_uv, n_pulses * p_v)
        if pu_s <= 0.0 or pu_d <= 0.0 or pu_v <= 0.0:
            status = STATUS_FLUCTUATION
        else:
            if isfinite(n_pulses):
                sifted = 0.5 * n_pulses * p_s * q_s
                n_raw = sifted - m_e
            else:
                sifted = n_raw = INF
    if status == STATUS_OK and (q_s == 0.0 or n_raw <= 0.0):
        status = STATUS_EMPTY_KEY
    if status == STATUS_OK:
        q_v, e_v = y0, phys[5]
        qu_s_up = q_s / pu_s
        qu_d_low = untagged_lower_kernel(q_d, pu_d)
        eq_v_low = untagged_lower_kernel(e_v * q_v, pu_v)
        e_s_up = e_s if finite is None else e_s + xi_kernel(eps_es, m_e)
        q1u, e1u = _decoy_q1u_e1u(
            m_a, delta, lam_p_s, lam_p_d, qu_s_up, qu_d_low, q_v / pu_v,
            q_s * e_s_up / pu_s, eq_v_low, flags[3])
        rate = 0.5 * p_s * (-q_s * phys[6] * h2_kernel(e_s)
                            + _privacy(q1u, e1u, pu_s))
        if finite is not None:
            corr = finite_delta_kernel(n_raw, min(eps_us, eps_ud, eps_uv, eps_es),
                                       eps_bar, eps_pa)
            rate -= 0.5 * p_s * q_s * corr
            if flags[4] == 1 and isfinite(sifted):
                rate *= 1.0 - m_e / sifted
    return (status, rate, mu_s, mu_d, q_s, e_s, q_d, e_d, pu_s, pu_d, pu_v,
            qu_d_low, qu_s_up, q1u, e1u, corr, n_raw, sifted)


# --- unconstrained-to-feasible maps (used by the optimizer) --------------------

def logrange_kernel(z, log_range):
    # sigmoid onto a log-spaced interval, given as one of the *_LOG pairs;
    # total and strictly inside (lo, hi)
    log_lo, log_span = log_range
    if z >= 0.0:
        s = 1.0 / (1.0 + exp(-z))
    else:
        ez = exp(z)
        s = ez / (1.0 + ez)
    return exp(log_lo + s * log_span)


def _weight(z):
    # unnormalized simplex weight exp(min(max(z, -40), 40))
    return exp(40.0 if z > 40.0 else -40.0 if z < -40.0 else z)


def lambda_cap_kernel(delta, m_a, q_split):
    # largest encoder transmittance compatible with the sub-single-photon window
    cap = (1.0 - q_split) / (q_split * (1.0 + delta) * m_a)
    return cap if cap < 1.0 else 1.0


def params_no_decoy(raw, m_a, eta, n_pulses, phys, flags):
    delta = logrange_kernel(raw[0], DELTA_LOG)
    u = logrange_kernel(raw[1], U_LOG)
    lam = u * lambda_cap_kernel(delta, m_a, phys[8])
    if n_pulses == INF:
        return lam, delta, None
    mfrac = logrange_kernel(raw[2], MFRAC_LOG)
    q, _ = gain_qber_kernel(mu_kernel(m_a, lam, phys[8]), eta, phys[2],
                            phys[3], phys[4], flags[0])
    m_e = mfrac * 0.5 * q * n_pulses
    budget = phys[9] - phys[10]
    w0, w1, w2, w3 = _weight(raw[3]), _weight(raw[4]), _weight(raw[5]), _weight(raw[6])
    tot = w0 + w1 + w2 + w3
    return lam, delta, (n_pulses, m_e, budget * w0 / tot, budget * w1 / tot,
                        budget * w2 / tot, budget * w3 / tot)


def params_decoy(raw, m_a, eta, n_pulses, phys, flags):
    delta = logrange_kernel(raw[0], DELTA_LOG)
    u = logrange_kernel(raw[1], U_LOG)
    lam_s = u * lambda_cap_kernel(delta, m_a, phys[8])
    lam_d = lam_s * logrange_kernel(raw[2], RATIO_LOG)
    if n_pulses == INF:
        return lam_s, lam_d, delta, None
    mfrac = logrange_kernel(raw[3], MFRAC_LOG)
    ws, wd, wv = _weight(raw[4]), _weight(raw[5]), _weight(raw[6])
    wt = ws + wd + wv
    p_s, p_d = ws / wt, wd / wt
    q_s, _ = gain_qber_kernel(mu_kernel(m_a, lam_s, phys[8]), eta, phys[2],
                              phys[3], phys[4], flags[0])
    m_e = mfrac * 0.5 * n_pulses * p_s * q_s
    budget = phys[9] - phys[10]
    b0, b1, b2 = _weight(raw[7]), _weight(raw[8]), _weight(raw[9])
    b3, b4, b5 = _weight(raw[10]), _weight(raw[11]), _weight(raw[12])
    bt = b0 + b1 + b2 + b3 + b4 + b5
    return lam_s, lam_d, delta, (n_pulses, m_e, p_s, p_d,
                                 budget * b0 / bt, budget * b1 / bt,
                                 budget * b2 / bt, budget * b3 / bt,
                                 budget * b4 / bt, budget * b5 / bt)


# --- objectives: rate at a raw vector, PENALTY (plus a guide) when infeasible ---
# The status rule stays inline in each objective, since a shared helper
# costs a call per evaluation; status 3 needs a finite key.

def _fluctuation_guide(res):
    # smallest untagged probability, so the search climbs out of status 3
    guide = min(res[8], res[9], res[10])
    return PENALTY + (guide if guide == guide else -1.0)


def objective_no_decoy(raw, m_a, eta, n_pulses, phys, flags):
    lam, delta, finite = params_no_decoy(raw, m_a, eta, n_pulses, phys, flags)
    res = rate_no_decoy(m_a, eta, lam, delta, phys, flags, finite)
    if res[0] == STATUS_OK:
        return res[1]
    return _fluctuation_guide(res) if res[0] == STATUS_FLUCTUATION else PENALTY


def objective_decoy(raw, m_a, eta, n_pulses, phys, flags):
    lam_s, lam_d, delta, finite = params_decoy(raw, m_a, eta, n_pulses, phys,
                                               flags)
    res = rate_decoy(m_a, eta, lam_s, lam_d, delta, phys, flags, finite)
    if res[0] == STATUS_OK:
        return res[1]
    return _fluctuation_guide(res) if res[0] == STATUS_FLUCTUATION else PENALTY


# per-scenario aliases, for lookups by scenario name (module docstring)
rate_no_decoy_infinite = rate_no_decoy_finite = rate_no_decoy
rate_decoy_infinite = rate_decoy_finite = rate_decoy
params_no_decoy_infinite = params_no_decoy_finite = params_no_decoy
params_decoy_infinite = params_decoy_finite = params_decoy
objective_no_decoy_infinite = objective_no_decoy_finite = objective_no_decoy
objective_decoy_infinite = objective_decoy_finite = objective_decoy


# --- dense grid evaluation (brute-force oracle) --------------------------------

def grid_no_decoy_infinite(m_a, eta, deltas, us, phys, flags):
    best = -INF
    bi, bj = -1, -1
    for i, delta in enumerate(deltas):
        cap = lambda_cap_kernel(delta, m_a, phys[8])
        for j, u in enumerate(us):
            res = rate_no_decoy(m_a, eta, u * cap, delta, phys, flags)
            if res[0] == STATUS_OK and res[1] > best:
                best = res[1]
                bi, bj = i, j
    return best, bi, bj


def grid_decoy_infinite(m_a, eta, deltas, us, ratios, phys, flags):
    best = -INF
    bi, bj, bk = -1, -1, -1
    for i, delta in enumerate(deltas):
        cap = lambda_cap_kernel(delta, m_a, phys[8])
        for j, u in enumerate(us):
            lam_s = u * cap
            for k, ratio in enumerate(ratios):
                res = rate_decoy(m_a, eta, lam_s, lam_s * ratio, delta,
                                 phys, flags)
                if res[0] == STATUS_OK and res[1] > best:
                    best = res[1]
                    bi, bj, bk = i, j, k
    return best, bi, bj, bk
