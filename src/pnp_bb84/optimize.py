"""Rate maximization over the free parameters of a scenario.

The search runs in an unconstrained "raw" space mapped bijectively onto the
feasible set (log-sigmoid intervals for scalars, softmax simplices for the
class probabilities and the error-budget split), so every point the search
visits is feasible by construction.  The local method is Nelder-Mead from
deterministic starts: a physics-informed heuristic, then any caller-provided
warm starts, each with `_MAX_EVALS` evaluations (2000).  A best end with a
key (rate above 0) is then polished: Nelder-Mead restarts from it with
twice that budget, up to four times, until a restart gains less than 1e-6
of the rate.  A 13-dimensional simplex can collapse short of the optimum;
one restart left the decoy_finite rate at 58 km / 5e10 pulses 4e-4 below
the best known, a second and third close the gap.

A best end without a key is returned as it is, with its start's own
``converged`` flag.  Its polish would climb the no-key plateau, where a
negative rate rises toward 0 as the protocol degenerates, and the relative
stopping rule compares plateau values: at decoy_finite 70 km / 5e10 pulses
the four restarts took 15,919 of 17,919 evaluations and ended below zero.
Over the default fig2, fig3 and fig5 datasets such polish proved a key at
no point (`BENCH_no_key_polish.json`).  The rule reads the end's value,
never ``target``.  An infeasible end (an objective penalty) has no key
either, so it raises `InfeasibleProblemError` without a polish.

The heuristic start reads the problem and nothing else, so it can run
elsewhere: `maximize` takes its end, `_heuristic_end(problem)`, as the
keyword ``heuristic_end`` and runs only the warm starts and the polish.
`scans.scan_distance` computes the ends of a scan's later rows in a
worker process, ahead of its warm chain, and the results are those of
the sequential run, float for float.  Targeted calls never take one:
their search stops at the first proven key, which a run elsewhere would
not watch for, and each threshold-solver call depends on the answer
before it, so `find_lmax` and `find_na_threshold` run on one CPU.

There are no blind starts (the origin, seeded uniform draws from
``[-3, 3]`` in every raw coordinate).  At 23 points (20 km to past the
finite-key cutoffs) and seeds 0-15 they gained no key in 368 maximizes
and 1.99M evaluations, and they mostly end on the no-key plateau just
below zero, where a negative rate rises toward 0 as the protocol
degenerates.  Without them the 23 maximizes take 97k evaluations, the
same at every seed, and every rate with a key is at or above the blind
starts' worst seed and within 7e-9 relative of their best.

The initial simplex is ``x0`` plus ``x0 + 0.1 * e_k`` for every raw
coordinate k (`_INITIAL_STEP`).  scipy's default, 5% of a nonzero coordinate
and 0.00025 for a zero one, never moves the error-budget coordinates, which
are zero at the heuristic start, away from the equal split: with it the
search stopped at 0.973 of the best-known no_decoy_finite rate, even with 16
starts of 600 evaluations per dimension.  With any absolute step from 0.05
to 0.5, 4 starts of 2000 reached the best-known rates away from the cutoff.
Within a few kilometres of a finite-key cutoff the positive-rate basin is
narrow: only the heuristic start reached it, the blind starts ended on the
no-key plateau just below zero, and whether it does depends on the step.
At 0.5 it missed the basin 0.1-0.5 km inside the decoy_finite cutoff at
5e10 pulses; 0.1-0.15 missed the fewest such points.

Ties are broken by one rule, the same on every CPU.  The simplex is kept in
stable order of value, nan last: vertices of equal value keep their order,
and a new vertex goes after the values it ties with.  `maximize` takes the
end with the largest exact value; ties go to the smaller untagged-window
width delta, then to the first start in run order.  This order is
transitive, so the run order of the starts moves no other choice.

A threshold solver only asks whether the optimum exceeds a rate, and one
feasible point above it proves that it does.  So `maximize` takes an
optional ``target``: the search then stops at the first evaluation whose
reported point (m_e rounded as in every result) has a rate above it, and
returns that point unpolished, with ``converged=False``.  A search that
never gets there runs in full and returns what it returns without a target,
float for float.  Without a target the objective is not wrapped at all.

A problem holds the kernel arguments after the raw vector, ``(m_a, eta,
n_pulses, phys array, flags)``, built once when it is made; the parameter
maps, the heuristic start, the objective and the grid oracle read them there.

The objective the search evaluates comes from `_objectives`, generated
ahead of time from the `_kernels` source by ``tools/flatten.py`` and
imported at first use, never at import.  Everything the `_kernels`
objective calls (the parameter map, the rate kernel, the status rule and
each helper) is inlined there.  The no-decoy objective runs flat: one
function per source model, called through a closure over the problem's
arguments.  The decoy objective runs specialized: one function per key
length (``n_pulses == inf``), with the key length and the module's
constants folded in and the tuples it packs and unpacks gone, bound to the
problem by a prologue that computes the parts read only from the problem's
arguments once (``phys[8]``, ``flags[0]``, ``1.0 - phys[8]``, ...); the
conventions are tested at run time on those flags.  Either way an
evaluation makes no Python call into `_kernels`, and its floats are the
composed objective's, bit for bit (`tests/test_flatten.py`).  The no-decoy
objective stays flat because solver_chain's ``nath`` operation
(no_decoy_finite) sits just above perfbench's 50 ms drop rule, where a
faster ``nath`` would leave the scan alone in ``op_ms_p50`` (ROADMAP item
6).  The composed objective runs instead, behind the same call, when the
one `_objective_fn` looks up is not the function `_objectives` was
generated from (a wrapper such as perfbench's tracer installs, a stub), and
when `_objectives` is stale: ``_kernels.py`` cannot be read, its SHA-256 is
not the module's ``KERNELS_SHA256``, or the module does not import.  A
stale module gives one `StaleObjectivesWarning` per process.

`_nelder_mead` is a port of scipy 1.17's ``_minimize_neldermead`` with the
options used here (standard coefficients, ``initial_simplex`` as above,
``xatol=1e-6``, ``fatol=1e-11``, ``maxfev`` given), run on lists of Python
floats so that no step calls numpy.  It does scipy's float operations in
scipy's order.  scipy sorts the simplex with ``np.argsort``, whose order
for tied values comes from a SIMD sort that numpy picks for the CPU; with
``np.argsort`` made stable (``kind="stable"``) the evaluation counts and
optima are those of scipy's ``minimize``, float for float:

- the centroid adds the sorted vertices 0..n-1 one after another, then
  divides by n, as numpy's axis-0 reduce does;
- `_step_fn` generates the centroid and the reflection once per dimension,
  each coordinate written out as ``(s0[j] + s1[j] + ...) / n``.  Not
  ``sum()``, compensated for floats since Python 3.12, nor ``math.fsum``,
  exactly rounded: either would move floats;
- reflection, expansion and the two contractions are ``2*xbar - w``,
  ``3*xbar - 2*w``, ``1.5*xbar - 0.5*w`` and ``0.5*xbar + 0.5*w``, and a
  shrink moves vertex ``s`` to ``s0 + 0.5*(s - s0)``.  `_step_fn`
  generates the four moves in the same source, each coordinate written out
  with the same expression, so they run no loop and no ``zip``;
- an evaluation refused at the budget leaves the simplex as scipy's does,
  and a shrink writes each vertex before its evaluation is refused;
- the simplex is sorted in full only after a shrink or while a nan is
  among the kept vertices; otherwise the new vertex is inserted by
  bisection, after its equals, where a stable sort would put it;
- a nan value means not converged, and makes the reported minimum nan.

`tests/test_nelder_mead.py` holds the port to scipy's results.
"""

from __future__ import annotations

import functools
import math
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from . import _kernels
from .numerics import check_integer, check_range
from .params import BoundConventions, PhysicalParams, Scenario
from .rates import (ErrorBudget, ProtocolPoint, RateBreakdown, _record,
                    budget_fields, evaluate_rate)

# raw vector length per scenario; the layout is in the `_kernels` docstring
RAW_DIM = {
    Scenario.NO_DECOY_INFINITE: 2,
    Scenario.NO_DECOY_FINITE: 7,
    Scenario.DECOY_INFINITE: 3,
    Scenario.DECOY_FINITE: 13,
}

_MAX_EVALS = 2000      # evaluations per start; each polish run gets twice this
_INITIAL_STEP = 0.1    # initial simplex: x0 and x0 + step * e_k for each k
_POLISH_ROUNDS = 4     # at most this many polish runs after the starts...
_POLISH_RTOL = 1e-6    # ...stopping once one gains less than this, relatively
_GRID_CELLS_MAX = 10**8  # largest grid `grid_oracle` evaluates


class InfeasibleProblemError(ValueError):
    """No feasible point exists for the requested scenario and geometry."""


@dataclass(frozen=True)
class OptimizationProblem:
    """A scenario at one distance and pulse count.  It holds its kernel
    arguments ``_args`` (module docstring), built once as `PhysicalParams`
    builds its array, so `dataclasses.replace` builds them anew."""

    scenario: Scenario
    distance_km: float
    n_pulses: float = math.inf
    phys: PhysicalParams = field(default_factory=PhysicalParams)
    conventions: BoundConventions = field(default_factory=BoundConventions)
    seed: int = 0  # no effect; kept because perfbench/workloads.py passes it
    warm_starts: tuple[ProtocolPoint, ...] = ()

    def __post_init__(self) -> None:
        self.scenario.check_pulse_count(self.n_pulses)
        check_range("distance_km", self.distance_km, 0.0, math.inf,
                    hi_open=True)
        check_integer("seed", self.seed, 0)
        arr = self.phys.to_array()
        m_a, eta = _kernels.channel_at(self.distance_km, arr)
        if 0.0 in (m_a, eta):
            raise InfeasibleProblemError(
                f"no photon survives L={self.distance_km} km: the channel "
                f"attenuation underflows to 0")
        if self.phys.q_split * m_a == 0.0:
            # the encoder's transmittance cap divides by this product
            raise InfeasibleProblemError(
                f"q_split * m_a underflows to 0 at L={self.distance_km} km")
        object.__setattr__(self, "_args", (m_a, eta, self.n_pulses, arr,
                                           self.conventions.to_flags()))

    @property
    def dim(self) -> int:
        return RAW_DIM[self.scenario]


@dataclass(frozen=True)
class OptimizationResult:
    best_rate: float
    best_point: ProtocolPoint
    breakdown: RateBreakdown
    best_raw: tuple[float, ...]
    evaluations: int
    converged: bool


# --- raw <-> point maps ---------------------------------------------------------

def _logit_of_logrange(x: float, log_range: tuple[float, float]) -> float:
    # inverse of `_kernels.logrange_kernel`; the range is one of its *_LOG pairs
    log_lo, log_span = log_range
    s = (math.log(x) - log_lo) / log_span
    s = min(max(s, 1e-15), 1.0 - 1e-15)
    return math.log(s / (1.0 - s))


def point_from_raw(problem: OptimizationProblem, raw: Sequence[float]) -> ProtocolPoint:
    """Map a raw vector, any sequence of numbers, onto a feasible point."""
    # a numpy array's own tolist() gives Python floats at once; array("d")
    # would fetch its entries one numpy scalar at a time
    tolist = getattr(raw, "tolist", None)
    try:
        values = array("d", raw if tolist is None else tolist()).tolist()
    except (TypeError, OverflowError) as exc:  # OverflowError: 10**400
        raise ValueError(f"raw vector must hold {problem.dim} finite "
                         f"numbers: {exc}") from None
    if len(values) != problem.dim or not all(map(math.isfinite, values)):
        raise ValueError(f"raw vector {values!r} must hold {problem.dim} "
                         f"finite numbers")
    *lams, delta, finite = _kernel("params", problem)(values, *problem._args)
    return _point(problem, lams, delta, finite)


# the ``_kernels`` attribute of each kernel kind and scenario
_KERNEL_NAMES = {kind: {sc: f"{kind}_{sc.value}" for sc in Scenario}
                 for kind in ("params", "objective")}


def _kernel(kind: str, problem: OptimizationProblem) -> Callable:
    """``_kernels.<kind>_<scenario>``, looked up per call, not at import, so
    that a profiler replacing the attribute sees every call."""
    return getattr(_kernels, _KERNEL_NAMES[kind][problem.scenario])


def _point(problem: OptimizationProblem, lams: Sequence[float], delta: float,
           finite: Optional[tuple] = None) -> ProtocolPoint:
    """The point with transmittances ``lams``, ``(lam,)`` or ``(lam_s,
    lam_d)``, and a parameter map's ``finite`` tuple (None when asymptotic)."""
    sc = problem.scenario
    lam = lam_s = lam_d = m_e = p_s = p_d = p_v = budget = None
    if sc.uses_decoy:
        lam_s, lam_d = lams
    else:
        lam, = lams
    if sc.finite:
        m_e = finite[1]
        if sc.uses_decoy:
            p_s, p_d = finite[2:4]
            p_v = 1.0 - p_s - p_d
        budget = ErrorBudget.of(sc, finite[4 if sc.uses_decoy else 2:])
    return _record(ProtocolPoint, (sc, problem.distance_km, problem.n_pulses,
                                   lam, lam_s, lam_d, delta, m_e, p_s, p_d,
                                   p_v, budget))


def raw_from_point(problem: OptimizationProblem,
                   point: ProtocolPoint) -> tuple[float, ...]:
    """Right inverse of :func:`point_from_raw` on the feasible set."""
    if point.scenario is not problem.scenario:
        raise ValueError("point scenario does not match the problem")
    point.validate(problem.phys)
    sc = problem.scenario
    phys = problem.phys
    m_a, eta, _, _, flags = problem._args
    lam_s = point.lam_s if sc.uses_decoy else point.lam
    cap = _kernels.lambda_cap_kernel(point.delta, m_a, phys.q_split)
    raw = [_logit_of_logrange(point.delta, _kernels.DELTA_LOG),
           _logit_of_logrange(lam_s / cap, _kernels.U_LOG)]
    if sc.uses_decoy:
        raw.append(_logit_of_logrange(point.lam_d / lam_s, _kernels.RATIO_LOG))
    if sc.finite:
        q, _ = _kernels.gain_qber_kernel(
            _kernels.mu_kernel(m_a, lam_s, phys.q_split), eta, phys.y0,
            phys.e_det, phys.e0, flags[0])
        if sc.uses_decoy:
            sifted = 0.5 * problem.n_pulses * point.p_s * q
        else:
            sifted = 0.5 * q * problem.n_pulses
        if sifted == 0.0:
            raise ValueError("the signal gain is 0: no sifted key to sample")
        raw.append(_logit_of_logrange(point.m_e / sifted, _kernels.MFRAC_LOG))
        if sc.uses_decoy:
            raw += [math.log(point.p_s), math.log(point.p_d),
                    math.log(point.p_v)]
        raw += [math.log(eps / phys.eps_free)
                for eps in point.budget.values(sc)]
    return tuple(raw)


def _heuristic_raw(problem: OptimizationProblem) -> list[float]:
    """A single physics-informed start near the typical optimum basin.

    Window wide enough for a ~1e-8 tagged fraction, signal intensity around
    0.35 photons (decoy) or half the channel transmittance (no decoy), a mild
    decoy ratio, a 10% sampling fraction and flat budget weights; with both
    decoys and a finite key the class weights favour the signal.
    """
    sc = problem.scenario
    phys = problem.phys
    m_a, eta = problem._args[:2]
    a = math.sqrt(m_a * (1.0 - phys.q_split) / 2.0)
    delta = min(max(4.0 / a, _kernels.DELTA_LO * 2), 0.5)
    cap = _kernels.lambda_cap_kernel(delta, m_a, phys.q_split)
    if sc.uses_decoy:
        mu = 0.35
    else:
        mu = min(0.7 * eta, 0.35)
    lam = min(mu / (m_a * phys.q_split), cap * 0.999)
    u = max(min(lam / cap, 0.99), _kernels.U_LO * 10)
    raw = [_logit_of_logrange(delta, _kernels.DELTA_LOG),
           _logit_of_logrange(u, _kernels.U_LOG)]
    if sc.uses_decoy:
        ratio = 0.15 if sc.finite else 0.1
        raw.append(_logit_of_logrange(ratio, _kernels.RATIO_LOG))
    if sc.finite:
        raw.append(_logit_of_logrange(0.1, _kernels.MFRAC_LOG))
        if sc.uses_decoy:
            raw += [math.log(w) for w in (0.55, 0.35, 0.10)]
        raw += [0.0] * len(budget_fields(sc))
    return raw


class StaleObjectivesWarning(UserWarning):
    """`_objectives` was not generated from ``_kernels.py`` as it stands:
    the composed objectives run (module docstring)."""


# the composed objectives `_objectives` was generated from, by use of decoys
_GENERATED_FROM = {False: _kernels.objective_no_decoy,
                   True: _kernels.objective_decoy}


@functools.cache
def _generated():
    """`_objectives`, imported at first use, or None with one
    `StaleObjectivesWarning` when it is stale: ``_kernels.py`` cannot be
    read, its SHA-256 is not the module's ``KERNELS_SHA256``, or the module
    does not import."""
    try:   # not hashlib, whose OpenSSL costs a process 3.5 MB and 4 ms
        from _sha256 import sha256   # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256   # since 3.12
        except ImportError:
            from hashlib import sha256
    try:
        with open(_kernels.__file__, "rb") as source:
            digest = sha256(source.read()).hexdigest()
        from . import _objectives
    except (OSError, ImportError, SyntaxError):
        digest = _objectives = None
    if digest is not None and digest == _objectives.KERNELS_SHA256:
        return _objectives
    warnings.warn("pnp_bb84/_objectives.py was not generated from "
                  "_kernels.py as it stands, so the slower composed "
                  "objectives run; regenerate it with "
                  "'python tools/flatten.py'", StaleObjectivesWarning,
                  stacklevel=3)
    return None


def _objective_fn(problem: OptimizationProblem
                  ) -> Callable[[list[float]], float]:
    """The rate at a raw vector: the problem's objective from `_objectives`,
    specialized to the problem's key length and bound to it (with decoys)
    or flat behind a closure (without); the `_kernels` objective when that
    is a wrapper or stub, or `_objectives` is stale (module docstring)."""
    kern = _kernel("objective", problem)
    m_a, eta, n_pulses, arr, flags = problem._args
    uses_decoy = problem.scenario.uses_decoy
    generated = (_generated() if kern is _GENERATED_FROM[uses_decoy]
                 else None)
    if generated is not None and uses_decoy:
        make = (generated.make_decoy_infinite if n_pulses == math.inf
                else generated.make_decoy_finite)
        return make(*problem._args)
    if generated is not None:
        kern = generated.objective_no_decoy
    return lambda z: kern(z, m_a, eta, n_pulses, arr, flags)


# --- Nelder-Mead ----------------------------------------------------------------

_XATOL = 1e-6
_FATOL = 1e-11


class _BudgetSpent(Exception):
    """An evaluation was refused: the budget of `_nelder_mead` is used up."""


def _stable_sorted(sim: list, fsim: list) -> tuple[list, list]:
    """The simplex in stable order of value, nan last: the tie rule."""
    order = sorted(range(len(fsim)),
                   key=lambda i: (fsim[i] != fsim[i], fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


# coordinate j of each move from ``a``, the centroid (the best vertex for a
# shrink), and ``b``, a vertex
_MOVES = {"expand": "3.0 * a{j} - 2.0 * b{j}",
          "outside": "1.5 * a{j} - 0.5 * b{j}",
          "inside": "0.5 * a{j} + 0.5 * b{j}",
          "shrink": "a{j} + 0.5 * (b{j} - a{j})"}


@functools.cache
def _step_fn(n: int) -> Callable[[list[list[float]]], tuple[list, list]]:
    """``(xbar, xr)`` of a sorted simplex: the centroid of its first ``n``
    vertices, coordinate j written out as ``(s0[j] + s1[j] + ...) / n`` and
    added left to right as numpy does, and the reflection ``2.0 * xbar - w``
    of the last vertex ``w`` (see the module docstring).  Its ``moves``
    are ``expand(xbar, w)``, ``outside(xbar, w)``, ``inside(xbar, w)`` and
    ``shrink(s0, s)``, the terms of `_MOVES` written out per coordinate."""
    verts = [f"s{i}" for i in range(n)]
    lines = ["def step(sim):", f"    {', '.join(verts)}, w = sim"]
    lines += [f"    c{j} = ({' + '.join(f'{v}[{j}]' for v in verts)}) / {n}"
              for j in range(n)]
    lines.append(f"    return [{', '.join(f'c{j}' for j in range(n))}], "
                 f"[{', '.join(f'2.0 * c{j} - w[{j}]' for j in range(n))}]")
    for name, term in _MOVES.items():
        terms = ", ".join(term.format(j=j) for j in range(n))
        lines += [f"def {name}(a, b):",
                  f"    {''.join(f'a{j}, ' for j in range(n))}= a",
                  f"    {''.join(f'b{j}, ' for j in range(n))}= b",
                  f"    return [{terms}]"]
    namespace = {}
    exec("\n".join(lines), namespace)
    step = namespace["step"]
    step.moves = tuple(namespace[name] for name in _MOVES)
    return step


def _nelder_mead(f: Callable[[list[float]], float], x0: Sequence[float],
                 maxfev: int) -> tuple[list[float], float, int, bool]:
    """Minimize ``f`` from ``x0`` with at most ``maxfev`` evaluations.

    Returns ``(x, fun, nfev, success)``, where ``success`` means the simplex
    met ``_XATOL``/``_FATOL`` before the budget ran out.  ``f`` receives a
    list it must not modify.  The simplex is kept in stable order of value,
    nan last, each new vertex after its equals.  The steps are those of
    scipy's ``minimize(method="Nelder-Mead")`` with ``maxfev``, the two
    tolerances and the `_INITIAL_STEP` simplex set, float for float, once
    ``np.argsort`` is stable (see the module docstring).
    """
    n = len(x0)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x)

    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = y[k] + _INITIAL_STEP
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts twice before the first step; a stable sort needs one
    sim, fsim = _stable_sorted(sim, fsim)

    step = _step_fn(n)
    expand, outside, inside, shrink = step.moves
    while nfev < maxfev:
        best, fbest = sim[0], fsim[0]
        # fsim is sorted, so its largest distance from fbest is the last
        # value's (nan, sorted last, fails both tests as in scipy)
        if (fsim[-1] - fbest <= _FATOL
                and all(abs(a - b) <= _XATOL
                        for x in sim[1:] for a, b in zip(x, best))):
            break
        new = None
        shrunk = False
        try:
            xbar, xr = step(sim)
            worst = sim[-1]
            fxr = call(xr)
            if fxr < fbest:
                xe = expand(xbar, worst)
                fxe = call(xe)
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                new = (xr, fxr)
            else:
                if fxr < fsim[-1]:
                    xc = outside(xbar, worst)
                    fxc = call(xc)
                    if fxc <= fxr:
                        new = (xc, fxc)
                else:
                    xcc = inside(xbar, worst)
                    fxcc = call(xcc)
                    if fxcc < fsim[-1]:
                        new = (xcc, fxcc)
                if new is None:
                    shrunk = True
                    for j in range(1, n + 1):
                        # the vertex is written before its evaluation,
                        # which the budget may refuse
                        sim[j] = shrink(best, sim[j])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        if new is not None:
            sim[-1], fsim[-1] = new
        if shrunk or (new is not None and fsim[-2] != fsim[-2]):
            sim, fsim = _stable_sorted(sim, fsim)
        elif new is not None:
            # the kept vertices are sorted and hold no nan; a nan fx
            # compares false and goes last
            x, fx = sim.pop(), fsim.pop()
            pos = bisect_right(fsim, fx)
            sim.insert(pos, x)
            fsim.insert(pos, fx)

    # a nan value sorts last, and makes the minimum nan as in np.min
    fun = fsim[0] if fsim[-1] == fsim[-1] else math.nan
    return sim[0], fun, nfev, nfev < maxfev


def _delta_of_raw(raw: Sequence[float]) -> float:
    return _kernels.logrange_kernel(raw[0], _kernels.DELTA_LOG)


class _TargetMet(Exception):
    """An evaluation proved a rate above the target; the one argument is
    the `OptimizationResult` that reports it."""


def _stopping_at(problem: OptimizationProblem,
                 fn: Callable[[list[float]], float],
                 target: float) -> Callable[[list[float]], float]:
    """``-fn``, raising `_TargetMet` at the first evaluation whose reported
    point has a rate above ``target``."""
    evaluations = 0

    def neg(z):
        nonlocal evaluations
        evaluations += 1
        val = fn(z)
        if val > target:
            result = _result(problem, z, evaluations, converged=False)
            if result.best_rate > target:
                raise _TargetMet(result)
        return -val

    return neg


def _heuristic_end(problem: OptimizationProblem
                   ) -> tuple[list[float], float, int, bool]:
    """`maximize`'s first start run alone, untargeted: `_nelder_mead`'s
    return from `_heuristic_raw`, which reads the problem and nothing else."""
    fn = _objective_fn(problem)
    return _nelder_mead(lambda z: -fn(z), _heuristic_raw(problem), _MAX_EVALS)


def maximize(problem: OptimizationProblem,
             target: Optional[float] = None, *,
             heuristic_end: Optional[tuple] = None) -> OptimizationResult:
    """Maximize the scenario rate over the problem's free parameters.

    Deterministic: the heuristic start, then each warm start, runs in full,
    and the best end is polished if it has a key (see the module
    docstring); without one it is the result, and ``converged`` is its
    start's.  The best end has the largest exact value; ties go to the
    smaller untagged-window width, then to the first start in run order.

    With a ``target``, the search stops at the first evaluation whose
    reported point, m_e rounded, has a rate above ``target``: that point,
    never polished, is the result, with ``converged=False``.  It proves the
    optimum exceeds ``target`` and says nothing more about it.  A search
    that never gets there returns what it returns without a target.
    ``target`` must be finite and >= 0: below `_kernels.PENALTY` an
    infeasible point's penalty would pass for a proof.

    ``heuristic_end`` is `_heuristic_end(problem)` computed elsewhere, as a
    scan's worker process does for its later rows (`scans.scan_distance`):
    it stands in for the heuristic start's run, whose evaluations it
    counts, so the result is the one `maximize` would return without it.
    It cannot go with a ``target``, which that run did not watch for.
    """
    fn = _objective_fn(problem)
    if target is None:
        neg = lambda z: -fn(z)
    elif heuristic_end is not None:
        raise ValueError("a heuristic_end cannot go with a target")
    else:
        check_range("target", target, 0.0, math.inf, hi_open=True)
        neg = _stopping_at(problem, fn, target)
    starts = [_heuristic_raw(problem)]
    starts += [raw_from_point(problem, wp) for wp in problem.warm_starts]

    best_val, best_raw, best_delta = -math.inf, starts[0], math.inf
    evaluations = 0
    try:
        for k, x0 in enumerate(starts):
            if k == 0 and heuristic_end is not None:
                x, fun, nfev, success = heuristic_end
            else:
                x, fun, nfev, success = _nelder_mead(neg, x0, _MAX_EVALS)
            evaluations += nfev
            val, d = -fun, _delta_of_raw(x)
            if val > best_val or (val == best_val and d < best_delta):
                best_val, best_raw, best_delta = val, x, d
                converged = success

        # each polish restarts from the best point with a fresh simplex; an
        # end without a key is returned as it is (see the module docstring)
        polish_rounds = _POLISH_ROUNDS if best_val > 0.0 else 0
        for _ in range(polish_rounds):
            x, fun, nfev, converged = _nelder_mead(neg, best_raw,
                                                   2 * _MAX_EVALS)
            evaluations += nfev
            gain = -fun - best_val
            if not gain > 0.0:
                break
            best_val, best_raw = -fun, x
            if gain <= _POLISH_RTOL * abs(best_val):
                break
    except _TargetMet as met:
        return met.args[0]

    if best_val <= _kernels.PENALTY + 1.0:
        raise InfeasibleProblemError(
            f"no feasible point found for {problem.scenario.value} at "
            f"L={problem.distance_km} km, n_pulses={problem.n_pulses}")
    return _result(problem, best_raw, evaluations, converged)


def _result(problem: OptimizationProblem, raw: Sequence[float],
            evaluations: int, converged: bool) -> OptimizationResult:
    """The reported result at ``raw``: its point, m_e rounded, and rate."""
    point = point_from_raw(problem, raw)
    if problem.scenario.finite:
        point = _round_sample_count(problem, point)
    breakdown = evaluate_rate(point, problem.phys, problem.conventions)
    return OptimizationResult(best_rate=breakdown.rate, best_point=point,
                              breakdown=breakdown, best_raw=tuple(raw),
                              evaluations=evaluations, converged=converged)


def _round_sample_count(problem: OptimizationProblem,
                        point: ProtocolPoint) -> ProtocolPoint:
    """Round m_e to the nearest integer >= 1 (reported points are integral).

    Degenerate points whose sifted key is shorter than two bits keep the
    real-valued m_e: no integer sample size fits there.
    """
    breakdown = evaluate_rate(point, problem.phys, problem.conventions)
    m_e = max(1.0, float(round(point.m_e)))
    if m_e >= breakdown.sifted:
        m_e = math.floor(breakdown.sifted - 1e-9)
        if m_e < 1.0 or m_e >= breakdown.sifted:
            return point
    return replace(point, m_e=m_e)


def _grid_axis(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [math.sqrt(lo * hi)]
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)  # numpy's geomspace steps
    return [lo, *(10.0 ** (k * step + a) for k in range(1, n - 1)), hi]


def grid_oracle(problem: OptimizationProblem, resolution: int) -> OptimizationResult:
    """Exhaustive log-spaced grid search; brute-force oracle for `maximize`.

    Only available for the infinite-key scenarios, whose parameter spaces are
    two- and three-dimensional.  At most `_GRID_CELLS_MAX` (10**8) cells:
    ``resolution`` up to 10000 without decoys, 464 with them.
    """
    if problem.scenario.finite:
        raise ValueError("grid oracle only covers the infinite-key scenarios")
    check_integer("resolution", resolution, 1)
    cells = int(resolution) ** problem.dim
    if cells > _GRID_CELLS_MAX:
        raise ValueError(f"resolution={resolution} gives {cells} grid cells, "
                         f"more than {_GRID_CELLS_MAX}")
    m_a, eta, _, arr, flags = problem._args
    axes = [_grid_axis(_kernels.DELTA_LO, _kernels.DELTA_HI, resolution),
            _grid_axis(_kernels.U_LO, _kernels.U_HI, resolution)]
    if problem.scenario.uses_decoy:
        axes.append(_grid_axis(_kernels.RATIO_LO, _kernels.RATIO_HI,
                               resolution))
        grid = _kernels.grid_decoy_infinite
    else:
        grid = _kernels.grid_no_decoy_infinite
    _, *best_at = grid(m_a, eta, *axes, arr, flags)
    if best_at[0] < 0:
        raise InfeasibleProblemError("grid found no feasible point")
    delta, u, *ratio = [axis[i] for axis, i in zip(axes, best_at)]
    lam_s = u * _kernels.lambda_cap_kernel(delta, m_a, problem.phys.q_split)
    point = _point(problem, [lam_s] + [lam_s * r for r in ratio], delta)
    breakdown = evaluate_rate(point, problem.phys, problem.conventions)
    return OptimizationResult(best_rate=breakdown.rate, best_point=point,
                              breakdown=breakdown,
                              best_raw=raw_from_point(problem, point),
                              evaluations=math.prod(map(len, axes)),
                              converged=True)
