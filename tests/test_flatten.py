"""The generated objectives: `_objectives`, written by ``tools/flatten.py``.

`optimize._objective_fn` runs the committed flat ``objective_no_decoy`` and
the decoy objective specialized to its key length, ``make_decoy_finite`` or
``make_decoy_infinite`` bound to the problem.  These tests hold them, and the
generator's flat decoy objective, to the composed objectives float for
float; check that the committed module is the generator's output, what the
generated source calls, that a wrapper, a stub or a stale module runs the
composed objective and that nothing is generated at run time; and that the
generator refuses a shape it cannot rewrite exactly.
"""

import ast
import importlib.util
import inspect
import itertools
import math
import re
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings

import flatten
from pnp_bb84 import (BoundConventions, OptimizationProblem, Scenario,
                      _kernels, _objectives, maximize, optimize)
from pnp_bb84.optimize import (StaleObjectivesWarning, _heuristic_raw,
                               _objective_fn)

from test_properties import CONVENTIONS, draws

ROOT = Path(__file__).resolve().parent.parent
MODELS = {False: "objective_no_decoy", True: "objective_decoy"}


def compiled(source, module, name):
    """Function ``name`` of generated ``source``, run in ``module``."""
    namespace = {}
    exec(compile(source, f"<generated {module.__name__}>", "exec"),
         vars(module), namespace)
    return namespace[name]


def flattened(fn, module):
    return compiled(flatten.flat_source(fn), module, fn.__name__)


def specialized(fn, module, m_a, eta, n_pulses, phys, flags):
    """``raw -> fn(raw, m_a, ...)`` as the generator specializes it."""
    make = compiled(flatten.make_source(fn, n_pulses == math.inf), module,
                    "make")
    return make(m_a, eta, n_pulses, phys, flags)


def flat_and_composed(scenario):
    """The committed flat no-decoy objective, or the generator's flat decoy
    objective, which the committed decoy functions are specialized from."""
    composed = getattr(_kernels, MODELS[scenario.uses_decoy])
    if scenario.uses_decoy:
        return flattened(composed, _kernels), composed
    return _objectives.objective_no_decoy, composed


def outcome(fn, *args):
    """The value, or the type of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not hidden: both must raise it
        return type(exc)


def assert_same(flat, composed, *args):
    a, b = outcome(flat, *args), outcome(composed, *args)
    assert a == b or (a != a and b != b), (args, a, b)
    return b


def kernel_args(scenario, distance_km, n_pulses, conventions):
    problem = OptimizationProblem(scenario, distance_km, n_pulses,
                                  conventions=conventions)
    arr = problem.phys.to_array()
    m_a, eta = _kernels.channel_at(distance_km, arr)
    return problem, (m_a, eta, n_pulses, arr, conventions.to_flags())


@pytest.mark.parametrize("conv_name", list(CONVENTIONS))
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_flat_objective_equals_the_composed_one(scenario, conv_name):
    flat, composed = flat_and_composed(scenario)
    assert flat is not composed
    conv = CONVENTIONS[conv_name]

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(draws(scenario))
    def check(draw):
        distance_km, n_pulses, raw = draw
        _, args = kernel_args(scenario, distance_km, n_pulses, conv)
        assert_same(flat, composed, raw, *args)

    check()


# raws past every range: the sigmoids' far ends, and simplex weights on both
# sides of the +-40 clamp
EDGES = (30.0, -30.0, 39.5, 40.0, 41.0, -41.0, 1e3, -1e3)


@pytest.mark.parametrize("conv_name", list(CONVENTIONS))
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_flat_objective_equals_the_composed_one_at_the_edges(scenario,
                                                             conv_name):
    flat, composed = flat_and_composed(scenario)
    conv = CONVENTIONS[conv_name]
    values = []
    for distance_km in (0.0, 20.0, 60.0, 150.0, 400.0):
        n_counts = (5e10, 1e6, 1e16) if scenario.finite else (math.inf,)
        for n_pulses in n_counts:
            problem, args = kernel_args(scenario, distance_km, n_pulses, conv)
            base = _heuristic_raw(problem)
            raws = [base, [30.0] * problem.dim, [-30.0] * problem.dim]
            for k in range(problem.dim):
                for v in EDGES:
                    raws.append(base[:k] + [v] + base[k + 1:])
            for raw in raws:
                values.append(assert_same(flat, composed, raw, *args))
                if scenario.finite:
                    # a finite-key raw vector at n_pulses = inf, the
                    # asymptotic branch of the parameter map
                    assert_same(flat, composed, raw, *args[:2], math.inf,
                                *args[3:])
    # the status rule's branches were reached: a rate and, with a finite
    # key, the penalty or the guide out of status 3 (at most PENALTY)
    penalty = _kernels.PENALTY
    assert any(v > penalty + 1.0 for v in values)
    assert scenario.finite == any(v <= penalty for v in values)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_objective_fn_runs_the_committed_objective(scenario):
    # the decoy objective runs specialized to the problem's key length, the
    # no-decoy one flat behind a closure
    n_pulses = 5e10 if scenario.finite else math.inf
    problem = OptimizationProblem(scenario, 30.0, n_pulses)
    fn = _objective_fn(problem)
    if scenario.uses_decoy:
        assert fn.__code__.co_filename == _objectives.__file__
        assert fn.__qualname__ == (
            f"make_decoy_{'finite' if scenario.finite else 'infinite'}"
            f".<locals>.objective_decoy")
        assert fn.__code__.co_argcount == 1
    else:
        assert _objectives.objective_no_decoy in [
            c.cell_contents for c in fn.__closure__]
    raw = _heuristic_raw(problem)
    _, args = kernel_args(scenario, 30.0, n_pulses, problem.conventions)
    assert fn(raw) == getattr(_kernels, MODELS[scenario.uses_decoy])(raw,
                                                                    *args)


# --- the decoy objective specialized to its key length ---------------------------

DECOY_AXES = ("gain_model", "window_coverage", "decoy_estimator",
              "sifting_factor")
# every choice of the conventions the decoy objective reads: 24 flag tuples
DECOY_CONVENTIONS = [
    BoundConventions(**dict(zip(DECOY_AXES, values)))
    for values in itertools.product(*(BoundConventions._CHOICES[a]
                                      for a in DECOY_AXES))]
DECOY_SCENARIOS = [Scenario.DECOY_INFINITE, Scenario.DECOY_FINITE]


def conventions_id(conv):
    return "-".join(getattr(conv, a) for a in DECOY_AXES)


def specialized_and_composed(args):
    """The committed function for the key length of ``args``, bound to them,
    and the composed objective at them."""
    make = (_objectives.make_decoy_infinite if args[2] == math.inf
            else _objectives.make_decoy_finite)
    return make(*args), lambda raw: _kernels.objective_decoy(raw, *args)


def test_every_decoy_flag_tuple_is_covered():
    flags = {conv.to_flags() for conv in DECOY_CONVENTIONS}
    assert len(flags) == 24
    # the decoy kernel reads every flag but single_photon_mass (slot 2)
    assert {(f[0], f[1], f[3], f[4]) for f in flags} == set(
        itertools.product((0, 1), (0, 1), (0, 1, 2), (0, 1)))


@pytest.mark.parametrize("conv", DECOY_CONVENTIONS, ids=conventions_id)
@pytest.mark.parametrize("scenario", DECOY_SCENARIOS, ids=lambda s: s.value)
def test_specialized_objective_equals_the_composed_one(scenario, conv):
    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(draws(scenario))
    def check(draw):
        distance_km, n_pulses, raw = draw
        _, args = kernel_args(scenario, distance_km, n_pulses, conv)
        assert_same(*specialized_and_composed(args), raw)

    check()


@pytest.mark.parametrize("conv", DECOY_CONVENTIONS, ids=conventions_id)
@pytest.mark.parametrize("scenario", DECOY_SCENARIOS, ids=lambda s: s.value)
def test_specialized_objective_equals_the_composed_one_at_the_edges(scenario,
                                                                    conv):
    values = []
    for distance_km in (0.0, 60.0, 400.0):
        # nan is not INF: it takes the finite-key function, whose runtime
        # tests on n_pulses stay
        n_counts = ((5e10, 1e6, 1e16, math.inf, math.nan) if scenario.finite
                    else (math.inf,))
        for n_pulses in n_counts:
            problem, args = kernel_args(scenario, distance_km,
                                        5e10 if scenario.finite else n_pulses,
                                        conv)
            args = args[:2] + (n_pulses,) + args[3:]
            spec, composed = specialized_and_composed(args)
            base = _heuristic_raw(problem)
            raws = [base, [30.0] * problem.dim, [-30.0] * problem.dim]
            for k in range(problem.dim):
                for v in EDGES:
                    raws.append(base[:k] + [v] + base[k + 1:])
            values += [assert_same(spec, composed, raw) for raw in raws]
    penalty = _kernels.PENALTY
    assert any(v > penalty + 1.0 for v in values)
    assert scenario.finite == any(v <= penalty for v in values)


@pytest.mark.parametrize("scenario", DECOY_SCENARIOS, ids=lambda s: s.value)
def test_specialized_source_reads_no_flag_and_no_physical_parameter(scenario):
    name = f"make_decoy_{'finite' if scenario.finite else 'infinite'}"
    source = inspect.getsource(getattr(_objectives, name))
    assert source.startswith(f"def {name}(m_a, eta, n_pulses, phys, flags):")
    inner = source[source.index("    def objective_decoy(raw):"):]
    # the prologue reads phys and flags once; an evaluation reads neither,
    # nor the key length, and unpacks no finite tuple
    for word in ("phys", "flags", "INF", "finite", "DELTA_LOG"):
        assert not re.search(rf"\b{word}\b", inner), word
    assert ("isfinite(n_pulses)" in inner) == scenario.finite
    # one prologue name per distinct value: 1.0 - phys[8] is computed once
    prologue = source[:source.index("    def objective_decoy(raw):")]
    values = re.findall(r"^    bound\w* = (.*)$", prologue, re.M)
    assert values and len(values) == len(set(values))
    assert "1.0 - bound\n" in prologue and "(1.0 - bound)" not in prologue


def test_import_generates_nothing_and_maximize_imports_no_generator():
    # the objectives are imported at first use, never at import, and no run
    # imports the generator, on the import path here as it would be in a
    # checkout
    script = textwrap.dedent("""
        import math, sys, warnings
        warnings.simplefilter("error")
        import pnp_bb84
        assert "pnp_bb84._objectives" not in sys.modules
        from pnp_bb84 import OptimizationProblem, Scenario, maximize
        for sc, km in ((Scenario.NO_DECOY_INFINITE, 20.0),
                       (Scenario.NO_DECOY_FINITE, 20.0),
                       (Scenario.DECOY_INFINITE, 60.0),
                       (Scenario.DECOY_FINITE, 60.0)):
            n = 5e10 if sc.finite else math.inf
            assert maximize(OptimizationProblem(sc, km, n)).best_rate > 0
        assert "pnp_bb84._objectives" in sys.modules
        assert "flatten" not in sys.modules
        import flatten
        print("ok")
    """)
    path = f"{ROOT / 'src'}:{ROOT / 'tools'}"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the committed module follows ast.unparse of "
                           "Python 3.11")
def test_the_committed_module_is_the_generators_output():
    committed = Path(_objectives.__file__).read_text()
    assert flatten.module_source() == committed
    assert committed.count("\ndef ") == 3


def test_a_second_generation_in_one_process_gives_the_same_text():
    # no state kept between runs, such as a cached tree that a rewrite
    # changed in place, may move a byte
    first = flatten.module_source()
    assert flatten.module_source() == first
    if sys.version_info[:2] == (3, 11):
        assert first == Path(_objectives.__file__).read_text()


def test_generation_does_not_depend_on_the_hash_seed():
    # sets and dicts of strings iterate in an order that PYTHONHASHSEED
    # moves; no generated byte may follow it
    script = "import flatten; print(flatten.module_source(), end='')"
    path = f"{ROOT / 'src'}:{ROOT / 'tools'}"
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": path, "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\ndef make_decoy_") == 2
    assert outputs[0] == outputs[1]


# --- what runs instead of the committed objectives -------------------------------

@pytest.fixture
def fresh_guard():
    """`optimize._generated` run anew in the test, and after it."""
    optimize._generated.cache_clear()
    yield
    optimize._generated.cache_clear()


def problems():
    return [OptimizationProblem(sc, 60.0 if sc.uses_decoy else 20.0,
                                5e10 if sc.finite else math.inf)
            for sc in Scenario]


def stale(monkeypatch, how, tmp_path):
    if how == "hash":
        monkeypatch.setattr(_objectives, "KERNELS_SHA256", "0" * 64)
    elif how == "unreadable":
        monkeypatch.setattr(_kernels, "__file__",
                            str(ROOT / "no such directory" / "_kernels.py"))
    elif how == "import":   # a name it imports gone from _kernels, say
        import pnp_bb84
        monkeypatch.delattr(pnp_bb84, "_objectives")
        monkeypatch.setitem(sys.modules, "pnp_bb84._objectives", None)
    else:   # a merge-conflict marker or a truncated write
        import pnp_bb84
        broken = tmp_path / "_objectives.py"
        broken.write_text("<<<<<<< HEAD\n"
                          + Path(_objectives.__file__).read_text())
        monkeypatch.delattr(pnp_bb84, "_objectives")
        monkeypatch.delitem(sys.modules, "pnp_bb84._objectives")
        monkeypatch.setattr(pnp_bb84, "__path__",
                            [str(tmp_path), *pnp_bb84.__path__])


@pytest.mark.parametrize("how", ["hash", "unreadable", "import", "syntax"])
def test_a_stale_module_warns_once_and_runs_the_composed_objective(
        monkeypatch, fresh_guard, tmp_path, how):
    def results():
        return [(r.best_rate, r.best_raw, r.evaluations, r.converged,
                 r.best_point) for r in map(maximize, problems())]

    expected = results()
    optimize._generated.cache_clear()
    stale(monkeypatch, how, tmp_path)
    with pytest.warns(StaleObjectivesWarning) as record:
        fns = [_objective_fn(problem) for problem in problems() * 2]
    assert len(record) == 1
    for fn, problem in zip(fns, problems() * 2):
        composed = getattr(_kernels, MODELS[problem.scenario.uses_decoy])
        assert composed in [c.cell_contents for c in fn.__closure__]
    # each float and evaluation count as from the committed objectives
    assert results() == expected


@pytest.mark.parametrize("scenario", [Scenario.DECOY_FINITE,
                                      Scenario.NO_DECOY_INFINITE],
                         ids=lambda s: s.value)
def test_a_wrapper_or_stub_sees_every_evaluation(monkeypatch, scenario):
    import functools

    n_pulses = 5e10 if scenario.finite else math.inf
    name = f"objective_{scenario.value}"
    original = getattr(_kernels, name)
    calls = []

    @functools.wraps(original)
    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    def stub(raw, *rest):
        calls.append(raw)
        return -sum((v - 0.5) ** 2 for v in raw)

    for fn in (wrapper, stub, lambda *args: calls.append(args[0]) or 0.0):
        monkeypatch.setattr(_kernels, name, fn)
        calls.clear()
        problem = OptimizationProblem(scenario, 20.0, n_pulses)
        assert _objective_fn(problem)([0.0] * problem.dim) is not None
        assert len(calls) == 1
        if fn is not stub:
            continue
        calls.clear()
        result = maximize(problem)
        assert len(calls) == result.evaluations > 0


def test_traceback_shows_the_committed_lines():
    # the objectives run from a file of their own
    problem = OptimizationProblem(Scenario.NO_DECOY_INFINITE, 20.0)
    m_a, eta, n_pulses, arr, flags = problem._args
    phys = arr[:8] + (0.0,) + arr[9:]   # q_split 0: the cap divides by it
    with pytest.raises(ZeroDivisionError) as info:
        _objectives.objective_no_decoy([0.0, 0.0], m_a, eta, n_pulses, phys,
                                       flags)
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename == _objectives.__file__
    assert "/ (q_split" in frame.line


# --- the specializer on small synthetic modules ----------------------------------

RUNTIME_TESTS = """
    from math import isfinite

    INF = float("inf")

    def entry(raw, m_a, eta, n_pulses, phys, flags):
        if flags[0] == 1 and raw[0] > 0.0:
            return raw[0] * phys[1]
        if n_pulses == INF:
            return -1.0
        if isfinite(n_pulses) and m_a * phys[0] > raw[1]:
            return 2.0 * eta
        return 3.0
"""


def test_a_test_on_a_runtime_value_stays_unfolded(tmp_path):
    module = load(tmp_path, "runtime_tests", RUNTIME_TESTS)
    for flags in ((1,), (0,)):
        for n_pulses in (math.inf, 5e10, math.nan):
            args = (2.0, 0.5, n_pulses, (3.0, 0.25), flags)
            spec = specialized(module.entry, module, *args)
            source = flatten.make_source(module.entry, n_pulses == math.inf)
            inner = source[source.index("    def entry(raw):"):]
            for raw in ([1.0, 0.0], [-1.0, 0.0], [-1.0, 9.0]):
                assert spec(raw) == module.entry(raw, *args)
            # the flags are read at run time, from the prologue
            assert re.search(r"if bound\w* == 1 and raw\[0\] > 0.0:", inner)
            assert "flags" not in inner and "== INF" not in inner
            # m_a * phys[0] is the problem's, computed once
            assert bool(re.search(r"isfinite\(n_pulses\) and bound\w* > "
                                  r"raw\[1\]", inner)) == (n_pulses != math.inf)


@pytest.mark.parametrize("source,message", [
    ("""
     def entry(raw, m_a, eta, n_pulses, phys, flags):
         t = (raw[0], m_a)
         a, b = t
         t = (a + 1.0, b)
         return t[0] * t[1]
     """, "tuple t is stored twice on one path"),
    ("""
     def entry(raw, m_a, eta, n_pulses, phys, flags):
         t = (raw[0], m_a)
         if raw[1] > 0.0:
             t = (raw[1], eta)
         return t[0]
     """, "tuple t is stored twice on one path"),
    ("""
     def entry(raw, m_a, eta, n_pulses, phys, flags):
         t = (raw[0], m_a) if raw[1] > 0.0 else None
         if t is None:
             return 0.0
         return t[1]
     """, None),
    ("""
     def entry(raw, m_a, eta, n_pulses, phys, flags):
         n_pulses = 0.0
         return raw[0]
     """, "assigns a name of the key 'n_pulses == INF'"),
    ("""
     def entry(raw, m_a, eta, n_pulses, phys, flags):
         s = 0.0
         for v in raw:
             s += v
         return s
     """, "a For statement is not handled"),
    ("""
     def entry(raw, m_a, eta, n_pulses, phys, flags):
         s = raw[0]
         if raw[1] > 0.0:
             t = 1.0
         else:
             s = s * eta
         return s
     """, "an if whose body is emptied"),
])
def test_unhandled_shapes_raise_at_specialization(tmp_path, source, message):
    module = load(tmp_path, f"bad_spec_{abs(hash(source))}", source)
    args = (2.0, 0.5, 5e10, (3.0,), (1,))
    if message is None:   # not a tuple literal everywhere: left as it is
        spec = specialized(module.entry, module, *args)
        for raw in ([1.0, 1.0], [1.0, -1.0]):
            assert spec(raw) == module.entry(raw, *args)
        return
    with pytest.raises(flatten.FlattenError, match=message):
        specialized(module.entry, module, *args)


@pytest.mark.parametrize("source", [
    # a copy whose name is stored again before the copy is read
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        y = raw[0]
        x = y
        y = raw[1]
        return x * y
    """,
    # a value read once, one of its inputs stored between
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        a = raw[0]
        v = a * 2.0
        a = raw[1]
        return v + a
    """,
    # a read inside an if body after that body stores the copied name
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        a = raw[0]
        x = a
        if raw[1] > 0.0:
            a = raw[1]
            return x + a
        return a
    """,
], ids=["copy", "value", "if-body"])
def test_a_read_keeps_the_value_stored_before_it(tmp_path, source):
    module = load(tmp_path, f"stored_between_{abs(hash(source))}", source)
    args = (2.0, 0.5, 5e10, (3.0,), (1,))
    spec = specialized(module.entry, module, *args)
    for raw in ([2.0, 3.0], [2.0, -3.0], [-1.5, 0.25]):
        assert spec(raw) == module.entry(raw, *args)


def _inner(module):
    """``module.entry`` specialized to a finite key, the arguments it is
    bound to, and the source of its evaluation."""
    args = (2.0, 0.5, 5e10, (3.0,), (1,))
    source = flatten.make_source(module.entry, False)
    return (specialized(module.entry, module, *args), args,
            source[source.index("    def entry(raw):"):])


def test_a_later_occurrence_reads_the_earlier_one(tmp_path):
    module = load(tmp_path, "reused", """
    from math import log, sqrt

    def entry(raw, m_a, eta, n_pulses, phys, flags):
        x = raw[0]
        y = raw[1]
        a = sqrt(x * y + 1.0) - eta
        if a > 0.0:
            return sqrt(x * y + 1.0) * a + log(x * x) + (x * x - 1.0)
        return a
    """)
    spec, args, inner = _inner(module)
    # the first sqrt is stored apart and read by name in the if body; the
    # first x * x of one expression is read by the second
    assert inner.count("sqrt(") == 1 and inner.count("x * x") == 1
    assert re.search(r"(shared\w*) = sqrt\(.*\)\n\s*a = \1 - eta\n", inner)
    for raw in ([2.0, 3.0], [0.5, -1.0], [-1.5, 0.25], [0.0, 1.0]):
        assert outcome(spec, raw) == outcome(module.entry, raw, *args)


def test_a_conditional_occurrence_is_neither_read_nor_reads(tmp_path):
    # exp(x) runs unconditionally in b alone: in a it is an IfExp branch,
    # in c a later comparison link, in d a later and-operand, in e an IfExp
    # branch again
    module = load(tmp_path, "conditional", """
    from math import exp

    def entry(raw, m_a, eta, n_pulses, phys, flags):
        x = raw[0]
        a = exp(x) if x > 0.0 else 1.0
        b = a * exp(x)
        c = 0.0 < b < exp(x)
        d = b > 1.0 and exp(x) > 2.0
        e = b if x < 0.0 else exp(x)
        return a + b + c + d + e + a * b * c * d * e
    """)
    spec, args, inner = _inner(module)
    assert inner.count("exp(x)") == 5 and "shared" not in inner
    for raw in ([2.0], [0.5], [-1.5], [0.0]):
        assert spec(raw) == module.entry(raw, *args)


@pytest.mark.parametrize("source", [
    # an input stored between the two occurrences
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        x = raw[0]
        a = exp(x) + 1.0
        x = raw[1]
        b = exp(x) + 2.0
        return a * b + a + b
    """,
    # an input stored in a branch between them
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        x = raw[0]
        a = exp(x) + 1.0
        if raw[1] > 0.0:
            x = raw[2]
        b = exp(x) + 2.0
        return a * b + a + b
    """,
    # the name the first is read by stored between
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        x = raw[0]
        a = exp(x)
        b = a + 1.0
        a = raw[2]
        c = exp(x)
        return a * b * c + a + b + c
    """,
    # the first inside a branch, which does not run on every path
    """
    def entry(raw, m_a, eta, n_pulses, phys, flags):
        x = raw[0]
        a = 1.0
        if raw[1] > 0.0:
            a = exp(x) + 1.0
        b = exp(x) + 2.0
        return a * b + a + b
    """,
], ids=["store", "store-in-branch", "name-stored", "first-in-branch"])
def test_a_store_in_between_keeps_both_occurrences(tmp_path, source):
    module = load(tmp_path, f"kept_{abs(hash(source))}",
                  "from math import exp\n" + textwrap.dedent(source))
    spec, args, inner = _inner(module)
    assert inner.count("exp(") == 2
    for raw in ([2.0, 3.0, 1.0], [0.5, -1.0, 2.0], [-1.5, 0.25, -3.0]):
        assert spec(raw) == module.entry(raw, *args)


def test_a_call_that_may_change_a_value_in_place_blocks_reuse(tmp_path):
    # bump stays a call (it is decorated) and changes raw[0] in place, so
    # the second raw[0] * 2.0 is not the first
    module = load(tmp_path, "in_place", """
    def tag(f):
        return f

    @tag
    def bump(v):
        v[0] = v[0] + 1.0
        return 0.0

    def entry(raw, m_a, eta, n_pulses, phys, flags):
        a = raw[0] * 2.0
        b = bump(raw) + raw[0] * 2.0
        return a + b + a * b
    """)
    spec, args, inner = _inner(module)
    assert inner.count("raw[0] * 2.0") == 2
    assert spec([1.0]) == module.entry([1.0], *args) == 14.0


def test_a_prologue_value_is_computed_once_per_problem():
    # m_a * (1.0 - phys[8]) is read alone and halved, in both key lengths
    for name in ("make_decoy_finite", "make_decoy_infinite"):
        source = inspect.getsource(getattr(_objectives, name))
        prologue = source[:source.index("    def objective_decoy(raw):")]
        products = re.findall(r"^    (bound\w*) = m_a \* bound\w*$",
                              prologue, re.M)
        assert len(products) == 1, name
        assert f" = {products[0]} / 2.0\n" in prologue, name
        assert prologue.count("m_a *") == 1, name


def test_a_finite_key_evaluation_computes_each_shared_value_once(monkeypatch):
    # the signal gain -expm1(-mu) is read by the map's m_e and by the rate,
    # and the decoy correction reads (1 - delta) m_a where the envelopes do
    source = inspect.getsource(_objectives.make_decoy_finite)
    lower = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
             and ast.unparse(n.left).startswith("1.0 - delta")
             and ast.unparse(n.right) == "m_a"]
    assert len(lower) == 1
    calls = []
    expm1 = _objectives.expm1
    monkeypatch.setattr(_objectives, "expm1",
                        lambda x: calls.append(x) or expm1(x))
    problem = OptimizationProblem(Scenario.DECOY_FINITE, 20.0, 5e10)
    objective = _objectives.make_decoy_finite(*problem._args)
    raw = _heuristic_raw(problem)
    assert objective(raw) == _kernels.objective_decoy(raw, *problem._args) > 0
    assert len(calls) == 2


def _calls(source: str) -> set:
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_generated_source_calls_no_kernel_function():
    kernel_functions = {name for name, value in vars(_kernels).items()
                        if callable(value)
                        and getattr(value, "__module__", None)
                        == _kernels.__name__}
    for model in MODELS.values():
        source = flatten.flat_source(getattr(_kernels, model))
        assert source.startswith(f"def {model}(")
        called = _calls(source)
        assert called and not called & kernel_functions
        assert "_kernels" not in source
    committed = Path(_objectives.__file__).read_text()
    called = _calls(committed)
    assert called and not called & kernel_functions


# --- the flattener on small synthetic modules ------------------------------------

def load(tmp_path, name, source):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SHAPES = """
    def twice(x):
        return 2.0 * x

    def clamp(x, lo=0.0):
        # a return ends each branch; the rest of the body follows the if
        if x < lo:
            return lo
        y = x if x < 1.0 else 1.0
        return y

    def pair(x):
        return x, twice(x) + 1.0

    def entry(a, b):
        s, t = pair(a - b)
        u = clamp(s) + clamp(t, -1.0) if s > 0 else twice(t)
        v = 0.0 if b > 0 else twice(b)
        w = clamp(twice(u)) / b
        return w if u > 0.5 else clamp(v)
"""


def test_synthetic_module_flattens_to_the_same_values(tmp_path):
    module = load(tmp_path, "shapes", SHAPES)
    flat = flattened(module.entry, module)
    assert not _calls(flatten.flat_source(module.entry)) & {"twice", "clamp",
                                                             "pair"}
    for a in (-2.0, -0.3, 0.0, 0.2, 0.7, 3.0):
        for b in (-1.5, -0.1, 0.4, 2.0):
            assert flat(a, b) == module.entry(a, b)
    assert outcome(flat, 1.0, 0.0) is ZeroDivisionError
    assert outcome(module.entry, 1.0, 0.0) is ZeroDivisionError


DEFS = """
    def tag(f):
        f.tagged = True
        return f

    @tag
    def twice(x):
        return 2.0 * x

    def entry(a):
        return twice(a) + half(a)

    def half(x):
        return 0.5 * x
"""


def test_a_decorated_helper_stays_a_call(tmp_path):
    module = load(tmp_path, "decorated", DEFS)
    assert _calls(flatten.flat_source(module.entry)) == {"twice"}
    flat = flattened(module.entry, module)
    for a in (-1.5, 0.0, 0.3, 2.0):
        assert flat(a) == module.entry(a)


def test_a_name_bound_to_another_function_stays_a_call(tmp_path):
    # the def of half is not what the module binds to half
    module = load(tmp_path, "rebound", """
    def twice(x):
        return 2.0 * x

    def half(x):
        return 0.5 * x

    half = twice

    def entry(a):
        return half(a) + twice(a)
    """)
    assert _calls(flatten.flat_source(module.entry)) == {"half"}
    assert flattened(module.entry, module)(0.3) == module.entry(0.3) == 1.2


def test_a_missing_source_raises(tmp_path):
    module = load(tmp_path, "gone", SHAPES)
    (tmp_path / "gone.py").unlink()
    with pytest.raises(flatten.FlattenError, match="gone.entry cannot be"):
        flatten.flat_source(module.entry)
    module = load(tmp_path, "gone_objective", RUNTIME_TESTS)
    (tmp_path / "gone_objective.py").unlink()
    with pytest.raises(flatten.FlattenError, match="cannot be read"):
        flatten.make_source(module.entry, False)


@pytest.mark.parametrize("source,message", [
    ("""
     def helper(x):
         return x + 1.0

     def entry(a):
         return a > 0.0 and helper(a) > 1.0
     """, "boolean operand"),
    ("""
     def helper(x):
         for k in range(3):
             if k > x:
                 return k
         return -1

     def entry(a):
         return helper(a)
     """, "does not end its branch"),
    ("""
     def helper(x):
         if x > 0.0:
             y = x
             if x > 1.0:
                 return y
         return 0.0

     def entry(a):
         return helper(a)
     """, "does not end its branch"),
    ("""
     def helper(x):
         x = x + 1.0
         return x

     def entry(a):
         return helper(a)
     """, "reassigns its parameter x"),
    ("""
     def helper(x):
         if x > 0.0:
             return x

     def entry(a):
         return helper(a)
     """, "ends without a return"),
    ("""
     def helper(x):
         if x > 0.0:
             y = x
         else:
             return 0.0
         return y

     def entry(a):
         return helper(a)
     """, "does not end its branch"),
    ("""
     def helper(x):
         return x + 1.0

     def entry(a):
         helper(a)
         return a
     """, "Expr statement is not handled"),
    ("""
     def helper(x):
         pass
         return x

     def entry(a):
         return helper(a)
     """, "Pass statement is not handled"),
    ("""
     def helper(x):
         "a docstring, dropped"
         if x > 0.0:
             "not a docstring"
         return x

     def entry(a):
         return helper(a)
     """, "Expr statement is not handled"),
])
def test_unhandled_shapes_raise_at_generation(tmp_path, source, message):
    name = f"bad_{abs(hash(source))}"
    module = load(tmp_path, name, source)
    with pytest.raises(flatten.FlattenError, match=message):
        flatten.flat_source(module.entry)
