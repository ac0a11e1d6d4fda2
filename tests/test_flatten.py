"""The flat objectives: `_kernels.objective_*` with every helper inlined.

`optimize._objective_fn` runs the no-decoy objective `_flatten.flattened`
builds from the `_kernels` source, and the decoy objective specialized to
its problem by `_flatten.specialized`.  These tests hold both to the
composed objective float for float, check what the generated source calls,
that a wrapper or stub passes through unchanged, when generation happens,
and that the flattener refuses a shape it cannot rewrite exactly.
"""

import ast
import importlib.util
import itertools
import linecache
import math
import re
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings

from pnp_bb84 import (BoundConventions, OptimizationProblem, Scenario,
                      _flatten, _kernels, maximize)
from pnp_bb84.optimize import _heuristic_raw, _objective_fn

from test_properties import CONVENTIONS, draws

MODELS = {False: "objective_no_decoy", True: "objective_decoy"}


def flat_and_composed(scenario):
    composed = getattr(_kernels, MODELS[scenario.uses_decoy])
    return _flatten.flattened(composed, _kernels), composed


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
def test_objective_fn_runs_the_flat_objective(scenario):
    # the decoy objective runs specialized to the problem, the no-decoy one
    # flat behind a closure
    n_pulses = 5e10 if scenario.finite else math.inf
    problem = OptimizationProblem(scenario, 30.0, n_pulses)
    flat, composed = flat_and_composed(scenario)
    fn = _objective_fn(problem)
    if scenario.uses_decoy:
        assert fn.__code__.co_filename == variant_filename(
            not scenario.finite, problem.conventions.to_flags())
        assert fn.__code__.co_argcount == 1
    else:
        assert flat.__code__ in [c.cell_contents.__code__
                                 for c in fn.__closure__
                                 if callable(c.cell_contents)]
    raw = _heuristic_raw(problem)
    _, args = kernel_args(scenario, 30.0, n_pulses,
                          problem.conventions)
    assert fn(raw) == composed(raw, *args)


# --- the decoy objective specialized to its problem -------------------------------

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


def variant_filename(infinite, flags):
    return (f"<specialized pnp_bb84._kernels.objective_decoy "
            f"n_pulses == INF: {infinite}, flags: {flags}>")


def specialized_and_composed(args):
    composed = _kernels.objective_decoy
    spec = _flatten.specialized(composed, _kernels, *args)
    return spec, lambda raw: composed(raw, *args)


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
        # nan is not INF: it takes the finite-key variant, whose runtime
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
    n_pulses = 5e10 if scenario.finite else math.inf
    problem, args = kernel_args(scenario, 30.0, n_pulses, BoundConventions())
    spec, _ = specialized_and_composed(args)
    source = "".join(linecache.getlines(spec.__code__.co_filename))
    assert source.startswith("def make(m_a, eta, n_pulses, phys, flags):")
    inner = source[source.index("    def objective_decoy(raw):"):]
    # the prologue reads phys once; an evaluation reads neither phys nor
    # flags, nor the key length, and unpacks no finite tuple
    for word in ("phys", "flags", "INF", "finite", "DELTA_LOG"):
        assert not re.search(rf"\b{word}\b", inner), word
    assert ("isfinite(n_pulses)" in inner) == scenario.finite
    assert not _calls(source) & {
        name for name, value in vars(_kernels).items()
        if getattr(value, "__module__", None) == _kernels.__name__}


def test_specialization_happens_once_per_variant_and_not_at_import():
    script = textwrap.dedent("""
        import linecache, math, sys
        import pnp_bb84
        assert "pnp_bb84._flatten" not in sys.modules
        assert not [k for k in linecache.cache if k.startswith("<spec")]
        from pnp_bb84 import BoundConventions, Scenario, _flatten
        from pnp_bb84.optimize import OptimizationProblem, _objective_fn
        made = []
        source = _flatten._Specializer.source
        def counted(self):
            made.append(self.fold.names["flags"])
            return source(self)
        _flatten._Specializer.source = counted
        conventions = (BoundConventions(), BoundConventions.strict())
        for _ in range(2):
            for conv in conventions:
                for sc in Scenario:
                    for km in (20.0, 60.0):
                        n = 5e10 if sc.finite else math.inf
                        problem = OptimizationProblem(sc, km, n,
                                                      conventions=conv)
                        _objective_fn(problem)([0.0] * problem.dim)
        # one variant per key length and flag tuple, none without decoys
        assert sorted(made) == sorted(c.to_flags() for c in conventions
                                      for _ in range(2)), made
        names = [k for k in linecache.cache if k.startswith("<spec")]
        assert len(names) == 4, names
        print("ok")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_generation_does_not_depend_on_the_hash_seed():
    # sets and dicts of strings iterate in an order that PYTHONHASHSEED
    # moves; no generated byte may follow it
    script = textwrap.dedent("""
        import linecache
        from pnp_bb84 import BoundConventions, _flatten, _kernels
        sources = [_flatten._flat_source(_kernels.objective_no_decoy),
                   _flatten._flat_source(_kernels.objective_decoy)]
        for infinite in (False, True):
            make = _flatten._make(_kernels.objective_decoy, infinite,
                                  BoundConventions().to_flags())
            sources.append("".join(linecache.getlines(
                make.__code__.co_filename)))
        print("\\n# ---\\n".join(sources))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("def make(") == 2
    assert outputs[0] == outputs[1]


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
            spec = _flatten.specialized(module.entry, module, *args)
            source = "".join(linecache.getlines(spec.__code__.co_filename))
            inner = source[source.index("    def entry(raw):"):]
            for raw in ([1.0, 0.0], [-1.0, 0.0], [-1.0, 9.0]):
                assert spec(raw) == module.entry(raw, *args)
            assert ("raw[0] > 0.0" in inner) == (flags == (1,))
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
         flags = (0,)
         return raw[0]
     """, "assigns a name of the key 'flags'"),
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
        spec = _flatten.specialized(module.entry, module, *args)
        for raw in ([1.0, 1.0], [1.0, -1.0]):
            assert spec(raw) == module.entry(raw, *args)
        return
    with pytest.raises(_flatten.FlattenError, match=message):
        _flatten.specialized(module.entry, module, *args)


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
    spec = _flatten.specialized(module.entry, module, *args)
    assert spec.__code__.co_filename.startswith("<specialized")
    for raw in ([2.0, 3.0], [2.0, -3.0], [-1.5, 0.25]):
        assert spec(raw) == module.entry(raw, *args)


def _calls(source: str) -> set:
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


@pytest.mark.parametrize("uses_decoy", [False, True])
def test_generated_source_calls_no_kernel_function(uses_decoy):
    flat = _flatten.flattened(getattr(_kernels, MODELS[uses_decoy]), _kernels)
    source = "".join(linecache.getlines(flat.__code__.co_filename))
    assert source.startswith(f"def {MODELS[uses_decoy]}(")
    kernel_functions = {name for name, value in vars(_kernels).items()
                        if callable(value)
                        and getattr(value, "__module__", None)
                        == _kernels.__name__}
    called = _calls(source)
    assert called and not called & kernel_functions
    assert "_kernels" not in source


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
        assert _flatten.flattened(fn, _kernels) is fn
        calls.clear()
        problem = OptimizationProblem(scenario, 20.0, n_pulses)
        assert _objective_fn(problem)([0.0] * problem.dim) is not None
        assert len(calls) == 1
        if fn is not stub:
            continue
        calls.clear()
        result = maximize(problem)
        assert len(calls) == result.evaluations > 0


def test_generation_happens_once_per_objective_and_not_at_import():
    script = textwrap.dedent("""
        import linecache, math, sys
        import pnp_bb84
        assert "pnp_bb84._flatten" not in sys.modules
        assert not [k for k in linecache.cache if k.startswith("<flat")]
        from pnp_bb84 import Scenario, _flatten
        from pnp_bb84.optimize import OptimizationProblem, _objective_fn
        made = []
        flatten = _flatten._Flattener.flatten
        def counted(self, fdef):
            made.append(fdef.name)
            return flatten(self, fdef)
        _flatten._Flattener.flatten = counted
        for _ in range(2):
            for sc in Scenario:
                n = 5e10 if sc.finite else math.inf
                problem = OptimizationProblem(sc, 20.0, n)
                _objective_fn(problem)([0.0] * problem.dim)
        assert sorted(made) == ["objective_decoy", "objective_no_decoy"], made
        print("ok")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


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
    flat = _flatten.flattened(module.entry, module)
    assert flat is not module.entry
    source = "".join(linecache.getlines(flat.__code__.co_filename))
    assert not _calls(source) & {"twice", "clamp", "pair"}
    for a in (-2.0, -0.3, 0.0, 0.2, 0.7, 3.0):
        for b in (-1.5, -0.1, 0.4, 2.0):
            assert flat(a, b) == module.entry(a, b)
    assert outcome(flat, 1.0, 0.0) is ZeroDivisionError
    assert outcome(module.entry, 1.0, 0.0) is ZeroDivisionError


def test_traceback_shows_the_generated_lines(tmp_path):
    module = load(tmp_path, "shapes_tb", SHAPES)
    flat = _flatten.flattened(module.entry, module)
    with pytest.raises(ZeroDivisionError) as info:
        flat(1.0, 0.0)
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename == "<flat shapes_tb.entry>"
    assert "/ b" in frame.line


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


def test_only_a_def_at_the_line_its_code_starts_on_is_inlined(tmp_path):
    # a decorated function's code starts at its decorator
    module = load(tmp_path, "decorated", DEFS)
    flat = _flatten.flattened(module.entry, module)
    assert flat is not module.entry
    assert _calls("".join(linecache.getlines(flat.__code__.co_filename))) \
        == {"twice"}
    # a def moved since import, the entry's own staying where it was
    module = load(tmp_path, "moved", DEFS)
    path = tmp_path / "moved.py"
    path.write_text(path.read_text().replace("def half", "\n\ndef half"))
    linecache.checkcache(str(path))
    flat = _flatten.flattened(module.entry, module)
    assert flat is not module.entry
    assert _calls("".join(linecache.getlines(flat.__code__.co_filename))) \
        == {"twice", "half"}
    for a in (-1.5, 0.0, 0.3, 2.0):
        assert flat(a) == module.entry(a)


def test_a_module_source_is_parsed_once(tmp_path, monkeypatch):
    _flatten._functions.cache_clear()
    parsed, parse = [], ast.parse
    monkeypatch.setattr(ast, "parse",
                        lambda text, *a, **k: parsed.append(text)
                        or parse(text, *a, **k))
    module = load(tmp_path, "parsed_once", SHAPES + """
    def other(a):
        return clamp(twice(a), -1.0)
    """)
    source = (tmp_path / "parsed_once.py").read_text()
    for fn, args in ((module.entry, (0.7, 2.0)), (module.other, (0.3,))):
        flat = _flatten.flattened(fn, module)
        assert flat is not fn and flat(*args) == fn(*args)
    assert parsed.count(source) == 1


def test_a_missing_source_runs_unchanged(tmp_path):
    module = load(tmp_path, "gone", SHAPES)
    (tmp_path / "gone.py").unlink()
    linecache.checkcache()
    assert _flatten.flattened(module.entry, module) is module.entry
    module = load(tmp_path, "gone_objective", RUNTIME_TESTS)
    (tmp_path / "gone_objective.py").unlink()
    linecache.checkcache()
    args = (2.0, 0.5, 5e10, (3.0, 0.25), (1,))
    spec = _flatten.specialized(module.entry, module, *args)
    assert not spec.__code__.co_filename.startswith("<specialized")
    assert spec([-1.0, 9.0]) == module.entry([-1.0, 9.0], *args)


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
    with pytest.raises(_flatten.FlattenError, match=message):
        _flatten.flattened(module.entry, module)
