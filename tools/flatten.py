"""Generate ``src/pnp_bb84/_objectives.py``, the optimizer's objectives,
from the `_kernels` source.

    python tools/flatten.py

rewrites that module from ``src/pnp_bb84/_kernels.py`` as it stands.  Run it
after every edit of `_kernels` and commit both; until then
`optimize._objective_fn` finds the module stale and runs the composed
objectives.  The module holds:

- ``objective_no_decoy``: `_kernels.objective_no_decoy` flattened, every
  call to a function of that module (a helper) replaced by the helper's
  body (`flat_source`);
- ``make_decoy_finite`` and ``make_decoy_infinite``:
  `_kernels.objective_decoy` specialized to each key length, ``n_pulses ==
  INF`` false and true (`make_source`).  ``make(m_a, eta, n_pulses, phys,
  flags)`` returns ``objective(raw)``;
- ``KERNELS_SHA256``, the SHA-256 of the ``_kernels.py`` they came from,
  and an import of every `_kernels` name they read.

Each runs the same float operations on the same values as the composed
objective, so its results equal it bit for bit, while an evaluation drops
the composed objective's some forty Python calls.

The flat function and its helpers may hold assignments, augmented
assignments, ``if`` statements, returns and a leading docstring, which is
dropped, nothing else.  The rewrite, on the helpers' own source:

- each helper's locals get fresh names (``name_<k>``); a parameter whose
  argument is a plain name or a constant is replaced by it, any other
  argument is assigned to a fresh local first;
- a ``return`` becomes an assignment to the call's target at the end of its
  branch; the statements after an ``if`` whose body returns on every path
  move into its ``else``;
- a helper call inside an expression is hoisted into an assignment before
  its statement, and ``x = a if c else helper(...)`` becomes an ``if``.

Hoisting evaluates a helper call ahead of the rest of its statement, which
changes no value for helpers without side effects, as in `_kernels`.  Every
other shape raises `FlattenError`: any other statement (a loop, ``pass``, a
call or a string standing alone); a helper call in a target, or one
evaluated only sometimes (a later operand of ``and``/``or``, a conditional
expression inside a larger one, a later link of a chained comparison, a
comprehension or lambda); in a helper, a ``return`` that does not end its
branch, an ``if`` holding a return whose body can fall through (one whose
``else`` alone returns, say), a path that ends without a return, a nested
scope or generator step, a reassigned parameter, or a global that the flat
function has as a local; and arguments other than positional ones and
constant defaults.  So does a function not defined at the top level of its
module's file; a decorated helper stays a call.

`make_source(fn, infinite)` goes one step further for an objective
``fn(raw, m_a, eta, n_pulses, phys, flags)``: the source of ``make(m_a,
eta, n_pulses, phys, flags)``, which returns ``objective(raw)`` for the key
``n_pulses == INF`` given by ``infinite``.  The rewrite of the flat source,
repeated until nothing changes:

- the key is substituted: ``n_pulses == INF`` becomes a constant, and so do
  the module's numbers and tuples of numbers, read as they stand, as the
  helpers are.  ``flags`` stays an argument, read at run time;
- a test, comparison, constant subscript or conditional whose operands are
  then all constants is folded, and a constant ``and``/``or`` operand that
  cannot decide its test is dropped.  A test on a runtime value stays:
  ``isfinite(n_pulses)`` is kept, since nan is not INF and so takes the
  finite-key variant;
- a local stored as a tuple literal and read only by unpacking, a constant
  subscript or ``is None`` (the map's ``finite``, the helpers' multi-value
  returns, the breakdown) becomes one local per slot; one stored twice on a
  path raises `FlattenError`;
- a local stored once is written at its reads in one pass: a constant, or
  a name that keeps its value, at every read; another name at its reads
  later in its block before that name is stored again; any other value at
  its one read, later in its block in a statement's own test or value,
  with none of its inputs stored in between.  A store that nothing reads
  before the name is stored again is dropped.  The last two take only
  values that can have no effect but raising, so only where the composed
  function raises could the two differ.  An ``if`` whose branches are
  alike (both emptied, say) and whose test can have no effect but raising
  gives way to one branch; any other ``if`` left with an empty body raises
  `FlattenError`, as does a function that assigns ``n_pulses`` or ``INF``;
- each largest subexpression that reads only ``make``'s arguments and the
  prologue's names (``phys[8]``, ``flags[0]``, ``1.0 - bound``, ``phys[4]
  * phys[2]``) moves to ``make``'s prologue, duplicates once, and is read
  from there, so a local stored once from it is a copy the next round
  substitutes.  Only subscripts at constants, ``+``, ``-``, ``*`` and
  division by a nonzero constant qualify, no call and no ``**``, so the
  prologue cannot raise where an evaluation would not;
- last, a later occurrence of a pure expression (an operator, subscript or
  call that `_pure` accepts and that reads a name) reads the earlier one
  when the earlier dominates it (earlier in its block or in an enclosing
  one, or earlier in the same expression), both run whenever their
  statements do (neither is in an ``IfExp`` branch, a later ``and``/``or``
  operand or a later link of a chained comparison), and no statement in
  between stores a name the expression reads.  The earlier one is read by
  the name it is assigned to (``x = value``) while that name is not stored
  again, else it is stored to a fresh ``shared`` local just before its
  statement.  Once the rounds end, the prologue gets the same rule, so a
  part hoisted on its own is read by name in a larger value, and loses a
  name nothing reads.

The reuse is exact: the same operation on the same values gives the same
float, and a value is only read from an evaluation that already ran, so it
raises nothing new.  Storing an earlier occurrence ahead of the rest of its
statement moves its evaluation, which changes no value, as hoisting a
helper call does not.  A read value is the same float but not the same
object as a fresh one, so a function with an ``is`` test is left as it
is, as is one with an assignment inside an expression or a call that
`_pure` refuses, which could change a subscripted value in place.

Every value that reaches the result comes from the same operations on the
same values, so the specialized objective equals ``fn`` bit for bit, with
one Python frame fewer per evaluation than a closure around the flat
function.  Nothing generated depends on the hash seed, and the output
follows `ast.unparse`, whose text can differ between Python versions: the
committed module is generated on Python 3.11.
"""

from __future__ import annotations

import ast
import builtins
import collections
import functools
import hashlib
import operator
import sys
import textwrap
import types
from pathlib import Path
from typing import Optional


ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "src" / "pnp_bb84" / "_objectives.py"

HEADER = '''\
"""The optimizer's objectives, generated from `_kernels` by
``tools/flatten.py``; do not edit.  After an edit of ``_kernels.py``, run
``python tools/flatten.py`` and commit the result: until then
`optimize._objective_fn` finds ``KERNELS_SHA256`` stale, warns once and
runs the composed objectives.

``objective_no_decoy`` is `_kernels.objective_no_decoy` with every helper
inlined.  ``make_decoy_finite`` and ``make_decoy_infinite`` bind
`_kernels.objective_decoy`, specialized to a finite key (``n_pulses`` not
inf) and to an asymptotic one, to a problem's arguments.  Each gives the
composed objective's floats bit for bit.
"""
'''


class FlattenError(Exception):
    """The source has a shape the flattener does not handle."""


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    OUTPUT.write_text(module_source())


def module_source() -> str:
    """The text of ``_objectives.py``, from `_kernels` as it stands."""
    from pnp_bb84 import _kernels
    digest = hashlib.sha256(Path(_kernels.__file__).read_bytes()).hexdigest()
    functions = [flat_source(_kernels.objective_no_decoy)]
    for infinite, name in ((False, "make_decoy_finite"),
                           (True, "make_decoy_infinite")):
        functions.append(make_source(_kernels.objective_decoy, infinite, name))
    read = sorted(_free_names(ast.parse("".join(functions))))
    imports = textwrap.wrap(f"from ._kernels import ({', '.join(read)})",
                            width=79, subsequent_indent="    ",
                            break_on_hyphens=False)
    return "\n".join([HEADER, *imports, "",
                      f'KERNELS_SHA256 = "{digest}"', "", "",
                      "\n\n".join(functions)])


def _free_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` loads and neither binds nor finds in `builtins`."""
    bound = {n.arg for n in ast.walk(tree) if type(n) is ast.arg}
    bound |= {n.name for n in ast.walk(tree) if type(n) is ast.FunctionDef}
    return _names(tree, ast.Load) - _names(tree, ast.Store) - bound - set(
        dir(builtins))


@functools.cache
def flat_source(fn: types.FunctionType) -> str:
    """The source of ``fn``, a plain function of its module, flattened."""
    defs = _defs(fn)
    fdef = defs.get(fn.__name__)
    if fdef is None:
        raise FlattenError(f"the def of {fn.__module__}.{fn.__qualname__} "
                           f"cannot be read")
    return ast.unparse(_Flattener(fn.__globals__, defs).flatten(fdef)) + "\n"


def make_source(fn: types.FunctionType, infinite: bool,
                name: str = "make") -> str:
    """The source of ``name(m_a, eta, n_pulses, phys, flags)``, which
    returns objective ``fn`` specialized to the key ``n_pulses == INF`` is
    ``infinite`` and bound to those arguments."""
    fdef = ast.parse(flat_source(fn)).body[0]
    return _Specializer(fdef, infinite, fn.__globals__).source(name)


def _plain(fn, globals_: dict) -> bool:
    """Whether ``fn`` is a function of the module of ``globals_`` as
    written, no wrapper."""
    return (isinstance(fn, types.FunctionType)
            and fn.__globals__ is globals_
            and not hasattr(fn, "__wrapped__"))


def _defs(fn: types.FunctionType) -> dict[str, ast.FunctionDef]:
    """The ``def`` of each plain function of ``fn``'s module by its name,
    from one parse of the module's file: an undecorated top-level ``def``
    whose name the module binds to the function it defines."""
    globals_ = fn.__globals__
    try:
        tree = ast.parse(Path(fn.__code__.co_filename).read_bytes())
    except (OSError, SyntaxError):
        return {}
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.decorator_list
            and _plain(f := globals_.get(node.name), globals_)
            and f.__name__ == node.name}


# --- AST helpers ----------------------------------------------------------------

# leaves that no rewrite changes, shared rather than copied: no node is
# changed in place once built
_SHARED = (ast.Constant, ast.expr_context, ast.operator, ast.cmpop,
           ast.unaryop, ast.boolop)


def _copy(node, mapping: Optional[dict] = None):
    """A copy of ``node``, its source lines kept, with each Name in
    ``mapping`` replaced: a loaded name by a copy of its expression, a
    stored one by its name."""
    if type(node) is list:
        return [_copy(x, mapping) for x in node]
    if type(node) is ast.Name:
        if not mapping or node.id not in mapping:
            return node
        new = mapping[node.id]
        if isinstance(node.ctx, ast.Load):
            return _copy(new)
        return ast.Name(new.id, node.ctx)
    if isinstance(node, _SHARED) or not isinstance(node, ast.AST):
        return node
    new = type(node).__new__(type(node))
    fields = new.__dict__
    fields.update(vars(node))
    for f in node._fields:
        value = fields.get(f)
        if type(value) is list or isinstance(value, ast.AST):
            fields[f] = _copy(value, mapping)
    return new


def _walk(node):
    """Every node under ``node``, a node or a list of them."""
    for n in node if type(node) is list else [node]:
        yield from ast.walk(n)


def _has_return(node) -> bool:
    """Whether statement ``node`` holds a return."""
    return any(type(n) is ast.Return for n in _walk(node))


def _ends(stmts: list) -> bool:
    """Whether every path through ``stmts`` ends in a return."""
    last = stmts[-1] if stmts else None
    return (isinstance(last, ast.Return)
            or (isinstance(last, ast.If) and _ends(last.body)
                and _ends(last.orelse)))


def _names(node, ctx) -> set[str]:
    return {n.id for n in _walk(node)
            if type(n) is ast.Name and isinstance(n.ctx, ctx)}


def _body(fdef: ast.FunctionDef) -> list:
    """``fdef``'s statements after its docstring, if it has one."""
    return fdef.body[ast.get_docstring(fdef, clean=False) is not None:]


def _params(fdef: ast.FunctionDef) -> list[str]:
    args = fdef.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        raise FlattenError(f"{_line(fdef)}: {fdef.name} has parameters other "
                           f"than plain positional ones")
    return [a.arg for a in args.args]


def _line(node) -> str:
    return f"line {getattr(node, 'lineno', '?')}"


_CONDITIONAL = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                ast.GeneratorExp)
_LEAVES = (ast.Name, *_SHARED)
# what a helper's body may not hold: its own scopes and generator steps
_SCOPED = (ast.Global, ast.Nonlocal, ast.FunctionDef, ast.AsyncFunctionDef,
           ast.ClassDef, ast.Lambda, ast.Yield, ast.YieldFrom, ast.Await)


class _Flattener:
    """One flat function from module ``globals_`` and its ``defs``."""

    def __init__(self, globals_: dict, defs: dict):
        self.defs = defs
        self.count = 0
        self.checked: dict[str, set] = {}   # helper: the names it assigns
        self.taken = set(globals_) | set(dir(builtins))
        self.outer: set[str] = set()   # the flat function's own locals

    def flatten(self, fdef: ast.FunctionDef) -> ast.FunctionDef:
        self.outer = (set(_params(fdef))
                      | _names(fdef.body, (ast.Store, ast.Del)))
        self.taken |= self.outer | _names(fdef.body, ast.Load)
        flat = _copy(fdef)
        flat.body = self._block(_body(flat), None, tail=False)
        return flat

    # --- names -----------------------------------------------------------------

    def _fresh(self, name: str) -> str:
        while True:
            self.count += 1
            new = f"{name}_{self.count}"
            if new not in self.taken:
                self.taken.add(new)
                return new

    def _helper(self, node) -> Optional[ast.FunctionDef]:
        """The ``def`` that the call ``node`` inlines, or None."""
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id not in self.outer):
            return self.defs.get(node.func.id)
        return None

    def _has_helper(self, node) -> bool:
        return any(self._helper(n) is not None for n in _walk(node))

    # --- statements --------------------------------------------------------------

    def _block(self, stmts: list, dest: Optional[list], tail: bool) -> list:
        """``stmts`` rewritten.  ``dest`` is None where a return stays a
        return, else the targets a return assigns; with ``tail`` every path
        must end in a return, each at the end of its branch."""
        out = []
        for i, st in enumerate(stmts):
            rest = stmts[i + 1:]
            if isinstance(st, ast.Return):
                if rest:
                    raise FlattenError(f"{_line(st)}: a return that does not "
                                       f"end its branch")
                value = st.value or ast.Constant(None)
                return out + self._bind(value, dest)
            if (tail or dest is not None) and _has_return(st):
                if not (tail and isinstance(st, ast.If)):
                    raise FlattenError(f"{_line(st)}: a return that does not "
                                       f"end its branch")
                return out + self._tail_if(st, rest, dest)
            out += self._statement(st, dest)
        if tail:
            raise FlattenError(f"{_line(stmts[-1]) if stmts else 'a helper'}"
                               f": a path that ends without a return")
        return out

    def _tail_if(self, st: ast.If, rest: list, dest: Optional[list]) -> list:
        # the statements after an if whose body returns go into its else
        if not _ends(st.body):
            raise FlattenError(f"{_line(st)}: a return that does not end "
                               f"its branch")
        pre, test = self._hoist(st.test)
        return pre + [ast.If(test, self._block(st.body, dest, True),
                             self._block(st.orelse + rest, dest, True))]

    def _statement(self, st, dest: Optional[list]) -> list:
        if isinstance(st, ast.Assign):
            if self._has_helper(st.targets):
                raise FlattenError(f"{_line(st)}: a helper call in a target")
            return self._bind(st.value, st.targets)
        if isinstance(st, ast.AugAssign):
            if self._has_helper(st.target):
                raise FlattenError(f"{_line(st)}: a helper call in a target")
            pre, value = self._hoist(st.value)
            return pre + [ast.AugAssign(st.target, st.op, value)]
        if isinstance(st, ast.If):
            pre, test = self._hoist(st.test)
            return pre + [ast.If(test, self._block(st.body, dest, False),
                                 self._block(st.orelse, dest, False))]
        raise FlattenError(f"{_line(st)}: a {type(st).__name__} statement "
                           f"is not handled")

    def _bind(self, value, dest: Optional[list]) -> list:
        """Statements giving ``value`` to ``dest``: returning it when None,
        else assigning it to the targets."""
        if (isinstance(value, ast.IfExp)
                and self._has_helper([value.body, value.orelse])):
            pre, test = self._hoist(value.test)
            return pre + [ast.If(test, self._bind(value.body, dest),
                                 self._bind(value.orelse, dest))]
        fdef = self._helper(value)
        if fdef is not None and (dest is None or len(dest) == 1):
            return self._inline(value, fdef, dest)
        pre, value = self._hoist(value)
        if dest is None:
            return pre + [ast.Return(value)]
        # unparse reads an assignment's line number
        return pre + [ast.Assign(_copy(dest), value,
                                 lineno=getattr(value, "lineno", 0))]

    # --- expressions ---------------------------------------------------------------

    def _hoist(self, node) -> tuple[list, ast.AST]:
        """``(statements, node')``: the helper calls in ``node``, each
        inlined into a fresh local, and ``node`` reading those locals."""
        if not isinstance(node, ast.AST) or isinstance(node, _LEAVES):
            return [], node
        fdef = self._helper(node)
        if fdef is not None:
            name = self._fresh(fdef.name)
            pre = self._inline(node, fdef, [ast.Name(name, ast.Store())])
            return pre, ast.Name(name, ast.Load())
        # parts evaluated only sometimes, which a hoisted call would not be
        if isinstance(node, (ast.IfExp, *_CONDITIONAL)):
            sometimes, what = node, f"a {type(node).__name__}"
        elif isinstance(node, ast.BoolOp):
            sometimes, what = node.values[1:], "a boolean operand"
        elif isinstance(node, ast.Compare):
            sometimes, what = (node.comparators[1:],
                               "a later link of a chained comparison")
        else:
            sometimes = None
        if sometimes and self._has_helper(sometimes):
            raise FlattenError(f"{_line(node)}: a helper call inside {what}")
        pre, fields = [], {}
        for f in node._fields:
            value = getattr(node, f, None)
            if isinstance(value, list):
                fields[f] = []
                for item in value:
                    p, item = self._hoist(item)
                    pre += p
                    fields[f].append(item)
            else:
                p, fields[f] = self._hoist(value)
                pre += p
        return (pre, type(node)(**fields)) if pre else ([], node)

    def _inline(self, call: ast.Call, fdef: ast.FunctionDef,
                dest: Optional[list]) -> list:
        """``fdef``'s body at the arguments of ``call``, each return giving
        its value to ``dest`` as `_bind` does."""
        params = _params(fdef)
        missing = len(params) - len(call.args)
        defaults = fdef.args.defaults[len(fdef.args.defaults) - missing:]
        if (call.keywords or missing < 0 or len(defaults) < missing
                or any(isinstance(a, ast.Starred) for a in call.args)
                or not all(isinstance(d, ast.Constant) for d in defaults)):
            raise FlattenError(f"{_line(call)}: only positional arguments "
                               f"and constant defaults are handled")
        stored = self._stored(fdef, params)
        pre, mapping = [], {}
        for p, arg in zip(params, call.args + defaults):
            if isinstance(arg, (ast.Name, ast.Constant)):
                mapping[p] = arg
            else:
                name = self._fresh(p)
                pre += self._bind(arg, [ast.Name(name, ast.Store())])
                mapping[p] = ast.Name(name, ast.Load())
        for name in sorted(stored):
            mapping[name] = ast.Name(self._fresh(name), ast.Load())
        return pre + self._block(_copy(_body(fdef), mapping), dest, tail=True)

    def _stored(self, fdef: ast.FunctionDef, params: list) -> set[str]:
        """The names ``fdef``'s body assigns, once its shape is checked."""
        if fdef.name not in self.checked:
            stored, loaded = set(), set()
            for n in _walk(fdef.body):
                if isinstance(n, _SCOPED):
                    raise FlattenError(f"{_line(n)}: {fdef.name} holds a "
                                       f"{type(n).__name__}")
                if type(n) is ast.Name:
                    (loaded if isinstance(n.ctx, ast.Load) else stored).add(
                        n.id)
            for p in params:
                if p in stored:
                    raise FlattenError(f"{fdef.name} reassigns its "
                                       f"parameter {p}")
            free = loaded - stored - set(params)
            if free & self.outer:
                raise FlattenError(f"{fdef.name} reads globals "
                                   f"{sorted(free & self.outer)} that the "
                                   f"flat function has as locals")
            self.checked[fdef.name] = stored
        return self.checked[fdef.name]


# --- specialization ------------------------------------------------------------

_CMP = {ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
        ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
        ast.Is: operator.is_, ast.IsNot: operator.is_not}
# what a dropped store's value may hold: no effect but raising
_PURE = (ast.Name, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
         ast.Subscript, ast.Tuple, ast.Call, *_SHARED)
_PURE_BUILTINS = (min, max)


def _number(value) -> bool:
    return type(value) in (int, float)


def _counts(node) -> tuple[collections.Counter, collections.Counter]:
    """How often each name is stored and loaded in ``node``."""
    stores, loads = collections.Counter(), collections.Counter()
    for n in _walk(node):
        if type(n) is ast.Name:
            (loads if isinstance(n.ctx, ast.Load) else stores)[n.id] += 1
    return stores, loads


def _copy_target(node) -> Optional[tuple[str, ast.expr]]:
    """``(x, value)`` of a statement ``x = value``, else None."""
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and type(node.targets[0]) is ast.Name):
        return node.targets[0].id, node.value
    return None


def _on_a_path(stmts: list) -> collections.Counter:
    """The most stores of each name on one path through ``stmts``."""
    most = collections.Counter()
    for st in stmts:
        if isinstance(st, ast.If):
            most.update(_on_a_path(st.body) | _on_a_path(st.orelse))
        else:
            most.update(_names(st, (ast.Store, ast.Del)))
    return most


def _truth(test):
    """``test`` read as a condition: an ``and``/``or`` operand that is a
    constant and cannot decide it is dropped, and the whole is a constant
    when a constant decides it before any other operand runs."""
    if not isinstance(test, ast.BoolOp):
        return test
    neutral = isinstance(test.op, ast.And)   # and True, or False
    values = []
    for v in map(_truth, test.values):
        if isinstance(v, ast.Constant):
            if bool(v.value) == neutral:
                continue
            if not values:
                return ast.Constant(not neutral)
        values.append(v)
    if len(values) <= 1:
        return values[0] if values else ast.Constant(neutral)
    if len(values) == len(test.values) and all(
            map(operator.is_, values, test.values)):
        return test
    return ast.BoolOp(test.op, values)


class _Rewrite(ast.NodeTransformer):
    """A transformer that records whether it changed anything."""

    changed = False

    def done(self, node):
        self.changed = True
        return node


class _Fold(_Rewrite):
    """``n_pulses == INF`` replaced by ``infinite`` and the loaded ``names``
    by their constants, then each test, comparison, constant subscript and
    conditional whose operands are all constants replaced by its value; a
    test reading anything else stays."""

    def __init__(self, infinite: bool, names: dict):
        self.infinite, self.names = infinite, names

    def visit(self, node):
        if type(node) is ast.Name:
            if node.id in self.names and isinstance(node.ctx, ast.Load):
                return self.done(ast.Constant(self.names[node.id]))
            return node
        return super().visit(node)

    def visit_Subscript(self, node):
        self.generic_visit(node)
        if (type(node.value) is ast.Constant and type(node.slice) is ast.Constant
                and isinstance(node.ctx, ast.Load)):
            try:
                return self.done(
                    ast.Constant(node.value.value[node.slice.value]))
            except (TypeError, IndexError, KeyError):
                pass
        return node

    def visit_Compare(self, node):
        left, right = node.left, node.comparators[0]
        if (len(node.ops) == 1 and type(node.ops[0]) is ast.Eq
                and type(left) is type(right) is ast.Name
                and (left.id, right.id) == ("n_pulses", "INF")):
            return self.done(ast.Constant(self.infinite))
        self.generic_visit(node)
        operands = [node.left, *node.comparators]
        if all(type(o) is ast.Constant for o in operands):
            values = [o.value for o in operands]
            try:
                value = all(_CMP[type(op)](a, b)
                            for op, a, b in zip(node.ops, values, values[1:]))
            except (KeyError, TypeError):   # in, not in; unordered values
                return node
            return self.done(ast.Constant(value))
        return node

    def visit_IfExp(self, node):
        return self._branch(node)

    def visit_If(self, node):
        return self._branch(node)

    def _branch(self, node):
        self.generic_visit(node)
        test = _truth(node.test)
        if test is not node.test:
            node.test = self.done(test)
        if type(test) is ast.Constant:
            return self.done(node.body if test.value else node.orelse)
        return node


class _Split(_Rewrite):
    """``a, b = (x, y)`` as ``a = x`` and ``b = y`` where no later value
    reads an earlier target, and ``a = b = y`` for a name or constant ``y``
    as ``a = y`` and ``b = y``."""

    def visit_Assign(self, node):
        targets, value = node.targets, node.value
        if type(value) is ast.Constant and type(value.value) is tuple:
            value = ast.Tuple([ast.Constant(v) for v in value.value],
                              ast.Load())
        if (len(targets) == 1 and type(targets[0]) is ast.Tuple
                and type(value) is ast.Tuple
                and len(targets[0].elts) == len(value.elts)
                and all(type(t) is ast.Name for t in targets[0].elts)
                and not any(type(v) is ast.Starred for v in value.elts)):
            earlier = set()
            for t, v in zip(targets[0].elts, value.elts):
                if _names(v, ast.Load) & earlier:
                    return node
                earlier.add(t.id)
            return self.done([ast.Assign([t], v) for t, v in
                              zip(targets[0].elts, value.elts)])
        if (len(targets) > 1 and all(type(t) is ast.Name for t in targets)
                and type(value) in (ast.Name, ast.Constant)):
            return self.done([ast.Assign([t], _copy(value)) for t in targets])
        return node


class _Scalarize(_Rewrite):
    """Each tuple name of ``slots`` as one name per slot: its store as one
    store per slot, an unpacking or ``t[k]`` as the slots, ``t is None``
    as False."""

    def __init__(self, slots: dict):
        self.slots = slots

    def visit_Assign(self, node):
        self.generic_visit(node)
        copy = _copy_target(node)
        if copy and copy[0] in self.slots:
            return [ast.Assign([ast.Name(s, ast.Store())], v)
                    for s, v in zip(self.slots[copy[0]], node.value.elts)]
        if type(node.value) is ast.Name and node.value.id in self.slots:
            return [ast.Assign([t], ast.Name(s, ast.Load()))
                    for t, s in zip(node.targets[0].elts,
                                    self.slots[node.value.id])]
        return node

    def visit_Subscript(self, node):
        self.generic_visit(node)
        if type(node.value) is ast.Name and node.value.id in self.slots:
            slots = self.slots[node.value.id]
            return ast.Name(slots[node.slice.value % len(slots)], ast.Load())
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        if type(node.left) is ast.Name and node.left.id in self.slots:
            return ast.Constant(isinstance(node.ops[0], ast.IsNot))
        return node


class _Specializer:
    """The ``make`` of one variant of flat function ``fdef``: its key
    ``n_pulses == INF`` is ``infinite``.  The first parameter stays the
    function's; the others are bound by ``make``, whose prologue `_Hoist`
    builds in each round and `_Reuse` finishes.
    """

    def __init__(self, fdef: ast.FunctionDef, infinite: bool,
                 globals_: dict):
        self.fdef = fdef
        self.params = _params(fdef)
        self.globals = globals_
        stored = _names(fdef.body, (ast.Store, ast.Del))
        if {"n_pulses", "INF"} & stored:
            raise FlattenError(f"{fdef.name} assigns a name of the key "
                               f"'n_pulses == INF'")
        # the module's numbers, and tuples of them, are read as they stand
        # now, as the helpers are
        numbers = {name: value for name in _names(fdef.body, ast.Load) - stored
                   if _number(value := globals_.get(name))
                   or (type(value) is tuple and all(map(_number, value)))}
        self.fold = _Fold(infinite, numbers)
        self.taken = (set(globals_) | set(dir(builtins))
                      | {n.id for n in _walk(fdef) if type(n) is ast.Name}
                      | set(self.params))
        self.hoist = _Hoist({p for p in self.params[1:] if p not in stored},
                            self._fresh)

    def source(self, name: str = "make") -> str:
        body = self.fdef.body
        self.changed = True
        while self.changed:
            self.changed = False
            for step in (self._fold, self._split, self._scalarize,
                         self._substitute, self._drop_dead, self._hoist,
                         self._reuse):
                body = step(body)
        prologue = _Reuse(self._pure, lambda: self._fresh("bound")).run(
            self.hoist.prologue)
        # a prologue name stored from another's is that name
        copies = {c[0]: c[1] for c in map(_copy_target, prologue)
                  if type(c[1]) is ast.Name}
        prologue = [_copy(st, copies) for st in prologue
                    if _copy_target(st)[0] not in copies]
        body = _copy(body, copies)
        prologue = self._live(prologue, _names(body, ast.Load))[0]
        inner = self.fdef
        inner.args.args = inner.args.args[:1]
        inner.body = body
        lines = [f"def {name}({', '.join(self.params[1:])}):"]
        for part in (ast.Module(prologue, []), inner):
            text = ast.unparse(ast.fix_missing_locations(part))
            lines += ["    " + line if line else line
                      for line in text.splitlines()]
        lines.append(f"    return {inner.name}")
        return "\n".join(lines) + "\n"

    def _fresh(self, name: str) -> str:
        new, k = name, 0
        while new in self.taken:
            k += 1
            new = f"{name}_{k}"
        self.taken.add(new)
        return new

    def _apply(self, transformer, body: list) -> list:
        transformer.changed = False
        body = transformer.visit(ast.Module(body, [])).body
        self.changed |= transformer.changed
        return body

    # --- the passes, repeated until none changes the function ------------------

    def _fold(self, body: list) -> list:
        return self._mend(self._apply(self.fold, body))

    def _split(self, body: list) -> list:
        return self._apply(_Split(), body)

    def _scalarize(self, body: list) -> list:
        """Each local stored only as a tuple literal and read only by
        unpacking, a constant subscript or ``is None``, one name per slot."""
        tuples = {c[0] for c in map(_copy_target, _walk(body))
                  if c and type(c[1]) is ast.Tuple}
        if not tuples:
            return body
        uses = collections.defaultdict(list)
        todo = [(st, None) for st in body]
        while todo:
            node, parent = todo.pop()
            if type(node) is ast.Name:
                if node.id in tuples:
                    uses[node.id].append((node, parent))
            else:
                todo += [(child, node) for child in ast.iter_child_nodes(node)]
        slots, most = {}, None
        for name in sorted(tuples):
            length = self._tuple_length(name, uses[name])
            if length is not None:
                most = most or _on_a_path(body)
                if most[name] > 1:
                    raise FlattenError(f"tuple {name} is stored twice on one "
                                       f"path")
                slots[name] = [self._fresh(f"{name}_{k}")
                               for k in range(length)]
        if not slots:
            return body
        self.changed = True
        return self._apply(_Scalarize(slots), body)

    def _tuple_length(self, name: str, uses: list) -> Optional[int]:
        """The length of tuple ``name`` if each use is one `_scalarize`
        handles, else None."""
        if name in self.params:
            return None
        stored, read = set(), []
        for node, parent in uses:
            if isinstance(node.ctx, ast.Store):
                if not (isinstance(parent, ast.Assign)
                        and parent.targets == [node]
                        and type(parent.value) is ast.Tuple
                        and not any(type(v) is ast.Starred
                                    for v in parent.value.elts)):
                    return None
                stored.add(len(parent.value.elts))
            elif (isinstance(parent, ast.Assign) and parent.value is node
                  and len(parent.targets) == 1
                  and type(parent.targets[0]) is ast.Tuple
                  and all(type(t) is ast.Name
                          for t in parent.targets[0].elts)):
                read.append(("unpacked to", len(parent.targets[0].elts)))
            elif (isinstance(parent, ast.Subscript) and parent.value is node
                  and type(parent.slice) is ast.Constant
                  and type(parent.slice.value) is int):
                read.append(("indexed at", parent.slice.value))
            elif not (isinstance(parent, ast.Compare)
                      and parent.left is node
                      and isinstance(parent.ops[0], (ast.Is, ast.IsNot))
                      and type(parent.comparators[0]) is ast.Constant
                      and parent.comparators[0].value is None):
                return None
        if not stored:
            return None
        if len(stored) > 1:
            raise FlattenError(f"tuple {name} is stored with lengths "
                               f"{sorted(stored)}")
        n, = stored
        for how, k in read:
            if (k != n if how == "unpacked to" else not -n <= k < n):
                raise FlattenError(f"tuple {name} of length {n} is {how} {k}")
        return n

    def _substitute(self, body: list) -> list:
        """Each local ``x`` stored once, ``x = value``, written at its reads
        and its store dropped.  A constant, or a name that keeps its value (a
        parameter or global never stored, a local stored once), goes to every
        read.  Another name goes to the reads later in its block when no
        statement up to the last of them stores that name.  A value read
        once goes there too when that read is in a statement's own test or
        value, which runs before the statement stores anything, no statement
        before it stores a name the value reads, and the value can have no
        effect but raising.  Counts the names itself."""
        stores, loads = _counts(body)
        mapping: dict = {}   # x: the constant or name that keeps its value

        def written(stmts: list, i: int, x: str, value) -> bool:
            name = type(value) is ast.Name and value.id != x
            if type(value) is ast.Constant or name and (
                    stores[value.id] == 0 or (stores[value.id] == 1
                                              and value.id not in self.params)):
                mapping[x] = value
            elif name or (loads[x] == 1 and self._pure(value)):
                inputs, seen, last = _names(value, ast.Load), 0, None
                for j in range(i + 1, len(stmts)):
                    writes, reads = _counts(stmts[j])
                    seen += reads[x]
                    if seen == loads[x]:
                        st = stmts[j]
                        own = st.test if isinstance(st, ast.If) else st.value
                        if ((loads[x] == 1 and x in _names(own, ast.Load))
                                or (name and inputs.isdisjoint(writes))):
                            last = j
                        break
                    if not inputs.isdisjoint(writes):
                        break
                if last is None:
                    return False
                for j in range(i + 1, last + 1):
                    if x in _names(stmts[j], ast.Load):
                        stmts[j] = _copy(stmts[j], {x: value})
            else:
                return False
            if name:
                loads[value.id] += loads[x]
            loads[x] = stores[x] = 0
            return True

        def block(stmts: list) -> list:
            i = 0
            while i < len(stmts):
                st = stmts[i]
                if isinstance(st, ast.If):
                    st.test = _copy(st.test, mapping)
                    st.body, st.orelse = block(st.body), block(st.orelse)
                else:
                    st = stmts[i] = _copy(st, mapping)
                    copy = _copy_target(st)
                    if (copy and stores[copy[0]] == 1 and loads[copy[0]]
                            and copy[0] not in self.params
                            and written(stmts, i, *copy)):
                        del stmts[i]
                        self.changed = True
                        continue
                i += 1
            return stmts

        return block(body)

    def _drop_dead(self, body: list) -> list:
        """Stores that nothing reads before the name is stored again, when
        their values can have no effect but raising."""
        return self._mend(self._live(body, set())[0])

    def _hoist(self, body: list) -> list:
        return self._apply(self.hoist, body)

    def _reuse(self, body: list) -> list:
        reuse = _Reuse(self._pure, lambda: self._fresh("shared"))
        body = reuse.run(body)
        self.changed |= bool(reuse.reads)
        return body

    def _live(self, stmts: list, live: set) -> tuple[list, set]:
        """``(stmts', live')``: ``stmts`` less their dead stores, and the
        names read before any store on some path through them, given the
        names ``live`` after them.  A backward pass; there are no loops."""
        out = []
        for st in reversed(stmts):
            if isinstance(st, ast.Return):
                live = _names(st, ast.Load)
            elif isinstance(st, ast.If):
                st.body, body = self._live(st.body, live)
                st.orelse, orelse = self._live(st.orelse, live)
                live = body | orelse | _names(st.test, ast.Load)
            else:
                targets = (st.targets if isinstance(st, ast.Assign)
                           else [st.target])
                if (all(type(t) is ast.Name for t in targets)
                        and not {t.id for t in targets} & live
                        and self._pure(st.value)):
                    self.changed = True
                    continue
                live = live - _names(targets, ast.Store)
                live |= _names(st, ast.Load)
                if isinstance(st, ast.AugAssign):
                    live |= _names(st.target, ast.Store)
            out.append(st)
        return out[::-1], live

    def _mend(self, stmts: list) -> list:
        """``stmts`` with each ``if`` of a pure test and like branches
        (emptied ones too) replaced by one branch, and nothing after a
        ``return``; any other ``if`` left with an empty body is refused."""
        out = []
        for i, st in enumerate(stmts):
            if isinstance(st, ast.Return):
                self.changed |= i + 1 < len(stmts)
                out.append(st)
                break
            if isinstance(st, ast.If):
                st.body, st.orelse = self._mend(st.body), self._mend(st.orelse)
                if (list(map(ast.dump, st.body))
                        == list(map(ast.dump, st.orelse))
                        and self._pure(st.test)):
                    out += st.body   # both branches alike: no test needed
                    self.changed = True
                    continue
                if not st.body:
                    raise FlattenError(f"{_line(st)}: an if whose body is "
                                       f"emptied")
            out.append(st)
        return out

    def _pure(self, expr) -> bool:
        """Whether ``expr`` can have no effect but raising: operators,
        comparisons, subscripts and calls of ``math`` functions, ``min`` and
        ``max``."""
        for n in _walk(expr):
            if not isinstance(n, _PURE):
                return False
            if isinstance(n, ast.Call):
                f = (self.globals.get(n.func.id, getattr(builtins, n.func.id,
                                                         None))
                     if type(n.func) is ast.Name else None)
                if not (isinstance(f, types.BuiltinFunctionType)
                        and (f.__module__ == "math" or f in _PURE_BUILTINS)):
                    return False
        return True


def _invariant(expr, invariant: set) -> bool:
    """Whether ``expr`` reads only names of ``invariant`` and numbers, by
    subscripts at constants, ``+``, ``-``, ``*`` and division by a nonzero
    number: a value that cannot raise."""
    if type(expr) is ast.Constant:
        return _number(expr.value)
    if type(expr) is ast.Name:
        return isinstance(expr.ctx, ast.Load) and expr.id in invariant
    if type(expr) is ast.Subscript:
        return (isinstance(expr.ctx, ast.Load)
                and type(expr.slice) is ast.Constant
                and type(expr.slice.value) is int
                and _invariant(expr.value, invariant))
    if type(expr) is ast.UnaryOp:
        return (isinstance(expr.op, ast.USub)
                and _invariant(expr.operand, invariant))
    if type(expr) is ast.BinOp:
        right = expr.right
        if isinstance(expr.op, ast.Div):
            ok = (type(right) is ast.Constant and _number(right.value)
                  and right.value != 0)
        else:
            ok = (isinstance(expr.op, (ast.Add, ast.Sub, ast.Mult))
                  and _invariant(right, invariant))
        return ok and _invariant(expr.left, invariant)
    return False


class _Hoist(_Rewrite):
    """Each largest subexpression that `_invariant` accepts and that reads a
    name, read from a prologue name: one per distinct subexpression
    (``seen`` maps its dump to the name), added to ``prologue`` and to the
    ``invariant`` names."""

    def __init__(self, invariant: set, fresh):
        self.invariant, self.fresh = invariant, fresh
        self.seen: dict = {}
        self.prologue: list = []

    def visit(self, node):
        if (isinstance(node, ast.expr)
                and type(node) is not ast.Name
                and _invariant(node, self.invariant)
                and _names(node, ast.Load)):
            key = ast.dump(node)
            if key not in self.seen:
                name = self.seen[key] = self.fresh("bound")
                self.invariant.add(name)
                self.prologue.append(ast.Assign(
                    [ast.Name(name, ast.Store())], node))
            return self.done(ast.Name(self.seen[key], ast.Load()))
        return super().visit(node)



# what a later occurrence can read from an earlier one: arithmetic,
# subscripts and calls; names and constants are read as they are
_REUSED = (ast.BinOp, ast.UnaryOp, ast.Subscript, ast.Call)


def _unconditional(node) -> list:
    """The parts of ``node`` that run whenever it runs, in their order."""
    if isinstance(node, ast.IfExp):
        return [node.test]
    if isinstance(node, ast.BoolOp):
        return node.values[:1]
    if isinstance(node, ast.Compare):
        return [node.left, node.comparators[0]]
    if isinstance(node, _CONDITIONAL):
        return []
    return list(ast.iter_child_nodes(node))


class _First:
    """The first occurrence of an expression, and the name it is read by:
    the target of ``x = node``, else a fresh local stored just before the
    statement that holds it."""

    def __init__(self, node):
        self.node, self.inputs, self.name = node, _names(node, ast.Load), None


class _Reuse:
    """Each later occurrence of a pure expression (`_REUSED`, with `pure`
    true and a name read) reads the first one, in one pass over a function
    body with no loops.  The first must dominate the later: earlier in its
    block or in an enclosing one, or earlier in the same expression; both
    run whenever their statements do (no ``IfExp`` branch, later
    ``and``/``or`` operand or later comparison link), and no statement in
    between stores a name the expression reads or the name it is read by.
    ``fresh()`` names a first occurrence that is part of its statement."""

    def __init__(self, pure, fresh):
        self.pure, self.fresh = pure, fresh
        self.reads: dict = {}   # id of a later occurrence: its _First
        self.apart: dict = {}   # id of a first occurrence stored apart

    def run(self, stmts: list) -> list:
        # a read value is the same float as a fresh one, but not the same
        # object; a store inside an expression splits its statement; any
        # other call could change a subscripted value in place
        if any(isinstance(n, (ast.Is, ast.IsNot, ast.NamedExpr))
               or isinstance(n, ast.Call) and not self.pure(n)
               for n in _walk(stmts)):
            return stmts
        self._block(stmts, {})
        return self._rewrite(stmts) if self.reads else stmts

    def _block(self, stmts: list, seen: dict) -> dict:
        """``seen`` (dump: _First) after ``stmts``, given it before them."""
        for st in stmts:
            if isinstance(st, ast.If):
                self._visit(st.test, seen)
                body = self._block(st.body, dict(seen))
                orelse = self._block(st.orelse, dict(seen))
                seen = {k: f for k, f in seen.items()
                        if body.get(k) is f is orelse.get(k)}
                continue
            if getattr(st, "value", None) is not None:
                self._visit(st.value, seen)
            targets = (st.targets if isinstance(st, ast.Assign)
                       else [st.target] if isinstance(st, ast.AugAssign)
                       else [])
            stored = {n.id for n in _walk(targets) if type(n) is ast.Name}
            seen = {k: f for k, f in seen.items()
                    if not (f.inputs & stored or f.name in stored)}
            copy = _copy_target(st)
            first = copy and seen.get(ast.dump(copy[1]))
            if first and first.node is copy[1]:
                first.name = copy[0]
        return seen

    def _visit(self, node, seen: dict) -> None:
        key = None
        if (isinstance(node, _REUSED) and _names(node, ast.Load)
                and self.pure(node)):
            key = ast.dump(node)
            first = seen.get(key)
            if first is not None:
                if first.name is None:
                    first.name = self.fresh()
                    self.apart[id(first.node)] = first
                self.reads[id(node)] = first
                return
        for part in _unconditional(node):
            self._visit(part, seen)
        if key is not None:
            seen[key] = _First(node)

    def _rewrite(self, stmts: list) -> list:
        out = []
        for st in stmts:
            pre = []
            if isinstance(st, ast.If):
                st.test = self._put(st.test, pre)
                st.body = self._rewrite(st.body)
                st.orelse = self._rewrite(st.orelse)
            elif getattr(st, "value", None) is not None:
                st.value = self._put(st.value, pre)
            out += pre + [st]
        return out

    def _put(self, node, pre: list):
        """``node`` with each later occurrence read by name, each first one
        stored apart assigned in ``pre``, innermost first."""
        if not isinstance(node, ast.AST) or isinstance(node, _LEAVES):
            return node
        first = self.reads.get(id(node))
        if first is not None:
            return ast.Name(first.name, ast.Load())
        for field, value in ast.iter_fields(node):
            if isinstance(value, list):
                setattr(node, field, [self._put(v, pre) for v in value])
            elif isinstance(value, ast.AST):
                setattr(node, field, self._put(value, pre))
        first = self.apart.get(id(node))
        if first is None:
            return node
        pre.append(ast.Assign([ast.Name(first.name, ast.Store())], node))
        return ast.Name(first.name, ast.Load())


if __name__ == "__main__":
    main()
