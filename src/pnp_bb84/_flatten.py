"""Flat twins of module functions: every call to a sibling function inlined.

`flattened(fn, module)` reads the source of ``module`` and builds one
function that computes what ``fn`` computes, with every call to a function
of that module (a helper) replaced by the helper's body.  It runs the same
float operations on the same values, so its results equal ``fn``'s bit for
bit, while a `_kernels` objective drops its some forty Python calls per
evaluation.  `optimize._objective_fn` runs the objectives this way.

The rewrite, on the helpers' own source:

- each helper's locals get fresh names (``name_<k>``); a parameter whose
  argument is a plain name or a constant is replaced by it, any other
  argument is assigned to a fresh local first;
- a ``return`` becomes an assignment to the call's target at the end of its
  branch; the statements after an ``if`` whose body returns move into its
  ``else``;
- a helper call inside an expression is hoisted into an assignment before
  its statement, and ``x = a if c else helper(...)`` becomes an ``if``.

Hoisting evaluates a helper call ahead of the rest of its statement, which
changes no value for helpers without side effects, as in `_kernels`.  A
shape the rewrite cannot keep exact raises `FlattenError` at generation: a
helper call that is evaluated only sometimes (a later operand of
``and``/``or``, a conditional expression inside a larger one, a later link
of a chained comparison, a comprehension or lambda), a ``return`` that does
not end its branch, a helper that can end without one or that reassigns a
parameter, and arguments other than positional ones and constant defaults.

Each flat function is built once per process, at its first use, from the
helpers as they stand then; the ASTs are dropped once it is compiled.  Its source is registered with `linecache`
under ``<flat module.name>``, so tracebacks show its lines.  A callable that
is not a plain function of the module, or whose ``def`` cannot be read at
the line its code starts on (a missing source file), is returned as it is.
"""

from __future__ import annotations

import ast
import builtins
import functools
import linecache
import types
from typing import Callable, Optional


class FlattenError(Exception):
    """The source has a shape the flattener does not handle."""


def flattened(fn: Callable, module: types.ModuleType) -> Callable:
    """``fn`` with every helper call inlined if it is a plain function of
    ``module``, else ``fn`` itself (a wrapper, a stub); also ``fn`` itself
    when the module's source cannot be read."""
    if (not isinstance(fn, types.FunctionType)
            or fn.__globals__ is not vars(module)
            or hasattr(fn, "__wrapped__")):
        return fn
    return _flat(fn)


@functools.cache
def _flat(fn: types.FunctionType) -> Callable:
    defs = _Defs(fn)
    fdef = defs.get(fn.__name__)
    if fdef is None:
        return fn
    source = ast.unparse(_Flattener(fn.__globals__, defs).flatten(fdef)) + "\n"
    del defs, fdef   # the ASTs go before compiling, which peaks as high
    filename = f"<flat {fn.__module__}.{fn.__qualname__}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), fn.__globals__, namespace)
    return namespace[fn.__name__]


class _Defs:
    """The ``def`` of each function of ``fn``'s module, parsed at first use
    from the module source: the lines from the one its code starts on to
    the next such line of the module's functions."""

    def __init__(self, fn: types.FunctionType):
        self.globals = fn.__globals__
        self.filename = fn.__code__.co_filename
        self.lines = linecache.getlines(self.filename, self.globals)
        self.starts = sorted(
            f.__code__.co_firstlineno for f in self.globals.values()
            if isinstance(f, types.FunctionType)
            and f.__code__.co_filename == self.filename)
        self.parsed: dict[str, Optional[ast.FunctionDef]] = {}

    def get(self, name: str) -> Optional[ast.FunctionDef]:
        """The undecorated ``def`` of module function ``name`` at the line
        its code starts on; None for anything else or without a source."""
        if name not in self.parsed:
            self.parsed[name] = self._parse(self.globals.get(name))
        return self.parsed[name]

    def _parse(self, func) -> Optional[ast.FunctionDef]:
        if (not isinstance(func, types.FunctionType)
                or func.__globals__ is not self.globals
                or func.__code__.co_filename != self.filename
                or hasattr(func, "__wrapped__")):
            return None
        first = func.__code__.co_firstlineno
        later = [n for n in self.starts if n > first]
        last = later[0] - 1 if later else len(self.lines)
        # blank lines ahead keep the line numbers of the module source
        try:
            tree = ast.parse("\n" * (first - 1)
                             + "".join(self.lines[first - 1:last]))
        except SyntaxError:
            return None
        node = tree.body[0] if tree.body else None
        if (isinstance(node, ast.FunctionDef) and not node.decorator_list
                and node.name == func.__name__ and node.lineno == first):
            return node
        return None


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
    """Every node under ``node``, a node or a list of them, in no order."""
    todo = list(node) if isinstance(node, list) else [node]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.AST):
            yield n
            for f in n._fields:
                value = getattr(n, f, None)
                if type(value) is list:
                    todo += value
                elif value is not None:
                    todo.append(value)


def _has_return(node) -> bool:
    """Whether statement ``node`` holds a return; only statements can."""
    if isinstance(node, ast.Return):
        return True
    return any(_has_return(item) for f in node._fields
               if isinstance(value := getattr(node, f, None), list)
               for item in value
               if isinstance(item, (ast.stmt, ast.excepthandler)))


def _ends(stmts: list) -> bool:
    """Whether every path through ``stmts`` ends in a return."""
    if not stmts:
        return False
    last = stmts[-1]
    return (isinstance(last, ast.Return)
            or (isinstance(last, ast.If) and _ends(last.body)
                and _ends(last.orelse)))


def _names(node, ctx) -> set[str]:
    return {n.id for n in _walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


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

    def __init__(self, globals_: dict, defs: _Defs):
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
        flat.body = self._block(flat.body, None, tail=False)
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
            if tail and isinstance(st, ast.If) and _has_return(st):
                return out + self._tail_if(st, rest, dest)
            if (tail or dest is not None) and _has_return(st):
                raise FlattenError(f"{_line(st)}: a return that does not "
                                   f"end its branch")
            out += self._statement(st, dest)
        if tail:
            raise FlattenError(f"{_line(stmts[-1]) if stmts else 'a helper'}"
                               f": a path that ends without a return")
        return out

    def _tail_if(self, st: ast.If, rest: list, dest: Optional[list]) -> list:
        # the statements after an if go into the branch that falls through
        body, orelse = st.body, st.orelse
        if _ends(body) and not _ends(orelse):
            orelse = orelse + rest
        elif _ends(orelse) and not _ends(body):
            body = body + rest
        elif not (_ends(body) and _ends(orelse)) or rest:
            raise FlattenError(f"{_line(st)}: a return that does not end "
                               f"its branch")
        pre, test = self._hoist(st.test)
        return pre + [ast.If(test, self._block(body, dest, True),
                             self._block(orelse, dest, True))]

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
        if isinstance(st, ast.Expr):
            if isinstance(st.value, ast.Constant):  # a docstring
                return []
            pre, value = self._hoist(st.value)
            return pre + ([] if isinstance(value, ast.Name)
                          else [ast.Expr(value)])
        if isinstance(st, ast.If):
            pre, test = self._hoist(st.test)
            return pre + [ast.If(test, self._block(st.body, dest, False),
                                 self._block(st.orelse, dest, False))]
        if self._has_helper(st):
            raise FlattenError(f"{_line(st)}: a {type(st).__name__} statement "
                               f"with a helper call is not handled")
        return [st]

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
        return pre + self._block(_copy(fdef.body, mapping), dest, tail=True)

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
