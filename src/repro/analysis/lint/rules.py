"""The REP rule catalog: simulator-specific determinism & concurrency rules.

Each rule encodes one way the repository's determinism contract (bit-identical
results across ``serial``/``process-pool`` backends, iteration reuse on and
off) or its lock discipline has been — or could be — silently broken:

========  =======================================================================
REP001    Wall-clock read (``time.time``, ``datetime.now``, ``perf_counter``)
          outside the allowlisted timing/bench modules.  Simulation logic must
          run on the simulated clock; host time leaking into results makes two
          runs of the same trace disagree.
REP002    Unseeded randomness: module-level ``random.*`` / ``numpy.random.*``
          calls (including argument-less ``default_rng()``) instead of a seeded
          ``Generator``/``Random`` instance threaded from configuration.
REP003    Nondeterministic iteration order: iterating (or materializing) a
          ``set``, or consuming ``os.listdir`` / ``glob.glob`` /
          ``Path.iterdir``-style directory listings without ``sorted()``.
REP004    ``id()`` used in a key position — cache keys, fingerprints, dict/set
          membership, heap tie-breakers.  Object identity varies across runs
          and processes, and ids are reused after garbage collection.
REP005    Unpicklable payloads (lambdas, functions/classes defined inside a
          function) passed into ``multiprocessing`` entry points or pipe
          ``send``/``put`` calls — the worker crashes at depickling time, or
          worse, silently diverges under the ``fork`` start method.
REP006    Lock discipline: reads/writes of attributes a class declares
          lock-guarded (``_LOCK_GUARDED = ("_entries", ...)``) outside a
          ``with self._lock:`` block, in a method not documented as lock-held.
========  =======================================================================

Rules are plain functions over a :class:`~repro.analysis.lint.engine.ModuleContext`
registered in :data:`RULES`; :func:`register_rule` adds project-local ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleContext

__all__ = ["Rule", "RULES", "register_rule", "available_rules",
           "TIMING_ALLOWLIST_MODULES"]

#: Modules whose *purpose* is host wall-clock measurement: the simulation-time
#: tracker (measures how long simulating takes, Section V of the paper) and
#: the performance harness.  REP001 does not apply inside them.
TIMING_ALLOWLIST_MODULES = frozenset({
    "repro.core.simtime",
    "repro.bench",
})


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    summary: str
    check: Callable[[ModuleContext], Iterator[Finding]]


RULES: Dict[str, Rule] = {}


def register_rule(code: str, name: str, summary: str,
                  check: Callable[[ModuleContext], Iterator[Finding]]) -> Rule:
    """Register a rule under its code (``REPnnn``); overwriting is an error."""
    code = code.upper()
    if code in RULES:
        raise ValueError(f"rule code {code} is already registered")
    rule = Rule(code=code, name=name, summary=summary, check=check)
    RULES[code] = rule
    return rule


def available_rules() -> List[Rule]:
    """All registered rules in code order."""
    return [RULES[code] for code in sorted(RULES)]


def _finding(context: ModuleContext, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(path=context.display_path, line=node.lineno,
                   col=node.col_offset + 1, code=code, message=message)


# -- import resolution (shared by several rules) ---------------------------------


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted origins their imports bind.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only top-level
    and function-local imports are collected (wherever they appear).
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _dotted_name(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]``; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.insert(0, node.id)
        return parts
    return None


def _resolve_call(func: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to its dotted origin using the import map.

    ``t.perf_counter()`` with ``import time as t`` resolves to
    ``time.perf_counter``; ``datetime.now()`` with ``from datetime import
    datetime`` resolves to ``datetime.datetime.now``.
    """
    parts = _dotted_name(func)
    if not parts:
        return None
    origin = imports.get(parts[0])
    if origin is None:
        return None
    return ".".join([origin] + parts[1:])


# -- REP001: wall-clock reads ----------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "time.process_time": "time.process_time()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


def check_rep001(context: ModuleContext) -> Iterator[Finding]:
    if context.module_name in TIMING_ALLOWLIST_MODULES:
        return
    imports = _import_map(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = _resolve_call(node.func, imports)
        if resolved in _WALL_CLOCK_CALLS:
            yield _finding(
                context, node, "REP001",
                f"wall-clock read {_WALL_CLOCK_CALLS[resolved]} in simulation "
                f"logic; simulated behaviour must depend only on the simulated "
                f"clock (timing/bench modules belong on the allowlist)")


# -- REP002: unseeded randomness -------------------------------------------------

#: numpy.random entry points that *construct* seedable generators.
_SEEDED_CONSTRUCTORS = {"numpy.random.default_rng", "numpy.random.Generator",
                        "numpy.random.SeedSequence", "numpy.random.RandomState",
                        "random.Random", "random.SystemRandom"}


def check_rep002(context: ModuleContext) -> Iterator[Finding]:
    imports = _import_map(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = _resolve_call(node.func, imports)
        if resolved is None:
            continue
        if resolved in _SEEDED_CONSTRUCTORS:
            # Seedable constructor — but only when actually seeded.
            if not node.args and not node.keywords:
                yield _finding(
                    context, node, "REP002",
                    f"{resolved}() without a seed draws OS entropy; thread a "
                    f"seed from the run configuration")
            continue
        if resolved.startswith("random.") or resolved.startswith("numpy.random."):
            yield _finding(
                context, node, "REP002",
                f"module-level randomness {resolved}() is process-globally "
                f"seeded (or unseeded); use a seeded Generator/Random "
                f"instance threaded from the run configuration")


# -- REP003: nondeterministic iteration order ------------------------------------

_LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
#: Methods on Path-like objects returning directory entries in OS order.
_LISTING_METHODS = {"iterdir", "glob", "rglob"}
_ORDER_SINKS = {"sorted", "min", "max", "sum", "len", "frozenset"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _set_typed_names(scope: ast.AST) -> Set[str]:
    """Names in ``scope`` only ever assigned set-valued expressions.

    Deliberately shallow (no dataflow): a name qualifies when every plain
    assignment to it in the scope binds a set literal/comprehension or a
    ``set(...)``/``frozenset(...)`` call, and it is never rebound by a loop
    or ``with`` target.
    """
    set_bound: Set[str] = set()
    otherwise_bound: Set[str] = set()
    for node in _scope_nodes(scope):
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.withitem,)) and node.optional_vars is not None:
            targets = [node.optional_vars]
        for target in targets:
            for name_node in ast.walk(target):
                if not isinstance(name_node, ast.Name):
                    continue
                if value is not None and _is_set_expr(value):
                    set_bound.add(name_node.id)
                else:
                    otherwise_bound.add(name_node.id)
    return set_bound - otherwise_bound


def _consumed_ordered(context: ModuleContext, node: ast.AST) -> bool:
    """Whether a listing call's result flows into an order-restoring or
    order-insensitive sink — directly (``sorted(os.listdir(p))``) or through
    a comprehension (``sorted(p for p in path.rglob("*.py") if ...)``)."""
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.comprehension, ast.GeneratorExp,
                                 ast.ListComp)):
            continue
        return (isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id in _ORDER_SINKS)
    return False


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes owned by a scope, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def check_rep003(context: ModuleContext) -> Iterator[Finding]:
    imports = _import_map(context.tree)
    scopes = [context.tree] + [n for n in ast.walk(context.tree)
                               if isinstance(n, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))]
    set_names_by_scope = {scope: _set_typed_names(scope) for scope in scopes}

    def is_set_valued(scope: ast.AST, node: ast.AST) -> bool:
        if _is_set_expr(node):
            return True
        return (isinstance(node, ast.Name)
                and node.id in set_names_by_scope.get(scope, ()))

    for scope in scopes:
        for node in _scope_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_valued(scope, node.iter):
                    yield _finding(
                        context, node.iter, "REP003",
                        "iterating a set: iteration order depends on hash "
                        "seeding and insertion history; iterate a sorted() "
                        "or insertion-ordered container instead")
            elif isinstance(node, ast.comprehension):
                if is_set_valued(scope, node.iter):
                    yield _finding(
                        context, node.iter, "REP003",
                        "comprehension over a set: iteration order depends "
                        "on hash seeding and insertion history; sort first")
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Name)
                        and node.func.id in ("list", "tuple")
                        and len(node.args) == 1
                        and is_set_valued(scope, node.args[0])):
                    yield _finding(
                        context, node, "REP003",
                        f"{node.func.id}() over a set produces a "
                        f"nondeterministically ordered sequence; use sorted()")
                    continue
                resolved = _resolve_call(node.func, imports)
                is_listing = resolved in _LISTING_CALLS or (
                    resolved is None and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _LISTING_METHODS)
                if is_listing and not _consumed_ordered(context, node):
                    what = resolved or f".{node.func.attr}()"
                    yield _finding(
                        context, node, "REP003",
                        f"directory listing {what} is consumed unsorted; the "
                        f"OS returns entries in arbitrary order — wrap in "
                        f"sorted()")


# -- REP004: object identity in key positions ------------------------------------

_KEY_METHODS = {"get", "pop", "setdefault", "add", "discard", "remove",
                "__contains__", "index", "count"}


def _id_key_context(context: ModuleContext, node: ast.Call) -> Optional[str]:
    """Describe the key position an ``id()`` call occupies, if any."""
    child = node
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, ast.Subscript) and _contains(ancestor.slice, child):
            return "a subscript key"
        if isinstance(ancestor, ast.Dict) and any(
                key is not None and _contains(key, child) for key in ancestor.keys):
            return "a dict-literal key"
        if isinstance(ancestor, (ast.Set, ast.SetComp)):
            return "a set member"
        if isinstance(ancestor, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in ancestor.ops):
            return "a membership test"
        if isinstance(ancestor, ast.Call):
            in_args = any(_contains(arg, child) for arg in ancestor.args)
            if in_args and isinstance(ancestor.func, ast.Attribute) \
                    and ancestor.func.attr in _KEY_METHODS:
                return f"an argument of .{ancestor.func.attr}()"
            if in_args and isinstance(ancestor.func, ast.Attribute) \
                    and ancestor.func.attr in ("heappush", "heappushpop"):
                return "a heap entry"
            if in_args and isinstance(ancestor.func, ast.Name) \
                    and ancestor.func.id in ("hash",):
                return "a hash input"
        if isinstance(ancestor, ast.Tuple):
            child = ancestor
            continue
        child = ancestor
    return None


def _contains(tree: ast.AST, node: ast.AST) -> bool:
    return any(candidate is node for candidate in ast.walk(tree))


def check_rep004(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id" and len(node.args) == 1):
            continue
        where = _id_key_context(context, node)
        if where is not None:
            yield _finding(
                context, node, "REP004",
                f"id() used as {where}: object identity differs across runs "
                f"and processes and is reused after garbage collection — key "
                f"by a stable identifier (or by the object itself)")


# -- REP005: unpicklable payloads into process boundaries ------------------------

_BOUNDARY_METHODS = {"send", "put", "put_nowait", "apply", "apply_async",
                     "map", "map_async", "imap", "imap_unordered", "starmap",
                     "starmap_async", "submit"}
_BOUNDARY_CONSTRUCTORS = {"Process"}


def _local_defs(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names of lambdas and of functions/classes defined inside a function.

    Returns ``(lambda_names, nested_def_names)``.  Both are unpicklable: the
    pickle protocol serializes functions and classes by qualified name, which
    a closure or local definition does not have.
    """
    lambda_names: Set[str] = set()
    nested: Set[str] = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lambda_names.add(target.id)
            elif (node is not func
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))):
                nested.add(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lambda_names.add(target.id)
    return lambda_names, nested


def _is_boundary_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Attribute):
        return (node.func.attr in _BOUNDARY_METHODS
                or node.func.attr in _BOUNDARY_CONSTRUCTORS)
    return isinstance(node.func, ast.Name) and node.func.id in _BOUNDARY_CONSTRUCTORS


def check_rep005(context: ModuleContext) -> Iterator[Finding]:
    lambda_names, nested_defs = _local_defs(context.tree)
    for node in ast.walk(context.tree):
        if not (isinstance(node, ast.Call) and _is_boundary_call(node)):
            continue
        payloads = list(node.args) + [kw.value for kw in node.keywords]
        for payload in payloads:
            for sub in ast.walk(payload):
                if isinstance(sub, ast.Lambda):
                    yield _finding(
                        context, sub, "REP005",
                        "lambda passed across a process boundary: lambdas "
                        "are unpicklable — use a module-level function")
                elif isinstance(sub, ast.Name) and sub.id in lambda_names:
                    yield _finding(
                        context, sub, "REP005",
                        f"{sub.id!r} is bound to a lambda and crosses a "
                        f"process boundary: lambdas are unpicklable — use a "
                        f"module-level function")
                elif isinstance(sub, ast.Name) and sub.id in nested_defs:
                    yield _finding(
                        context, sub, "REP005",
                        f"{sub.id!r} is defined inside a function and crosses "
                        f"a process boundary: local functions/classes are "
                        f"unpicklable — move the definition to module level")


# -- REP006: lock discipline on declared guarded attributes ----------------------

#: Docstring markers exempting a method: it documents that its caller holds
#: the lock (the declared form of "a method documented as lock-held").
_LOCK_HELD_MARKERS = ("lock-held", "lock held", "caller holds", "caller must hold")


def _guarded_declaration(class_node: ast.ClassDef) -> Tuple[Set[str], str]:
    """The class's ``_LOCK_GUARDED`` attribute names and its lock attribute.

    ``_LOCK_GUARDED = ("_entries",)`` declares the guarded set;
    an optional ``_LOCK_NAME = "_cache_lock"`` overrides the default
    ``_lock`` attribute the guard blocks must hold.
    """
    guarded: Set[str] = set()
    lock_name = "_lock"
    for statement in class_node.body:
        if not isinstance(statement, ast.Assign):
            continue
        for target in statement.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "_LOCK_GUARDED" and isinstance(
                    statement.value, (ast.Tuple, ast.List, ast.Set)):
                guarded.update(e.value for e in statement.value.elts
                               if isinstance(e, ast.Constant)
                               and isinstance(e.value, str))
            elif target.id == "_LOCK_NAME" and isinstance(
                    statement.value, ast.Constant):
                lock_name = str(statement.value.value)
    return guarded, lock_name


def _holds_lock(with_node: ast.With, lock_name: str) -> bool:
    for item in with_node.items:
        expr = item.context_expr
        # Accept `with self._lock:` and `with self._lock, other:` forms, plus
        # acquire-style wrappers like `with self._lock.acquire_timeout():`.
        parts = _dotted_name(expr.func if isinstance(expr, ast.Call) else expr)
        if parts and len(parts) >= 2 and parts[0] == "self" and parts[1] == lock_name:
            return True
    return False


def _method_is_lock_held(method: ast.AST) -> bool:
    docstring = ast.get_docstring(method) or ""
    lowered = docstring.lower()
    return any(marker in lowered for marker in _LOCK_HELD_MARKERS)


def check_rep006(context: ModuleContext) -> Iterator[Finding]:
    for class_node in ast.walk(context.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        guarded, lock_name = _guarded_declaration(class_node)
        if not guarded:
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # __init__ publishes the object only after it returns, and a
            # documented lock-held method delegates the discipline upward.
            if method.name == "__init__" or _method_is_lock_held(method):
                continue
            yield from _check_method_body(context, class_node, method,
                                          guarded, lock_name)


def _check_method_body(context: ModuleContext, class_node: ast.ClassDef,
                       method: ast.AST, guarded: Set[str],
                       lock_name: str) -> Iterator[Finding]:
    def visit(node: ast.AST, locked: bool) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            locked = locked or _holds_lock(node, lock_name)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "self"
              and node.attr in guarded and not locked):
            yield _finding(
                context, node, "REP006",
                f"{class_node.name}.{node.attr} is declared lock-guarded but "
                f"accessed outside `with self.{lock_name}:` in "
                f"{method.name}() (document the method as lock-held if the "
                f"caller holds the lock)")
        for child in ast.iter_child_nodes(node):
            yield from visit(child, locked)

    for statement in method.body:
        yield from visit(statement, False)


register_rule("REP001", "wall-clock-read",
              "wall-clock reads in simulation logic", check_rep001)
register_rule("REP002", "unseeded-randomness",
              "module-level / unseeded random draws", check_rep002)
register_rule("REP003", "unordered-iteration",
              "set iteration and unsorted directory listings", check_rep003)
register_rule("REP004", "identity-key",
              "id() in cache keys, fingerprints or tie-breakers", check_rep004)
register_rule("REP005", "unpicklable-payload",
              "lambdas/local defs crossing process boundaries", check_rep005)
register_rule("REP006", "lock-discipline",
              "lock-guarded attributes touched without the lock", check_rep006)
