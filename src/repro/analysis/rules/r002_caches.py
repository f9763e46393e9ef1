"""R002 — module-level memo caches must be registered for clearing.

``clear_shared_caches()`` (``repro.core.two_level``) is the single
switch tests and long-lived processes use to drop every cross-instance
cache.  A module-level memo dict or ``lru_cache`` that is *not* wired
through ``register_cache_clearer`` silently survives that call, which
is exactly how the planner-cache staleness bugs of PR 1 started.  The
rule finds module-level cache-named dict bindings and ``lru_cache``
functions in planner/kernel code and demands each one be cleared by a
registered clearer (or by ``clear_shared_caches`` itself in the module
that owns the registry).

Pool/executor singletons are caches too (of provisioned worker
processes): a module-level binding whose
name says pool/executor and whose value is a lazy slot (``None``), a
registry dict, or a pool-factory call must be *referenced* by a
registered clearer — reference rather than ``.clear()`` because pool
teardown is ``close()``/``shutdown()``/reassignment, not dict
clearing.  ``repro.execution.pool`` is the motivating case: a warm
shared executor that survived ``clear_shared_caches()`` would keep
serving stale warm state to every later test.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set

from ..findings import Finding
from ..registry import Rule, in_packages, register
from ..symbols import leaf_name

CACHE_PACKAGES = ("core", "execution", "market", "mpi")

_CACHE_NAME_RE = re.compile(r"(?i)cache|memo")
_POOL_NAME_RE = re.compile(r"(?i)pool|executor")
_DICT_FACTORIES = frozenset(
    {"dict", "OrderedDict", "defaultdict",
     "WeakKeyDictionary", "WeakValueDictionary"}
)
_LRU_DECORATORS = frozenset({"lru_cache", "cache"})


def _is_poolish_value(node: ast.AST) -> bool:
    """A value that can hold live pool state at module level: a lazy
    ``None`` slot, a registry dict, or a pool-factory call.  Plain
    scalar constants (sizes, pids) are configuration, not state."""
    if isinstance(node, ast.Constant):
        return node.value is None
    if _is_dictish(node):
        return True
    return isinstance(node, ast.Call) and bool(
        _POOL_NAME_RE.search(leaf_name(node.func))
    )


def _is_dictish(node: ast.AST) -> bool:
    if isinstance(node, ast.Dict):
        return True
    return (
        isinstance(node, ast.Call) and leaf_name(node.func) in _DICT_FACTORIES
    )


def _is_lru_decorated(fn: ast.AST) -> bool:
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if leaf_name(target) in _LRU_DECORATORS:
            return True
    return False


@register
class RegisteredCaches(Rule):
    id = "R002"
    title = "module-level memo caches wired through register_cache_clearer"
    description = (
        "A module-level dict whose name says cache/memo (or an lru_cache "
        "function) in core/execution/market/mpi must be cleared by a "
        "function passed to repro.core.two_level.register_cache_clearer, "
        "so clear_shared_caches() stays the complete switch. The module "
        "defining clear_shared_caches itself is the registry owner. "
        "Module-level pool/executor singletons (None slots, registry "
        "dicts, pool-factory calls) must likewise be referenced by a "
        "registered clearer — warm workers are a shared cache of "
        "provisioned state."
    )

    def applies(self, relpath: str) -> bool:
        return in_packages(relpath, CACHE_PACKAGES)

    def check(self, unit, ctx) -> Iterator[Finding]:
        caches: List[ast.AST] = []  # (assign node, name) pairs below
        cache_names: List[str] = []
        pools: List[ast.AST] = []  # pool/executor singleton bindings
        pool_names: List[str] = []
        lru_fns: List[ast.FunctionDef] = []
        registered: Set[str] = set()  # names passed to register_cache_clearer
        registered_attrs: Set[tuple] = set()  # (base, attr) e.g. (f, cache_clear)
        clearers: dict = {}  # function name -> set of names it .clear()s
        referenced: dict = {}  # function name -> every Name it mentions
        owns_registry = False

        for node in unit.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if _is_dictish(value) and _CACHE_NAME_RE.search(target.id):
                        caches.append(node)
                        cache_names.append(target.id)
                    elif _POOL_NAME_RE.search(target.id) and _is_poolish_value(
                        value
                    ):
                        pools.append(node)
                        pool_names.append(target.id)
            elif isinstance(node, ast.FunctionDef):
                if node.name == "clear_shared_caches":
                    owns_registry = True
                if _is_lru_decorated(node):
                    lru_fns.append(node)
                cleared = set()
                names = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "clear"
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        cleared.add(sub.func.value.id)
                clearers[node.name] = cleared
                referenced[node.name] = names
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                if leaf_name(call.func) == "register_cache_clearer":
                    for arg in call.args:
                        if isinstance(arg, ast.Name):
                            registered.add(arg.id)
                        elif isinstance(arg, ast.Attribute) and isinstance(
                            arg.value, ast.Name
                        ):
                            registered_attrs.add((arg.value.id, arg.attr))

        # A clearer counts when it is registered, or when the module owns
        # the registry and clear_shared_caches calls it / clears directly.
        effective = set(registered)
        if owns_registry:
            effective.add("clear_shared_caches")
        cleared_names: Set[str] = set()
        touched_names: Set[str] = set()
        for fn_name in effective:
            cleared_names.update(clearers.get(fn_name, set()))
            touched_names.update(referenced.get(fn_name, set()))

        for node, name in zip(caches, cache_names):
            if name not in cleared_names:
                yield self.finding(
                    unit, node.lineno, node.col_offset,
                    f"module-level cache {name!r} is not cleared by any "
                    "clearer registered via register_cache_clearer; "
                    "clear_shared_caches() would miss it",
                )
        for node, name in zip(pools, pool_names):
            # Teardown for a pool is close()/shutdown()/reassignment, so
            # any reference inside a registered clearer satisfies the
            # rule (a dict .clear() reference counts too, via Name).
            if name not in touched_names:
                yield self.finding(
                    unit, node.lineno, node.col_offset,
                    f"module-level pool/executor singleton {name!r} is "
                    "not touched by any clearer registered via "
                    "register_cache_clearer; clear_shared_caches() would "
                    "leave its workers/segments warm",
                )
        for fn in lru_fns:
            if (fn.name, "cache_clear") not in registered_attrs:
                yield self.finding(
                    unit, fn.lineno, fn.col_offset,
                    f"lru_cache on {fn.name!r} is a module-level memo; "
                    f"register_cache_clearer({fn.name}.cache_clear) so "
                    "clear_shared_caches() drops it",
                )
