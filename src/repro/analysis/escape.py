"""Interprocedural escape analysis for the process boundary.

PR 8 routed every parallel consumer through the warm
:class:`~repro.execution.pool.WorkerPool`; the repo's bit-identity
contract now depends on what crosses the fork/spawn boundary at each
``pool.submit``/``run_ordered`` call site: the submitted callable, its
argument payload, and — invisibly — every module global the callable's
transitive callees read or write inside the worker.  This module
computes those facts once per lint run, on top of the existing
:class:`~.project.ProjectGraph`:

* **boundary sites** — calls that move a function into another process
  (``<pool>.submit(fn, ...)``, ``<pool>.run_ordered(fn, payloads)``,
  ``<pool>.map(fn, ...)``, and ``initializer=fn`` keywords of executor
  constructions), with the submitted callable resolved through the
  call graph;
* **the worker-reachable closure** — forward BFS from the resolved
  entry functions over call edges: every function that can execute
  inside a worker process;
* **per-function global-write facts** — module-level names a function
  rebinds (through ``global``) or mutates in place (subscript stores,
  ``.append``/``.pop``/``.update``/... on a module-level binding);
* **per-module sanction facts** — names referenced, transitively, by
  the functions a module registers through ``register_cache_clearer``
  (or by ``clear_shared_caches`` where the module owns the registry):
  those are *declared* shared state with a managed lifecycle, the
  sanctioned pattern R010 must not flag.

Like the graph itself, everything here is deliberately
*under*-approximate: an unresolvable submit target or dynamic mutation
produces no facts, so rules built on it can miss findings but never
invent them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .project import FuncKey, ProjectGraph
from .symbols import FunctionInfo, ModuleSymbols, dotted_name

#: Receiver names that mark a ``.submit``-style call as a process
#: boundary (the same naming convention R002 uses for pool singletons).
_POOLISH_RECEIVER_RE = re.compile(r"(?i)pool|executor")

#: Attribute calls on a poolish receiver that ship their first argument
#: into worker processes.
BOUNDARY_METHODS = frozenset({"submit", "run_ordered", "map"})

#: In-place mutators: an attribute call ``X.<attr>(...)`` on a
#: module-level binding writes worker-side state that never propagates
#: back to the parent.
_MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "remove", "discard", "pop",
     "popitem", "clear", "update", "setdefault", "move_to_end"}
)


@dataclass(frozen=True)
class BoundarySite:
    """One call site that moves a callable across the process boundary."""

    module: str
    relpath: str
    lineno: int
    col: int
    kind: str  # "submit" | "run_ordered" | "map" | "initializer"
    entry: FuncKey  # the resolved worker-side callable


@dataclass(frozen=True)
class GlobalWrite:
    """One worker-visible write to a module-level name."""

    name: str
    lineno: int
    col: int
    kind: str  # "rebind" (global stmt + assignment) | "mutate" (in place)


def walk_shallow(fn_node: ast.AST):
    """Walk a function body without descending into nested defs.

    Nested functions and classes get their own :class:`FunctionInfo`
    (the symbol extractor flattens them), so attributing their
    statements to the enclosing function would double-report facts.
    """
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _local_names(fn_node: ast.AST, globals_declared: Set[str]) -> Set[str]:
    """Names bound locally in ``fn_node`` (params, assignments, loops).

    A module-level name shadowed by a local binding is not a global
    write target; ``global``-declared names are excluded from locals.
    """
    locals_: Set[str] = set()
    args = fn_node.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        locals_.add(a.arg)
    if args.vararg:
        locals_.add(args.vararg.arg)
    if args.kwarg:
        locals_.add(args.kwarg.arg)
    for node in walk_shallow(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            locals_.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            locals_.add(node.name)
        elif isinstance(node, (ast.withitem,)) and node.optional_vars:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    locals_.add(sub.id)
    return locals_ - globals_declared


def function_global_writes(
    info: FunctionInfo, syms: ModuleSymbols
) -> List[GlobalWrite]:
    """Module-level names ``info`` rebinds or mutates in place."""
    node = info.node
    declared: Set[str] = set()
    for sub in walk_shallow(node):
        if isinstance(sub, ast.Global):
            declared.update(sub.names)
    locals_ = _local_names(node, declared)
    module_level = set(syms.module_names)
    writes: List[GlobalWrite] = []
    seen: Set[Tuple[str, int]] = set()

    def emit(name: str, n: ast.AST, kind: str) -> None:
        key = (name, n.lineno)
        if key not in seen:
            seen.add(key)
            writes.append(GlobalWrite(name, n.lineno, n.col_offset, kind))

    for sub in walk_shallow(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            if sub.id in declared:
                emit(sub.id, sub, "rebind")
        elif isinstance(sub, ast.Subscript) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            base = sub.value
            if (
                isinstance(base, ast.Name)
                and base.id in module_level
                and base.id not in locals_
            ):
                emit(base.id, sub, "mutate")
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr not in _MUTATING_METHODS:
                continue
            base = sub.func.value
            if (
                isinstance(base, ast.Name)
                and base.id in module_level
                and base.id not in locals_
            ):
                emit(base.id, sub, "mutate")
    return writes


# ----------------------------------------------------------------------
# registered-clearer sanction facts
# ----------------------------------------------------------------------

def registered_clearers(syms: ModuleSymbols) -> Set[str]:
    """Function names this module registers via ``register_cache_clearer``.

    ``register_cache_clearer(f.cache_clear)`` registers ``f``; a module
    defining ``clear_shared_caches`` owns the registry and that function
    counts as registered (same convention as R002).
    """
    out: Set[str] = set()
    if "clear_shared_caches" in syms.functions:
        out.add("clear_shared_caches")
    tree = syms.unit.tree
    for node in tree.body:
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        name = dotted_name(call.func)
        if name.rsplit(".", 1)[-1] != "register_cache_clearer":
            continue
        for arg in call.args:
            if isinstance(arg, ast.Name):
                out.add(arg.id)
            elif isinstance(arg, ast.Attribute) and isinstance(
                arg.value, ast.Name
            ):
                out.add(arg.value.id)
    return out


def clearer_sanctioned_names(syms: ModuleSymbols) -> Set[str]:
    """Every name reachable from the module's registered clearers.

    A clearer may delegate (``_drop_attached`` → ``_evict_superseded``),
    so the reference set is closed transitively over same-module calls:
    a module global touched anywhere in that closure has a managed
    lifecycle and is sanctioned for R010.
    """
    frontier = [f for f in registered_clearers(syms) if f in syms.functions]
    visited: Set[str] = set()
    names: Set[str] = set()
    while frontier:
        fn = frontier.pop()
        if fn in visited:
            continue
        visited.add(fn)
        info = syms.functions[fn]
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
        for call in info.calls:
            head = call.name.split(".", 1)[0]
            if call.name in syms.functions:
                frontier.append(call.name)
            elif head in syms.functions:
                frontier.append(head)
    return names


# ----------------------------------------------------------------------
# the analysis proper
# ----------------------------------------------------------------------

@dataclass
class EscapeAnalysis:
    """Boundary sites + worker-reachable closure over one project graph."""

    graph: ProjectGraph
    sites: List[BoundarySite] = field(default_factory=list)
    entries: Set[FuncKey] = field(default_factory=set)
    worker_reachable: Set[FuncKey] = field(default_factory=set)
    #: For messages: one representative submitted entry per reachable fn.
    entry_of: Dict[FuncKey, FuncKey] = field(default_factory=dict)
    _writes_memo: Dict[FuncKey, List[GlobalWrite]] = field(default_factory=dict)
    _sanction_memo: Dict[str, Set[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: ProjectGraph) -> "EscapeAnalysis":
        analysis = cls(graph=graph)
        for info in graph.functions.values():
            for site in _boundary_sites_in(info, graph):
                analysis.sites.append(site)
                analysis.entries.add(site.entry)
        # Forward BFS: everything the submitted entries can call runs
        # inside a worker process.
        frontier = sorted(analysis.entries)
        for key in frontier:
            analysis.entry_of.setdefault(key, key)
        while frontier:
            key = frontier.pop()
            if key in analysis.worker_reachable:
                continue
            analysis.worker_reachable.add(key)
            origin = analysis.entry_of[key]
            for callee in sorted(graph.call_edges.get(key, ())):
                analysis.entry_of.setdefault(callee, origin)
                if callee not in analysis.worker_reachable:
                    frontier.append(callee)
        return analysis

    # ------------------------------------------------------------------
    def global_writes(self, key: FuncKey) -> List[GlobalWrite]:
        """Worker-visible module-global writes of one function (memo)."""
        if key not in self._writes_memo:
            info = self.graph.functions.get(key)
            syms = self.graph.modules.get(key[0]) if info else None
            self._writes_memo[key] = (
                function_global_writes(info, syms) if info and syms else []
            )
        return self._writes_memo[key]

    def sanctioned_names(self, module: str) -> Set[str]:
        """Clearer-sanctioned module-global names of ``module`` (memo)."""
        if module not in self._sanction_memo:
            syms = self.graph.modules.get(module)
            self._sanction_memo[module] = (
                clearer_sanctioned_names(syms) if syms else set()
            )
        return self._sanction_memo[module]

    def written_globals(self, module: str) -> Set[str]:
        """Module-level names of ``module`` written by *any* function.

        This is process-scoped mutable state: R001 treats reads of these
        names inside seed derivations as entropy (a counter bumped per
        call seeds differently per process), while never-written module
        constants stay clean.
        """
        syms = self.graph.modules.get(module)
        if syms is None:
            return set()
        out: Set[str] = set()
        for info in syms.functions.values():
            for write in function_global_writes(info, syms):
                out.add(write.name)
        return out

    def entry_name(self, key: FuncKey) -> str:
        """Human-readable worker-entry attribution for messages."""
        origin = self.entry_of.get(key, key)
        return f"{origin[0]}.{origin[1]}"


def _boundary_sites_in(
    info: FunctionInfo, graph: ProjectGraph
) -> List[BoundarySite]:
    syms = graph.modules.get(info.module)
    if syms is None:
        return []
    sites: List[BoundarySite] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        # <pool>.submit(fn, ...) / .run_ordered(fn, payloads) / .map(fn, xs)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in BOUNDARY_METHODS
            and node.args
        ):
            receiver = node.func.value
            base = dotted_name(receiver).rsplit(".", 1)[-1]
            if not _POOLISH_RECEIVER_RE.search(base or ""):
                continue
            target = dotted_name(node.args[0])
            callee = graph.resolve_call(info, target) if target else None
            if callee is not None:
                sites.append(BoundarySite(
                    module=info.module, relpath=syms.relpath,
                    lineno=node.lineno, col=node.col_offset,
                    kind=node.func.attr, entry=callee.key,
                ))
        # ProcessPoolExecutor(..., initializer=fn): fn runs once in
        # every worker before any task.
        for kw in node.keywords:
            if kw.arg != "initializer":
                continue
            target = dotted_name(kw.value)
            callee = graph.resolve_call(info, target) if target else None
            if callee is not None:
                sites.append(BoundarySite(
                    module=info.module, relpath=syms.relpath,
                    lineno=node.lineno, col=node.col_offset,
                    kind="initializer", entry=callee.key,
                ))
    return sites
