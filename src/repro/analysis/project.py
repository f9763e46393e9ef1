"""Whole-program import/symbol graph and call graph for reprolint.

Built once per lint run from every parsed module, then handed to rules
through :class:`~.engine.LintContext`: project-scope rules (R007
ledger-audit coverage, R001 seed lineage) traverse it directly, and
the escape analysis and the summary fixpoint are built on top of it.

Resolution is deliberately best-effort and *under*-approximate: a call
the resolver cannot attribute (dynamic dispatch, higher-order plumbing)
simply produces no edge.  Rules built on the graph must therefore be
phrased so that missing edges cause missed findings, never false
positives — the same conservatism contract as the entropy taint of
:mod:`.dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .symbols import FunctionInfo, ModuleSymbols, extract_symbols

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ModuleUnit

FuncKey = Tuple[str, str]  # (module, qualname)

#: Bound on import re-export hops (`from .audit import f` chains).
_MAX_REEXPORT_HOPS = 8


@dataclass
class ProjectGraph:
    """Import graph + symbol tables + call graph over one file set."""

    modules: Dict[str, ModuleSymbols] = field(default_factory=dict)
    by_relpath: Dict[str, ModuleSymbols] = field(default_factory=dict)
    functions: Dict[FuncKey, FunctionInfo] = field(default_factory=dict)
    call_edges: Dict[FuncKey, Set[FuncKey]] = field(default_factory=dict)
    callers: Dict[FuncKey, Set[FuncKey]] = field(default_factory=dict)
    import_edges: Dict[str, Set[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, units: Sequence["ModuleUnit"]) -> "ProjectGraph":
        graph = cls()
        for unit in units:
            syms = extract_symbols(unit)
            # Last writer wins on module-name collisions (shadowed
            # fixtures); relpath lookup stays exact either way.
            graph.modules[syms.module] = syms
            graph.by_relpath[syms.relpath] = syms
        for syms in graph.modules.values():
            for info in syms.functions.values():
                graph.functions[info.key] = info
        for syms in graph.modules.values():
            targets: Set[str] = set()
            for dotted in syms.imports.values():
                mod = graph._containing_module(dotted)
                if mod and mod != syms.module:
                    targets.add(mod)
            graph.import_edges[syms.module] = targets
        for info in graph.functions.values():
            edges: Set[FuncKey] = set()
            for call in info.calls:
                callee = graph.resolve_call(info, call.name)
                if callee is not None:
                    edges.add(callee.key)
            graph.call_edges[info.key] = edges
            for callee_key in edges:
                graph.callers.setdefault(callee_key, set()).add(info.key)
        return graph

    def _containing_module(self, dotted: str) -> Optional[str]:
        """Longest known module that is a prefix of ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            cand = ".".join(parts[:cut])
            if cand in self.modules:
                return cand
        return None

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_function(self, dotted: str) -> Optional[FunctionInfo]:
        """Function for an *absolute* dotted name, following re-exports."""
        for _ in range(_MAX_REEXPORT_HOPS):
            mod = self._containing_module(dotted)
            if mod is None:
                return None
            rest = dotted[len(mod) :].lstrip(".")
            if not rest:
                return None  # names a module, not a function
            syms = self.modules[mod]
            if rest in syms.functions:
                return syms.functions[rest]
            # Re-export: ``from .audit import f`` makes ``pkg.f`` an
            # alias for ``pkg.audit.f``; follow one hop and retry.
            head, _, tail = rest.partition(".")
            if head in syms.imports:
                target = syms.imports[head]
                dotted = f"{target}.{tail}" if tail else target
                continue
            return None
        return None

    def resolve_call(
        self, caller: FunctionInfo, name: str
    ) -> Optional[FunctionInfo]:
        """Callee of ``name`` as written inside ``caller``, if known."""
        syms = self.modules.get(caller.module)
        if syms is None:
            return None
        if name.startswith("self.") or name.startswith("cls."):
            # Same-class method call: swap the receiver for the class
            # qualname prefix of the calling method.
            prefix, _, _ = caller.qualname.rpartition(".")
            if prefix:
                method = f"{prefix}.{name.split('.', 1)[1]}"
                if method in syms.functions:
                    return syms.functions[method]
            return None
        absolute = syms.resolve_local(name)
        if absolute is None:
            return None
        return self.resolve_function(absolute)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def imports_module(self, importer: str, imported: str) -> bool:
        return imported in self.import_edges.get(importer, set())

    def reaching(self, sinks: Iterable[FuncKey]) -> Set[FuncKey]:
        """Every function from which some sink is reachable via calls.

        Includes the sinks themselves; computed by reverse BFS over the
        call graph, so a helper that *indirectly* funnels into a sink
        (``replay_batch → observe_result → audit_run_result``) is
        covered without any per-rule traversal code.
        """
        out: Set[FuncKey] = set()
        frontier: List[FuncKey] = [s for s in sinks]
        while frontier:
            key = frontier.pop()
            if key in out:
                continue
            out.add(key)
            frontier.extend(self.callers.get(key, ()))
        return out

    # ------------------------------------------------------------------
    # condensation
    # ------------------------------------------------------------------
    def sccs(self) -> Tuple[List[List[FuncKey]], Dict[FuncKey, int]]:
        """Strongly connected components of the call graph.

        Returns ``(components, component_of)`` where ``components`` is
        in **reverse topological order** — every call edge leaving a
        component points at an *earlier* entry in the list, so a single
        forward sweep sees callees before callers.  This is the
        evaluation order of the summary fixpoint (:mod:`.summaries`):
        acyclic chains need exactly one visit per function, and only
        genuinely mutually-recursive groups iterate.

        Tarjan's algorithm, made iterative (an explicit work stack
        instead of recursion) so pathological call chains cannot hit the
        interpreter recursion limit.  Nodes are visited in sorted key
        order, which makes the component order — and therefore the
        content keys derived from it — deterministic across runs.
        """
        index: Dict[FuncKey, int] = {}
        low: Dict[FuncKey, int] = {}
        on_stack: Set[FuncKey] = set()
        stack: List[FuncKey] = []
        components: List[List[FuncKey]] = []
        component_of: Dict[FuncKey, int] = {}
        counter = [0]

        def strongconnect(root: FuncKey) -> None:
            # (node, iterator over remaining successors) work frames
            work: List[Tuple[FuncKey, Iterator[FuncKey]]] = []
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(sorted(self.call_edges.get(root, ())))))
            while work:
                node, succs = work[-1]
                advanced = False
                for succ in succs:
                    if succ not in self.functions:
                        continue  # edge into a module we did not lint
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(sorted(self.call_edges.get(succ, ()))))
                        )
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: List[FuncKey] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    component.sort()
                    for member in component:
                        component_of[member] = len(components)
                    components.append(component)

        for key in sorted(self.functions):
            if key not in index:
                strongconnect(key)
        return components, component_of
